"""Fixed-step integration loops: the hot path of every simulation.

Each kernel advances the state over piecewise-constant input segments with
the exact zero-order-hold propagator and writes decimated samples into a
preallocated output array.

Kernels return -1 on success or the failing step index when the state
stops being finite (or, for the nonlinear kernel, when a DC voltage drops
below 0.5 p.u.).

Cost of the linear kernel: one n x n matrix-vector product per block of
recorded samples, the samples inside a block from matrix-matrix products;
it stays within 1e-10 of the largest state of one product per sample. The
powers of the one-step propagator it needs come from ``PhiPowers``, which
forms each once; what depends on the input costs O(log k) matrix-vector
products per segment and interval length k.

Cost per step of the nonlinear kernel: one n x n product ``phi @ x``, two
converter-count products each of ``pinj_sel`` and ``gam_v``, and a
per-converter correction on Python floats, so the numpy calls per step do
not grow with the number of converters. Its results are bit-identical to
the same Heun step written with numpy arrays throughout.
"""

from itertools import groupby
from math import isqrt

import numpy as np


class PhiPowers:
    """Powers of one propagator ``phi``, each formed at its first use.

    ``power(k, b)`` is ``(phi^k)^b``. A power of two is the square of its
    half, any other phi^k the product of those over the set bits of k,
    lowest first, so every entry depends on phi and its key alone, never on
    which calls came first (nor on which of two threads formed it).
    """

    def __init__(self, phi):
        self.phi = phi
        self._powers = {(1, 1): phi}

    def power(self, k, b=1):
        pk = self._powers.get((k, b))
        if pk is None:
            if b > 1:
                pk = np.linalg.matrix_power(self.power(k), b)
            elif k & (k - 1) == 0:
                pk = self.power(k // 2) @ self.power(k // 2)
            else:
                bits = [1 << i for i in range(k.bit_length()) if k >> i & 1]
                pk = self.power(bits[0])
                for bit in bits[1:]:
                    pk = pk @ self.power(bit)
            pk = self._powers.setdefault((k, b), pk)
        return pk

    def apply(self, k, x):
        """phi^k x from the powers of two, without forming phi^k."""
        for i in range(k.bit_length()):
            if k >> i & 1:
                x = np.dot(self.power(1 << i), x)
        return x

    def summed(self, k, c):
        """(phi^(k-1) + ... + phi + I) c, by doubling over the bits of k:
        S_(2j) c = S_j c + phi^j S_j c for j = 1, 2, 4, ..."""
        total, part = None, c
        for i in range(k.bit_length()):
            if k >> i & 1:
                total = part if total is None else np.dot(self.power(1 << i), total) + part
            if k >> (i + 1):
                part = part + np.dot(self.power(1 << i), part)
        return total


def exact_linear(powers, c_seg, seg_bounds, x0, rec_steps, out):
    """Jump from knot to knot of ``union(rec_steps, seg_bounds)``.

    ``powers`` is the ``PhiPowers`` of the one-step propagator phi. Over k
    steps of segment s, x <- phi^k x + S_k c_s with
    S_k = phi^(k-1) + ... + I; S_k c_s is formed once per call, segment and
    k. In a run of recorded intervals of one length in one segment, the
    first row of each block of b rows comes from that of the block before
    by ``powers.power(k, b)``, the other rows from the row above. The state
    is checked for finiteness at the recorded samples only.
    """
    dim = powers.phi.shape[0]
    sums = {}
    x = x0.copy()
    ri = 0
    if rec_steps[0] == 0:
        out[0] = x
        ri = 1
    knots = np.sort(np.concatenate([rec_steps, seg_bounds]))  # np.union1d hashes: 10x slower
    knots = knots[np.diff(knots, prepend=-1) > 0]
    segs = np.searchsorted(seg_bounds, knots[:-1], side="right") - 1
    # an interval that ends off the record grid ends at a segment bound, so
    # it makes a group of its own
    for (k, s, recorded), run in groupby(zip(np.diff(knots).tolist(), segs.tolist(),
                                             np.isin(knots[1:], rec_steps).tolist())):
        if (k, s) not in sums:
            sums[k, s] = powers.summed(k, c_seg[s])
        c_k = sums[k, s]
        if not recorded:
            x = powers.apply(k, x) + c_k
            continue
        n = len(list(run))
        rows = out[ri:ri + n]
        # only the stride of a run of samples is kept as a matrix: an
        # interval cut by an event is applied to the state alone
        phi_k = powers.power(k) if n > 1 else None
        # a second pass, sample by sample, locates an abort: near overflow a
        # product by the b-th power, or one summed in another order, can
        # overflow a sample before or after the state does
        for b in (block_size(n, dim), 1):
            rows[0] = (powers.apply(k, x) if phi_k is None else np.dot(phi_k, x)) + c_k
            if b < n:
                phi_b, c_b = powers.power(k, b), c_k
                for _ in range(b - 1):
                    c_b = np.dot(phi_k, c_b) + c_k
                for j in range(b, n, b):
                    rows[j] = np.dot(phi_b, rows[j - b]) + c_b
            for r in range(1, b):
                fine = rows[r::b]
                np.matmul(rows[r - 1::b][:fine.shape[0]], phi_k.T, out=fine)
                fine += c_k
            finite = np.isfinite(rows).all(axis=1)
            if finite.all():
                break
        else:
            return int(rec_steps[ri + finite.argmin()])
        x = rows[-1]
        ri += n
    return -1


def block_size(n_rec, dim):
    """Rows per block of a run of ``n_rec`` samples of ``dim`` states, about
    sqrt(4 n_rec / dim): it balances the n_rec / b matrix-vector products,
    about four times slower per flop than the fill, against the b - 1
    products that form the b-th power."""
    return max(1, min(n_rec, isqrt(4 * n_rec // dim)))


def etd2_nonlinear(phi, gam_v, c_seg, seg_bounds, x0, pinj_sel, cap_inv,
                   v_ref, v_nom, vdc, rec_steps, out):
    """Exact linear propagation, Heun treatment of the voltage correction.

    The correction h = cap_inv * p_inj * (1/v - 1/v_nom) (true minus
    nominal-voltage current injection) only enters the DC-voltage rows, so
    it is applied through ``gam_v``, the columns of gamma selected by the
    ``vdc`` slice. Per step: x* = phi x + c + gam_v h(x), then
    x+ = phi x + c + gam_v (h(x) + h(x*)) / 2, with one ``phi @ x``.

    h is evaluated per converter on Python floats, from ``x[vdc]`` and
    ``pinj_sel @ x``: on a handful of converters that is cheaper than a
    numpy call per elementwise operation, and it rounds identically.
    """
    conv = tuple(zip(cap_inv.tolist(), v_ref.tolist()))
    inv_nom = 1.0 / v_nom
    bounds = seg_bounds.tolist()
    recs = rec_steps.tolist() + [-1]
    x = x0.copy()
    lin, x_pred, g = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    h, p_inj = np.empty(len(conv)), np.empty(len(conv))
    ri = 0
    if recs[0] == 0:
        out[0] = x
        ri = 1
    for s in range(c_seg.shape[0]):
        c = c_seg[s]
        for step in range(bounds[s], bounds[s + 1]):
            h1 = []
            for (ci, vr), xv, p in zip(conv, x[vdc].tolist(), np.dot(pinj_sel, x, out=p_inj).tolist()):
                v = xv + vr
                if v < 0.5:  # false for NaN, which the finiteness check reports
                    return step
                h1.append(ci * p * (1.0 / v - inv_nom))
            np.dot(phi, x, out=lin)
            lin += c
            h[:] = h1
            np.dot(gam_v, h, out=g)
            np.add(lin, g, out=x_pred)
            h_mean = []
            for (ci, vr), xv, p, hv in zip(conv, x_pred[vdc].tolist(),
                                           np.dot(pinj_sel, x_pred, out=p_inj).tolist(), h1):
                v = xv + vr
                if v < 0.5:
                    return step
                h_mean.append(0.5 * (hv + ci * p * (1.0 / v - inv_nom)))
            h[:] = h_mean
            np.dot(gam_v, h, out=g)
            np.add(lin, g, out=x)
            if recs[ri] == step + 1:
                out[ri] = x
                ri += 1
                if not np.isfinite(x).all():
                    return step + 1
    return -1


KERNELS = {
    "exact_linear": exact_linear,
    "etd2_nonlinear": etd2_nonlinear,
}
