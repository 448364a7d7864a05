"""Fixed-step integration loops: the hot path of every simulation.

Each kernel advances the state over piecewise-constant input segments with
the exact zero-order-hold propagator and writes decimated samples into a
preallocated output array.

Kernels return -1 on success or the failing step index when the state
stops being finite (or, for the nonlinear kernel, when a DC voltage drops
below 0.5 p.u.).

Cost of the linear kernel: one n x n matrix-vector product per block of
recorded samples, the samples inside a block from matrix-matrix products;
it stays within 1e-10 of the largest state of one product per sample.

Cost per step of the nonlinear kernel: one n x n product ``phi @ x``, two
converter-count products each of ``pinj_sel`` and ``gam_v``, and a
per-converter correction on Python floats, so the numpy calls per step do
not grow with the number of converters. Its results are bit-identical to
the same Heun step written with numpy arrays throughout.
"""

from itertools import groupby
from math import isqrt

import numpy as np


def exact_linear(phi, c_seg, seg_bounds, x0, rec_steps, out):
    """Jump from knot to knot of ``union(rec_steps, seg_bounds)``.

    Over k steps of segment s, x <- phi^k x + (phi^{k-1} + ... + I) c_s.
    Both terms are blocks of the k-th power of the one-step augmented
    propagator ``[[phi, c_seg.T], [0, I]]``, computed once per distinct k.
    In a run of recorded intervals of one length in one segment, the first
    row of each block of b rows comes from that of the block before by the
    b-th power of the stride's power, the other rows from the row above.
    The state is checked for finiteness at the recorded samples only.
    """
    dim = phi.shape[0]
    step = np.eye(dim + c_seg.shape[0])
    step[:dim, :dim] = phi
    step[:dim, dim:] = c_seg.T
    powers = {}
    x = x0.copy()
    ri = 0
    if rec_steps[0] == 0:
        out[0] = x
        ri = 1
    knots = np.union1d(rec_steps, seg_bounds)
    segs = np.searchsorted(seg_bounds, knots[:-1], side="right") - 1
    # an interval that ends off the record grid ends at a segment bound, so
    # it makes a group of its own
    for (k, s, recorded), run in groupby(zip(np.diff(knots).tolist(), segs.tolist(),
                                             np.isin(knots[1:], rec_steps).tolist())):
        if k not in powers:
            pk = np.linalg.matrix_power(step, k)
            powers[k] = (np.ascontiguousarray(pk[:dim, :dim]), np.ascontiguousarray(pk[:dim, dim:].T))
        phi_k, c_k = powers[k]
        if not recorded:
            x = np.dot(phi_k, x) + c_k[s]
            continue
        n = len(list(run))
        rows = out[ri:ri + n]
        # a second pass, sample by sample, locates an abort: near overflow a
        # product by the b-th power, or one summed in another order, can
        # overflow a sample before or after the state does
        for b in (block_size(n, dim), 1):
            rows[0] = np.dot(phi_k, x) + c_k[s]
            phi_b, c_b = phi_k, c_k
            for _ in range(b - 1):
                phi_b, c_b = phi_b @ phi_k, c_k @ phi_b.T + c_b
            for j in range(b, n, b):
                rows[j] = np.dot(phi_b, rows[j - b]) + c_b[s]
            for r in range(1, b):
                fine = rows[r::b]
                np.matmul(rows[r - 1::b][:fine.shape[0]], phi_k.T, out=fine)
                fine += c_k[s]
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
