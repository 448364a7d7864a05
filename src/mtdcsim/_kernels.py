"""Fixed-step integration loops: the hot path of every simulation.

Each kernel advances the state over piecewise-constant input segments with
the exact zero-order-hold propagator and writes decimated samples into a
preallocated output array. Both are ``kernel(prop, c_seg, seg_bounds, x0,
rec_steps, out)``: the model's ``Propagator`` at the step size, the
one-step forcing per segment, the segment bounds and the record steps
(the first is 0), the initial state and the output array.

Kernels return -1 on success or the failing step index when the state
stops being finite (or, for the nonlinear kernel, when a DC voltage drops
below ``DC_VOLTAGE_FLOOR``).

Cost of the linear kernel, per run of r recorded samples k steps apart:
a chain of min(r, 32) products of two rows by the n x n phi^k, then
one product of up to 32 rows by (phi^k)^32 per later block of
``LINEAR_BLOCK`` = 32 samples; it stays within 1e-10 of the largest state
of one product per sample. A sample that its product leaves non-finite is
stepped again one step at a time before the run aborts there. The powers
of the one-step propagator it needs are kept by the ``Propagator``, which
forms each once; what depends on the input costs O(log k) matrix-vector
products per segment and interval length k.

Cost of the nonlinear kernel, with m converters and q = 2m outputs (the DC
voltages and the converter injections, through which alone the voltage
correction reads the state): per step two products of q x (m + 1) i
matrices at step i of a block, and a per-converter correction on Python
floats; per block of up to ``HEUN_BLOCK`` steps one (b + 1) q x n product
for the free response, one move of the full state by a power of phi per
recorded sample (to the block end if it has none), and one n x b m product
for the correction's forcing. The ``Propagator`` forms the block matrices
once per model and step size. It stays within 1e-10 of the largest state
of the same Heun step taken one full step at a time with numpy arrays and
aborts at the same step; README "Numerical notes" gives the measured gap.
"""

from bisect import bisect
from itertools import groupby

import numpy as np


# The lowest DC voltage (p.u.) a nonlinear run may reach: it converts power
# at 1/v, so a collapsing voltage aborts the run here instead.
DC_VOLTAGE_FLOOR = 0.5

# Steps per block of the nonlinear kernel. On the 186-state reference the
# kernel time is flat from 24 to 64 (2-vCPU x86 host, one BLAS thread), while
# the kept matrices grow with it: (b + 1) q n + b m n + b (m + 1) q floats,
# 0.9 MB at 32.
HEUN_BLOCK = 32

# Rows per block of the linear kernel. On the 186-state reference (2-vCPU
# x86 host, one BLAS thread) a product of b rows by an n x n matrix costs
# about 1.6 us a row for b from 24 to 64 and about 3 us below 24, while each
# of the b - 1 products of the chain that starts a run costs about 5 us; a
# warm 5 s run of 400 to 490 samples is fastest, and flat, from 24 to 48.
# Whatever b is, a run keeps one block power per stride.
LINEAR_BLOCK = 32


class Propagator:
    """The zero-order-hold discretization of one model at one step size:
    all that a kernel needs beyond a run's own inputs.

    ``phi`` is the one-step propagator, ``u @ c_map`` the one-step forcing
    gamma b_dist u of an input u. The nonlinear voltage correction reads the
    state through C = ``out_map`` (q x n), the ``dc_voltages`` and
    ``injections`` rows of the model's ``outputs``, enters it through
    G = ``gam_v`` = gamma[:, vdc] (n x m) and takes the converters'
    ``cap_inv``, ``v_ref`` and ``v_nom``. The powers of phi and the block
    matrices are formed at their first use and kept; each depends on phi,
    C, G and its key alone, never on which calls came first (nor on which
    of two threads formed it).
    """

    def __init__(self, phi, c_map, out_map, gam_v, cap_inv, v_ref, v_nom):
        self.phi, self.c_map = phi, c_map
        self.out_map, self.gam_v = out_map, gam_v
        self.cap_inv, self.v_ref, self.v_nom = cap_inv, v_ref, v_nom
        self._powers = {(1, 1): phi}
        self._blocks = None

    def power(self, k, b=1):
        """(phi^k)^b. A power of two is the square of its half, any other
        phi^k the product of those over the set bits of k, lowest first."""
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

    def advance(self, k, x, stride, out=None):
        """phi^k x, into ``out`` if given. phi^k is kept as a matrix only at
        the record ``stride`` (0 for a run that records its end alone, which
        steps its one interval once); any other k (an interval cut by an
        event, or the last, shorter one) reaches x through the powers of
        two, so that events add no power."""
        if k == stride:
            return np.dot(self.power(k), x, out=out)
        for i in range(k.bit_length()):
            if k >> i & 1:
                x = np.dot(self.power(1 << i), x)
        if out is None:
            return x
        out[:] = x
        return out

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

    def blocks(self):
        """The matrices of the nonlinear kernel's blocks of b = ``HEUN_BLOCK``
        steps:

        - ``obs`` = [C; C phi; ...; C phi^b], ((b + 1) q) x n;
        - ``toeplitz``, b (m + 1) x q: the row blocks K_(b-1)^T, ..., K_1^T,
          K_0^T with K_j = C phi^j G, each after a zero row that the kernel
          fills, in its own copy, with the free response at that lag;
        - ``gcat`` = [phi^(b-1) G, ..., phi G, G], n x b m.
        """
        if self._blocks is None:
            b = HEUN_BLOCK
            (q, n), m = self.out_map.shape, self.gam_v.shape[1]
            obs = np.empty((b + 1, q, n))
            obs[0] = self.out_map
            for i in range(b):
                np.dot(obs[i], self.phi, out=obs[i + 1])
            toeplitz = np.zeros((b, m + 1, q))
            toeplitz[:, 1:] = (obs[b - 1::-1] @ self.gam_v).transpose(0, 2, 1)
            gcat = [self.gam_v]
            for _ in range(b - 1):
                gcat.append(self.phi @ gcat[-1])
            self._blocks = (obs.reshape(-1, n), toeplitz.reshape(-1, q), np.hstack(gcat[::-1]))
        return self._blocks


def exact_linear(prop, c_seg, seg_bounds, x0, rec_steps, out):
    """Jump from knot to knot of ``union(rec_steps, seg_bounds)``.

    Over k steps of segment s, x <- phi^k x + S_k c_s with
    S_k = phi^(k-1) + ... + I; S_k c_s is formed per run of equal intervals.
    In a run of recorded intervals at the record stride in one segment,
    the first b = ``LINEAR_BLOCK`` rows come one from the other by a chain of
    products by phi^k, whose second row forms the block forcing
    f = sum_(i<b) (phi^k)^i S_k c_s; each later block of up to b rows comes
    from the b rows before it by one product with ``prop.power(k, b)``,
    plus f. Any other run goes sample by sample through ``prop.advance``.
    The state is checked for finiteness at the recorded samples only.
    """
    stride = int(rec_steps[1]) if len(rec_steps) > 2 else 0
    x = x0.copy()
    out[0] = x
    ri = 1
    knots = np.sort(np.concatenate([rec_steps, seg_bounds]))  # np.union1d hashes: 10x slower
    knots = knots[np.diff(knots, prepend=-1) > 0]
    segs = np.searchsorted(seg_bounds, knots[:-1], side="right") - 1
    # an interval that ends off the record grid ends at a segment bound, so
    # it makes a group of its own
    for (k, s, recorded), run in groupby(zip(np.diff(knots).tolist(), segs.tolist(),
                                             np.isin(knots[1:], rec_steps).tolist())):
        c_k = prop.summed(k, c_seg[s])
        if not recorded:
            x = prop.advance(k, x, stride) + c_k
            continue
        n = len(list(run))
        rows = out[ri:ri + n]
        if k == stride:
            size, phi_k = LINEAR_BLOCK, prop.power(k)
            pair = np.stack([x, np.zeros_like(x)])
            for j in range(min(n, size)):
                pair = np.matmul(pair, phi_k.T)
                pair += c_k
                rows[j] = pair[0]
            if n > size:
                phi_b, c_b = prop.power(k, size), pair[1]
                for j in range(size, n, size):
                    block = rows[j:j + size]
                    np.matmul(rows[j - size:j - size + block.shape[0]], phi_b.T, out=block)
                    block += c_b
        if k != stride or not np.isfinite(rows).all():
            # sample by sample through advance: so a run off the stride (an
            # interval cut by an event, the last, shorter one, or both) keeps
            # no power, and a second pass locates an abort: near overflow a
            # product by the block power, or one summed in another order, can
            # overflow a sample before or after the state does; a product by
            # the stride's power can overflow in its partial sums while the
            # state stays finite, so such a sample is stepped again one step
            # at a time
            prev = x
            for j in range(n):
                rows[j] = prop.advance(k, prev, stride) + c_k
                if not np.isfinite(rows[j]).all():
                    for _ in range(k):
                        prev = np.dot(prop.phi, prev) + c_seg[s]
                    rows[j] = prev
                    if not np.isfinite(prev).all():
                        return int(rec_steps[ri + j])
                prev = rows[j]
        x = rows[-1]
        ri += n
    return -1


def etd2_nonlinear(prop, c_seg, seg_bounds, x0, rec_steps, out):
    """Exact linear propagation, Heun treatment of the voltage correction.

    The correction h = cap_inv * p_inj * (1/v - 1/v_nom) (true minus
    nominal-voltage current injection) enters the state through G, the
    DC-voltage columns of gamma, and reads it through the q = 2m outputs
    z = C x = [x[vdc]; P_inj x] (``prop.out_map``). Per step:
    x* = phi x + c + G h(x), then x+ = phi x + c + G hbar with
    hbar = (h(x) + h(x*)) / 2.

    Inside a block of b steps of one segment, from x0 at its start, the
    recurrence runs on z alone: z_i = C phi^i x0 + C S_i c +
    sum_(j<i) K_(i-1-j) hbar_j, and z*_i is z_(i+1) with h(x_i) in place
    of hbar_i. The free and forced responses C phi^i x0 + C S_i c of the
    whole block come from one product with ``obs`` (C S_i c once per
    segment), each z_i and z*_i from one product of a slice of ``toeplitz``
    (both from ``prop.blocks()``) with the hbar written so far; h is
    evaluated per converter on Python floats. The state then moves from
    recorded sample to recorded sample by ``prop.advance``:
    over k steps from step p, x <- phi^k x + S_k c + [phi^(k-1) G ... G]
    [hbar_p; ...; hbar_(p+k-1)], the forcing of a run of equal k from one
    product. A block spans at most ``HEUN_BLOCK`` steps of one segment and
    ends on the last recorded sample among them, if there is one.

    The voltage floor is tested at every step on z and z*, and NaN passes
    it; finiteness at the recorded samples and at the block end. A block
    that fails either is run again in blocks of one step, which return the
    step at which the step-by-step recurrence aborts.
    """
    (q, _), m = prop.out_map.shape, prop.gam_v.shape[1]
    size = HEUN_BLOCK
    obs, toeplitz, gcat = prop.blocks()
    toeplitz = toeplitz.copy()
    lead = toeplitz[::m + 1]  # the row before K_j^T is lead[size - 1 - j]
    hbar = np.zeros(size * (m + 1))
    hbar[0] = 1.0  # weights the lead row at the head of each product's slice
    tails = [toeplitz[(size - 1 - i) * (m + 1):] for i in range(size)]
    heads = [hbar[:(i + 1) * (m + 1)] for i in range(size)]
    slots = [hbar[i * (m + 1) + 1:(i + 1) * (m + 1)] for i in range(size)]
    h_rows = hbar.reshape(size, m + 1)[:, 1:]
    conv = tuple(zip(prop.cap_inv.tolist(), prop.v_ref.tolist()))
    inv_nom = 1.0 / prop.v_nom
    bounds = seg_bounds.tolist()
    recs = rec_steps.tolist() + [bounds[-1] + 1]
    stride = recs[1] if len(rec_steps) > 2 else 0

    def block(x, start, length, ri, c, forced, sums):
        """Steps start .. start + length - 1 from x under forcing c; returns
        (the step of an abort or -1, the state at the block end, the index
        of the next recorded sample)."""
        z = np.dot(obs[:(length + 1) * q], x).reshape(length + 1, q)
        z += forced[:length + 1]
        lead[size - length:] = z[length:0:-1]
        z = z[0].tolist()
        for i in range(length):
            h1 = []
            for (ci, vr), xv, p in zip(conv, z[:m], z[m:]):
                v = xv + vr
                if v < DC_VOLTAGE_FLOOR:  # false for NaN, which the finiteness check reports
                    return start + i, None, ri
                h1.append(ci * p * (1.0 / v - inv_nom))
            slots[i][:] = h1
            z = np.dot(heads[i], tails[i]).tolist()
            h_mean = []
            for (ci, vr), xv, p, hv in zip(conv, z[:m], z[m:], h1):
                v = xv + vr
                if v < DC_VOLTAGE_FLOOR:
                    return start + i, None, ri
                h_mean.append(0.5 * (hv + ci * p * (1.0 / v - inv_nom)))
            slots[i][:] = h_mean
            if i + 1 < length:
                z = np.dot(heads[i], tails[i]).tolist()
        h = np.ascontiguousarray(h_rows[:length])
        first = ri
        knots = [0]
        while recs[ri] <= start + length:
            knots.append(recs[ri] - start)
            ri += 1
        if knots[-1] < length:
            knots.append(length)
        row, pos = first, 0
        for k, run in groupby(b - a for a, b in zip(knots, knots[1:])):
            n = len(list(run))
            force = h[pos:pos + n * k].reshape(n, k * m) @ gcat[:, (size - k) * m:].T
            if k not in sums:
                sums[k] = prop.summed(k, c)
            force += sums[k]
            for f in force:
                y = prop.advance(k, x, stride, out[row] if row < ri else None)
                y += f
                x, row, pos = y, row + 1, pos + k
        finite = np.isfinite(out[first:ri]).all(axis=1)
        if not finite.all():
            return recs[first + finite.argmin()], x, ri
        return -1, x, ri

    x = x0.copy()
    out[0] = x
    ri = 1
    for s in range(c_seg.shape[0]):
        c, sums = c_seg[s], {}
        forced = np.zeros((size + 1, q))
        np.cumsum(np.dot(obs[:size * q], c).reshape(size, q), axis=0, out=forced[1:])
        start, stop = bounds[s], bounds[s + 1]
        while start < stop:
            # end on the last recorded sample within reach, if any: the state
            # then moves from sample to sample only
            end = min(start + size, stop)
            j = bisect(recs, end, ri)
            length = (recs[j - 1] if j > ri else end) - start
            step, y, ri_end = block(x, start, length, ri, c, forced, sums)
            if length > 1 and (step >= 0 or not np.isfinite(y).all()):
                for t in range(start, start + length):
                    step, x, ri = block(x, t, 1, ri, c, forced, sums)
                    if step >= 0:
                        return step
            elif step >= 0:
                return step
            else:
                x, ri = y, ri_end
            start += length
    return -1


KERNELS = {
    "exact_linear": exact_linear,
    "etd2_nonlinear": etd2_nonlinear,
}
