"""Fixed-step integration loops: the hot path of every simulation.

Both kernels are ``kernel(prop, c_seg, seg_bounds, rec_steps, out)``: the
model's ``Propagator`` at the step size, the one-step forcing per input
segment, the segment bounds and the record steps of the whole run (both
start at 0) and the output array, one row per record. Each advances the
state from rest with the exact zero-order-hold propagator and writes the
recorded samples into ``out``. Both walk one plan of the run, ``_plan``: the
steps from the first one stepped, cut at the knots of ``union(rec_steps,
seg_bounds)`` into moves, and the moves into runs of equal length, segment
and recorded flag. A run whose first segment leaves it exactly at zero
(``_at_rest``) gets +0.0 in the records up to that segment's end, and is
stepped from there: the same states, signs of zero included, as stepping it
from step 0. A run under no input then forms no power of phi and no block
matrix. A kernel returns -1 on success or the failing step index when the
state stops being finite (or, for the nonlinear kernel, when a DC voltage
drops below ``DC_VOLTAGE_FLOOR``).

Cost, for n states, m converters and r records k steps apart: the linear
kernel takes about 2 r n^2 flops, in each run of records one matrix-vector
product a record for the first ``LINEAR_BLOCK`` and then products of
``LINEAR_BLOCK`` rows by an n x n power of phi; the nonlinear kernel takes
per step two products of at most 2m x ``HEUN_BLOCK`` (m + 1) entries and a
per-converter correction on Python floats, and per record one n x n
matrix-vector product. Both form the forcing with O(log k) matrix-vector
products per segment and move length k, and ``_plan`` finds the runs with a
fixed number of numpy calls. The linear kernel stays within 1e-10 of the
largest state of one product per record, the nonlinear one within 1e-10 of
the same Heun step taken one full step at a time, with which it aborts at
the same step; README "Numerical notes" gives the measured gaps.
"""

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
# x86 host, 48 kB L1 data cache a core, one BLAS thread) each of the b
# matrix-vector products of the chain that starts a run costs about 5 us,
# and a block product about 1.4 us a row at b = 24 and 48 and 1.7 us at 32.
# A warm 5 s single-event run of 400 to 490 samples takes about 1.15 ms at
# 24, 1.3 ms at 32 and 48; the 45 s reference run about 8.6 ms at 24, 9.9
# ms at 32 and 9.0 ms at 48. Whatever b is, a run keeps one block power per
# stride.
LINEAR_BLOCK = 24


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
    of two threads formed it). ``power(k, b)`` for b > 1, the block power of
    the linear kernel, is kept transposed and contiguous, since it is the
    right factor of every block product; its value is (phi^k)^b all the
    same. Whether phi is finite is decided once, here, as ``phi_finite``.
    """

    def __init__(self, phi, c_map, out_map, gam_v, cap_inv, v_ref, v_nom):
        self.phi, self.c_map = phi, c_map
        self.out_map, self.gam_v = out_map, gam_v
        self.cap_inv, self.v_ref, self.v_nom = cap_inv, v_ref, v_nom
        self.phi_finite = bool(np.isfinite(phi).all())
        self._powers = {(1, 1): phi}
        self._blocks = None

    def power(self, k, b=1):
        """(phi^k)^b. A power of two is the square of its half, any other
        phi^k the product of those over the set bits of k, lowest first;
        (phi^k)^b is phi^k to the odd part of b, squared once per factor 2
        of b, so that no more than two n x n temporaries live at once."""
        pk = self._powers.get((k, b))
        if pk is None:
            if b > 1:
                twos = (b & -b).bit_length() - 1
                pk = np.linalg.matrix_power(self.power(k).T, b >> twos)
                for _ in range(twos):
                    pk = pk @ pk
                pk = np.ascontiguousarray(pk).T
            elif k & (k - 1) == 0:
                pk = self.power(k // 2) @ self.power(k // 2)
            else:
                bits = [1 << i for i in range(k.bit_length()) if k >> i & 1]
                pk = self.power(bits[0])
                for bit in bits[1:]:
                    pk = pk @ self.power(bit)
            pk = self._powers.setdefault((k, b), pk)
        return pk

    def advance(self, k, x, stride):
        """phi^k x. phi^k is kept as a matrix only at the record ``stride``
        (0 for a run that records its end alone, which steps its one
        interval once); any other k (an interval cut by an event, or the
        last, shorter one) reaches x through the powers of two, so that
        events add no power."""
        if k == stride:
            return np.dot(self.power(k), x)
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


def _at_rest(prop, c_seg):
    """Whether the zero state stays exactly zero through the first segment:
    it does under zero input unless phi is not finite, whose product with
    the zero state is NaN (``prop.phi_finite``, decided once per model and
    step size)."""
    return not c_seg[0].any() and prop.phi_finite


def _plan(rest, seg_bounds, rec_steps, out):
    """Write +0.0 to the records before stepping starts, those up to the
    first segment's end if ``rest``, else the one at step 0, and cut the
    steps from there into runs. A move is the k steps from one knot of
    ``union(rec_steps, seg_bounds)`` to the next; a run is (k, s, recorded,
    n), n moves of k steps in segment s, all ending on a record or none, cut
    wherever k, s or recorded changes. A move that ends off the record grid
    ends on a segment bound, so it is a run of its own. Returns the first
    record left to write, the record stride (0 for a run that records its
    end alone) and the runs."""
    s0 = int(rest)
    ri = int(np.searchsorted(rec_steps, seg_bounds[s0], side="right"))
    out[:ri] = 0.0
    knots = np.sort(np.concatenate([rec_steps[ri:], seg_bounds[s0:]]))  # np.union1d hashes: 10x slower
    knots = knots[np.diff(knots, prepend=-1) > 0]
    marks = np.zeros(len(knots), dtype=np.int64)
    marks[np.searchsorted(knots, rec_steps[ri:])] = 1
    key = np.stack([np.diff(knots), np.searchsorted(seg_bounds, knots[:-1], side="right") - 1,
                    marks[1:]])
    cuts = np.flatnonzero(np.diff(key, prepend=-1, append=-1).any(axis=0))
    runs = [(*run, n) for run, n in zip(key[:, cuts[:-1]].T.tolist(), np.diff(cuts).tolist())]
    return ri, int(rec_steps[1]) if len(rec_steps) > 2 else 0, runs


def exact_linear(prop, c_seg, seg_bounds, rec_steps, out):
    """Jump from move end to move end of ``_plan``'s runs.

    Over a move of k steps of segment s, x <- phi^k x + S_k c_s with
    S_k = phi^(k-1) + ... + I; S_k c_s is formed once per run. In a run of
    recorded moves at the record stride, the first b = ``LINEAR_BLOCK`` rows
    come one from the other by a chain of matrix-vector products by phi^k
    from the run's start state x_0, each written into its row of ``out``.
    The block forcing f = sum_(i<b) (phi^k)^i S_k c_s is the chain's last
    row where x_0 is zero, as after a single event from rest; otherwise it
    is chained from rest by b - 1 more products, since the last row less
    (phi^k)^b x_0 cancels far from rest. Each later block of up to b rows
    comes from the b rows before it by one product with
    ``prop.power(k, b)``, plus f.
    Any other run goes move by move through ``prop.advance``. The state is
    checked for finiteness at the recorded samples only.
    """
    ri, stride, runs = _plan(_at_rest(prop, c_seg), seg_bounds, rec_steps, out)
    x = np.zeros(out.shape[1])
    for k, s, recorded, n in runs:
        c_k = prop.summed(k, c_seg[s])
        if not recorded:
            x = prop.advance(k, x, stride) + c_k
            continue
        rows = out[ri:ri + n]
        if k == stride:
            size, phi_k, prev = LINEAR_BLOCK, prop.power(k), x
            for row in rows[:size]:
                np.dot(phi_k, prev, out=row)
                row += c_k
                prev = row
            if n > size:
                phi_b = prop.power(k, size)
                c_b = rows[size - 1]
                if x.any():  # rows[size - 1] - phi_b x would cancel far from rest
                    c_b = c_k
                    for _ in range(size - 1):
                        c_b = np.dot(phi_k, c_b) + c_k
                for j in range(size, n, size):
                    block = rows[j:j + size]
                    np.matmul(rows[j - size:j - size + block.shape[0]], phi_b.T, out=block)
                    block += c_b
        if k != stride or not np.isfinite(rows).all():
            # sample by sample through advance: so a run off the stride (a
            # move cut by an event, the last, shorter one, or both) keeps
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


def etd2_nonlinear(prop, c_seg, seg_bounds, rec_steps, out):
    """Exact linear propagation, Heun treatment of the voltage correction.

    The correction h = cap_inv * p_inj * (1/v - 1/v_nom) (true minus
    nominal-voltage current injection) enters the state through G, the
    DC-voltage columns of gamma, and reads it through the q = 2m outputs
    z = C x = [x[vdc]; P_inj x] (``prop.out_map``). Per step:
    x* = phi x + c + G h(x), then x+ = phi x + c + G hbar with
    hbar = (h(x) + h(x*)) / 2.

    Inside a block of b steps, from x_0 at its start, the recurrence runs on
    z alone: z_i = C phi^i x_0 + C S_i c + sum_(j<i) K_(i-1-j) hbar_j, and
    z*_i is z_(i+1) with h(x_i) in place of hbar_i. The free and forced
    responses C phi^i x_0 + C S_i c of the whole block come from one product
    with ``obs`` (C S_i c once per segment), each z_i and z*_i from one
    product of a slice of ``toeplitz`` (both from ``prop.blocks()``) with
    the hbar written so far; h is evaluated per converter on Python floats.
    The state then moves from move end to move end by ``prop.advance``: over
    k steps from step p,
    x <- phi^k x + S_k c + [phi^(k-1) G ... G] [hbar_p; ...; hbar_(p+k-1)],
    the forcing of all the block's moves from one product. A block holds
    ``HEUN_BLOCK // k`` whole moves of one of ``_plan``'s runs, the last
    block of the run what is left; a move longer than ``HEUN_BLOCK`` runs in
    blocks of ``HEUN_BLOCK`` steps, and only the last of them is recorded.

    The voltage floor is tested at every step on z and z*, and NaN passes
    it; finiteness at the recorded samples and at the block end. A block
    that fails either is run again in blocks of one step, each recorded if
    it ends a recorded move, which return the step at which the
    step-by-step recurrence aborts. A run at rest fails the floor test at
    step 0 if a ``v_ref`` is below the floor, so only a run with every
    ``v_ref`` at or above it skips its first segment.
    """
    ri, stride, runs = _plan(_at_rest(prop, c_seg) and (prop.v_ref >= DC_VOLTAGE_FLOOR).all(),
                             seg_bounds, rec_steps, out)
    if not runs:  # no input: nothing to step, no block matrix to form
        return -1
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
    forced = np.zeros((size + 1, q))

    def block(x, start, k, moves, rows):
        """Takes ``moves`` moves of k steps from x at step ``start`` under the
        segment's forcing c; writes the state after each move to ``rows``
        (all of them, or none for an empty slice) and returns (the step of
        an abort or -1, the state at the block end)."""
        length = k * moves
        z = np.dot(obs[:(length + 1) * q], x).reshape(length + 1, q)
        z += forced[:length + 1]
        lead[size - length:] = z[length:0:-1]
        z = z[0].tolist()
        for i in range(length):
            h1 = []
            for (ci, vr), xv, p in zip(conv, z[:m], z[m:]):
                v = xv + vr
                if v < DC_VOLTAGE_FLOOR:  # false for NaN, which the finiteness check reports
                    return start + i, None
                h1.append(ci * p * (1.0 / v - inv_nom))
            slots[i][:] = h1
            z = np.dot(heads[i], tails[i]).tolist()
            h_mean = []
            for (ci, vr), xv, p, hv in zip(conv, z[:m], z[m:], h1):
                v = xv + vr
                if v < DC_VOLTAGE_FLOOR:
                    return start + i, None
                h_mean.append(0.5 * (hv + ci * p * (1.0 / v - inv_nom)))
            slots[i][:] = h_mean
            if i + 1 < length:
                z = np.dot(heads[i], tails[i]).tolist()
        force = h_rows[:length].reshape(moves, k * m) @ gcat[:, (size - k) * m:].T
        if k not in sums:
            sums[k] = prop.summed(k, c)
        force += sums[k]
        for f in force:  # the states after each move, in place of their forcing
            f += prop.advance(k, x, stride)
            x = f
        rows[:] = force[:len(rows)]
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            return start + k * (finite.argmin() + 1), x
        return -1, x

    x, seg, t = np.zeros(out.shape[1]), None, int(seg_bounds[runs[0][1]])
    for k, s, recorded, n in runs:
        if s != seg:
            seg, c, sums = s, c_seg[s], {}
            np.cumsum(np.dot(obs[:size * q], c).reshape(size, q), axis=0, out=forced[1:])
        per = size // k or 1
        for j in range(0, n, per):
            moves = min(per, n - j)
            parts = [(size, 1, out[ri:ri])] * ((k - 1) // size)
            parts.append(((k - 1) % size + 1, moves, out[ri:ri + moves * recorded]))
            for kb, mb, rows in parts:
                step, y = block(x, t, kb, mb, rows)
                if step >= 0 or not np.isfinite(y).all():
                    for i in range(kb * mb):
                        step, x = block(x, t + i, 1, 1, rows[i // kb:i // kb + ((i + 1) % kb == 0)])
                        if step >= 0:
                            return step
                else:
                    x = y
                t += kb * mb
            ri += moves * recorded
    return -1


KERNELS = {
    "exact_linear": exact_linear,
    "etd2_nonlinear": etd2_nonlinear,
}
