"""Fixed-step integration loops: the hot path of every simulation.

Each kernel advances the state over piecewise-constant input segments with
the exact zero-order-hold propagator and writes decimated samples into a
preallocated output array.

Kernels return -1 on success or the failing step index when the state
stops being finite (or, for the nonlinear kernel, when a DC voltage drops
below 0.5 p.u.).
"""

import numpy as np


def exact_linear(phi, c_seg, seg_bounds, x0, rec_steps, out):
    """Jump from knot to knot of ``union(rec_steps, seg_bounds)``.

    Over k steps of segment s, x <- phi^k x + (phi^{k-1} + ... + I) c_s.
    Both terms are blocks of the k-th power of the one-step augmented
    propagator ``[[phi, c_seg.T], [0, I]]``, computed once per distinct k.
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
    s = 0
    bounds = seg_bounds.tolist()
    recs = rec_steps.tolist() + [-1]
    knots = np.union1d(rec_steps, seg_bounds).tolist()
    for k0, k1 in zip(knots[:-1], knots[1:]):
        while bounds[s + 1] <= k0:
            s += 1
        k = k1 - k0
        if k not in powers:
            pk = np.linalg.matrix_power(step, k)
            powers[k] = (np.ascontiguousarray(pk[:dim, :dim]), np.ascontiguousarray(pk[:dim, dim:].T))
        phi_k, c_k = powers[k]
        x = np.dot(phi_k, x) + c_k[s]
        if recs[ri] == k1:
            out[ri] = x
            ri += 1
            if not np.isfinite(x).all():
                return k1
    return -1


def etd2_nonlinear(phi, gam_v, c_seg, seg_bounds, x0, pinj_sel, cap_inv,
                   v_ref, v_nom, vdc, rec_steps, out):
    """Exact linear propagation, Heun treatment of the voltage correction.

    The correction (true minus nominal-voltage current injection) only
    enters the DC-voltage rows, so it is applied through ``gam_v``, the
    columns of gamma selected by the ``vdc`` slice.
    """

    def correction(x):
        v = x[vdc] + v_ref
        if np.any(v < 0.5):
            return None
        return cap_inv * np.dot(pinj_sel, x) * (1.0 / v - 1.0 / v_nom)

    x = x0.copy()
    ri = 0
    if rec_steps[0] == 0:
        out[0] = x
        ri = 1
    for s in range(c_seg.shape[0]):
        c = c_seg[s]
        for step in range(seg_bounds[s], seg_bounds[s + 1]):
            h1 = correction(x)
            if h1 is None:
                return step
            lin = np.dot(phi, x) + c
            h2 = correction(lin + np.dot(gam_v, h1))
            if h2 is None:
                return step
            x = lin + np.dot(gam_v, 0.5 * (h1 + h2))
            if ri < rec_steps.shape[0] and rec_steps[ri] == step + 1:
                out[ri] = x
                ri += 1
                if not np.all(np.isfinite(x)):
                    return step + 1
    return -1


KERNELS = {
    "exact_linear": exact_linear,
    "etd2_nonlinear": etd2_nonlinear,
}
