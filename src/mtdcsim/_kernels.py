"""Fixed-step integration loops: the hot path of every simulation.

Each kernel advances the state over piecewise-constant input segments with
the exact zero-order-hold propagator and writes decimated samples into a
preallocated output array.

Kernels return -1 on success or the failing step index when the state
stops being finite (or, for the nonlinear kernel, when a DC voltage drops
below 0.5 p.u.).

Cost per step of the nonlinear kernel: one n x n product ``phi @ x``, two
converter-count products each of ``pinj_sel`` and ``gam_v``, and a
per-converter correction on Python floats, so the numpy calls per step do
not grow with the number of converters. Its results are bit-identical to
the same Heun step written with numpy arrays throughout.
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
