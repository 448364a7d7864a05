"""Independent right-hand-side evaluator used to cross-check assembly.

Evaluates every state derivative with scalar loops straight from the
node/branch/controller equations (explicit neighbor sums, no matrix
algebra), so it shares nothing with the block assembly it verifies.
"""

import numpy as np


def _neighbor_sum(edges, values, node):
    total = 0.0
    for i, j, w in edges:
        if i == node:
            total += w * (values[i] - values[j])
        elif j == node:
            total += w * (values[j] - values[i])
    return total


def direct_controls(areas, cfg, state):
    """Controller outputs (p_gen per bus, area-major; p_inj per converter).

    ``state`` maps block names to full-coordinate arrays as in ``direct_rhs``.
    """
    eta = state.get("gen_integral")
    phi = state.get("conv_phase")
    vdc = state["vdc"]

    p_gen = []
    for i, area in enumerate(areas):
        freq = state[f"freq{i}"]
        for k in range(area.n_buses):
            val = -cfg.k_droop[i][k] * freq[k]
            if cfg.variant.distributed_gen:
                val -= (cfg.k_v[i] / cfg.k_omega[i]) * cfg.k_droop_i[i][k] * eta[i]
            p_gen.append(val)

    p_inj = []
    for i in range(len(areas)):
        w0 = state[f"freq{i}"][0]
        val = cfg.k_omega[i] * w0 - cfg.k_v[i] * vdc[i]
        if cfg.variant.distributed_conv:
            val += _neighbor_sum(cfg.comm_phi.edges, phi, i)
        p_inj.append(val)
    return np.array(p_gen), np.array(p_inj)


def direct_rhs(net, areas, cfg, state, p_m, mode="linear"):
    """Derivatives of the full-coordinate closed loop, block name -> array.

    ``state`` maps block names to arrays (angle blocks only for areas with
    two or more buses); ``p_m`` is a list of per-area disturbance lists.
    Resistive line model when no line_current blocks are present,
    otherwise the segmented pi-link chain.
    """
    n = net.n
    dist_gen = cfg.variant.distributed_gen
    dist_conv = cfg.variant.distributed_conv
    eta = state.get("gen_integral")
    phi = state.get("conv_phase")
    vdc = state["vdc"]
    p_gen, p_inj = direct_controls(areas, cfg, state)

    out = {}
    bus_off = 0
    for i, area in enumerate(areas):
        nb = area.n_buses
        freq = state[f"freq{i}"]
        freq_dot = np.zeros(nb)
        for k in range(nb):
            acc = p_gen[bus_off + k] + p_m[i][k]
            if k == 0:
                acc -= p_inj[i]
            if nb >= 2:
                acc -= _neighbor_sum(area.ac_lines, state[f"angle{i}"], k)
            freq_dot[k] = acc / area.inertia[k]
        out[f"freq{i}"] = freq_dot
        if nb >= 2:
            out[f"angle{i}"] = np.array(freq, dtype=float)
        bus_off += nb

    pi_model = "line_current1" in state
    i_inj = np.zeros(n)
    for i in range(n):
        volt = vdc[i] + net.v_ref[i] if mode == "nonlinear" else net.v_nom
        i_inj[i] = p_inj[i] / volt
    vdc_dot = np.zeros(n)
    if not pi_model:
        cond = [(ln.i, ln.j, 1.0 / ln.r) for ln in net.lines]
        for i in range(n):
            vdc_dot[i] = (i_inj[i] - _neighbor_sum(cond, vdc, i)) / net.cap[i]
    else:
        ell = net.lines[0].segments
        first = state["line_current1"]
        last = state[f"line_current{ell}"]
        for i in range(n):
            flow = 0.0
            for k, ln in enumerate(net.lines):
                if ln.i == i:
                    flow -= first[k]
                if ln.j == i:
                    flow += last[k]
            vdc_dot[i] = (i_inj[i] + flow) / net.cap[i]
        for k, ln in enumerate(net.lines):
            r_seg, l_seg, c_seg = ln.r / ell, ln.l / ell, ln.c / ell
            for q in range(1, ell + 1):
                cur = state[f"line_current{q}"][k]
                up = vdc[ln.i] if q == 1 else state[f"line_voltage{q - 1}"][k]
                down = vdc[ln.j] if q == ell else state[f"line_voltage{q}"][k]
                out.setdefault(f"line_current{q}", np.zeros(len(net.lines)))
                out[f"line_current{q}"][k] = (-r_seg * cur + up - down) / l_seg
            for q in range(1, ell):
                out.setdefault(f"line_voltage{q}", np.zeros(len(net.lines)))
                out[f"line_voltage{q}"][k] = (
                    state[f"line_current{q}"][k] - state[f"line_current{q + 1}"][k]) / c_seg
    out["vdc"] = vdc_dot

    if dist_gen:
        eta_dot = np.zeros(n)
        for i in range(n):
            eta_dot[i] = sum(cfg.k_droop_i[i][k] * state[f"freq{i}"][k]
                             for k in range(areas[i].n_buses))
            eta_dot[i] -= _neighbor_sum(cfg.comm_eta.edges, eta, i)
        out["gen_integral"] = eta_dot
    if dist_conv:
        phi_dot = np.zeros(n)
        for i in range(n):
            phi_dot[i] = (cfg.k_omega[i] / cfg.k_v[i]) * state[f"freq{i}"][0] - cfg.gamma * phi[i]
        out["conv_phase"] = phi_dot
    return out


def flatten(layout, block_dict):
    vec = np.zeros(layout.dim)
    for name, start, length in layout.blocks:
        vec[start:start + length] = block_dict[name]
    return vec


def unflatten(layout, vec):
    return {name: np.array(vec[start:start + length])
            for name, start, length in layout.blocks}
