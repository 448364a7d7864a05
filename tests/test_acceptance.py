"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline). Criteria that concern the bundled six-terminal reference setup
use the packaged configuration unchanged.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import mtdcsim as m
from mtdcsim.netgraph import laplacian

from conftest import (lyapunov_trace, mixed_relative_error, outputs, random_stable_config,
                      reference_pi_lines, single_gen_system)
from test_assembly import _oracle_check, multi_gen_system


def _report(num: int, description: str, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {description} ({detail})")
    assert ok, f"criterion {num}: {description}: {detail}"


def _single_gen_reference(paper_sc, gamma=0.0, segments=1):
    """Reference DC grid, its lines as pi-links, with aggregated
    single-generator areas."""
    net = replace(paper_sc.net, lines=reference_pi_lines(paper_sc.net.lines, segments))
    areas = tuple(m.AcArea(inertia=(140.0,)) for _ in range(6))
    cfg = m.ControllerConfig(
        k_droop=((9.0,),) * 6, k_droop_i=((3.35,),) * 6,
        k_omega=(1501.0,) * 6, k_v=(80.0,) * 6,
        comm_eta=paper_sc.cfg.comm_eta, comm_phi=paper_sc.cfg.comm_phi,
        gamma=gamma, variant=m.Variant.DIST_GEN_DIST_CONV)
    return net, areas, cfg


def test_criterion_01_hurwitz_reproduction(paper_sc):
    start = time.perf_counter()
    model = m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True)
    abscissa, stable = m.hurwitz(model)
    elapsed = time.perf_counter() - start
    _report(1, "reference closed loop is Hurwitz in under a second",
            stable and abscissa < 0.0 and elapsed < 1.0,
            f"abscissa={abscissa:.4g}, runtime={elapsed:.3f}s")


def test_criterion_02_assumption_arithmetic(paper_sc):
    a1 = m.check_assumption1(laplacian(paper_sc.cfg.comm_phi),
                             laplacian(paper_sc.net.conductance_graph()))
    a2 = m.check_assumption2(paper_sc.cfg.gamma, a1.k_phi, paper_sc.net.v_nom)
    cert = m.lyapunov_certificate(paper_sc.net, replace(paper_sc.cfg, gamma=4.0))
    ok = (a1.holds and abs(a1.k_phi - 15.0) < 1e-9
          and abs(a2.bound - 3.75) < 1e-9 and not a2.holds
          and cert.q1_min_eig > 0.0 and cert.q2_min_eig > 0.0 and cert.schur_ok)
    _report(2, "k_phi = 15, damping bound 3.75, certificate passes at gamma = 4", ok,
            f"k_phi={a1.k_phi:.12g}, bound={a2.bound:.12g}, "
            f"q1_min={cert.q1_min_eig:.3g}, q2_min={cert.q2_min_eig:.3g}")


def test_criterion_03_frequency_restoration(paper_sc, paper_trajs):
    start = time.perf_counter()
    model = m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=False)
    traj = m.integrate(model, paper_sc.scenario)
    elapsed = time.perf_counter() - start
    freq = model.rows("frequencies")
    final_dev = np.abs(traj.series[-1, freq] - paper_sc.cfg.omega_ref)
    dec_errors = {}
    for variant in (m.Variant.DIST_GEN_DEC_CONV, m.Variant.DEC_GEN_DEC_CONV):
        dev = np.abs(paper_trajs[variant].series[-1, freq] - paper_sc.cfg.omega_ref)
        dec_errors[variant.value] = dev.max()
    ok = (final_dev.max() < 1e-4 and elapsed < 30.0
          and all(v > 1e-4 for v in dec_errors.values()))
    _report(3, "full restoration for distributed control, static error otherwise", ok,
            f"restored_to={final_dev.max():.3g}, decentral_errors={dec_errors}, "
            f"runtime={elapsed:.1f}s")


def test_criterion_04_equilibrium_identities(paper_sc, paper_model_reduced):
    u = m.disturbance_map(paper_model_reduced, [(0, 1, -0.2)])
    rep = m.equilibrium(paper_model_reduced, u)
    dist_dec = m.assemble_resistive(
        paper_sc.net, paper_sc.areas,
        replace(paper_sc.cfg, variant=m.Variant.DIST_GEN_DEC_CONV), reduced=True)
    rep_dec = m.equilibrium(dist_dec, u)
    ok = (rep.avg_freq_residual < 1e-9 and rep.kkt_volt_residual < 1e-9
          and rep.kkt_gen_residual < 1e-9
          and rep_dec.avg_freq_residual < 1e-9 and rep_dec.kkt_volt_residual < 1e-9)
    _report(4, "weighted frequency, voltage, and generation identities at equilibrium", ok,
            f"avg_freq={rep.avg_freq_residual:.2g}, kkt_volt={rep.kkt_volt_residual:.2g}, "
            f"kkt_gen={rep.kkt_gen_residual:.2g}, dist/dec volt={rep_dec.kkt_volt_residual:.2g}")


def test_criterion_05_power_sharing(paper_model_reduced):
    u = m.disturbance_map(paper_model_reduced, [(0, 1, -0.2)])
    rep = m.equilibrium(paper_model_reduced, u)
    totals = rep.area_gen_totals
    rel_spread = (totals.max() - totals.min()) / abs(totals.mean())
    net, areas, cfg = single_gen_system(2, gamma=0.0)
    model = m.assemble_resistive(net, areas, cfg, reduced=True)
    p = 0.2
    rep2 = m.equilibrium(model, np.array([-p, 0.0]))
    sym_err = np.abs(rep2.p_gen_star - p / 2).max()
    ok = rel_spread < 1e-6 and sym_err < 1e-9
    _report(5, "uniform gains share the loss equally across areas", ok,
            f"relative_spread={rel_spread:.2g}, symmetric_two_area_error={sym_err:.2g}")


def test_criterion_06_gain_limit_sweep(paper_sc, paper_model_reduced):
    cfg = replace(paper_sc.cfg, gamma=4.0)
    u = m.disturbance_map(paper_model_reduced, [(0, 1, -0.2)])
    rows = m.gain_limit_sweep(paper_sc.net, paper_sc.areas, cfg, u, (1.0, 10.0, 100.0))
    devs = [r.max_abs_freq_dev for r in rows]
    kkts = [r.kkt_gen_residual for r in rows]
    ok = (all(r.is_hurwitz for r in rows)
          and devs[0] > devs[1] > devs[2] and kkts[0] > kkts[1] > kkts[2])
    _report(6, "frequency deviation and generation misfit shrink as gains grow", ok,
            f"max|freq_dev|={[f'{v:.3g}' for v in devs]}, kkt={[f'{v:.3g}' for v in kkts]}")


def test_criterion_07_lyapunov_monotonicity(paper_sc):
    cfg = replace(paper_sc.cfg, gamma=4.0)
    model = m.assemble_resistive(paper_sc.net, paper_sc.areas, cfg, reduced=True)
    scen = replace(paper_sc.scenario, record_every=10)
    trace_res = lyapunov_trace(model, scen)
    net_pi, areas_pi, cfg_pi = _single_gen_reference(paper_sc, gamma=4.0)
    model_pi = m.assemble_pi_link(net_pi, areas_pi, cfg_pi, reduced=True)
    scen_pi = replace(scen, disturbances=(m.DisturbanceEvent(1.0, 0, 0, -0.2),))
    trace_pi = lyapunov_trace(model_pi, scen_pi)
    ok = trace_res.max_step_increase <= 1e-8 and trace_pi.max_step_increase <= 1e-8
    _report(7, "candidate function nonincreasing along damped trajectories", ok,
            f"max_increase resistive={trace_res.max_step_increase:.2g}, "
            f"pi_link={trace_pi.max_step_increase:.2g}")


def test_criterion_08_model_equivalences(paper_sc, paper_model_full):
    # (a) full vs reduced output trajectories
    red = m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True)
    y_full = outputs(m.integrate(paper_model_full, paper_sc.scenario))
    y_red = outputs(m.integrate(red, paper_sc.scenario))
    out_gap = np.abs(y_full - y_red).max()

    # (b) pi-link equilibrium voltages match the resistive model
    gaps = []
    for segments in (1, 4):
        net, areas, cfg = _single_gen_reference(paper_sc, segments=segments)
        res = m.assemble_resistive(net, areas, cfg, reduced=True)
        pil = m.assemble_pi_link(net, areas, cfg, reduced=True)
        u = m.disturbance_map(res, [(0, 0, -0.2)])
        v_res = m.equilibrium(res, u).v_hat_star
        v_pi = m.equilibrium(pil, u).v_hat_star
        gaps.append(np.abs(v_res - v_pi).max())

    # (c) equilibrium solver matches a long simulation on random stable systems
    rng = np.random.default_rng(17)
    sim_gap = 0.0
    for _ in range(10):
        net, areas, cfg = random_stable_config(rng)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        u = rng.uniform(-0.3, 0.3, model.total_buses)
        rep = m.equilibrium(model, u)
        events = tuple(m.DisturbanceEvent(0.0, i, 0, u[i]) for i in range(model.total_buses))
        traj = m.integrate(model, m.Scenario(t_end=500.0, dt=0.01, record_every=1000,
                                             disturbances=events))
        sim_gap = max(sim_gap, float(np.abs(traj.states[-1] - rep.x_star).max()))

    ok = out_gap < 1e-9 and max(gaps) < 1e-8 and sim_gap < 1e-6
    _report(8, "full/reduced, pi-link/resistive, solver/simulation all agree", ok,
            f"output_gap={out_gap:.2g}, dc_voltage_gaps={[f'{g:.2g}' for g in gaps]}, "
            f"long_sim_gap={sim_gap:.2g}")


def test_criterion_09_block_oracle():
    worst = 0.0
    rng = np.random.default_rng(29)
    for variant in m.Variant:
        net, areas, cfg = multi_gen_system(variant=variant, gamma=0.5)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        _oracle_check(net, areas, cfg, model, rng, n_states=100)
        net2, areas2, cfg2 = single_gen_system(3, gamma=1.0, variant=variant)
        net2 = m.MtdcNetwork(
            cap=net2.cap,
            lines=tuple(m.DcLine(ln.i, ln.j, ln.r, l=ln.l, c=ln.c, segments=3)
                        for ln in net2.lines))
        model2 = m.assemble_pi_link(net2, areas2, cfg2, reduced=False)
        _oracle_check(net2, areas2, cfg2, model2, rng, n_states=100)
    _report(9, "assembled rows reproduce the per-equation right-hand sides", True,
            "100 random states x 4 variants x 2 plant models, tolerance 1e-12")


def test_criterion_10_step_size_insensitivity(paper_sc, paper_trajs):
    base = paper_trajs[m.Variant.DIST_GEN_DIST_CONV]
    halved = m.integrate(base.model, replace(paper_sc.scenario, dt=5e-4, record_every=20))
    gap = float(np.abs(base.states[-1] - halved.states[-1]).max())
    _report(10, "halving the step leaves the terminal state unchanged", gap < 1e-8,
            f"terminal_gap={gap:.2g}")
