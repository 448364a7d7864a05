"""Integration: steppers, event handling, determinism, mode equivalences."""

import ast
import inspect
import json
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import mtdcsim as m
from mtdcsim import _blas, _kernels, cli
from mtdcsim.config import SystemConfig
from mtdcsim.sim import MAX_SAMPLES, MAX_STEPS, _record_steps, _segments, discretize

from conftest import (compare_variants, lyapunov_trace, outputs, random_stable_config, row_block,
                      single_gen_system)
from direct_rhs import direct_controls, direct_rhs, flatten, unflatten


def _run_kernel(a, t_end, dt, x0):
    n_steps = int(round(t_end / dt))
    bounds = np.array([0, n_steps], dtype=np.int64)
    rec = np.array([0, n_steps], dtype=np.int64)
    out = np.empty((2, a.shape[0]))
    phi, gc = discretize(a, np.zeros((a.shape[0], 1)), dt)
    prop = _kernels.Propagator(phi, *[None] * 6)  # the linear kernel reads phi alone
    status = _kernels.KERNELS["exact_linear"](prop, np.ascontiguousarray(gc.T), bounds, x0, rec, out)
    assert status == -1
    return out[-1]


def _reference_exact(model, scenario):
    """Linear stepper from rest, one step at a time, with the full gamma of
    the 2n-augmented exponential [[A, I], [0, 0]] dt; returns (status,
    record times, recorded states), the states NaN past an abort."""
    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    bounds, inputs = _segments(model, scenario)
    rec_steps = _record_steps(n_steps, scenario.record_every)
    dim = model.dim
    aug = np.zeros((2 * dim, 2 * dim))
    aug[:dim, :dim] = model.a * dt
    aug[:dim, dim:] = np.eye(dim) * dt
    big = expm(aug)
    phi, gam = big[:dim, :dim], big[:dim, dim:]
    c_seg = inputs @ model.b_dist.T @ gam.T
    out = np.full((rec_steps.shape[0], dim), np.nan)
    x = np.zeros(dim)
    out[0] = x
    ri = 1
    for s in range(c_seg.shape[0]):
        c = c_seg[s]
        for step in range(bounds[s], bounds[s + 1]):
            x = np.dot(phi, x) + c
            if ri < rec_steps.shape[0] and rec_steps[ri] == step + 1:
                out[ri] = x
                ri += 1
                if not np.all(np.isfinite(x)):
                    return step + 1, rec_steps * dt, out
    return -1, rec_steps * dt, out


def _strided_exact(prop, c_seg, seg_bounds, x0, rec_steps, out):
    """The linear kernel as it was before recorded samples were computed in
    blocks: one matrix-vector product per knot of ``union(rec_steps,
    seg_bounds)`` and a finiteness check per recorded sample. The shipped
    kernel must stay within 1e-10 of its largest state. It takes the
    shipped kernel's arguments but uses only ``phi = prop.phi``."""
    phi = prop.phi
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


def _reference_correction(x, pinj_sel, cap_inv, v_ref, v_nom, vhat_off, g):
    g[:] = 0.0
    p = np.dot(pinj_sel, x)
    for i in range(p.shape[0]):
        v = x[vhat_off + i] + v_ref[i]
        if v < 0.5:
            return False
        g[vhat_off + i] = cap_inv[i] * p[i] * (1.0 / v - 1.0 / v_nom)
    return True


def _reference_etd2(model, scenario):
    """Nonlinear Heun stepper written out per converter, with two full
    ``gamma @ g`` products per step; returns (status, recorded states)."""
    n_steps = int(round(scenario.t_end / scenario.dt))
    bounds, inputs = _segments(model, scenario)
    rec_steps = _record_steps(n_steps, scenario.record_every)
    # phi, c_seg and gamma[:, vdc] from the same exponential integrate takes;
    # gamma is zero-filled outside vdc, where g is zero anyway
    vdc = model.layout.sl("vdc")
    n_seg = inputs.shape[0]
    cols = np.hstack([model.b_dist @ inputs.T, np.eye(model.dim)[:, vdc]])
    phi, gc = discretize(model.a, cols, scenario.dt)
    c_seg = gc[:, :n_seg].T
    gam = np.zeros((model.dim, model.dim))
    gam[:, vdc] = gc[:, n_seg:]
    args = (row_block(model, "injections"), 1.0 / np.array(model.net.cap),
            np.array(model.net.v_ref, dtype=float), model.net.v_nom, model.layout.sl("vdc").start)
    out = np.empty((rec_steps.shape[0], model.dim))
    x = np.zeros(model.dim)
    g1 = np.zeros(model.dim)
    g2 = np.zeros(model.dim)
    out[0] = x
    ri = 1
    for s in range(c_seg.shape[0]):
        c = c_seg[s]
        for step in range(bounds[s], bounds[s + 1]):
            if not _reference_correction(x, *args, g1):
                return step, out
            xs = np.dot(phi, x) + c + np.dot(gam, g1)
            if not _reference_correction(xs, *args, g2):
                return step, out
            x = np.dot(phi, x) + c + np.dot(gam, 0.5 * (g1 + g2))
            if ri < rec_steps.shape[0] and rec_steps[ri] == step + 1:
                out[ri] = x
                ri += 1
                if not np.all(np.isfinite(x)):
                    return step + 1, out
    return -1, out


def _array_etd2(phi, gam_v, c_seg, seg_bounds, x0, pinj_sel, cap_inv,
                v_ref, v_nom, vdc, rec_steps, out):
    """The nonlinear kernel with numpy arrays throughout, one full step at a
    time, as it was before the per-converter correction moved to Python
    floats and the steps to blocks in output space; the shipped kernel must
    stay within 1e-10 of its largest state and abort at the same step."""

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


def _kernel_run(model, scenario, kernel):
    """``integrate`` with ``kernel`` as the kernel of the scenario's mode;
    returns the step of the abort (-1 for none) and the rows the run
    recorded (all of them, or those up to the abort). A run at rest hands
    the kernel the rows from its last record at or before the first input,
    in steps counted from that record; under no input it calls no kernel."""
    seen = []

    def spy(*args):
        seen.append((kernel(*args), args[-1]))
        return seen[-1][0]

    key = "exact_linear" if scenario.mode is m.CouplingMode.LINEAR else "etd2_nonlinear"
    with mock.patch.dict(_kernels.KERNELS, {key: spy}):
        try:
            states = m.integrate(model, scenario).states
        except m.IntegrationError:
            states = None
    if not seen:
        return -1, states
    (status, tail), = seen
    rows = tail.base  # the tail is a view of all the rows integrate records
    if status < 0:
        return status, rows
    rec_steps = _record_steps(int(round(scenario.t_end / scenario.dt)), scenario.record_every)
    status += int(rec_steps[rows.shape[0] - tail.shape[0]])
    return status, rows[:np.searchsorted(rec_steps, status, side="right")]


def _whole_run(model, scenario, x0=None, kernel=None):
    """One call of ``kernel`` (the shipped kernel of the scenario's mode by
    default) over the whole run from step 0, with the inputs ``integrate``
    forms; returns its status and all the rows."""
    n_steps = scenario.n_steps
    bounds, inputs = _segments(model, scenario)
    rec_steps = _record_steps(n_steps, scenario.record_every)
    prop = m.sim._propagator(model, scenario.dt)
    if kernel is None:
        linear = scenario.mode is m.CouplingMode.LINEAR
        kernel = _kernels.KERNELS["exact_linear" if linear else "etd2_nonlinear"]
    x0 = np.zeros(model.dim) if x0 is None else x0
    out = np.empty((rec_steps.shape[0], model.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        return kernel(prop, inputs @ prop.c_map, bounds, x0, rec_steps, out), out


def _array_kernel(model):
    """``_array_etd2`` called with the shipped nonlinear kernel's arguments."""
    vdc = model.layout.sl("vdc")

    def kernel(prop, c_seg, seg_bounds, x0, rec_steps, out):
        return _array_etd2(prop.phi, prop.gam_v, c_seg, seg_bounds, x0,
                           row_block(model, "injections"), prop.cap_inv, prop.v_ref, prop.v_nom,
                           vdc, rec_steps, out)
    return kernel


def _assert_close_to_array_form(model, scenario):
    """The same status as the array form, and states within 1e-10 of its
    largest finite state (a non-finite one in the same place); returns the
    status."""
    want_status, want = _kernel_run(model, scenario, _array_kernel(model))
    got_status, got = _kernel_run(model, scenario, _kernels.etd2_nonlinear)
    assert got_status == want_status
    scale = np.abs(want[np.isfinite(want)]).max(initial=0.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * scale)
    return got_status


def _assert_expm_matches_scipy(a):
    """``a`` square, or the top rows of a matrix whose other rows are zero."""
    square = np.zeros((a.shape[1], a.shape[1]))
    square[:a.shape[0]] = a
    got, want = m.sim.expm(a), expm(square)[:a.shape[0]]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMatrixExponential:
    """The package's numpy ``expm`` against ``scipy.linalg.expm`` as the oracle."""

    def test_random_matrices_from_small_to_large_norm(self):
        """Random matrices of 1-norm 1e-3 (no squaring) to 5e3 (about ten squarings)."""
        rng = np.random.default_rng(2009)
        for norm in (1e-3, 0.1, 0.5, 1.5, 4.0, 30.0, 5e3):
            for n in (1, 2, 3, 8, 33, 120):
                g = rng.standard_normal((n, n))
                a = g * (norm / np.abs(g).sum(axis=0).max())
                # rightmost eigenvalue at 0, so exp(a) neither over- nor underflows
                a -= np.linalg.eigvals(a).real.max() * np.eye(n)
                _assert_expm_matches_scipy(a)

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_zero_matrix(self, n):
        np.testing.assert_array_equal(m.sim.expm(np.zeros((n, n))), np.eye(n))

    def test_reference_augmented_matrices(self, paper_model_full, paper_sc, monkeypatch):
        """The top rows of the Van Loan matrix that the linear and nonlinear
        reference runs share: the state matrix, every disturbance column and
        the unit DC-voltage columns."""
        seen = []
        real_expm = m.sim.expm
        monkeypatch.setattr(m.sim, "expm", lambda a: seen.append(a) or real_expm(a))
        model = replace(paper_model_full)
        scen = replace(paper_sc.scenario, t_end=2.0)
        m.integrate(model, scen)
        m.integrate(model, replace(scen, mode=m.CouplingMode.NONLINEAR))
        monkeypatch.undo()
        vdc = model.layout.sl("vdc")
        n_vdc = vdc.stop - vdc.start
        assert [a.shape for a in seen] == [(model.dim, model.dim + model.b_dist.shape[1] + n_vdc)]
        _assert_expm_matches_scipy(seen[0])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_closed_loops(self, seed):
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        dt = float(rng.choice([1e-4, 1e-3, 1e-2]))
        dim = model.dim
        aug = np.zeros((dim + 1, dim + 1))
        aug[:dim, :dim] = model.a * dt
        aug[:dim, dim] = model.b_dist @ rng.uniform(-1.0, 1.0, model.b_dist.shape[1]) * dt
        _assert_expm_matches_scipy(aug)

    def test_rounding_bound_cannot_overflow(self):
        """|b|^27 of this nilpotent b overflows as a plain product, so the
        rounding bound is accumulated in logarithms: the call neither raises
        nor warns (its result is out of reach of double precision anyway)."""
        b = np.array([[1.0, 1.0], [-1.0, -1.0]]) * 1e12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m.sim.expm(b).shape == (2, 2)

    @pytest.mark.parametrize("a", [np.full((3, 3), 1e200), np.diag(np.full(8, 1e40), k=1)],
                             ids=["a2_overflows", "a8_bound_overflows"])
    def test_overflowing_powers_give_nan_without_warning(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.sim.expm(a)
        assert np.isnan(got).all()


class TestSteppers:
    def test_exact_matches_analytic_decay(self):
        final = _run_kernel(np.array([[-1.0]]), 1.0, 0.01, np.array([1.0]))
        assert abs(final[0] - np.exp(-1.0)) < 1e-12

    def test_discretize_singular_matrix(self):
        """Zero-order hold must not require an invertible state matrix."""
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        phi, gam = discretize(a, np.eye(2), 0.5)
        np.testing.assert_allclose(phi, [[1.0, 0.5], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(gam, [[0.5, 0.125], [0.0, 0.5]], atol=1e-14)


class TestIntegrate:
    def test_zero_disturbance_stays_at_origin(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        traj = m.integrate(model, m.Scenario(t_end=1.0, dt=1e-3))
        np.testing.assert_array_equal(traj.states, np.zeros_like(traj.states))
        np.testing.assert_array_equal(traj.series, np.tile(model.series_offset, (traj.times.size, 1)))

    def test_stable_decay_from_initial_state(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        rng = np.random.default_rng(0)
        x0 = 0.01 * rng.standard_normal(model.dim)
        scen = m.Scenario(t_end=200.0, dt=1e-2, record_every=100)
        status, states = _whole_run(model, scen, x0)
        assert status == -1
        assert np.linalg.norm(states[-1]) < 1e-6 * np.linalg.norm(x0) + 1e-12

    def test_event_applied_at_first_step_boundary(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        scen = m.Scenario(t_end=1.0, dt=1e-3,
                          disturbances=(m.DisturbanceEvent(0.5001, 0, 0, -0.1),))
        traj = m.integrate(model, scen)
        assert np.all(traj.states[traj.times <= 0.501] == 0.0)
        assert np.any(traj.states[traj.times > 0.502] != 0.0)

    def test_determinism_bit_identical(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        scen = m.Scenario(t_end=2.0, dt=1e-3,
                          disturbances=(m.DisturbanceEvent(0.2, 0, 0, -0.1),))
        t1 = m.integrate(model, scen)
        t2 = m.integrate(model, scen)
        np.testing.assert_array_equal(t1.states, t2.states)

    def test_full_and_reduced_outputs_agree(self, two_area):
        net, areas, cfg = two_area
        full = m.assemble_resistive(net, areas, cfg, reduced=False)
        red = m.assemble_resistive(net, areas, cfg, reduced=True)
        scen = m.Scenario(t_end=5.0, dt=1e-3,
                          disturbances=(m.DisturbanceEvent(0.5, 1, 0, -0.2),))
        y_full = outputs(m.integrate(full, scen))
        y_red = outputs(m.integrate(red, scen))
        assert np.abs(y_full - y_red).max() < 1e-9

    def test_halving_dt_changes_terminal_state_negligibly(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        ev = (m.DisturbanceEvent(0.5, 0, 0, -0.2),)
        t1 = m.integrate(model, m.Scenario(t_end=5.0, dt=1e-3, disturbances=ev))
        t2 = m.integrate(model, m.Scenario(t_end=5.0, dt=5e-4, disturbances=ev))
        assert np.abs(t1.states[-1] - t2.states[-1]).max() < 1e-8

    def test_record_every_decimation(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        traj = m.integrate(model, m.Scenario(t_end=1.0, dt=1e-3, record_every=100))
        np.testing.assert_allclose(np.diff(traj.times), 0.1)

    def test_derived_series_match_control_laws(self, two_area):
        """p_gen / p_inj columns reproduce the scalar-loop oracle's laws."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        scen = m.Scenario(t_end=2.0, dt=1e-3,
                          disturbances=(m.DisturbanceEvent(0.2, 0, 0, -0.15),))
        traj = m.integrate(model, scen)
        k = traj.states.shape[0] // 2
        x = traj.states[k]
        p_gen, p_inj = direct_controls(areas, cfg, unflatten(model.layout, x))
        np.testing.assert_allclose(row_block(model, "bus_generation") @ x, p_gen, atol=1e-13)
        bus_offsets = np.cumsum([0, *(area.n_buses for area in areas[:-1])])
        np.testing.assert_allclose(traj.series[k, model.rows("generation")],
                                   np.add.reduceat(p_gen, bus_offsets), atol=1e-13)
        np.testing.assert_allclose(traj.series[k, model.rows("injections")], p_inj,
                                   atol=1e-13)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="dt"):
            m.Scenario(t_end=1.0, dt=0.05)
        with pytest.raises(ValueError, match="event time"):
            m.Scenario(t_end=1.0, disturbances=(m.DisturbanceEvent(2.0, 0, 0, 1.0),))
        with pytest.raises(ValueError, match="t_end is inf steps"):  # t_end / dt overflows
            m.Scenario(t_end=1e308)
        # integrate steps through the record grid with range(), which takes integers only
        for every in (2.0, True, 0):
            with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
                m.Scenario(t_end=0.05, record_every=every)
        assert m.Scenario(t_end=0.05, record_every=np.int64(2)).record_every == 2
        # the size bounds, at their edges: MAX_STEPS steps, MAX_SAMPLES samples
        dt = 2.0 ** -10
        m.Scenario(t_end=MAX_STEPS * dt, dt=dt, record_every=2**80)
        with pytest.raises(ValueError, match="more than MAX_STEPS = 9007199254740992$"):
            m.Scenario(t_end=2 * MAX_STEPS * dt, dt=dt, record_every=2**80)
        m.Scenario(t_end=(MAX_SAMPLES - 1) * dt, dt=dt)
        with pytest.raises(ValueError, match="1e\\+06 samples .* more than MAX_SAMPLES = 1000000$"):
            m.Scenario(t_end=MAX_SAMPLES * dt, dt=dt)

    @pytest.mark.parametrize("build, message", [
        (lambda: m.DisturbanceEvent(0.5, 0, 0, float("nan")), "event magnitude must be finite"),
        (lambda: m.DisturbanceEvent(0.5, 0, 0, float("-inf")), "event magnitude must be finite"),
        (lambda: m.DisturbanceEvent(0.5, 0.0, 0, -0.1), "event area must be an integer"),
        (lambda: m.DisturbanceEvent(0.5, 0, True, -0.1), "event bus must be an integer"),
        (lambda: m.Scenario(t_end=1.0, disturbances=((0.5, 1.0, 0, -0.1),)),
         "event area must be an integer"),
        (lambda: m.AcArea(inertia=(1.0, 2.0), ac_lines=((0, 1, 1.0),), p_m=(0.0, float("nan"))),
         r"p_m\[1\]: must be finite"),
    ], ids=["magnitude_nan", "magnitude_inf", "area_float", "bus_bool", "event_tuple",
            "p_m_nan"])
    def test_non_finite_or_non_integer_input_refused(self, build, message):
        """Inputs built through the library are refused where they are built,
        not reported later as a numerical abort or a raw ``TypeError``."""
        with pytest.raises(ValueError, match=message):
            build()

    def test_overflowing_series_abort_at_their_first_record(self, paper_sc, paper_model_reduced):
        """An event of 1e308 keeps the states finite, but the series overflow:
        the run aborts at the first such record, without a warning, and the
        run one record shorter is finite throughout."""
        event = replace(paper_sc.scenario.disturbances[0], magnitude=1e308)
        scen = replace(paper_sc.scenario, t_end=5.0, disturbances=(event,))
        with pytest.raises(m.IntegrationError, match=r"^integration aborted at t = \d\.\d+ s "
                                                     r"\(non-finite derived series\)$") as exc:
            m.integrate(paper_model_reduced, scen)
        t_abort = float(str(exc.value).split()[5])
        assert t_abort > event.time
        traj = m.integrate(paper_model_reduced, replace(scen, t_end=round(t_abort - 0.01, 2)))
        assert np.isfinite(traj.series).all()

    @pytest.mark.parametrize("overflow, t_abort", [
        ("same_time", "1.01"), ("two_times", "1.51"), ("baseline_plus_event", "1.01")])
    def test_overflowing_input_sum_aborts_once(self, paper_sc, overflow, t_abort):
        """Finite inputs whose sum on one bus overflows, the event of 1e308
        twice (at one time or 0.5 s apart) or a baseline p_m of 1e308 plus
        the event: the run aborts at the first record after the sum, with
        ``IntegrationError`` and no warning."""
        event = replace(paper_sc.scenario.disturbances[0], magnitude=1e308)
        events = {"same_time": (event, event),
                  "two_times": (event, replace(event, time=event.time + 0.5)),
                  "baseline_plus_event": (event,)}[overflow]
        areas = list(paper_sc.areas)
        if overflow == "baseline_plus_event":
            p_m = np.zeros(areas[event.area].n_buses)
            p_m[event.bus] = 1e308
            areas[event.area] = replace(areas[event.area], p_m=tuple(p_m))
        model = m.assemble_resistive(paper_sc.net, areas, paper_sc.cfg)
        scen = replace(paper_sc.scenario, t_end=5.0, disturbances=events)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(m.IntegrationError, match=rf"^integration aborted at t = {t_abort} s "):
                m.integrate(model, scen)

    @pytest.mark.parametrize("mode", list(m.CouplingMode))
    def test_overflowed_phi_aborts_at_rest(self, two_area, mode):
        """A DC-voltage state cut off from the rest of the loop and growing at
        1e6 1/s overflows phi in its last squaring, while gamma's columns stay
        finite: a run at rest aborts at its first record, where stepping from
        t = 0 multiplies the zero state by phi, not after its first event."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        i = model.layout.sl("vdc").start
        a = model.a.copy()
        a[i, :] = a[:, i] = 0.0
        a[i, i] = 1e6
        scen = m.Scenario(t_end=1.0, dt=1e-3, record_every=10, mode=mode,
                          disturbances=(m.DisturbanceEvent(0.5, 0, 0, -0.1),))
        with pytest.raises(m.IntegrationError, match="non-finite") as err:
            m.integrate(replace(model, a=a), scen)
        assert "aborted at t = 0.01 s" in str(err.value)

    @given(seed=st.integers(0, 2**32 - 1), reduced=st.booleans(),
           mode=st.sampled_from(list(m.CouplingMode)), every=st.sampled_from([1, 7, 10]),
           n_steps=st.integers(20, 300), start=st.sampled_from(["rest", "p_m"]),
           events=st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), max_size=2))
    # no input at all; a run under a baseline p_m; an event on the record
    # before the last, at the end, and off the grid in the last interval
    @example(seed=1, reduced=True, mode=m.CouplingMode.NONLINEAR, every=10, n_steps=200,
             start="rest", events=[])
    @example(seed=2, reduced=True, mode=m.CouplingMode.NONLINEAR, every=7, n_steps=200,
             start="p_m", events=[(0.5, True)])
    @example(seed=3, reduced=False, mode=m.CouplingMode.LINEAR, every=10, n_steps=200,
             start="rest", events=[(0.95, True)])
    @example(seed=3, reduced=True, mode=m.CouplingMode.NONLINEAR, every=10, n_steps=200,
             start="rest", events=[(0.95, True)])
    @example(seed=4, reduced=True, mode=m.CouplingMode.LINEAR, every=10, n_steps=200,
             start="rest", events=[(1.0, True)])
    @example(seed=5, reduced=False, mode=m.CouplingMode.NONLINEAR, every=10, n_steps=205,
             start="rest", events=[(0.99, False)])
    @settings(max_examples=30, deadline=None)
    def test_equals_one_kernel_call_from_step_zero(self, seed, reduced, mode, every, n_steps,
                                                   start, events):
        """A run at rest that starts at its first input records what one call
        of the same kernel over the whole run from step 0 records, bit for
        bit and with the same signs of zero: +0.0 throughout under no input.
        A run under a baseline input starts at step 0."""
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        if start == "p_m":
            areas = (replace(areas[0], p_m=(-0.1,)),) + areas[1:]
        model = m.assemble_resistive(net, areas, cfg, reduced=reduced)
        steps = [every * round(frac * (n_steps // every)) if on_grid else round(frac * n_steps)
                 for frac, on_grid in events]
        scen = m.Scenario(t_end=n_steps * 1e-3, dt=1e-3, record_every=every, mode=mode,
                          disturbances=tuple(m.DisturbanceEvent(
                              step * 1e-3, int(rng.integers(net.n)), 0, float(rng.uniform(-0.3, 0.3)))
                              for step in steps))
        status, want = _whole_run(model, scen)
        if status >= 0:
            with pytest.raises(m.IntegrationError, match=f"t = {status * scen.dt:.6g} s"):
                m.integrate(model, scen)
            return
        got = m.integrate(model, scen).states
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        if start == "rest" and all(step == n_steps for step in steps):  # no input in the run
            assert not got.any() and not np.signbit(got).any()


def _solve_ivp_records(model, scenario, times):
    """Independent oracle: Radau on dx = a x + b_dist u, piecewise in time,
    for a scenario whose events lie on the step grid."""
    u = m.baseline_disturbance(model)
    t0, x = 0.0, np.zeros(model.dim)
    pieces = [(ev.time, m.disturbance_map(model, [(ev.area, ev.bus, ev.magnitude)]))
              for ev in sorted(scenario.disturbances, key=lambda ev: ev.time)]
    out = np.empty((times.shape[0], model.dim))
    for t1, delta in pieces + [(scenario.t_end, None)]:
        w = model.b_dist @ u
        keep = (times >= t0) & (times <= t1)
        if t1 > t0:
            sol = solve_ivp(lambda _, y: model.a @ y + w, (t0, t1), x, method="Radau",
                            jac=model.a, rtol=1e-11, atol=1e-17,
                            t_eval=times[keep], dense_output=True)
            if keep.any():  # with no sample in the piece, sol.y is an empty list
                out[keep] = sol.y.T
            x = sol.sol(t1)
        else:
            out[keep] = x
        t0 = t1
        if delta is not None:
            u = u + delta
    return out


class TestStridedPropagation:
    """Linear integrate jumps from one recorded sample to the next; the
    per-step stepper it replaced is kept above as ``_reference_exact``."""

    def test_matches_reference_stepper_on_reference_scenario(self, paper_sc, paper_model_full):
        got = m.integrate(paper_model_full, paper_sc.scenario)
        status, times, want = _reference_exact(paper_model_full, paper_sc.scenario)
        assert status == -1
        np.testing.assert_array_equal(got.times, times)
        assert np.abs(got.states - want).max() <= 1e-8 * np.abs(want).max()

    def test_event_off_the_record_grid(self, two_area):
        """An event at step 502 splits a stride of 7 that does not divide 2000."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        scen = m.Scenario(t_end=2.0, dt=1e-3, record_every=7,
                          disturbances=(m.DisturbanceEvent(0.5013, 0, 0, -0.1),))
        got = m.integrate(model, scen)
        status, times, want = _reference_exact(model, scen)
        assert status == -1
        np.testing.assert_array_equal(got.times, times)
        assert np.abs(got.states - want).max() <= 1e-8 * np.abs(want).max()

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=5207)  # a late 1.5e-4 step: states peak at 1.8e-6, where atol=1e-14 misses 1e-9 relative
    @settings(max_examples=10, deadline=None)
    def test_strided_stepwise_and_solve_ivp_agree(self, seed):
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        events = tuple(m.DisturbanceEvent(1e-3 * int(rng.integers(0, 500)), int(rng.integers(net.n)),
                                          0, float(rng.uniform(-0.5, 0.5)))
                       for _ in range(int(rng.integers(1, 3))))
        scen = m.Scenario(t_end=0.5, dt=1e-3, record_every=int(rng.integers(1, 14)),
                          disturbances=events)
        got = m.integrate(model, scen)
        status, times, want = _reference_exact(model, scen)
        assert status == -1
        np.testing.assert_array_equal(got.times, times)
        scale = np.abs(want).max()
        assert np.abs(got.states - want).max() <= 1e-8 * scale
        ivp = _solve_ivp_records(model, scen, times)
        assert np.abs(got.states - ivp).max() <= 1e-9 * scale

    def test_non_hurwitz_aborts_at_reference_record_time(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        unstable = replace(model, a=model.a + 800.0 * np.eye(model.dim))
        scen = m.Scenario(t_end=2.0, dt=1e-3, record_every=7,
                          disturbances=(m.DisturbanceEvent(0.1, 0, 0, -0.1),))
        with np.errstate(over="ignore", invalid="ignore"):
            status, _, _ = _reference_exact(unstable, scen)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the abort is the only report
            with pytest.raises(m.IntegrationError, match="non-finite") as err:
                m.integrate(unstable, scen)
        assert status > 0
        assert f"t = {status * scen.dt:.6g} s" in str(err.value)


class TestDiscretizationMemo:
    """Each model discretizes once per step size: later runs reuse phi, the
    input integral and the powers of phi, and give the same states as a
    run on a fresh copy."""

    def test_one_discretization_per_model_and_step(self, two_area, monkeypatch):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        calls = {"discretize": 0, "expm": 0, "matrix_power": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(m.sim, "discretize", counting("discretize", m.sim.discretize))
        monkeypatch.setattr(m.sim, "expm", counting("expm", m.sim.expm))
        monkeypatch.setattr(np.linalg, "matrix_power",
                            counting("matrix_power", np.linalg.matrix_power))

        def run(model, dt=1e-3, mode=m.CouplingMode.LINEAR, area=0, magnitude=-0.1):
            ev = (m.DisturbanceEvent(0.2, area, 0, magnitude),)
            m.integrate(model, m.Scenario(t_end=1.0, dt=dt, record_every=10, disturbances=ev,
                                          mode=mode))

        run(model)
        assert calls["discretize"] == calls["expm"] == 1
        assert calls["matrix_power"] > 0
        before = dict(calls)
        powers = model.zoh_memo[1e-3]._powers
        cached = [id(p) for p in powers.values()]
        run(model, area=1, magnitude=0.3)
        run(model, mode=m.CouplingMode.NONLINEAR, magnitude=-0.2)
        run(model, mode=m.CouplingMode.NONLINEAR, area=1)
        assert calls == before
        assert [id(p) for p in powers.values()] == cached  # no power formed again
        run(replace(model, a=model.a.copy()))
        assert calls["discretize"] == 2
        run(model, dt=2e-3)
        assert calls["discretize"] == 3
        assert set(model.zoh_memo) == {1e-3, 2e-3}

    def test_event_offsets_keep_no_new_powers(self, two_area):
        """Events at every offset inside a stride of 10 keep only the powers
        of two, the stride's power and its block power; so does an event
        5 steps before the last, 5-step-long recorded interval, which makes
        a run of two recorded 5-step intervals in one segment."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        for offset in range(10):
            ev = (m.DisturbanceEvent((200 + offset) * 1e-3, 0, 0, -0.1),)
            m.integrate(model, m.Scenario(t_end=1.0, dt=1e-3, record_every=10, disturbances=ev))
        trailing = m.Scenario(t_end=0.095, dt=1e-3, record_every=10,
                              disturbances=(m.DisturbanceEvent(0.085, 0, 0, -0.1),))
        got = m.integrate(model, trailing).states
        status, _, want = _reference_exact(model, trailing)
        assert status == -1
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        kept = set(model.zoh_memo[1e-3]._powers)
        assert {k for k, b in kept if b == 1} <= {1, 2, 4, 8, 10}
        assert {k for k, b in kept if b > 1} == {10}

    def test_lone_stride_interval_keeps_the_stride_power(self, two_area):
        """A stride-length interval that is the only recorded one of its
        segment (steps 70 to 77 between events at steps 70 and 80) is
        advanced by the stride's power, which is kept like that of any other
        run at the stride; a run that records its end alone has no stride
        and keeps the powers of two only. Both match the per-step stepper,
        and after runs at other strides and offsets the model gives the
        states of a fresh copy bit for bit."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)

        def scenario(t_end, stride, *steps):
            return m.Scenario(t_end=t_end, dt=1e-3, record_every=stride, disturbances=tuple(
                m.DisturbanceEvent(step * 1e-3, i % 2, 0, -0.1) for i, step in enumerate(steps)))

        lone = scenario(0.007, 7, 0)
        fresh = replace(model)
        m.integrate(fresh, lone)
        assert set(fresh.zoh_memo[1e-3]._powers) == {(1, 1), (2, 1), (4, 1)}
        for stride, step in ((3, 71), (10, 75), (7, 72), (1, 3)):
            m.integrate(model, scenario(0.2, stride, step))
        for scen in (scenario(0.2, 7, 70, 80), lone):
            got = m.integrate(model, scen).states
            status, _, want = _reference_exact(model, scen)
            assert status == -1
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            np.testing.assert_array_equal(got, m.integrate(replace(model), scen).states)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_history_independence_and_superposition(self, seed):
        """After runs of other events, the other mode and another step size,
        a model gives bit for bit the states of a fresh copy; the linear
        responses to two events add up to the response to both."""
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)

        def event():
            return m.DisturbanceEvent(1e-3 * int(rng.integers(0, 500)), int(rng.integers(net.n)),
                                      0, float(rng.uniform(-0.5, 0.5)))

        def scenario(events, mode=m.CouplingMode.LINEAR, dt=1e-3):
            return m.Scenario(t_end=0.5, dt=dt, record_every=int(rng.integers(1, 14)),
                              disturbances=events, mode=mode)

        one, two = event(), event()
        both = scenario((one, two))
        for history in (scenario((two,), dt=5e-4), scenario((event(),)),
                        scenario((one,), m.CouplingMode.NONLINEAR), scenario((event(), event()))):
            m.integrate(model, history)
        for scen in (both, replace(both, mode=m.CouplingMode.NONLINEAR)):
            np.testing.assert_array_equal(m.integrate(model, scen).states,
                                          m.integrate(replace(model), scen).states)
        x_both = m.integrate(model, both).states
        x_sum = (m.integrate(model, replace(both, disturbances=(one,))).states
                 + m.integrate(model, replace(both, disturbances=(two,))).states
                 - m.integrate(model, replace(both, disturbances=())).states)
        assert np.abs(x_both - x_sum).max() <= 1e-12 * np.abs(x_both).max()

    def test_nonlinear_run_independent_of_earlier_strides(self, paper_sc, paper_model_full):
        """The nonlinear kernel's block matrices and the powers of phi that
        other strides formed first leave a reference run bit for bit as on a
        fresh copy."""
        model = replace(paper_model_full)
        scen = replace(paper_sc.scenario, t_end=2.0, mode=m.CouplingMode.NONLINEAR)
        for stride in (7, 37, 1):
            m.integrate(model, replace(scen, record_every=stride))
        np.testing.assert_array_equal(m.integrate(model, scen).states,
                                      m.integrate(replace(model), scen).states)


# (stride, event offsets in steps from 3 strides): on the record grid, off it,
# and two events inside one stride, where the stride leaves room for them
_EVENT_CASES = [(stride, offsets) for stride in (1, 2, 7, 10, 13)
                for offsets in ((0,), (1,), (1, 2)) if max(offsets) < stride]


class TestBlockedPropagation:
    """Runs of recorded samples computed in blocks of b =
    ``_kernels.LINEAR_BLOCK`` rows: the first b rows by a chain of
    products by the stride's power, each later block from the b rows before
    it by one matrix-matrix product. The sample-by-sample loop it replaced
    is kept above as ``_strided_exact``."""

    @pytest.mark.parametrize("block", [3, 8])
    @pytest.mark.parametrize("stride, offsets", _EVENT_CASES)
    def test_matches_strided_loop_around_the_block_size(self, two_area, monkeypatch, stride,
                                                        offsets, block):
        """Run lengths 1, b - 1, b, b + 1 and 2b + 1 after the last event, at
        a block size held at b; a last interval shorter than the stride
        follows the run."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        monkeypatch.setattr(_kernels, "LINEAR_BLOCK", block)
        events = tuple(m.DisturbanceEvent((3 * stride + off) * 1e-3, i % 2, 0, -0.1 / (i + 1))
                       for i, off in enumerate(offsets))
        first = -(-(3 * stride + offsets[-1]) // stride) * stride  # record step at or after them
        for n_rec in (1, block - 1, block, block + 1, 2 * block + 1):
            n_steps = first + n_rec * stride + stride // 2
            scen = m.Scenario(t_end=n_steps * 1e-3, dt=1e-3, record_every=stride,
                              disturbances=events)
            status, _, want = _reference_exact(model, scen)
            old_status, old = _kernel_run(model, scen, _strided_exact)
            got_status, got = _kernel_run(model, scen, _kernels.exact_linear)
            assert status == old_status == got_status == -1
            scale = np.abs(want).max()
            assert np.abs(got - old).max() <= 1e-10 * scale
            assert np.abs(got - want).max() <= 1e-8 * scale

    def test_matches_strided_loop_on_reference_scenario(self, paper_sc, paper_model_full):
        """The 100 samples before the event: the chain of 32, two blocks
        and a partial one of 4 rows; the 4400 after it: the chain, 136 blocks
        and a partial one of 16 rows."""
        old_status, want = _kernel_run(paper_model_full, paper_sc.scenario, _strided_exact)
        status, got = _kernel_run(paper_model_full, paper_sc.scenario, _kernels.exact_linear)
        assert status == old_status == -1
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_one_block_power_per_stride(self, paper_sc, paper_model_full):
        """Runs of any length at one stride share one block power, so a run
        on a shared model gives the states of the same run on a fresh one."""
        model = replace(paper_model_full)
        event = paper_sc.scenario.disturbances[0]
        for n_rec in (20, 33, 100, 450, 490):
            scen = replace(paper_sc.scenario, t_end=event.time + n_rec * 1e-2, record_every=10)
            got = m.integrate(model, scen).states
            np.testing.assert_array_equal(got, m.integrate(replace(model), scen).states)
        powers = model.zoh_memo[paper_sc.scenario.dt]._powers
        assert [key for key in powers if key[1] > 1] == [(10, 32)]

    @pytest.mark.parametrize("stride, magnitude, n_steps, position", [
        (1, -1e302, 1100, "leading chain"), (1, -1.0, 1100, "first row of a block"),
        (1, -1e-2, 1100, "inside a block"), (1, -1e-2, 1003, "last partial block"),
        (7, -1e250, 1300, "leading chain"), (7, -1e-2, 1300, "first row of a block"),
        (7, -1e-10, 1300, "inside a block"), (7, -1e-10, 1029, "last partial block"),
        (10, -1e250, 1300, "leading chain"), (10, -1e-22, 1400, "first row of a block"),
        (10, -1.0, 1100, "inside a block"), (10, -1e-2, 1010, "last partial block"),
    ])
    def test_abort_inside_a_block(self, two_area, stride, magnitude, n_steps, position):
        """The first non-finite sample in the leading chain, on the first
        row of a block, on another row, and in the last, partial block of the
        run after the event: the same abort time as the per-step stepper,
        and no warning."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        unstable = replace(model, a=model.a + 800.0 * np.eye(model.dim))
        scen = m.Scenario(t_end=n_steps * 1e-3, dt=1e-3, record_every=stride,
                          disturbances=(m.DisturbanceEvent(0.1, 0, 0, magnitude),))
        with np.errstate(over="ignore", invalid="ignore"):
            status, _, _ = _reference_exact(unstable, scen)
        start = -(-100 // stride) * stride  # the run after the event at step 100
        n_rec = (n_steps - start) // stride
        block = _kernels.LINEAR_BLOCK
        row = (status - start) // stride - 1
        tail = max(n_rec - block, 0) % block
        where = ("leading chain" if row < block
                 else "last partial block" if tail and row >= n_rec - tail
                 else "first row of a block" if row % block == 0 else "inside a block")
        assert row < n_rec and where == position, "the horizon no longer puts the abort there"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(m.IntegrationError, match="non-finite") as err:
                m.integrate(unstable, scen)
        assert f"t = {status * scen.dt:.6g} s" in str(err.value)

    @pytest.mark.parametrize("stride, magnitude, n_steps", [
        (1, -1e-6, 1300), (1, -1e-24, 1300), (7, -1e-36, 1300),
        (7, -1e-4, 1015), (10, -1e-5, 1020)])
    def test_abort_time_of_strided_loop_near_overflow(self, two_area, stride, magnitude, n_steps):
        """Where a product with the b-th power, or a product summed in another
        order, overflows a sample earlier or later than the sample-by-sample
        loop, and where the product by the stride's power overflows in its
        partial sums while the state is still finite (about 8e307 in the last
        two cases, where that product alone aborts one sample early), the
        abort is still reported at the sample of the per-step stepper."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        unstable = replace(model, a=model.a + 800.0 * np.eye(model.dim))
        scen = m.Scenario(t_end=n_steps * 1e-3, dt=1e-3, record_every=stride,
                          disturbances=(m.DisturbanceEvent(0.1, 0, 0, magnitude),))
        with np.errstate(over="ignore", invalid="ignore"):
            want, _, _ = _reference_exact(unstable, scen)
            got, _ = _kernel_run(unstable, scen, _kernels.exact_linear)
        assert got == want > 0

    @pytest.mark.parametrize("stride", [1, 7, 10])
    def test_nan_initial_state_aborts_at_first_sample(self, two_area, stride):
        """The kernel itself, since ``integrate`` starts every run at rest."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        x0 = np.zeros(model.dim)
        x0[3] = np.nan
        scen = m.Scenario(t_end=1.0, dt=1e-3, record_every=stride)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, _ = _whole_run(model, scen, x0)
        assert status == stride

    def test_working_memory_of_reference_run(self, paper_sc, paper_model_full):
        """Beyond the states and series it returns, the 45 s reference run on
        a fresh model allocates at most 3 MB at its peak (about 2.5 MB, of
        which the model keeps 1.8 MB: phi, gamma's columns and the powers of
        phi); a second run on the same model at most 0.5 MB (about 0.3 MB)."""
        model = replace(paper_model_full)
        for bound in (3e6, 0.5e6):
            tracemalloc.start()
            try:
                traj = m.integrate(model, paper_sc.scenario)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - traj.states.nbytes - traj.series.nbytes <= bound

    def test_working_memory_of_nonlinear_reference_run(self, paper_sc, paper_model_full):
        """The 5 s nonlinear reference run on a fresh model allocates at most
        3.5 MB beyond what it returns (about 3.2 MB, mostly the exponential's
        work arrays) and leaves the model keeping at most 2.8 MB, 1 MB more
        than the 45 s linear run keeps (about 2.4 MB: phi and four of its
        powers, gamma's columns, and the nonlinear kernel's block matrices,
        themselves at most 1 MB, about 0.9 MB); a second run on the same
        model allocates at most 0.5 MB (about 0.07 MB) and keeps at most
        0.1 MB."""
        model = replace(paper_model_full)
        scen = replace(paper_sc.scenario, t_end=5.0, mode=m.CouplingMode.NONLINEAR)
        for peak_bound, kept_bound in ((3.5e6, 2.8e6), (0.5e6, 0.1e6)):
            tracemalloc.start()
            try:
                traj = m.integrate(model, scen)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            returned = traj.times.nbytes + traj.states.nbytes + traj.series.nbytes
            assert peak - returned <= peak_bound
            assert kept - returned <= kept_bound
        assert sum(a.nbytes for a in model.zoh_memo[scen.dt]._blocks) <= 1e6


class TestNonlinearMode:
    def test_against_reference_solver(self, two_area):
        """Independent oracle: adaptive RK on the scalar-equation right side."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        u = [[-0.2], [0.0]]
        scen = m.Scenario(t_end=4.0, dt=1e-3, mode=m.CouplingMode.NONLINEAR,
                          disturbances=(m.DisturbanceEvent(0.0, 0, 0, -0.2),))
        traj = m.integrate(model, scen)

        def rhs(_, x):
            state = unflatten(model.layout, x)
            return flatten(model.layout, direct_rhs(net, areas, cfg, state, u, mode="nonlinear"))

        ref = solve_ivp(rhs, (0.0, 4.0), np.zeros(model.dim), rtol=1e-11, atol=1e-12,
                        t_eval=[4.0])
        np.testing.assert_allclose(traj.states[-1], ref.y[:, -1], atol=1e-7)

    def test_matches_reference_heun_step(self, paper_sc, paper_model_full, paper_model_reduced):
        """The kernel reproduces the per-converter Heun step, one full step
        at a time, within 1e-10 of the largest state on the reference
        nonlinear scenario, in full and in reduced coordinates."""
        scen = replace(paper_sc.scenario, t_end=5.0, mode=m.CouplingMode.NONLINEAR)
        for model in (paper_model_full, paper_model_reduced):
            status, want = _reference_etd2(model, scen)
            assert status == -1
            got = m.integrate(model, scen).states
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_voltage_collapse_aborts(self):
        net, areas, cfg = single_gen_system(1, variant=m.Variant.DEC_GEN_DEC_CONV,
                                            k_omega=1.0, k_v=1.0, k_droop=1.0, cap=1.0)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        scen = m.Scenario(t_end=20.0, dt=1e-2, mode=m.CouplingMode.NONLINEAR,
                          disturbances=(m.DisturbanceEvent(0.0, 0, 0, -1.2),))
        with pytest.raises(m.IntegrationError, match="0.5") as err:
            m.integrate(model, scen)
        status, _ = _reference_etd2(model, scen)
        assert status > 0
        assert f"t = {status * scen.dt:.6g} s" in str(err.value)

    @pytest.mark.parametrize("t_end, reduced", [(5.0, False), (45.0, False), (5.0, True)],
                             ids=["5.0", "45.0", "reduced-5.0"])
    def test_close_to_array_form(self, paper_sc, paper_model_full, paper_model_reduced, t_end,
                                 reduced):
        """On the full model, and on the reduced one the command line integrates."""
        scen = replace(paper_sc.scenario, t_end=t_end, mode=m.CouplingMode.NONLINEAR)
        model = paper_model_reduced if reduced else paper_model_full
        assert _assert_close_to_array_form(model, scen) == -1

    @pytest.mark.parametrize("stride", [1, 7, 10, 37])
    def test_close_to_array_form_at_record_strides(self, paper_sc, paper_model_full, stride):
        """Strides that divide a block, that do not, and one longer than a
        block (``_kernels.HEUN_BLOCK`` = 32 steps)."""
        scen = replace(paper_sc.scenario, t_end=2.0, record_every=stride,
                       mode=m.CouplingMode.NONLINEAR)
        assert _assert_close_to_array_form(paper_model_full, scen) == -1

    def test_close_to_array_form_with_events_inside_a_block(self, paper_sc, paper_model_full):
        """Events 13 and 20 steps after a recorded sample of stride 37, the
        second 7 steps after the first, and one 3 steps before the end: each
        cuts a block at a segment bound off the record grid."""
        events = tuple(m.DisturbanceEvent(t, area, 0, -0.1)
                       for t, area in ((0.087, 1), (0.094, 3), (1.497, 5)))
        scen = replace(paper_sc.scenario, t_end=1.5, record_every=37, disturbances=events,
                       mode=m.CouplingMode.NONLINEAR)
        assert _assert_close_to_array_form(paper_model_full, scen) == -1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_close_to_array_form_random_grids(self, seed):
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        events = tuple(m.DisturbanceEvent(1e-3 * int(rng.integers(0, 500)), int(rng.integers(net.n)),
                                          0, float(rng.uniform(-0.5, 0.5)))
                       for _ in range(int(rng.integers(1, 3))))
        scen = m.Scenario(t_end=0.5, dt=1e-3, record_every=int(rng.integers(1, 14)),
                          disturbances=events, mode=m.CouplingMode.NONLINEAR)
        _assert_close_to_array_form(model, scen)

    def test_same_abort_step_as_array_form(self, two_area):
        net, areas, cfg = single_gen_system(1, variant=m.Variant.DEC_GEN_DEC_CONV,
                                            k_omega=1.0, k_v=1.0, k_droop=1.0, cap=1.0)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        scen = m.Scenario(t_end=20.0, dt=1e-2, mode=m.CouplingMode.NONLINEAR,
                          disturbances=(m.DisturbanceEvent(0.0, 0, 0, -1.2),))
        assert _assert_close_to_array_form(model, scen) > 0
        # at record_every = 33 a record period is a block of HEUN_BLOCK = 32
        # steps and a block of one: the collapse at step 131 (32 mod 33) is
        # found in a one-step block
        assert _kernels.HEUN_BLOCK == 32
        scen = replace(scen, record_every=33, disturbances=(m.DisturbanceEvent(0.0, 0, 0, -2.0),))
        assert _assert_close_to_array_form(model, scen) == 131

        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        unstable = replace(model, a=model.a + 800.0 * np.eye(model.dim))
        scen = m.Scenario(t_end=2.0, dt=1e-3, record_every=7, mode=m.CouplingMode.NONLINEAR,
                          disturbances=(m.DisturbanceEvent(0.1, 0, 0, -0.1),))
        with np.errstate(over="ignore", invalid="ignore"):
            assert _assert_close_to_array_form(unstable, scen) > 0
        # a NaN voltage passes the floor test; the finiteness check at the
        # first recorded sample reports it (the kernels themselves, since
        # integrate starts every run at rest)
        x0 = np.zeros(model.dim)
        x0[model.layout.sl("gen_integral").start] = np.nan
        for kernel in (_array_kernel(model), _kernels.etd2_nonlinear):
            assert _whole_run(model, scen, x0, kernel)[0] == 7

    @pytest.mark.parametrize("v_ref", [(0.4, 0.4), (1.0, 0.4)], ids=["all", "one"])
    @pytest.mark.parametrize("events", [(), (m.DisturbanceEvent(0.5, 0, 0, -0.1),)],
                             ids=["no_event", "one_event"])
    def test_reference_below_floor_aborts_at_rest(self, two_area, v_ref, events):
        """A run at rest with a DC reference voltage below the 0.5 p.u. floor
        aborts at its first step, t = 0, whether or not an input follows."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(replace(net, v_ref=v_ref), areas, cfg, reduced=False)
        scen = m.Scenario(t_end=1.0, dt=1e-3, record_every=10, disturbances=events,
                          mode=m.CouplingMode.NONLINEAR)
        with pytest.raises(m.IntegrationError, match="DC voltage below 0.5") as err:
            m.integrate(model, scen)
        assert "aborted at t = 0 s" in str(err.value)

    def test_reference_scenario_five_percent_band(self, paper_sc, paper_trajs):
        """Reference voltages stay close to nominal, so the two couplings
        produce nearly identical outputs."""
        model = m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg,
                                     reduced=False)
        lin = paper_trajs[m.Variant.DIST_GEN_DIST_CONV]
        scen = replace(paper_sc.scenario, mode=m.CouplingMode.NONLINEAR)
        non = m.integrate(model, scen)
        band = np.abs(non.series[:, model.rows("dc_voltages")] - paper_sc.net.v_nom).max()
        assert band < 0.05
        scale = np.abs(outputs(lin)).max()
        assert np.abs(outputs(lin) - outputs(non)).max() <= 0.05 * scale

    def test_close_to_linear_within_small_band(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        ev = (m.DisturbanceEvent(0.2, 0, 0, -0.05),)
        lin = m.integrate(model, m.Scenario(t_end=5.0, dt=1e-3, disturbances=ev))
        non = m.integrate(model, m.Scenario(t_end=5.0, dt=1e-3, disturbances=ev,
                                            mode=m.CouplingMode.NONLINEAR))
        scale = np.abs(outputs(lin)).max()
        assert np.abs(outputs(lin) - outputs(non)).max() <= 0.05 * scale


class TestCompareVariants:
    def test_generation_spread_contrast(self, paper_trajs):
        """Only the fully distributed pairing equalizes the area totals."""
        spreads = {}
        for variant, traj in paper_trajs.items():
            totals = traj.series[-1, traj.model.rows("generation")]
            spreads[variant] = totals.max() - totals.min()
        assert spreads[m.Variant.DIST_GEN_DIST_CONV] < 1e-6
        assert spreads[m.Variant.DIST_GEN_DEC_CONV] > 1e-3
        assert spreads[m.Variant.DEC_GEN_DEC_CONV] > 1e-3

    def test_weighted_voltage_error_contrast(self, paper_trajs, paper_sc):
        """Distributed generation restores the weighted voltage error."""
        k_v = np.array(paper_sc.cfg.k_v)
        terminal = {}
        for variant, traj in paper_trajs.items():
            vdc = traj.states[-1, traj.model.layout.sl("vdc")]
            terminal[variant] = abs(k_v @ vdc)
        assert terminal[m.Variant.DIST_GEN_DIST_CONV] < 1e-6
        assert terminal[m.Variant.DIST_GEN_DEC_CONV] < 1e-6
        assert terminal[m.Variant.DEC_GEN_DEC_CONV] > 1e-3

    def test_three_pairings(self, two_area):
        net, areas, cfg = two_area
        out = compare_variants(SystemConfig(net, areas, cfg, None, m.Scenario(t_end=1.0, dt=1e-3)))
        assert set(out) == {m.Variant.DEC_GEN_DEC_CONV, m.Variant.DIST_GEN_DEC_CONV,
                            m.Variant.DIST_GEN_DIST_CONV}

    def test_zero_disturbance_identical(self, two_area):
        net, areas, cfg = two_area
        out = compare_variants(SystemConfig(net, areas, cfg, None, m.Scenario(t_end=1.0, dt=1e-3)))
        for traj in out.values():
            np.testing.assert_array_equal(outputs(traj), np.zeros_like(outputs(traj)))


class TestLyapunovTrace:
    def test_zero_scenario_zero_trace(self, two_area):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        trace = lyapunov_trace(model, m.Scenario(t_end=1.0, dt=1e-3))
        np.testing.assert_array_equal(trace.values, np.zeros_like(trace.values))

    def test_event_at_t_end_zero_trace(self, two_area):
        """An event at t_end never applies, so from rest the trace is measured
        against the origin, not against the equilibrium of that event."""
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        scen = m.Scenario(t_end=1.0, dt=1e-3, disturbances=(m.DisturbanceEvent(1.0, 0, 0, -0.2),))
        trace = lyapunov_trace(model, scen)
        np.testing.assert_array_equal(trace.values, np.zeros_like(trace.values))

    def test_damped_configuration_monotone(self):
        net, areas, cfg = single_gen_system(3, gamma=4.0, k_phi=8.0)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        scen = m.Scenario(t_end=30.0, dt=1e-3, record_every=10,
                          disturbances=(m.DisturbanceEvent(1.0, 0, 0, -0.2),))
        trace = lyapunov_trace(model, scen)
        assert trace.max_step_increase <= 1e-8
        assert trace.values[0] > trace.values[-1]

    def test_undamped_trace_still_produced(self):
        net, areas, cfg = single_gen_system(3, gamma=0.0, k_phi=8.0)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        scen = m.Scenario(t_end=5.0, dt=1e-3, record_every=10,
                          disturbances=(m.DisturbanceEvent(1.0, 0, 0, -0.2),))
        trace = lyapunov_trace(model, scen)
        assert np.all(np.isfinite(trace.values))


def test_sim_only_propagates():
    """``sim`` builds, analyses and compares no model: it imports nothing
    from ``analysis`` or ``cli`` and no ``assemble_*`` constructor."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(m.sim))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"analysis", "cli"}, sorted(names)
    assert not any(part.startswith("assemble_") for part in parts), sorted(names)


class TestOneBlasThread:
    """``one_thread()`` runs mtdcsim's linear algebra on one OpenBLAS thread
    and hands every pool back at the caller's own count."""

    @pytest.fixture
    def pools(self):
        pools = _blas._pools()
        if not pools:
            pytest.skip("no OpenBLAS with a thread-count setter in this process")
        saved = [get() for get, _ in pools]
        yield pools
        for (_, put), count in zip(pools, saved):
            put(count)

    @staticmethod
    def _set(pools, count):
        for _, put in pools:
            put(count)

    @staticmethod
    def _counts(pools):
        return [get() for get, _ in pools]

    def test_restores_after_normal_exit(self, pools):
        self._set(pools, 2)
        with _blas.one_thread():
            assert self._counts(pools) == [1] * len(pools)
        assert self._counts(pools) == [2] * len(pools)

    def test_restores_after_exception(self, pools):
        self._set(pools, 2)
        with pytest.raises(ZeroDivisionError):
            with _blas.one_thread():
                1 / 0
        assert self._counts(pools) == [2] * len(pools)

    def test_restores_after_nesting(self, pools):
        self._set(pools, 2)
        with _blas.one_thread():
            with _blas.one_thread():
                assert self._counts(pools) == [1] * len(pools)
            assert self._counts(pools) == [1] * len(pools)
        assert self._counts(pools) == [2] * len(pools)

    def test_no_library_is_a_no_op(self, pools, monkeypatch):
        self._set(pools, 2)
        monkeypatch.setattr(_blas, "_pools", lambda: ())
        with _blas.one_thread():
            assert self._counts(pools) == [2] * len(pools)
        assert self._counts(pools) == [2] * len(pools)

    def test_overlapping_threads_restore_once(self, pools):
        """Sections that overlap across threads keep every pool at one thread
        while any is open, and the last to close restores the caller's count."""
        self._set(pools, 2)
        seen = []

        def worker():
            for _ in range(1000):
                with _blas.one_thread():
                    time.sleep(0)  # let another thread open or close a section
                    seen.append(tuple(self._counts(pools)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 4 * 1000
        assert set(seen) == {(1,) * len(pools)}
        assert self._counts(pools) == [2] * len(pools)

    def _at_each_count(self, pools, fn):
        results = []
        for count in (1, 2):
            self._set(pools, count)
            results.append(fn())
        return results

    # each case of the command line: its commands, run into one --out, and its
    # edits of the reference config, (section, key) or (section, list, index, key)
    CLI_CASES = {
        "reference": ([["simulate"]], {}),
        # the intervals an off-grid event cuts reach the state through the
        # powers of two of phi
        "off_grid_event": ([["simulate"]], {("scenario", "record_every"): 7,
                                            ("scenario", "disturbances", 0, "time"): 1.0033}),
        # the 44 samples after the event: the chain of the first 32, then one
        # partial block of 12 rows, a product a threaded BLAS would split
        "stride_1000": ([["simulate"]], {("scenario", "record_every"): 1000}),
        # blocked Heun steps sum products of block matrices
        "nonlinear_json": ([["simulate", "--format", "json"]],
                           {("scenario", "mode"): "nonlinear", ("scenario", "t_end"): 5.0}),
        "compare": ([["compare"]], {}),
        "analyze_and_sweep": ([["analyze"], ["sweep", "--scales", "1,10,100"]],
                              {("controller", "gamma"): 4.0}),
    }

    @pytest.mark.parametrize("commands, edits", CLI_CASES.values(), ids=CLI_CASES.keys())
    def test_cli_files_independent_of_caller_threads(self, pools, tmp_path, commands, edits):
        """Every file ``main`` writes is the same byte for byte at each caller
        pool count; report.json is compared without the paths it lists."""
        with open(m.reference_config_path(), encoding="utf-8") as fh:
            doc = json.load(fh)
        for (*keys, last), value in edits.items():
            parent = doc
            for key in keys:
                parent = parent[key]
            parent[last] = value
        config = tmp_path / "case.cfg"
        config.write_text(json.dumps(doc))

        def files():
            out = tmp_path / f"threads{self._counts(pools)[0]}"
            for argv in commands:
                assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0
            got = {path.name: path.read_bytes() for path in out.iterdir()}
            report = json.loads(got["report.json"])
            del report["artifacts"]
            return {**got, "report.json": report}

        one, two = self._at_each_count(pools, files)
        assert sorted(one) == sorted(two)
        assert [name for name in sorted(one) if one[name] != two[name]] == []

    def test_linear_reference_independent_of_caller_threads(self, pools, paper_model_full, paper_sc):
        # a fresh copy per count, so each computes its own exponential
        one, two = self._at_each_count(
            pools, lambda: m.integrate(replace(paper_model_full), paper_sc.scenario).states)
        np.testing.assert_array_equal(one, two)

    def test_nonlinear_reference_independent_of_caller_threads(self, pools, paper_model_full,
                                                               paper_sc):
        scen = replace(paper_sc.scenario, t_end=5.0, mode=m.CouplingMode.NONLINEAR)
        one, two = self._at_each_count(
            pools, lambda: m.integrate(replace(paper_model_full), scen).states)
        np.testing.assert_array_equal(one, two)

    def _spy_counts(self, pools, monkeypatch, module, name):
        """Pool counts seen by each call of ``module.<name>``."""
        seen, real = [], getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: seen.append(self._counts(pools)) or real(*a, **k))
        return seen

    def test_spectral_abscissa_independent_of_caller_threads(self, pools, paper_model_reduced,
                                                             monkeypatch):
        seen = self._spy_counts(pools, monkeypatch, np.linalg, "eigvals")
        one, two = self._at_each_count(
            pools, lambda: m.analysis.spectral_abscissa(paper_model_reduced.a))
        assert one == two
        assert seen == [[1] * len(pools)] * 2

    def test_equilibrium_independent_of_caller_threads(self, pools, paper_model_reduced,
                                                       paper_sc, monkeypatch):
        model = paper_model_reduced
        u = m.baseline_disturbance(model) + m.disturbance_map(
            model, [(ev.area, ev.bus, ev.magnitude) for ev in paper_sc.scenario.disturbances])
        seen = self._spy_counts(pools, monkeypatch, np.linalg, "solve")
        one, two = self._at_each_count(pools, lambda: m.analysis.equilibrium(model, u).x_star)
        np.testing.assert_array_equal(one, two)
        assert seen == [[1] * len(pools)] * 2

    def test_reduced_model_independent_of_caller_threads(self, pools, paper_sc, monkeypatch):
        # the projection's bases are formed inside the one-thread section
        seen = self._spy_counts(pools, monkeypatch, m.assembly, "ones_complement")
        one, two = self._at_each_count(pools, lambda: m.assemble_resistive(
            paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True).a)
        np.testing.assert_array_equal(one, two)
        assert len(seen) >= 2 and all(c == [1] * len(pools) for c in seen)

    def test_gain_limit_sweep_independent_of_caller_threads(self, pools, paper_sc):
        model = m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True)
        u = m.baseline_disturbance(model) + m.disturbance_map(
            model, [(ev.area, ev.bus, ev.magnitude) for ev in paper_sc.scenario.disturbances])
        cfg = replace(paper_sc.cfg, gamma=4.0)
        one, two = self._at_each_count(pools, lambda: m.analysis.gain_limit_sweep(
            paper_sc.net, paper_sc.areas, cfg, u, (1.0, 10.0, 100.0)))
        assert one == two

    def test_certificate_independent_of_caller_threads(self, pools, paper_sc, monkeypatch):
        seen = self._spy_counts(pools, monkeypatch, np.linalg, "eigvalsh")
        one, two = self._at_each_count(pools, lambda: m.analysis.lyapunov_certificate(
            paper_sc.net, paper_sc.cfg))
        assert (one.q1_min_eig, one.q2_min_eig) == (two.q1_min_eig, two.q2_min_eig)
        assert len(seen) >= 4 and all(c == [1] * len(pools) for c in seen)
