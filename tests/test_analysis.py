"""Stability certificates, equilibrium identities, and the gain-limit sweep."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import mtdcsim as m
from mtdcsim.analysis import spectral_abscissa
from mtdcsim.netgraph import laplacian

from conftest import (lyapunov_matrix, random_config, random_stable_config, single_gen_system,
                      wide_gain_config)
from direct_rhs import direct_rhs, flatten, unflatten
from test_assembly import multi_gen_system

ASSEMBLERS = {"resistive": m.assemble_resistive, "pi_link": m.assemble_pi_link}


def _assert_p_decreases(model):
    """The quadratic certificate as a matrix inequality on the reduced model:
    the symmetric part of A^T P + P A is negative semidefinite to 1e-12 of
    its largest entry, and P is positive definite."""
    p = lyapunov_matrix(model)
    q = model.a.T @ p + p @ model.a
    assert np.linalg.eigvalsh(0.5 * (q + q.T)).max() <= 1e-12 * np.abs(q).max()
    assert np.linalg.eigvalsh(p).min() > 0.0


def least_stable_gamma(net, areas, cfg, hi, assemble=m.assemble_resistive, tol=1e-9):
    """The least damping in [0, ``hi``] at which the assembled loop is
    Hurwitz, to ``tol`` relative to ``hi``, by bisection on ``hurwitz``; the
    loop must be Hurwitz at ``hi``. Every gamma the bisection finds unstable
    lies below the result."""
    def stable(gamma):
        return m.hurwitz(assemble(net, areas, replace(cfg, gamma=gamma)))[1]

    assert stable(hi)
    if stable(0.0):
        return 0.0
    lo = 0.0
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if stable(mid) else (mid, hi)
    return hi


class TestAssumption1:
    def test_reference_phase_graph(self, paper_sc):
        res = m.check_assumption1(
            laplacian(paper_sc.cfg.comm_phi),
            laplacian(paper_sc.net.conductance_graph()))
        assert res.holds
        assert abs(res.k_phi - 15.0) < 1e-9

    def test_identical_laplacians(self):
        g = m.WeightedGraph(3, ((0, 1, 2.0), (1, 2, 3.0)))
        res = m.check_assumption1(laplacian(g), laplacian(g))
        assert res.holds
        assert res.k_phi == pytest.approx(1.0)
        assert res.residual == 0.0

    def test_different_topology_fails(self):
        g_r = m.WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        g_phi = m.WeightedGraph(3, ((0, 2, 1.0), (1, 2, 1.0)))
        res = m.check_assumption1(laplacian(g_phi), laplacian(g_r))
        assert not res.holds
        assert res.residual > 1e-3

    def test_zero_conductance_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            m.check_assumption1(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one shape"):
            m.check_assumption1(np.eye(2), np.eye(3))


class TestAssumption2:
    def test_reference_zero_damping_fails(self):
        res = m.check_assumption2(0.0, 15.0, 1.0)
        assert not res.holds
        assert res.bound == pytest.approx(3.75)

    def test_damped_passes(self):
        assert m.check_assumption2(4.0, 15.0, 1.0).holds

    def test_degenerate_factor(self):
        assert m.check_assumption2(0.1, 0.0, 1.0).holds

    def test_boundary_is_strict(self):
        assert not m.check_assumption2(3.75, 15.0, 1.0).holds

    @pytest.mark.parametrize("k_phi, v_nom, message", [(-1.0, 1.0, "k_phi: must be finite and >= 0"),
                                                       (15.0, 0.0, "v_nom: must be finite and > 0")],
                             ids=["k_phi_negative", "v_nom_zero"])
    def test_rejects_negative_factor_or_voltage(self, k_phi, v_nom, message):
        with pytest.raises(ValueError, match=message):
            m.check_assumption2(4.0, k_phi, v_nom)


class TestHurwitz:
    def test_marginal_scalar(self):
        abscissa, ok = spectral_abscissa(np.array([[0.0]]))
        assert abscissa == 0.0
        assert not ok

    def test_stable_diagonal(self):
        abscissa, ok = spectral_abscissa(np.diag([-1.0, -2.0]))
        assert abscissa == pytest.approx(-1.0)
        assert ok

    def test_eigenvalue_failure_is_runtime_error(self):
        with pytest.raises(RuntimeError, match="eigenvalue computation failed") as info:
            spectral_abscissa(np.array([[np.nan]]))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_rejects_full_model(self, paper_model_full):
        with pytest.raises(ValueError, match="reduced"):
            m.hurwitz(paper_model_full)

    def test_verdict_computed_once_per_model(self, two_area, monkeypatch):
        net, areas, cfg = two_area
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        calls = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or real_eigvals(a))
        first = m.hurwitz(model)
        assert m.hurwitz(model) == first and first[1]
        assert len(calls) == 1
        flipped = replace(model, a=-model.a)
        assert not m.hurwitz(flipped)[1]
        assert len(calls) == 2


class TestLyapunovCertificate:
    def test_reference_gains_with_damping(self, paper_sc):
        cfg = replace(paper_sc.cfg, gamma=4.0)
        cert = m.lyapunov_certificate(paper_sc.net, cfg)
        assert cert.q1_min_eig > 0.0
        assert cert.q2_min_eig > 0.0
        assert cert.schur_ok

    def test_boundary_damping_is_singular(self, paper_sc):
        cfg = replace(paper_sc.cfg, gamma=3.75)
        cert = m.lyapunov_certificate(paper_sc.net, cfg)
        assert abs(cert.q2_min_eig) < 1e-9
        assert not cert.schur_ok

    def test_zero_converter_droop_breaks_q1(self, paper_sc):
        k_droop = ((0.0,) + (9.0,) * 13,) + tuple(paper_sc.cfg.k_droop[1:])
        cfg = replace(paper_sc.cfg, gamma=4.0, k_droop=k_droop)
        cert = m.lyapunov_certificate(paper_sc.net, cfg)
        assert cert.q1_min_eig <= 1e-12
        assert not cert.schur_ok

    def test_requires_proportional_graphs(self, paper_sc):
        """A phase graph not proportional to the conductance graph fails
        Assumption 1; the result says so and builds no block."""
        broken = m.WeightedGraph(6, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                                     (3, 4, 1.0), (4, 5, 1.0)))
        cfg = replace(paper_sc.cfg, comm_phi=broken, gamma=4.0)
        cert = m.lyapunov_certificate(paper_sc.net, cfg)
        assert not cert.assumption1.holds and cert.assumption1.residual > 1e-3
        assert (cert.assumption2, cert.q1_min_eig, cert.q2_min_eig) == (None, None, None)
        assert not cert.schur_ok

    def test_certificate_soundness_random(self):
        """All-positive-definite certificate implies a Hurwitz reduced loop."""
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(6):
            net, areas, cfg = random_stable_config(rng)
            a1 = m.check_assumption1(laplacian(cfg.comm_phi),
                                     laplacian(net.conductance_graph()))
            cfg = replace(cfg, gamma=a1.k_phi / (4 * net.v_nom) + 1.0)
            cert = m.lyapunov_certificate(net, cfg)
            if cert.q1_min_eig > 0 and cert.q2_min_eig > 0:
                model = m.assemble_resistive(net, areas, cfg, reduced=True)
                _, stable = m.hurwitz(model)
                assert stable
                checked += 1
        assert checked > 0


class TestStabilityReport:
    def test_reference_configuration(self, paper_sc):
        rep = m.stability_report(
            m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True))
        assert rep.certificate is m.CertificateClass.HURWITZ_ONLY
        assert rep.assumption1.holds
        assert abs(rep.assumption1.k_phi - 15.0) < 1e-9
        assert not rep.assumption2.holds
        assert rep.assumption2.bound == pytest.approx(3.75)
        assert rep.spectral_abscissa < 0

    def test_reference_with_damping_proven(self, paper_sc):
        rep = m.stability_report(m.assemble_resistive(
            paper_sc.net, paper_sc.areas, replace(paper_sc.cfg, gamma=4.0), reduced=True))
        assert rep.certificate is m.CertificateClass.LYAPUNOV_PROVEN

    def test_decentralized_conv_report(self, paper_sc):
        rep = m.stability_report(m.assemble_resistive(
            paper_sc.net, paper_sc.areas,
            replace(paper_sc.cfg, variant=m.Variant.DIST_GEN_DEC_CONV), reduced=True))
        assert rep.assumption1 is None
        assert rep.certificate is m.CertificateClass.LYAPUNOV_PROVEN

    @pytest.mark.parametrize("gamma", [3.75, 3.75 + 1e-9])
    def test_boundary_damping_not_proven(self, paper_sc, gamma):
        """At the bound, and within the tolerance above it, Assumption 2, the
        Schur test and the class agree; the fitted k_phi is a few ulps below 15."""
        cfg = replace(paper_sc.cfg, gamma=gamma)
        rep = m.stability_report(m.assemble_resistive(paper_sc.net, paper_sc.areas, cfg,
                                                      reduced=True))
        assert not rep.assumption2.holds
        assert not m.lyapunov_certificate(paper_sc.net, cfg).schur_ok
        assert rep.certificate is m.CertificateClass.HURWITZ_ONLY

    @pytest.mark.parametrize("variant", list(m.Variant))
    def test_single_terminal_loop(self, variant):
        """One terminal has no phase coupling: no assumption applies, the q2
        block is empty, and q1 alone decides."""
        net, areas, cfg = single_gen_system(1, variant=variant)
        rep = m.stability_report(m.assemble_resistive(net, areas, cfg, reduced=True))
        assert (rep.assumption1, rep.assumption2, rep.q2_min_eig) == (None, None, None)
        assert rep.q1_min_eig > 0.0 and rep.spectral_abscissa < 0.0
        assert rep.certificate is m.CertificateClass.LYAPUNOV_PROVEN

    def test_one_evaluation_per_report(self, paper_sc, monkeypatch):
        calls = dict.fromkeys(["lyapunov_certificate", "check_assumption1", "check_assumption2"], 0)

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(m.analysis, name, counted(name, getattr(m.analysis, name)))
        m.stability_report(m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg,
                                                reduced=True))
        assert calls == dict.fromkeys(calls, 1)

    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(m.Variant)),
           offset=st.sampled_from([-1e-6, 0.0, 1e-12, 1e-6]), zero_droop=st.booleans(),
           plant=st.sampled_from(list(ASSEMBLERS)), segments=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_one_verdict_near_the_damping_bound(self, seed, variant, offset, zero_droop, plant,
                                                segments):
        """Random grids with gamma below, at, within the tolerance above and
        above the bound, with resistive lines or pi-link chains of 1-3
        segments: a proven loop is Hurwitz with the Schur tests and
        Assumption 2 passed and P decreasing, and Assumption 2 is the Schur
        test whenever every converter droop is positive."""
        net, areas, cfg = random_stable_config(np.random.default_rng(seed))
        if plant == "pi_link":  # more than one segment reaches the line-voltage terms of P
            net = replace(net, lines=tuple(replace(ln, segments=segments) for ln in net.lines))
        a1 = m.check_assumption1(laplacian(cfg.comm_phi), laplacian(net.conductance_graph()))
        k_droop = ((0.0,),) + cfg.k_droop[1:] if zero_droop else cfg.k_droop
        cfg = replace(cfg, variant=variant, k_droop=k_droop,
                      gamma=a1.k_phi / (4.0 * net.v_nom) * (1.0 + offset))
        model = ASSEMBLERS[plant](net, areas, cfg, reduced=True)
        rep = m.stability_report(model)
        cert = m.lyapunov_certificate(net, cfg)
        assert (rep.assumption2 is None) == (not variant.distributed_conv)
        if rep.certificate is m.CertificateClass.LYAPUNOV_PROVEN:
            assert m.hurwitz(model)[1] and cert.schur_ok
            assert rep.assumption2 is None or rep.assumption2.holds
            _assert_p_decreases(model)
        if variant.distributed_conv and not zero_droop:
            assert rep.assumption2.holds == cert.schur_ok

    @pytest.mark.parametrize("plant", list(ASSEMBLERS))
    @pytest.mark.parametrize("variant", list(m.Variant))
    def test_multi_generator_areas_follow_the_same_rule(self, plant, variant):
        """Areas of several machines, damped above the bound of 1.75: proven
        with P decreasing unless pi-link lines meet the distributed converter
        law, which is only Hurwitz."""
        net, areas, cfg = multi_gen_system(variant=variant, gamma=2.0)
        model = ASSEMBLERS[plant](net, areas, cfg, reduced=True)
        rep = m.stability_report(model)
        if plant == "pi_link" and variant.distributed_conv:
            assert rep.certificate is m.CertificateClass.HURWITZ_ONLY
        else:
            assert rep.certificate is m.CertificateClass.LYAPUNOV_PROVEN
            _assert_p_decreases(model)

    @staticmethod
    def _assert_damping_bound(net, areas, cfg):
        """Assumption 1 held, the loop is Hurwitz just above the damping bound
        k_phi / (4 v_nom), and no gamma up to four times the bound that
        bisection on the spectrum finds unstable exceeds it."""
        a1 = m.check_assumption1(laplacian(cfg.comm_phi), laplacian(net.conductance_graph()))
        assert a1.holds
        bound = a1.k_phi / (4.0 * net.v_nom)
        above = replace(cfg, gamma=bound * (1 + 1e-6))
        assert m.hurwitz(m.assemble_resistive(net, areas, above))[1]
        assert least_stable_gamma(net, areas, cfg, 4.0 * bound) <= bound

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_damping_bound_from_the_spectrum(self, seed):
        """Random 2-5-terminal resistive grids under the distributed converter
        law keep the damping bound."""
        self._assert_damping_bound(*random_config(np.random.default_rng(seed), max_nodes=5))

    def test_damping_bound_with_gains_over_three_decades(self):
        """A fixed draw of 60 such grids with gains over three decades keeps
        the bound too. Unlike ``random_config``'s grids, some of them are
        not Hurwitz undamped, so there the bisection runs."""
        grids = [wide_gain_config(np.random.default_rng(seed)) for seed in range(60)]
        for grid in grids:
            self._assert_damping_bound(*grid)
        assert any(not m.hurwitz(m.assemble_resistive(*grid))[1] for grid in grids)

    @pytest.mark.parametrize("l_over_r, stable", [(0.238, True), (0.241, False)])
    def test_pi_link_counterexample_boundary(self, l_over_r, stable):
        """The loop of the counterexample below turns unstable as the line's
        L/R crosses 0.2393 s (the abscissa is -0.383 at 0.2 s, +0.082 at
        0.25 s); with a resistive line it is proven at any L/R."""
        net, areas, cfg = single_gen_system(2, gamma=4.5)
        net = replace(net, lines=(replace(net.lines[0], l=0.1 * l_over_r),))  # r = 0.1
        assert m.hurwitz(m.assemble_pi_link(net, areas, cfg))[1] == stable

    def test_pi_link_counterexample_needs_more_damping(self):
        """At the counterexample's L/R = 0.5 s the pi-link loop is Hurwitz
        only from gamma = 7.955, more than twice the bound 3.75; with a
        resistive line it is Hurwitz undamped."""
        net, areas, cfg = single_gen_system(2, gamma=4.5)
        net = replace(net, lines=(replace(net.lines[0], l=0.05),))
        assert least_stable_gamma(net, areas, cfg, 20.0) == 0.0
        assert least_stable_gamma(net, areas, cfg, 20.0, assemble=m.assemble_pi_link) == \
            pytest.approx(7.955, abs=1e-3)

    def test_pi_link_counterexample_under_distributed_law(self):
        """Two terminals, both assumptions held (gamma 4.5 against the bound
        3.75): proven with a resistive line, yet the same line as one pi-link
        with L/R = 0.5 s makes the loop unstable. The growth of the
        independent right-hand side under solve_ivp, from rest after a step,
        matches the assembled abscissa over ten periods of its mode."""
        net, areas, cfg = single_gen_system(2, gamma=4.5)
        net = replace(net, lines=(replace(net.lines[0], l=0.05),))  # r = 0.1
        rep = m.stability_report(m.assemble_resistive(net, areas, cfg))
        assert rep.assumption1.holds and rep.assumption2.holds
        assert rep.certificate is m.CertificateClass.LYAPUNOV_PROVEN
        assert rep.spectral_abscissa == pytest.approx(-0.6089, abs=1e-4)
        lam = max(np.linalg.eigvals(m.assemble_pi_link(net, areas, cfg).a), key=lambda z: z.real)
        assert lam.real == pytest.approx(0.8084, abs=1e-4)

        layout = m.assemble_pi_link(net, areas, cfg, reduced=False).layout
        p_m = [[-0.1], [0.0]]
        t1 = 10.0
        t2 = t1 + 10 * 2 * np.pi / abs(lam.imag)
        sol = solve_ivp(lambda _, y: flatten(layout, direct_rhs(
            net, areas, cfg, unflatten(layout, y), p_m)), (0.0, t2), np.zeros(layout.dim),
            rtol=1e-8, atol=1e-12, t_eval=[t1, t2])
        x1, x2 = sol.y.T
        growth = np.log(np.linalg.norm(x2) / np.linalg.norm(x1)) / (t2 - t1)
        assert growth == pytest.approx(lam.real, rel=1e-3)
        assert x1 @ x2 > (1 - 1e-4) * np.linalg.norm(x1) * np.linalg.norm(x2)


class TestEquilibrium:
    def test_zero_input(self, paper_model_reduced):
        rep = m.equilibrium(paper_model_reduced, np.zeros(84))
        np.testing.assert_allclose(rep.x_star, np.zeros(179), atol=1e-15)
        assert rep.kkt_gen_residual == 0.0
        assert rep.kkt_volt_residual == 0.0
        assert rep.avg_freq_residual == 0.0

    def test_symmetric_two_area_split(self):
        net, areas, cfg = single_gen_system(2, gamma=0.0)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        p = 0.12
        rep = m.equilibrium(model, np.array([-p, 0.0]))
        np.testing.assert_allclose(rep.p_gen_star, [p / 2, p / 2], atol=1e-9)
        np.testing.assert_allclose(rep.omega_hat_star, np.zeros(2), atol=1e-9)

    def test_requires_reduced(self, paper_model_full):
        with pytest.raises(ValueError, match="reduced"):
            m.equilibrium(paper_model_full, np.zeros(84))

    @pytest.mark.parametrize("n_weights", [1, 3], ids=["fewer", "more"])
    def test_costs_of_another_area_count_refused(self, n_weights):
        """Refused before the solve, not an ``IndexError`` or a matmul error."""
        net, areas, cfg = single_gen_system(2)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        costs = m.CostWeights(f_p=(1.0,) * n_weights, f_v=(1.0,) * n_weights)
        with pytest.raises(ValueError, match=f"^costs: {n_weights} weights for 2 areas$"):
            m.equilibrium(model, np.zeros(2), costs=costs)

    def test_unstable_rejected(self):
        net, areas, cfg = single_gen_system(1)
        model = m.assemble_resistive(net, areas, replace(cfg, variant=m.Variant.DEC_GEN_DEC_CONV),
                                     reduced=True)
        flipped = replace(model, a=-model.a)
        with pytest.raises(m.UnstableSystemError):
            m.equilibrium(flipped, np.zeros(1))

    def test_average_frequency_identity_random(self):
        """Weighted frequency sum vanishes at any distributed-generation equilibrium."""
        rng = np.random.default_rng(23)
        for _ in range(10):
            net, areas, cfg = random_stable_config(rng)
            model = m.assemble_resistive(net, areas, cfg, reduced=True)
            u = rng.uniform(-0.5, 0.5, model.total_buses)
            rep = m.equilibrium(model, u)
            assert rep.avg_freq_residual < 1e-9
            assert rep.injection_balance < 1e-9

    def test_explicit_costs_override(self, paper_model_reduced):
        u = m.disturbance_map(paper_model_reduced, [(0, 1, -0.2)])
        costs = m.CostWeights(f_p=(1.0,) * 6, f_v=(80.0,) * 6)
        rep = m.equilibrium(paper_model_reduced, u, costs=costs)
        # uniform weights keep the reference equilibrium optimal
        assert rep.kkt_gen_residual < 1e-9


class TestGainLimitSweep:
    def test_three_area_strictly_decreasing(self, three_area):
        net, areas, cfg = three_area
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        u = m.disturbance_map(model, [(0, 0, -0.2)])
        rows = m.gain_limit_sweep(net, areas, cfg, u, (1.0, 10.0, 100.0))
        assert all(r.is_hurwitz for r in rows)
        devs = [r.max_abs_freq_dev for r in rows]
        kkts = [r.kkt_gen_residual for r in rows]
        assert devs[0] > devs[1] > devs[2]
        assert kkts[0] > kkts[1] > kkts[2]

    def test_decentralized_error_floor(self, three_area):
        """Droop-only control keeps a static frequency error at every scale."""
        net, areas, cfg = three_area
        cfg = replace(cfg, variant=m.Variant.DEC_GEN_DEC_CONV)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        u = m.disturbance_map(model, [(0, 0, -0.2)])
        rows = m.gain_limit_sweep(net, areas, cfg, u, (1.0, 10.0, 100.0))
        assert min(r.max_abs_freq_dev for r in rows if r.is_hurwitz) > 1e-6

    def test_gamma_zero_rejected(self, two_area):
        net, areas, cfg = two_area
        with pytest.raises(ValueError, match="gamma"):
            m.gain_limit_sweep(net, areas, cfg, np.zeros(2), (1.0,))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_scale_rejected(self, three_area, scale):
        net, areas, cfg = three_area
        with pytest.raises(ValueError, match=r"scales\[1\]: must be finite and > 0"):
            m.gain_limit_sweep(net, areas, cfg, np.array([-0.2, 0.0, 0.0]), (1.0, scale))

    def test_non_hurwitz_row_flagged_not_fatal(self, three_area, monkeypatch):
        from mtdcsim import analysis as analysis_mod
        real_hurwitz = analysis_mod.hurwitz
        net, areas, cfg = three_area

        def fake_hurwitz(model):
            # pretend the x10 gain scaling destabilizes the loop
            if model.cfg.k_omega[0] == pytest.approx(10.0 * cfg.k_omega[0]):
                return 1.0, False
            return real_hurwitz(model)

        monkeypatch.setattr(analysis_mod, "hurwitz", fake_hurwitz)
        u = np.array([-0.2, 0.0, 0.0])
        rows = analysis_mod.gain_limit_sweep(net, areas, cfg, u, (1.0, 10.0, 100.0))
        assert [r.is_hurwitz for r in rows] == [True, False, True]
        assert np.isnan(rows[1].max_abs_freq_dev)
        assert np.isfinite(rows[2].max_abs_freq_dev)

    def test_single_scale_matches_direct_equilibrium(self, three_area):
        net, areas, cfg = three_area
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        u = m.disturbance_map(model, [(0, 0, -0.2)])
        rows = m.gain_limit_sweep(net, areas, cfg, u, (1.0,))
        rep = m.equilibrium(model, u)
        assert rows[0].max_abs_freq_dev == pytest.approx(np.abs(rep.omega_hat_star).max())
