"""Closed-loop assembly: block equations, layout, reduction, disturbance map."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdcsim as m
from mtdcsim.assembly import BUS_BLOCKS, SERIES_FAMILIES

from conftest import (dense_projection, lyapunov_matrix, lyapunov_trace, mixed_relative_error,
                      outputs, row_block, random_stable_config, single_gen_system)
from direct_rhs import direct_rhs, flatten, unflatten


def trivial_system():
    """One converter, one generator, unit everything."""
    net = m.MtdcNetwork(cap=(1.0,), lines=())
    areas = (m.AcArea(inertia=(1.0,)),)
    cfg = m.ControllerConfig(
        k_droop=((1.0,),), k_droop_i=((1.0,),), k_omega=(1.0,), k_v=(1.0,),
        variant=m.Variant.DEC_GEN_DEC_CONV,
    )
    return net, areas, cfg


def multi_gen_system(variant=m.Variant.DIST_GEN_DIST_CONV, gamma=0.0):
    """Two areas with three and two buses, asymmetric gains."""
    net = m.MtdcNetwork(cap=(0.2, 0.3), lines=(m.DcLine(0, 1, 0.2, l=1e-3, c=0.01),))
    areas = (
        m.AcArea(inertia=(5.0, 3.0, 4.0), ac_lines=((0, 1, 2.0), (1, 2, 1.5), (0, 2, 0.7))),
        m.AcArea(inertia=(6.0, 2.0), ac_lines=((0, 1, 1.2),)),
    )
    cfg = m.ControllerConfig(
        k_droop=((1.0, 0.5, 0.8), (1.1, 0.0)),
        k_droop_i=((0.5, 0.4, 0.6), (0.3, 0.2)),
        k_omega=(20.0, 30.0),
        k_v=(2.0, 3.0),
        comm_eta=m.WeightedGraph(2, ((0, 1, 4.0),)),
        comm_phi=m.WeightedGraph(2, ((0, 1, 35.0),)),
        gamma=gamma,
        variant=variant,
    )
    return net, areas, cfg


class TestAssembleResistive:
    def test_hand_derived_two_state_matrix(self):
        net, areas, cfg = trivial_system()
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        assert [model.layout.sl(b) for b in ("freq0", "vdc")] == [slice(0, 1), slice(1, 2)]
        assert model.layout.dim == 2
        np.testing.assert_allclose(model.a, [[-2.0, 1.0], [1.0, -1.0]], atol=0)

    def test_origin_is_equilibrium_every_variant(self):
        net, areas, cfg = multi_gen_system()
        for variant in m.Variant:
            model = m.assemble_resistive(net, areas,
                                         m.ControllerConfig(**{**cfg.__dict__, "variant": variant}),
                                         reduced=False)
            np.testing.assert_array_equal(model.a @ np.zeros(model.dim), np.zeros(model.dim))

    def test_reference_grid_is_hurwitz(self, paper_model_reduced):
        abscissa, stable = m.hurwitz(paper_model_reduced)
        assert stable
        assert abscissa < 0.0

    def test_layout_contiguous_and_named(self, paper_model_reduced):
        layout = paper_model_reduced.layout
        assert layout.dim == 179
        offset = 0
        for name, start, length in layout.blocks:
            assert start == offset
            offset += length
        assert layout.has("vdc") and layout.has("gen_integral") and layout.has("conv_phase")

    def test_decentralized_has_no_controller_states(self):
        net, areas, cfg = multi_gen_system(variant=m.Variant.DEC_GEN_DEC_CONV)
        model = m.assemble_resistive(net, areas, cfg, reduced=False)
        assert not model.layout.has("gen_integral")
        assert not model.layout.has("conv_phase")

    def test_mismatched_gains_rejected(self):
        net, areas, _ = multi_gen_system()
        bad = m.ControllerConfig(
            k_droop=((1.0,), (1.0,)), k_droop_i=((0.5,), (0.5,)),
            k_omega=(1.0, 1.0), k_v=(1.0, 1.0), variant=m.Variant.DEC_GEN_DEC_CONV)
        with pytest.raises(ValueError, match="bus counts"):
            m.assemble_resistive(net, areas, bad)

    @pytest.mark.parametrize("areas, gains, message", [
        (1, 2, "one AC area per converter node"),
        (2, 1, "controller gain lists must match the converter count"),
    ], ids=["one_area_short", "one_gain_short"])
    def test_mismatched_counts_rejected(self, areas, gains, message):
        net, all_areas, _ = multi_gen_system()
        cfg = m.ControllerConfig(
            k_droop=((1.0,) * 3, (1.0,) * 2)[:gains], k_droop_i=((0.5,) * 3, (0.5,) * 2)[:gains],
            k_omega=(1.0,) * gains, k_v=(1.0,) * gains, variant=m.Variant.DEC_GEN_DEC_CONV)
        with pytest.raises(ValueError, match=message):
            m.assemble_resistive(net, all_areas[:areas], cfg)


class TestAssemblePiLink:
    def test_reference_dimension_count(self, paper_sc):
        """Single-generator areas on the reference DC grid: 33 reduced states."""
        net = paper_sc.net
        areas = tuple(m.AcArea(inertia=(140.0,)) for _ in range(6))
        cfg = m.ControllerConfig(
            k_droop=((9.0,),) * 6, k_droop_i=((3.35,),) * 6,
            k_omega=(1501.0,) * 6, k_v=(80.0,) * 6,
            comm_eta=paper_sc.cfg.comm_eta, comm_phi=paper_sc.cfg.comm_phi,
            gamma=0.0, variant=m.Variant.DIST_GEN_DIST_CONV)
        model = m.assemble_pi_link(net, areas, cfg, reduced=True)
        assert model.dim == 6 + 6 + 10 + 6 + 5

    def test_zero_state_is_equilibrium(self, paper_sc):
        net = paper_sc.net
        areas = tuple(m.AcArea(inertia=(140.0,)) for _ in range(6))
        cfg = m.ControllerConfig(
            k_droop=((9.0,),) * 6, k_droop_i=((3.35,),) * 6,
            k_omega=(1501.0,) * 6, k_v=(80.0,) * 6,
            comm_eta=paper_sc.cfg.comm_eta, comm_phi=paper_sc.cfg.comm_phi,
            variant=m.Variant.DIST_GEN_DIST_CONV)
        model = m.assemble_pi_link(net, areas, cfg, reduced=False)
        np.testing.assert_array_equal(model.a @ np.zeros(model.dim), np.zeros(model.dim))

    def test_single_line_chain_coupling(self):
        """ell=1 between two areas: terminal rows carry -+1/C on the current."""
        net = m.MtdcNetwork(cap=(0.5, 0.5), lines=(m.DcLine(0, 1, 0.1, l=2e-3),))
        areas = (m.AcArea(inertia=(1.0,)), m.AcArea(inertia=(1.0,)))
        cfg = m.ControllerConfig(
            k_droop=((1.0,), (1.0,)), k_droop_i=((1.0,), (1.0,)),
            k_omega=(1.0, 1.0), k_v=(1.0, 1.0), variant=m.Variant.DEC_GEN_DEC_CONV)
        model = m.assemble_pi_link(net, areas, cfg, reduced=True)
        vdc = model.layout.sl("vdc")
        cur = model.layout.sl("line_current1")
        assert model.a[vdc.start, cur.start] == pytest.approx(-1.0 / 0.5)
        assert model.a[vdc.start + 1, cur.start] == pytest.approx(+1.0 / 0.5)
        assert model.a[cur.start, vdc.start] == pytest.approx(1.0 / 2e-3)
        assert model.a[cur.start, vdc.start + 1] == pytest.approx(-1.0 / 2e-3)

    def test_multi_generator_areas_assemble_without_warning(self, paper_sc):
        """Areas of several machines assemble as pi-link models the way
        resistive ones do. On the reference at gamma 4 the class follows the
        converter law: only Hurwitz under the distributed law, proven under
        the decentralised one."""
        damped = replace(paper_sc.cfg, gamma=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            multi = m.assemble_pi_link(*multi_gen_system())
            dist, dec = (m.assemble_pi_link(paper_sc.net, paper_sc.areas, replace(damped, variant=v))
                         for v in (m.Variant.DIST_GEN_DIST_CONV, m.Variant.DIST_GEN_DEC_CONV))
        assert multi.layout.has("angle0") and multi.layout.has("line_current1")
        assert dist.dim == 179 + 10  # the resistive reference plus one current per line
        rep = m.stability_report(dist)
        assert rep.certificate is m.CertificateClass.HURWITZ_ONLY
        assert rep.spectral_abscissa == pytest.approx(-0.4499, abs=5e-5)
        assert m.stability_report(dec).certificate is m.CertificateClass.LYAPUNOV_PROVEN

    def test_zero_inductance_rejected(self):
        net, areas, cfg = trivial_system()
        net2 = m.MtdcNetwork(cap=(1.0, 1.0), lines=(m.DcLine(0, 1, 0.1),))
        areas2 = (m.AcArea(inertia=(1.0,)), m.AcArea(inertia=(1.0,)))
        cfg2 = m.ControllerConfig(
            k_droop=((1.0,), (1.0,)), k_droop_i=((1.0,), (1.0,)),
            k_omega=(1.0, 1.0), k_v=(1.0, 1.0), variant=m.Variant.DEC_GEN_DEC_CONV)
        with pytest.raises(ValueError, match="l > 0"):
            m.assemble_pi_link(net2, areas2, cfg2)


def _oracle_check(net, areas, cfg, model, rng, n_states=25, mode="linear"):
    """Rows of A (plus disturbance input) against the scalar-equation oracle."""
    bus_counts = [a.n_buses for a in areas]
    for _ in range(n_states):
        x = rng.standard_normal(model.dim)
        if mode == "nonlinear":
            x[model.layout.sl("vdc")] = rng.uniform(-0.2, 0.2, model.n_areas)
        p_m_flat = rng.standard_normal(sum(bus_counts))
        p_m = []
        off = 0
        for nb in bus_counts:
            p_m.append(list(p_m_flat[off:off + nb]))
            off += nb
        if model.reduced:
            full = m.assemble_resistive(net, areas, cfg, reduced=False) \
                if model.chain is None else \
                m.assemble_pi_link(net, areas, cfg, reduced=False)
            t_mat = dense_projection(model)
            x_full = t_mat.T @ x
            state = unflatten(full.layout, x_full)
            got = model.a @ x + model.b_dist @ p_m_flat
            want = t_mat @ flatten(full.layout, direct_rhs(net, areas, cfg, state, p_m, mode))
        else:
            state = unflatten(model.layout, x)
            got = model.a @ x + model.b_dist @ p_m_flat
            want = flatten(model.layout, direct_rhs(net, areas, cfg, state, p_m, mode))
        assert mixed_relative_error(got, want) < 1e-12


class TestBlockConsistency:
    @pytest.mark.parametrize("variant", list(m.Variant))
    @pytest.mark.parametrize("reduced", [False, True])
    def test_resistive_multi_generator(self, variant, reduced):
        net, areas, cfg = multi_gen_system(variant=variant, gamma=0.5)
        model = m.assemble_resistive(net, areas, cfg, reduced=reduced)
        _oracle_check(net, areas, cfg, model, np.random.default_rng(3))

    @pytest.mark.parametrize("variant", list(m.Variant))
    def test_pi_link_chain(self, variant):
        net, areas, cfg = single_gen_system(3, gamma=1.0, variant=variant)
        net = m.MtdcNetwork(
            cap=net.cap,
            lines=tuple(m.DcLine(ln.i, ln.j, ln.r, l=ln.l, c=ln.c, segments=3)
                        for ln in net.lines))
        model = m.assemble_pi_link(net, areas, cfg, reduced=False)
        _oracle_check(net, areas, cfg, model, np.random.default_rng(4))


def _full_steady_state(model, u):
    """Steady state in full coordinates, solved without the reduction.

    With undamped phases the uniform phase direction is a null direction of
    A, and it may drift at a constant rate. Solve A x + B u = d * 1_phase
    with the gauge 1_phase^T x = 0 for (x, d).
    """
    n = model.dim
    drift = np.zeros(n)
    drift[model.layout.sl("conv_phase")] = 1.0
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = model.a
    bordered[:n, n] = -drift
    bordered[n, :n] = drift
    return np.linalg.solve(bordered, np.append(-model.b_dist @ u, 0.0))[:n]


class TestReduce:
    @pytest.mark.parametrize("assemble", [m.assemble_resistive, m.assemble_pi_link],
                             ids=["resistive", "pi_link"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_full_and_reduced_agree(self, assemble, seed):
        """Each reduced map and the reduced Lyapunov form are the dense
        product with T to 1e-15 of their largest entry; same outputs and
        derived series on a short run in either coupling mode, same
        equilibrium DC voltages and Lyapunov trace; the projected form is
        positive definite."""
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        full = assemble(net, areas, cfg, reduced=False)
        red = assemble(net, areas, cfg, reduced=True)
        area = int(rng.integers(net.n))
        magnitude = float(rng.uniform(-0.5, 0.5))
        scen = m.Scenario(t_end=0.5, dt=1e-3, record_every=10,
                          disturbances=(m.DisturbanceEvent(0.1, area, 0, magnitude),))
        np.testing.assert_array_equal(full.series_offset, red.series_offset)
        # the block-by-block projection against the dense product with T
        t = dense_projection(red)
        p_red = lyapunov_matrix(red)
        for got, want in [(red.a, t @ full.a @ t.T), (red.b_dist, t @ full.b_dist),
                          (p_red, t @ lyapunov_matrix(full) @ t.T),
                          (red.outputs, full.outputs @ t.T)]:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        for mode in m.CouplingMode:
            scen_mode = replace(scen, mode=mode)
            traj_full, traj_red = m.integrate(full, scen_mode), m.integrate(red, scen_mode)
            y_full = outputs(traj_full)
            assert np.abs(y_full - outputs(traj_red)).max() <= 1e-9 * np.abs(y_full).max()
            scale = np.abs(traj_full.series - full.series_offset).max()
            assert np.abs(traj_full.series - traj_red.series).max() <= 1e-9 * scale

        # T P T^T: symmetric up to rounding
        assert np.abs(p_red - p_red.T).max() <= 1e-14 * np.abs(p_red).max()
        assert np.linalg.eigvalsh(p_red).min() > 0.0

        # random_stable_config guarantees a Hurwitz loop for the resistive plant only
        _, stable = m.hurwitz(red)
        if stable:
            u = m.disturbance_map(full, [(area, 0, magnitude)])
            v_full = _full_steady_state(full, u)[full.layout.sl("vdc")]
            equil = m.equilibrium(red, u)
            assert np.abs(v_full - equil.v_hat_star).max() <= 1e-9 * np.abs(v_full).max()
            # oracle: W of the full form along the full linear run, about
            # the reduced equilibrium lifted back by T^T
            rel = m.integrate(full, scen).states - t.T @ equil.x_star
            w_full = np.einsum("ij,jk,ik->i", rel, lyapunov_matrix(full), rel)
            w_red = lyapunov_trace(red, scen).values
            assert np.abs(w_full - w_red).max() <= 1e-9 * np.abs(w_full).max()

    def test_block_sizes(self):
        net, areas, cfg = single_gen_system(2)
        full = m.assemble_resistive(net, areas, cfg, reduced=False)
        red = m.reduce_model(full)
        for model, length in ((full, 2), (red, 1)):
            phase = model.layout.sl("conv_phase")
            assert phase.stop - phase.start == length

    def test_full_has_marginal_phase_mode_reduced_does_not(self):
        net, areas, cfg = single_gen_system(2, gamma=0.0)
        full = m.assemble_resistive(net, areas, cfg, reduced=False)
        red = m.reduce_model(full)
        eigs_full, vecs = np.linalg.eig(full.a)
        assert np.abs(eigs_full).min() < 1e-9
        mode = np.abs(vecs[:, np.argmin(np.abs(eigs_full))])
        phase = full.layout.sl("conv_phase")
        assert mode[phase].sum() > 0.99 * mode.sum()
        assert np.abs(np.linalg.eigvals(red.a)).min() > 1e-9

    def test_already_reduced_rejected(self):
        net, areas, cfg = single_gen_system(2)
        red = m.assemble_resistive(net, areas, cfg, reduced=True)
        with pytest.raises(ValueError, match="already reduced"):
            m.reduce_model(red)


def _relabel(net, areas, cfg, order):
    """The same system with converter ``k`` of the result converter
    ``order[k]`` of the given one: nodes, line endpoints, areas, gains and
    both communication graphs move together. Returns the new index of each
    old converter too."""
    new = np.argsort(order)

    def graph(g):
        return None if g is None else m.WeightedGraph(
            g.n_nodes, tuple((int(new[i]), int(new[j]), w) for i, j, w in g.edges))

    def pick(values):
        return tuple(values[k] for k in order)

    net2 = m.MtdcNetwork(
        cap=pick(net.cap), v_nom=net.v_nom, v_ref=pick(net.v_ref),
        lines=tuple(replace(ln, i=int(new[ln.i]), j=int(new[ln.j])) for ln in net.lines))
    cfg2 = replace(cfg, k_droop=pick(cfg.k_droop), k_droop_i=pick(cfg.k_droop_i),
                   k_omega=pick(cfg.k_omega), k_v=pick(cfg.k_v),
                   comm_eta=graph(cfg.comm_eta), comm_phi=graph(cfg.comm_phi))
    return net2, pick(areas), cfg2, new


def _assert_relabeling_permutes(assemble, net, areas, cfg, order, scenario):
    """Relabeling the converters keeps the certificate class, the spectral
    abscissa and the equilibrium costs, and permutes every series column."""
    net2, areas2, cfg2, new = _relabel(net, areas, cfg, order)
    model, model2 = assemble(net, areas, cfg), assemble(net2, areas2, cfg2)
    rep, rep2 = m.stability_report(model), m.stability_report(model2)
    assert rep2.certificate is rep.certificate
    assert abs(rep2.spectral_abscissa - rep.spectral_abscissa) <= 1e-9
    scenario2 = replace(scenario, disturbances=tuple(
        replace(ev, area=int(new[ev.area])) for ev in scenario.disturbances))
    if m.hurwitz(model)[1]:
        events = [(ev.area, ev.bus, ev.magnitude) for ev in scenario.disturbances]
        events2 = [(ev.area, ev.bus, ev.magnitude) for ev in scenario2.disturbances]
        eq = m.equilibrium(model, m.disturbance_map(model, events))
        eq2 = m.equilibrium(model2, m.disturbance_map(model2, events2))
        for cost in ("cost_generation", "cost_voltage"):
            want = getattr(eq, cost)
            assert abs(getattr(eq2, cost) - want) <= 1e-9 * abs(want)
    series = m.integrate(model, scenario).series
    series2 = m.integrate(model2, scenario2).series
    columns = np.concatenate([f * net.n + np.asarray(order) for f in range(len(SERIES_FAMILIES))])
    scale = np.abs(series - model.series_offset).max()
    assert np.abs(series2 - series[:, columns]).max() <= 1e-9 * scale


class TestConverterRelabeling:
    @pytest.mark.parametrize("assemble", [m.assemble_resistive, m.assemble_pi_link],
                             ids=["resistive", "pi_link"])
    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(m.Variant)))
    @settings(max_examples=15, deadline=None)
    def test_random_grids(self, assemble, seed, variant):
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        event = m.DisturbanceEvent(0.1, int(rng.integers(net.n)), 0, float(rng.uniform(-0.5, 0.5)))
        scenario = m.Scenario(t_end=0.5, dt=1e-3, record_every=10, disturbances=(event,))
        _assert_relabeling_permutes(assemble, net, areas, replace(cfg, variant=variant),
                                    rng.permutation(net.n), scenario)

    @pytest.mark.parametrize("assemble", [m.assemble_resistive, m.assemble_pi_link],
                             ids=["resistive", "pi_link"])
    def test_damped_reference(self, paper_sc, assemble):
        """The reference's 14-bus areas at gamma 4, where the two plants
        differ in class."""
        _assert_relabeling_permutes(assemble, paper_sc.net, paper_sc.areas,
                                    replace(paper_sc.cfg, gamma=4.0), [3, 0, 5, 1, 4, 2],
                                    replace(paper_sc.scenario, t_end=2.0, record_every=10))


class TestDisturbanceMap:
    def test_single_event(self, paper_model_full):
        u = m.disturbance_map(paper_model_full, [(1, 2, -0.2)])
        assert u[14 + 2] == -0.2
        assert np.count_nonzero(u) == 1

    def test_empty(self, paper_model_full):
        np.testing.assert_array_equal(
            m.disturbance_map(paper_model_full, []), np.zeros(84))

    def test_events_add(self, paper_model_full):
        u = m.disturbance_map(paper_model_full, [(0, 1, -0.2), (0, 1, -0.1)])
        assert u[1] == pytest.approx(-0.3)

    def test_overflowing_sum_is_infinite_without_warning(self, paper_model_full):
        """Two events of 1e308 on one bus sum to inf, which the equilibrium
        or the run reports; the sum itself raises no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = m.disturbance_map(paper_model_full, [(0, 1, 1e308), (0, 1, 1e308)])
        assert u[1] == np.inf

    def test_unknown_bus(self, paper_model_full):
        with pytest.raises(ValueError, match="unknown bus"):
            m.disturbance_map(paper_model_full, [(0, 14, 1.0)])

    def test_unknown_area(self, paper_model_full):
        with pytest.raises(ValueError, match="unknown area 6"):
            m.disturbance_map(paper_model_full, [(6, 0, 1.0)])


class TestOutputRows:
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("assemble", [m.assemble_resistive, m.assemble_pi_link],
                             ids=["resistive", "pi_link"])
    def test_named_views_are_row_blocks(self, paper_sc, assemble, reduced):
        """``output``, ``p_gen_selector`` and ``p_inj_selector``, which the
        reference check of ``perfbench`` reads, equal their row blocks of
        ``outputs`` exactly, and the named row blocks tile ``outputs`` once."""
        model = assemble(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=reduced)
        n_bus, n_areas, dim = model.total_buses, model.n_areas, model.dim
        assert model.output.shape == (n_bus + n_areas, dim)
        assert model.p_gen_selector.shape == (n_bus, dim)
        assert model.p_inj_selector.shape == (n_areas, dim)
        np.testing.assert_array_equal(model.output,
                                      row_block(model, "bus_frequencies", "dc_voltages"))
        np.testing.assert_array_equal(model.p_gen_selector, row_block(model, "bus_generation"))
        np.testing.assert_array_equal(model.p_inj_selector, row_block(model, "injections"))
        hits = np.zeros(model.outputs.shape[0], dtype=int)
        for name in SERIES_FAMILIES + BUS_BLOCKS:
            hits[model.rows(name)] += 1
        np.testing.assert_array_equal(hits, 1)
