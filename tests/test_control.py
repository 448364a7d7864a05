"""Controller laws as assembled: selectors and state-matrix rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdcsim as m
from conftest import row_block, single_gen_system
from direct_rhs import direct_controls, unflatten


def two_area_model(net=None, cfg=None, **kw):
    """Full-coordinate model of two single-generator areas on one DC line."""
    net0, areas, cfg0 = single_gen_system(2, **kw)
    return m.assemble_resistive(net or net0, areas, cfg or cfg0, reduced=False)


def state_of(model, **blocks):
    x = np.zeros(model.dim)
    for name, value in blocks.items():
        x[model.layout.sl(name)] = value
    return x


def block_rate(model, x, name):
    return (model.a @ x)[model.layout.sl(name)]


class TestGenControl:
    """Generation law as assembled: P_gen and the gen_integral rows of A."""

    def test_origin_is_fixed_point(self):
        model = two_area_model()
        x = np.zeros(model.dim)
        np.testing.assert_array_equal(row_block(model, "bus_generation") @ x, np.zeros(2))
        np.testing.assert_array_equal(block_rate(model, x, "gen_integral"), np.zeros(2))

    def test_uniform_integral_state(self):
        """Uniform eta: consensus term vanishes, output is the pure setpoint."""
        model = two_area_model()
        cfg = model.cfg
        k = 0.7
        x = state_of(model, gen_integral=k)
        np.testing.assert_array_equal(block_rate(model, x, "gen_integral"), np.zeros(2))
        expected = -k * (cfg.k_v[0] / cfg.k_omega[0]) * cfg.k_droop_i[0][0]
        np.testing.assert_allclose(row_block(model, "bus_generation") @ x, np.full(2, expected))

    def test_eta_coupling_hand_evaluated(self):
        cfg = m.ControllerConfig(
            k_droop=((1.0,), (1.0,)),
            k_droop_i=((1.0,), (1.0,)),
            k_omega=(1.0, 1.0),
            k_v=(1.0, 1.0),
            comm_eta=m.WeightedGraph(2, ((0, 1, 1.0),)),
            comm_phi=m.WeightedGraph(2, ((0, 1, 1.0),)),
        )
        model = two_area_model(cfg=cfg)
        x = state_of(model, gen_integral=[1.0, 0.0])
        np.testing.assert_allclose(block_rate(model, x, "gen_integral"), [-1.0, 1.0])

    def test_decentralized_reference_gain(self):
        model = two_area_model(k_droop=9.0, variant=m.Variant.DEC_GEN_DEC_CONV)
        x = state_of(model, freq0=0.001)
        p = row_block(model, "bus_generation") @ x
        assert p[0] == pytest.approx(-0.009)
        assert p[1] == 0.0
        # swing row: M dw/dt = p_gen - p_inj with p_inj = k_omega * w
        inertia = model.areas[0].inertia[0]
        k_omega = model.cfg.k_omega[0]
        assert block_rate(model, x, "freq0")[0] == pytest.approx(
            (-0.009 - k_omega * 0.001) / inertia)

    def test_decentralized_zero(self):
        model = two_area_model(variant=m.Variant.DEC_GEN_DEC_CONV)
        p_gen = row_block(model, "bus_generation")
        np.testing.assert_array_equal(p_gen @ np.zeros(model.dim), np.zeros(2))


class TestConvControl:
    """Converter law as assembled: P_inj and the conv_phase rows of A."""

    def test_zero_state(self):
        model = two_area_model()
        x = np.zeros(model.dim)
        np.testing.assert_array_equal(row_block(model, "injections") @ x, np.zeros(2))
        np.testing.assert_array_equal(block_rate(model, x, "conv_phase"), np.zeros(2))

    def test_uniform_phase_annihilated(self):
        """A uniform phase injects nothing and, undamped, is an equilibrium."""
        model = two_area_model(gamma=0.0)
        x = state_of(model, conv_phase=3.3)
        np.testing.assert_array_equal(row_block(model, "injections") @ x, np.zeros(2))
        np.testing.assert_array_equal(model.a @ x, np.zeros(model.dim))

    def test_pure_integrator_with_zero_damping(self):
        model = two_area_model(gamma=0.0)
        cfg = model.cfg
        c = 0.002
        x = state_of(model, freq0=c, freq1=c, conv_phase=[0.4, -1.3])
        np.testing.assert_allclose(block_rate(model, x, "conv_phase"),
                                   (cfg.k_omega[0] / cfg.k_v[0]) * c * np.ones(2))

    def test_decentralized_voltage_droop(self):
        model = two_area_model(k_v=80.0, variant=m.Variant.DEC_GEN_DEC_CONV)
        p = row_block(model, "injections") @ state_of(model, vdc=[-0.01, 0.0])
        assert p[0] == pytest.approx(0.8)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=40, deadline=None)
    def test_superposition(self, w1, v1, w2, v2):
        """The selector is the oracle's law, and that law is linear."""
        model = two_area_model(variant=m.Variant.DEC_GEN_DEC_CONV)

        def p_inj(w, v):
            x = state_of(model, freq0=w, vdc=[v, 0.0])
            _, want = direct_controls(model.areas, model.cfg, unflatten(model.layout, x))
            got = row_block(model, "injections") @ x
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            return got

        np.testing.assert_allclose(p_inj(w1 + w2, v1 + v2), p_inj(w1, v1) + p_inj(w2, v2),
                                   rtol=1e-12, atol=1e-12)


class TestControllerConfig:
    def test_droop_lists_of_one_area_must_match(self):
        with pytest.raises(ValueError, match="area 1: droop gain lists must share one length"):
            m.ControllerConfig(k_droop=((1.0,), (1.0, 1.0)), k_droop_i=((1.0,), (1.0,)),
                               k_omega=(1.0, 1.0), k_v=(1.0, 1.0),
                               variant=m.Variant.DEC_GEN_DEC_CONV)


class TestPowerToCurrent:
    def test_linear_divides_by_nominal(self):
        """Linear coupling: the DC rows inject p_inj / v_nom into each node."""
        net0, _, _ = single_gen_system(2)
        net = m.MtdcNetwork(cap=(0.5, 0.25), lines=net0.lines, v_nom=0.8)
        model = two_area_model(net=net, k_omega=10.0, k_v=4.0)
        vdc = model.layout.sl("vdc")
        freq0 = model.layout.sl("freq0").start
        assert model.a[vdc.start, freq0] == pytest.approx(10.0 / (0.5 * 0.8))
        assert model.a[vdc.start + 1, freq0] == 0.0
        phase = model.layout.sl("conv_phase")
        p_inj = row_block(model, "injections")
        np.testing.assert_allclose(model.a[vdc, phase],
                                   p_inj[:, phase] / (np.array(net.cap)[:, None] * 0.8))

