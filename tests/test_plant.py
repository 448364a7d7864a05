"""Plant constructors: DC network, swing areas, pi-link segmentation."""

from dataclasses import replace

import numpy as np
import pytest

import mtdcsim as m
from mtdcsim.netgraph import laplacian
from mtdcsim.plant import pi_link_matrices

from test_netgraph import DC_GRID_EDGES


def reference_network(cap=0.375e-3, segments=1):
    lc = {0.0586: (0.2560e-3, 0.0085), 0.0878: (0.3840e-3, 0.0127),
          0.0732: (0.3200e-3, 0.0106), 0.1464: (0.6400e-3, 0.0212)}
    lines = tuple(m.DcLine(i, j, r, l=lc[r][0], c=lc[r][1], segments=segments)
                  for i, j, r in DC_GRID_EDGES)
    return m.MtdcNetwork(cap=(cap,) * 6, lines=lines)


class TestMtdcNetwork:
    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError, match="cap"):
            m.MtdcNetwork(cap=(0.0,), lines=())

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            m.MtdcNetwork(cap=(1.0, 1.0), lines=())

    @pytest.mark.parametrize("v_ref", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_nonpositive_vref(self, v_ref):
        with pytest.raises(ValueError, match=r"v_ref\[1\]: must be finite and > 0"):
            m.MtdcNetwork(cap=(1.0, 1.0), lines=(m.DcLine(0, 1, 0.1),), v_ref=(1.0, v_ref))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(cap=(), lines=()), "network needs at least one node"),
        (dict(cap=(1.0,), lines=(), v_nom=float("nan")), "v_nom must be finite and > 0"),
        (dict(cap=(1.0, 1.0), lines=(m.DcLine(0, 1, 0.1),), v_ref=(1.0,)),
         "v_ref length must match node count"),
    ], ids=["no_node", "v_nom_nan", "v_ref_length"])
    def test_rejects_malformed(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            m.MtdcNetwork(**kwargs)

    def test_vref_defaults_to_vnom(self):
        net = m.MtdcNetwork(cap=(1.0,), lines=(), v_nom=1.05)
        assert net.v_ref == (1.05,)

    def test_resistive_matrices_terminal_capacitance(self):
        """The elastance 1/cap and the conductance Laplacian, as the assembly reads them."""
        net = reference_network()
        l_r = laplacian(net.conductance_graph())
        np.testing.assert_allclose(1.0 / np.array(net.cap), np.full(6, 2666.6666666666665))
        np.testing.assert_allclose(l_r.sum(axis=1), np.zeros(6), atol=1e-12)
        # converters 1 and 2 (0-based 0 and 1) are joined by the 0.0586 line
        assert l_r[0, 1] == -1.0 / 0.0586

    def test_single_node(self):
        net = m.MtdcNetwork(cap=(0.5,), lines=())
        assert (1.0 / np.array(net.cap)).tolist() == [2.0]
        assert laplacian(net.conductance_graph()).tolist() == [[0.0]]

    def test_conductance_graph_kept_outside_equality(self):
        """The graph validated on construction, the same object on each
        call; equality and ``replace`` see only the declared fields."""
        net = reference_network()
        assert net.conductance_graph() is net.conductance_graph()
        assert net.conductance_graph() == m.WeightedGraph(
            6, tuple((ln.i, ln.j, 1.0 / ln.r) for ln in net.lines))
        assert replace(net) == net and hash(replace(net)) == hash(net)
        assert replace(net, lines=net.lines[:-1]).conductance_graph().edges == \
            net.conductance_graph().edges[:-1]

    def test_zero_injection_steady_state_is_uniform(self):
        l_r = laplacian(reference_network().conductance_graph())
        eigs, vecs = np.linalg.eigh(l_r)
        assert abs(eigs[0]) < 1e-10 and eigs[1] > 1e-10
        null = vecs[:, 0]
        np.testing.assert_allclose(null / null[0], np.ones(6), atol=1e-9)


class TestAcArea:
    def test_single_generator(self):
        area = m.AcArea(inertia=(4.0,))
        assert laplacian(area.line_graph()).tolist() == [[0.0]]

    def test_two_bus(self):
        area = m.AcArea(inertia=(1.0, 2.0), ac_lines=((0, 1, 1.0),))
        np.testing.assert_array_equal(laplacian(area.line_graph()), [[1.0, -1.0], [-1.0, 1.0]])

    def test_line_graph_kept_outside_equality(self):
        """As ``MtdcNetwork.conductance_graph``: built and validated once."""
        area = m.AcArea(inertia=(1.0, 2.0), ac_lines=((0, 1, 1.0),))
        assert area.line_graph() is area.line_graph()
        assert area.line_graph() == m.WeightedGraph(2, ((0, 1, 1.0),))
        assert replace(area) == area and hash(replace(area)) == hash(area)
        assert replace(area, ac_lines=((1, 0, 2.0),)).line_graph().edges == ((1, 0, 2.0),)

    def test_fourteen_bus_psd_nullity_one(self, paper_sc):
        area = paper_sc.areas[0]
        assert area.n_buses == 14
        eigs = np.sort(np.linalg.eigvalsh(laplacian(area.line_graph())))
        assert abs(eigs[0]) < 1e-9
        assert eigs[1] > 1e-9

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            m.AcArea(inertia=(1.0, 1.0, 1.0), ac_lines=((0, 1, 1.0),))

    def test_no_bus_rejected(self):
        with pytest.raises(ValueError, match="area needs at least one bus"):
            m.AcArea(inertia=())


class TestPiLink:
    def test_single_segment_table_values(self):
        chain = pi_link_matrices(reference_network())
        assert chain.n_segments == 1
        assert chain.r_seg[0] == pytest.approx(0.0586)
        assert chain.l_seg[0] == pytest.approx(0.2560e-3)
        np.testing.assert_array_equal(chain.d_in.sum(axis=0), np.ones(10))
        expected_r = [r for _, _, r in DC_GRID_EDGES]
        np.testing.assert_allclose(chain.r_seg, expected_r)

    def test_two_segments_split_evenly(self):
        chain = pi_link_matrices(reference_network(segments=2))
        assert chain.n_segments == 2
        assert chain.r_seg[0] == pytest.approx(0.0586 / 2)
        assert chain.l_seg[0] == pytest.approx(0.2560e-3 / 2)
        assert chain.c_seg[0] == pytest.approx(0.0085 / 2)

    def test_rejects_zero_inductance(self):
        net = m.MtdcNetwork(cap=(1.0, 1.0), lines=(m.DcLine(0, 1, 0.1),))
        with pytest.raises(ValueError, match="l > 0"):
            pi_link_matrices(net)

    def test_rejects_mixed_segment_counts(self):
        lines = (m.DcLine(0, 1, 0.1, l=1e-3, c=0.01, segments=1),
                 m.DcLine(1, 2, 0.1, l=1e-3, c=0.01, segments=2))
        net = m.MtdcNetwork(cap=(1.0, 1.0, 1.0), lines=lines)
        with pytest.raises(ValueError, match="segment count"):
            pi_link_matrices(net)

    @pytest.mark.parametrize("lines, message", [
        ((), "pi-link model needs at least one line"),
        ((m.DcLine(0, 1, 0.1, l=1e-3, c=0.0, segments=2),), r"segments > 1 needs c > 0"),
    ], ids=["no_line", "segments_without_c"])
    def test_rejects_unbuildable_chain(self, lines, message):
        net = m.MtdcNetwork(cap=(1.0,) * (1 + len(lines)), lines=lines)
        with pytest.raises(ValueError, match=message):
            pi_link_matrices(net)

    @pytest.mark.parametrize("segments", [1, 3])
    def test_dc_terminal_behavior_matches_resistive(self, segments):
        """At zero frequency the chain reduces to the total line resistance."""
        net = reference_network(segments=segments)
        chain = pi_link_matrices(net)
        l_r = laplacian(net.conductance_graph())
        inj = np.array([0.4, -0.1, -0.1, -0.1, -0.05, -0.05])
        v_res = np.linalg.lstsq(l_r, inj, rcond=None)[0]
        # chain steady state: uniform segment current (v_i - v_j) / r_total
        inc = chain.d_in - chain.d_out
        r_tot = chain.r_seg * segments
        lap_chain = inc @ np.diag(1.0 / r_tot) @ inc.T
        v_chain = np.linalg.lstsq(lap_chain, inj, rcond=None)[0]
        delta = (v_res - v_res.mean()) - (v_chain - v_chain.mean())
        assert np.abs(delta).max() < 1e-8
