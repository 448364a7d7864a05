"""Graph primitives: Laplacians, connectivity, incidence, ones-complement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdcsim.netgraph import (
    WeightedGraph,
    connectivity,
    laplacian,
    line_incidence,
    ones_complement,
)

DC_GRID_EDGES = [
    (0, 1, 0.0586), (0, 2, 0.0586), (1, 3, 0.0586), (2, 3, 0.0586),
    (1, 2, 0.0878), (1, 4, 0.0732), (3, 4, 0.0732),
    (1, 5, 0.1464), (2, 4, 0.1464), (4, 5, 0.1464),
]


def dc_grid_graph():
    return WeightedGraph(6, tuple((i, j, 1.0 / r) for i, j, r in DC_GRID_EDGES))


class TestWeightedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph(3, ((0, 0, 1.0),))

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            WeightedGraph(2, ((0, 1, 0.0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(2, ((0, 2, 1.0),))

    def test_rejects_no_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            WeightedGraph(0)


class TestLaplacian:
    def test_single_conductance_edge(self):
        g = WeightedGraph(2, ((0, 1, 1.0 / 0.0586),))
        lap = laplacian(g)
        w = 1.0 / 0.0586
        np.testing.assert_allclose(lap, [[w, -w], [-w, w]], rtol=0, atol=0)
        assert lap[0, 0] == pytest.approx(17.064846416382252)

    def test_single_node(self):
        assert laplacian(WeightedGraph(1)).tolist() == [[0.0]]

    def test_unit_triangle_eigenvalues(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        eigs = np.sort(np.linalg.eigvalsh(laplacian(g)))
        np.testing.assert_allclose(eigs, [0.0, 3.0, 3.0], atol=1e-12)

    def test_row_sums_cancel_by_construction(self):
        lap = laplacian(dc_grid_graph())
        off = lap.copy()
        np.fill_diagonal(off, 0.0)
        # diagonal stores the exact negation of the off-diagonal row sum
        np.testing.assert_array_equal(off.sum(axis=1) + np.diag(lap), np.zeros(6))
        np.testing.assert_allclose(lap.sum(axis=1), np.zeros(6), atol=1e-12)
        np.testing.assert_array_equal(lap, lap.T)

    @given(st.integers(2, 12), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_connected_graph_has_nullity_one(self, n, rand):
        edges = [(i, i + 1, 0.1 + rand.random()) for i in range(n - 1)]
        for _ in range(rand.randrange(0, n)):
            i, j = rand.randrange(n), rand.randrange(n)
            if i != j and not any({a, b} == {i, j} for a, b, _ in edges):
                edges.append((i, j, 0.1 + rand.random()))
        g = WeightedGraph(n, tuple(edges))
        eigs = np.sort(np.linalg.eigvalsh(laplacian(g)))
        assert abs(eigs[0]) < 1e-10
        assert eigs[1] > 1e-10


class TestConnectivity:
    def test_dc_grid_topology_connected(self):
        assert connectivity(dc_grid_graph())

    def test_two_isolated_nodes(self):
        assert not connectivity(WeightedGraph(2))

    def test_path(self):
        assert connectivity(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))))

    def test_disconnected_has_zero_fiedler(self):
        g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
        assert not connectivity(g)
        eigs = np.sort(np.linalg.eigvalsh(laplacian(g)))
        assert abs(eigs[1]) < 1e-12


class TestOnesComplement:
    def test_n2_matches_sign_convention(self):
        s = ones_complement(2)
        np.testing.assert_allclose(s[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)

    def test_n1_empty(self):
        assert ones_complement(1).shape == (1, 0)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ones_complement(0)

    @pytest.mark.parametrize("n", range(1, 51))
    def test_defining_properties(self, n):
        s = ones_complement(n)
        assert s.shape == (n, n - 1)
        np.testing.assert_allclose(s.T @ s, np.eye(n - 1), atol=1e-12)
        np.testing.assert_allclose(s.T @ np.ones(n), np.zeros(n - 1), atol=1e-12)
        np.testing.assert_allclose(s @ s.T, np.eye(n) - np.full((n, n), 1.0 / n), atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(ones_complement(7), ones_complement(7))


class TestLineIncidence:
    def test_single_line(self):
        d_in, d_out = line_incidence([(0, 1)], 2)
        np.testing.assert_array_equal(d_in, [[1.0], [0.0]])
        np.testing.assert_array_equal(d_out, [[0.0], [1.0]])

    def test_dc_grid_columns_sum_to_one(self):
        d_in, d_out = line_incidence([(i, j) for i, j, _ in DC_GRID_EDGES], 6)
        np.testing.assert_array_equal(d_in.sum(axis=0), np.ones(10))
        np.testing.assert_array_equal(d_out.sum(axis=0), np.ones(10))

    def test_incidence_identity_single_line(self):
        d_in, d_out = line_incidence([(0, 1)], 2)
        inc = d_in - d_out
        lap = inc @ np.diag([1.0 / 2.0]) @ inc.T
        np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=0)

    def test_incidence_identity_dc_grid(self):
        pairs = [(i, j) for i, j, _ in DC_GRID_EDGES]
        d_in, d_out = line_incidence(pairs, 6)
        inc = d_in - d_out
        lap = inc @ np.diag([1.0 / r for _, _, r in DC_GRID_EDGES]) @ inc.T
        np.testing.assert_allclose(lap, laplacian(dc_grid_graph()), atol=1e-12)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            line_incidence([(1, 1)], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="line 0: endpoint out of range"):
            line_incidence([(0, 3)], 3)
