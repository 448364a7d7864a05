"""Weighted undirected graphs and the dense linear algebra built on them.

Everything downstream (conductance networks, consensus couplings, AC line
stiffness) is expressed through weighted Laplacians, oriented line/node
incidence matrices, and orthonormal complements of the all-ones direction.
Matrices are dense float64 arrays; problem sizes stay in the hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive edge weights.

    ``edges`` holds ``(i, j, w)`` triples with 0 <= i, j < n_nodes and
    i != j. Duplicate unordered pairs are rejected rather than merged so
    that configuration mistakes surface immediately. Weight units depend
    on the caller: conductances (1/ohm p.u.) or consensus gains.
    """

    n_nodes: int
    edges: tuple = field(default=())

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        norm = []
        seen = set()
        for idx, edge in enumerate(self.edges):
            i, j, w = edge
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge {idx}: endpoint out of range for n={self.n_nodes}")
            if i == j:
                raise ValueError(f"edge {idx}: self-loop at node {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"edge {idx}: duplicate pair {key}")
            seen.add(key)
            if not (np.isfinite(w) and w > 0.0):
                raise ValueError(f"edge {idx}: weight must be finite and > 0, got {w}")
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(norm))


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Weighted Laplacian: L[i,j] = -w_ij off-diagonal, row sums exactly zero.

    Symmetric positive semidefinite; the nullity is 1 iff ``g`` is connected.
    """
    lap = np.zeros((g.n_nodes, g.n_nodes))
    for i, j, w in g.edges:
        lap[i, j] -= w
        lap[j, i] -= w
    # diagonal is the exact negation of the off-diagonal row sum, so
    # sum(off-diagonal row) + diagonal cancels exactly
    diag = np.arange(g.n_nodes)
    lap[diag, diag] = -lap.sum(axis=1)
    return lap


def connectivity(g: WeightedGraph) -> bool:
    """True iff the graph has a single connected component (BFS)."""
    if g.n_nodes == 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * g.n_nodes
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if not seen[nb]:
                seen[nb] = True
                count += 1
                stack.append(nb)
    return count == g.n_nodes


def ones_complement(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones direction.

    Returns an n x (n-1) matrix S with S^T S = I, S^T 1 = 0 and
    S S^T = I - (1/n) 11^T. Built from the Householder reflection mapping
    e_1 onto 1/sqrt(n) * 1, so the result is deterministic for fixed n.
    For n = 1 the complement is empty and an n x 0 matrix is returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.zeros((1, 0))
    u = np.full(n, 1.0 / np.sqrt(n))
    w = u.copy()
    w[0] -= 1.0
    h = np.eye(n) - (2.0 / (w @ w)) * np.outer(w, w)
    return h[:, 1:]


def line_incidence(lines, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Origin/termination incidence of directed lines over ``n`` nodes.

    ``lines`` is an ordered list of (i, j) meaning line k runs i -> j.
    Returns (d_in, d_out): n x m 0/1 matrices where d_in[i, k] = 1 iff line
    k originates at node i and d_out[j, k] = 1 iff it terminates at node j.
    ``d_in - d_out`` is the oriented incidence matrix of the line set.
    """
    m = len(lines)
    d_in = np.zeros((n, m))
    d_out = np.zeros((n, m))
    for k, (i, j) in enumerate(lines):
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"line {k}: endpoint out of range")
        if i == j:
            raise ValueError(f"line {k}: self-loop at node {i}")
        d_in[i, k] = 1.0
        d_out[j, k] = 1.0
    return d_in, d_out

