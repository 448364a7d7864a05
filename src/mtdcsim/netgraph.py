"""Weighted undirected graphs and the dense linear algebra built on them.

Everything downstream (conductance networks, consensus couplings, AC line
stiffness) is expressed through weighted Laplacians and orthonormal
complements of the all-ones direction.
Matrices are dense float64 arrays; problem sizes stay in the hundreds.

The module also states the rules for the values every library type takes,
once: ``_real`` (a finite float, optionally bounded below), ``_index`` (an
integer that is no bool), ``_choice`` (an enum member or its value) and
``_items`` (a tuple, list or array, optionally of a given length).
Each refuses with a ``ValueError`` that starts with the field's name, as in
``cap[2]: must be finite and > 0``. The types of ``plant``, ``control`` and
``sim``, the analysis entry points and the config parser all call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_INTEGERS = (int, np.integer)  # a bool is an int, refused apart
_NUMBERS = (float, np.floating, *_INTEGERS)


def _real(value, name, low=None, strict=True) -> float:
    """``value``, a Python or numpy number, as a finite float above ``low``
    (or at it, unless ``strict``).

    A bool, a non-number and an integer beyond the float range are refused
    as not finite.
    """
    number = math.nan
    if isinstance(value, _NUMBERS) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if math.isfinite(number) and (low is None or number > low or not strict and number == low):
        return number
    bound = "" if low is None else f" and {'>' if strict else '>='} {low:g}"
    raise ValueError(f"{name}: must be finite{bound}")


def _items(value, name, size=None) -> tuple:
    """``value``, a tuple, list or numpy array, as a tuple of its entries:
    any number of them, ``size`` of them, or from ``size[0]`` to ``size[1]``."""
    if not (isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim):
        raise ValueError(f"{name}: expected a sequence, got {type(value).__name__}")
    items = tuple(value)
    if size is not None:
        low, high = (size, size) if isinstance(size, int) else size
        if not low <= len(items) <= high:
            raise ValueError(f"{name}: expected {low}{'' if low == high else f' to {high}'} "
                             f"entries, got {len(items)}")
    return items


def _reals(values, name, low=None, strict=True) -> tuple:
    """``_real`` of each entry of the sequence ``values``, the k-th named ``name[k]``."""
    return tuple(_real(v, f"{name}[{k}]", low, strict) for k, v in enumerate(_items(values, name)))


def _index(value, name) -> int:
    """``value`` as an int: a Python or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    return int(value)


def _choice(enum, value, name):
    """The member of ``enum`` that is ``value`` or whose value it is; anything
    else is an error that lists the values."""
    try:
        return enum(value)
    except ValueError:
        raise ValueError(f"{name}: unknown value {value!r}; expected one of "
                         + ", ".join(member.value for member in enum)) from None


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
        n_nodes = _index(self.n_nodes, "n_nodes")
        if n_nodes < 1:
            raise ValueError("graph needs at least one node")
        object.__setattr__(self, "n_nodes", n_nodes)
        norm = []
        seen = set()
        for idx, edge in enumerate(_items(self.edges, "edges")):
            i, j, w = _items(edge, f"edge {idx}", 3)
            i, j = _index(i, f"edge {idx} endpoint"), _index(j, f"edge {idx} endpoint")
            w = _real(w, f"edge {idx} weight", 0.0)
            if not (0 <= i < n_nodes and 0 <= j < n_nodes):
                raise ValueError(f"edge {idx}: endpoint out of range for n={n_nodes}")
            if i == j:
                raise ValueError(f"edge {idx}: self-loop at node {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"edge {idx}: duplicate pair {key}")
            seen.add(key)
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
