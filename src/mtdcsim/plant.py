"""Physical models: capacitive DC nodes with resistive or RLC pi-link lines,
and swing-equation AC areas of one or more generator buses.

The resistive line model is read off the network itself: the elastance
1/``cap`` per node and the Laplacian of ``conductance_graph()``.
``pi_link_matrices`` splits the lines into segments for the dynamic model.
Each area's HVDC converter attaches at its bus 0."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netgraph import WeightedGraph, _index, _items, _real, _reals, connectivity


@dataclass(frozen=True)
class DcLine:
    """One HVDC line between converter nodes ``i`` and ``j``.

    ``r``/``l``/``c`` are the line totals (p.u.). The commands assemble
    resistive lines, which read ``r`` alone, and the config format carries
    only ``i``, ``j`` and ``r``. ``l``, ``c`` and ``segments``, the number of
    series pi-links the line splits into, are the inputs of the library's
    pi-link model (``pi_link_matrices``, ``assemble_pi_link``); a caller sets
    them with ``dataclasses.replace`` on a loaded network's lines (README,
    "Pi-link lines").
    """

    i: int
    j: int
    r: float
    l: float = 0.0
    c: float = 0.0
    segments: int = 1

    def __post_init__(self):
        i, j = _index(self.i, "i"), _index(self.j, "j")
        if i == j:
            raise ValueError("line endpoints must differ")
        line = f"line ({i},{j})"
        values = dict(i=i, j=j, r=_real(self.r, f"{line} r", 0.0),
                      l=_real(self.l, f"{line} l", 0.0, strict=False),
                      c=_real(self.c, f"{line} c", 0.0, strict=False),
                      segments=_index(self.segments, f"{line} segments"))
        if values["segments"] < 1:
            raise ValueError(f"{line}: segments must be >= 1")
        for key, value in values.items():
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class MtdcNetwork:
    """DC-side topology: converter nodes plus the lines joining them.

    ``cap`` is the per-node terminal capacitance (p.u.), which lumps the
    converter capacitance together with the adjacent line shares. ``v_ref``
    is the per-node reference voltage; ``v_nom`` the single nominal voltage
    used by the linear power/current coupling. The underlying graph must be
    connected.
    """

    cap: tuple
    lines: tuple
    v_nom: float = 1.0
    v_ref: tuple = None

    def __post_init__(self):
        cap = _reals(self.cap, "cap", 0.0)
        if not cap:
            raise ValueError("network needs at least one node")
        object.__setattr__(self, "cap", cap)
        lines = tuple(ln if isinstance(ln, DcLine) else DcLine(*_items(ln, f"lines[{k}]", (3, 6)))
                      for k, ln in enumerate(_items(self.lines, "lines")))
        object.__setattr__(self, "lines", lines)
        v_nom = _real(self.v_nom, "v_nom", 0.0)
        object.__setattr__(self, "v_nom", v_nom)
        v_ref = (v_nom,) * len(cap) if self.v_ref is None else _reals(self.v_ref, "v_ref", 0.0)
        if len(v_ref) != len(cap):
            raise ValueError("v_ref length must match node count")
        object.__setattr__(self, "v_ref", v_ref)
        graph = WeightedGraph(len(cap), tuple((ln.i, ln.j, 1.0 / ln.r) for ln in lines))
        if not connectivity(graph):
            raise ValueError("DC grid must be connected")
        object.__setattr__(self, "_graph", graph)  # no field: equality and replace ignore it

    @property
    def n(self) -> int:
        return len(self.cap)

    def conductance_graph(self) -> WeightedGraph:
        """Line conductances 1/r as edge weights, validated once on construction."""
        return self._graph


@dataclass(frozen=True)
class AcArea:
    """One asynchronous AC grid modeled by linearized swing dynamics.

    ``inertia`` gives one entry per generator bus (p.u. s^2). ``ac_lines``
    are (i, j, weight) stiffness couplings; empty for a single-bus area.
    The HVDC converter attaches at bus 0. ``p_m`` is the constant
    uncontrolled power deviation per bus (p.u.), finite.
    """

    inertia: tuple
    ac_lines: tuple = field(default=())
    p_m: tuple = None

    def __post_init__(self):
        inertia = _reals(self.inertia, "inertia", 0.0)
        if not inertia:
            raise ValueError("area needs at least one bus")
        object.__setattr__(self, "inertia", inertia)
        graph = WeightedGraph(len(inertia), _items(self.ac_lines, "ac_lines"))
        object.__setattr__(self, "ac_lines", graph.edges)
        if len(inertia) > 1 and not connectivity(graph):
            raise ValueError("AC line graph must be connected")
        object.__setattr__(self, "_graph", graph)  # no field: equality and replace ignore it
        p_m = (0.0,) * len(inertia) if self.p_m is None else _reals(self.p_m, "p_m")
        if len(p_m) != len(inertia):
            raise ValueError("p_m length must match bus count")
        object.__setattr__(self, "p_m", p_m)

    @property
    def n_buses(self) -> int:
        return len(self.inertia)

    def line_graph(self) -> WeightedGraph:
        """The ``ac_lines`` stiffness graph, validated once on construction."""
        return self._graph


@dataclass(frozen=True)
class PiLinkChain:
    """The pi-link lines as one RLC ladder.

    Each line splits into ``n_segments`` series R-L segments joined by
    ``n_segments - 1`` internal capacitive nodes; ``r_seg``, ``l_seg`` and
    ``c_seg`` are the line totals split evenly across the segments, one
    entry per line. ``incidence`` is the ladder's oriented incidence D. Its
    rows are the nodes: the converter nodes, then the internal nodes, one
    segment boundary at a time and line by line. Its columns are the
    segments, one segment position at a time and line by line. A column has
    +1 at the node its current leaves and -1 at the node it enters, so the
    incremental node voltages v and segment currents i obey
    C dv/dt = -D i (plus the converter injections) and
    L di/dt = -R i + D^T v.
    """

    n_segments: int
    r_seg: np.ndarray
    l_seg: np.ndarray
    c_seg: np.ndarray
    incidence: np.ndarray

    @property
    def n_lines(self) -> int:
        return self.r_seg.shape[0]


def pi_link_matrices(net: MtdcNetwork) -> PiLinkChain:
    """Per-segment parameters and the ladder incidence of the pi-link model.

    Requires every line to carry an inductance and, when split into more
    than one segment, a shunt capacitance. All lines must share the same
    segment count so the chain states stack into uniform blocks.
    """
    if not net.lines:
        raise ValueError("pi-link model needs at least one line")
    segs = {ln.segments for ln in net.lines}
    if len(segs) != 1:
        raise ValueError("all lines must use the same segment count")
    ell, n_lines = segs.pop(), len(net.lines)
    for ln in net.lines:
        if ln.l <= 0.0:
            raise ValueError(f"line ({ln.i},{ln.j}): pi-link model needs l > 0")
        if ell > 1 and ln.c <= 0.0:
            raise ValueError(f"line ({ln.i},{ln.j}): segments > 1 needs c > 0")
    incidence = np.zeros((net.n + (ell - 1) * n_lines, ell * n_lines))
    for k, ln in enumerate(net.lines):
        # the line's nodes from end i to end j, and its segments between them
        nodes = [ln.i, *(net.n + k + n_lines * np.arange(ell - 1)), ln.j]
        segments = k + n_lines * np.arange(ell)
        incidence[nodes[:-1], segments] = 1.0
        incidence[nodes[1:], segments] = -1.0
    return PiLinkChain(
        n_segments=ell,
        r_seg=np.array([ln.r for ln in net.lines]) / ell,
        l_seg=np.array([ln.l for ln in net.lines]) / ell,
        c_seg=np.array([ln.c for ln in net.lines]) / ell,
        incidence=incidence,
    )
