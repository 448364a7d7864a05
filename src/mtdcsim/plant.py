"""Physical models: capacitive DC nodes with resistive or RLC pi-link lines,
and swing-equation AC areas of one or more generator buses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netgraph import (
    WeightedGraph,
    connectivity,
    laplacian,
    line_incidence,
)


@dataclass(frozen=True)
class DcLine:
    """One HVDC line between converter nodes ``i`` and ``j``.

    ``r``/``l``/``c`` are the line totals (p.u.); ``segments`` is the number
    of series pi-links the line splits into when the dynamic line model is
    used. The resistive model ignores ``l``, ``c`` and ``segments``.
    """

    i: int
    j: int
    r: float
    l: float = 0.0
    c: float = 0.0
    segments: int = 1

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("line endpoints must differ")
        if not (self.r > 0.0 and np.isfinite(self.r)):
            raise ValueError(f"line ({self.i},{self.j}): resistance must be > 0")
        if self.l < 0.0 or self.c < 0.0:
            raise ValueError(f"line ({self.i},{self.j}): l and c must be >= 0")
        if self.segments < 1:
            raise ValueError(f"line ({self.i},{self.j}): segments must be >= 1")


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
        cap = tuple(float(c) for c in self.cap)
        if not cap:
            raise ValueError("network needs at least one node")
        for k, c in enumerate(cap):
            if not (c > 0.0 and np.isfinite(c)):
                raise ValueError(f"cap[{k}]: must be finite and > 0")
        object.__setattr__(self, "cap", cap)
        lines = tuple(ln if isinstance(ln, DcLine) else DcLine(*ln) for ln in self.lines)
        object.__setattr__(self, "lines", lines)
        if not (self.v_nom > 0.0 and np.isfinite(self.v_nom)):
            raise ValueError("v_nom must be finite and > 0")
        v_ref = self.v_ref
        if v_ref is None:
            v_ref = tuple(self.v_nom for _ in cap)
        else:
            v_ref = tuple(float(v) for v in v_ref)
            if len(v_ref) != len(cap):
                raise ValueError("v_ref length must match node count")
            for k, v in enumerate(v_ref):
                if not (v > 0.0 and np.isfinite(v)):
                    raise ValueError(f"v_ref[{k}]: must be finite and > 0")
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
    The HVDC converter attaches at bus 0 by convention. ``p_m`` is the
    constant uncontrolled power deviation per bus (p.u.).
    """

    inertia: tuple
    ac_lines: tuple = field(default=())
    converter_bus: int = 0
    p_m: tuple = None

    def __post_init__(self):
        inertia = tuple(float(m) for m in self.inertia)
        if not inertia:
            raise ValueError("area needs at least one bus")
        for k, m in enumerate(inertia):
            if not (m > 0.0 and np.isfinite(m)):
                raise ValueError(f"inertia[{k}]: must be finite and > 0")
        object.__setattr__(self, "inertia", inertia)
        if self.converter_bus != 0:
            raise ValueError("converter attaches at bus 0 by convention")
        graph = WeightedGraph(len(inertia), tuple(self.ac_lines))
        object.__setattr__(self, "ac_lines", graph.edges)
        if len(inertia) > 1 and not connectivity(graph):
            raise ValueError("AC line graph must be connected")
        object.__setattr__(self, "_graph", graph)  # no field: equality and replace ignore it
        p_m = self.p_m
        if p_m is None:
            p_m = tuple(0.0 for _ in inertia)
        else:
            p_m = tuple(float(p) for p in p_m)
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
    """Per-segment line quantities for the dynamic pi-link model.

    Each line contributes ``n_segments`` series R-L segments with
    ``n_segments - 1`` internal capacitive nodes. Values are the line
    totals split evenly across segments; the states are incremental.
    """

    n_segments: int
    r_seg: np.ndarray
    l_seg: np.ndarray
    c_seg: np.ndarray
    d_in: np.ndarray
    d_out: np.ndarray

    @property
    def n_lines(self) -> int:
        return self.r_seg.shape[0]


def mtdc_resistive_matrices(net: MtdcNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Elastance matrix E = diag(1/C_i) and the conductance Laplacian."""
    e = np.diag([1.0 / c for c in net.cap])
    return e, laplacian(net.conductance_graph())


def pi_link_matrices(net: MtdcNetwork) -> PiLinkChain:
    """Per-segment parameters for the pi-link line model.

    Requires every line to carry an inductance and, when split into more
    than one segment, a shunt capacitance. All lines must share the same
    segment count so the chain states stack into uniform blocks.
    """
    if not net.lines:
        raise ValueError("pi-link model needs at least one line")
    segs = {ln.segments for ln in net.lines}
    if len(segs) != 1:
        raise ValueError("all lines must use the same segment count")
    ell = segs.pop()
    r_seg = np.empty(len(net.lines))
    l_seg = np.empty(len(net.lines))
    c_seg = np.empty(len(net.lines))
    for k, ln in enumerate(net.lines):
        if ln.l <= 0.0:
            raise ValueError(f"line ({ln.i},{ln.j}): pi-link model needs l > 0")
        if ell > 1 and ln.c <= 0.0:
            raise ValueError(f"line ({ln.i},{ln.j}): segments > 1 needs c > 0")
        r_seg[k] = ln.r / ell
        l_seg[k] = ln.l / ell
        c_seg[k] = ln.c / ell
    d_in, d_out = line_incidence([(ln.i, ln.j) for ln in net.lines], net.n)
    return PiLinkChain(
        n_segments=ell,
        r_seg=r_seg,
        l_seg=l_seg,
        c_seg=c_seg,
        d_in=d_in,
        d_out=d_out,
    )
