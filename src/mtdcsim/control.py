"""Controller configuration: law variants, gains, coupling mode and costs.

``Variant`` picks the generation/converter law pair, ``ControllerConfig``
holds the gains and communication graphs and validates them,
``CouplingMode`` picks the power/current conversion at the converters, and
``CostWeights`` holds the quadratic cost weights the equilibrium is judged
by. The laws themselves are stated once, as the selectors of the assembled
model (``assembly._assemble``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .netgraph import WeightedGraph, _choice, _items, _real, _reals, connectivity


class Variant(enum.Enum):
    """Which of the generation/converter law pairs is active."""

    DIST_GEN_DIST_CONV = "dist_gen_dist_conv"
    DIST_GEN_DEC_CONV = "dist_gen_dec_conv"
    DEC_GEN_DIST_CONV = "dec_gen_dist_conv"
    DEC_GEN_DEC_CONV = "dec_gen_dec_conv"

    @property
    def distributed_gen(self) -> bool:
        return self in (Variant.DIST_GEN_DIST_CONV, Variant.DIST_GEN_DEC_CONV)

    @property
    def distributed_conv(self) -> bool:
        return self in (Variant.DIST_GEN_DIST_CONV, Variant.DEC_GEN_DIST_CONV)


class CouplingMode(enum.Enum):
    """Power/current conversion at the converters.

    LINEAR divides by the fixed nominal voltage; NONLINEAR divides by the
    instantaneous absolute voltage.
    """

    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and communication graphs for all controller laws.

    ``k_droop`` and ``k_droop_i`` are nested per-area, per-bus tuples;
    ``k_omega`` and ``k_v`` have one entry per converter. Communication
    graphs are required (and must be connected) only when the matching
    distributed law is selected. ``variant`` is a ``Variant`` or its value.
    """

    k_droop: tuple
    k_droop_i: tuple
    k_omega: tuple
    k_v: tuple
    comm_eta: WeightedGraph = None
    comm_phi: WeightedGraph = None
    gamma: float = 0.0
    omega_ref: float = 1.0
    variant: Variant = Variant.DIST_GEN_DIST_CONV

    def __post_init__(self):
        values = dict(
            k_droop=tuple(_reals(kd, f"k_droop[{a}]", 0.0, strict=False)
                          for a, kd in enumerate(_items(self.k_droop, "k_droop"))),
            k_droop_i=tuple(_reals(kdi, f"k_droop_i[{a}]", 0.0)
                            for a, kdi in enumerate(_items(self.k_droop_i, "k_droop_i"))),
            k_omega=_reals(self.k_omega, "k_omega", 0.0), k_v=_reals(self.k_v, "k_v", 0.0),
            gamma=_real(self.gamma, "gamma", 0.0, strict=False),
            omega_ref=_real(self.omega_ref, "omega_ref"),
            variant=_choice(Variant, self.variant, "variant"))
        for key, value in values.items():
            object.__setattr__(self, key, value)
        for key in ("comm_eta", "comm_phi"):
            graph = getattr(self, key)
            if graph is not None and not isinstance(graph, WeightedGraph):
                raise ValueError(f"{key}: expected a WeightedGraph, got {type(graph).__name__}")
        n = len(self.k_omega)
        if len(self.k_v) != n or len(self.k_droop) != n or len(self.k_droop_i) != n:
            raise ValueError("per-converter gain lists must share one length")
        for a, (kd, kdi) in enumerate(zip(self.k_droop, self.k_droop_i)):
            if len(kd) != len(kdi):
                raise ValueError(f"area {a}: droop gain lists must share one length")
        if self.variant.distributed_gen:
            if self.comm_eta is None or self.comm_eta.n_nodes != n:
                raise ValueError("distributed generation law needs a comm_eta graph over the areas")
            if not connectivity(self.comm_eta):
                raise ValueError("comm_eta must be connected")
        if self.variant.distributed_conv:
            if self.comm_phi is None or self.comm_phi.n_nodes != n:
                raise ValueError("distributed converter law needs a comm_phi graph over the converters")
            if not connectivity(self.comm_phi):
                raise ValueError("comm_phi must be connected")

    @property
    def n_areas(self) -> int:
        return len(self.k_omega)

    @property
    def bus_counts(self) -> tuple:
        return tuple(len(kd) for kd in self.k_droop)


@dataclass(frozen=True)
class CostWeights:
    """Quadratic cost weights: generation per area, voltage per converter."""

    f_p: tuple
    f_v: tuple

    def __post_init__(self):
        f_p, f_v = _reals(self.f_p, "f_p", 0.0), _reals(self.f_v, "f_v", 0.0)
        if len(f_p) != len(f_v):
            raise ValueError("f_p and f_v must share one length")
        object.__setattr__(self, "f_p", f_p)
        object.__setattr__(self, "f_v", f_v)
