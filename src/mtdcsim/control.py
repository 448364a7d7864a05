"""Controller configuration: law variants, gains, coupling mode and costs.

``Variant`` picks the generation/converter law pair, ``ControllerConfig``
holds the gains and communication graphs and validates them,
``CouplingMode`` picks the power/current conversion at the converters, and
``gains_from_costs`` maps quadratic cost weights to matching gains. The
laws themselves are stated once, as the selectors of the assembled model
(``assembly._assemble``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .netgraph import WeightedGraph, connectivity


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
    distributed law is selected.
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
        k_droop = tuple(tuple(float(v) for v in area) for area in self.k_droop)
        k_droop_i = tuple(tuple(float(v) for v in area) for area in self.k_droop_i)
        k_omega = tuple(float(v) for v in self.k_omega)
        k_v = tuple(float(v) for v in self.k_v)
        object.__setattr__(self, "k_droop", k_droop)
        object.__setattr__(self, "k_droop_i", k_droop_i)
        object.__setattr__(self, "k_omega", k_omega)
        object.__setattr__(self, "k_v", k_v)
        n = len(k_omega)
        if len(k_v) != n or len(k_droop) != n or len(k_droop_i) != n:
            raise ValueError("per-converter gain lists must share one length")
        for a, (kd, kdi) in enumerate(zip(k_droop, k_droop_i)):
            if len(kd) != len(kdi):
                raise ValueError(f"area {a}: droop gain lists must share one length")
            if any(v < 0.0 for v in kd):
                raise ValueError(f"area {a}: droop gains must be >= 0")
            if any(v <= 0.0 for v in kdi):
                raise ValueError(f"area {a}: integral droop gains must be > 0")
        if any(v <= 0.0 for v in k_omega) or any(v <= 0.0 for v in k_v):
            raise ValueError("k_omega and k_v must be > 0")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
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
        f_p = tuple(float(v) for v in self.f_p)
        f_v = tuple(float(v) for v in self.f_v)
        if len(f_p) != len(f_v):
            raise ValueError("f_p and f_v must share one length")
        if any(v <= 0.0 for v in f_p) or any(v <= 0.0 for v in f_v):
            raise ValueError("cost weights must be > 0")
        object.__setattr__(self, "f_p", f_p)
        object.__setattr__(self, "f_v", f_v)


@dataclass(frozen=True)
class GainSolution:
    """Result of matching controller gains to cost weights.

    The optimality condition ties the gains to the generation weights via
    k_v * k_droop_i / k_omega = 1 / f_p per area, with k_v = f_v. When all
    three gain families are supplied the residual is the worst per-area
    violation; otherwise the free family is solved for and residual is 0.
    """

    k_v: tuple
    k_omega: tuple
    k_droop_i: tuple
    residual: float
    implied_f_p: tuple
    implied_f_v: tuple


def gains_from_costs(costs: CostWeights, k_omega=None, k_droop_i=None) -> GainSolution:
    """Derive converter/integral gains from cost weights (or check them).

    ``k_v`` always equals ``f_v``. Exactly one of ``k_omega`` / ``k_droop_i``
    may be omitted (per-area scalars expected); it is then solved from
    k_v * k_droop_i = k_omega / f_p. Raises on non-positive implied gains.
    """
    n = len(costs.f_p)
    k_v = costs.f_v
    if k_omega is None and k_droop_i is None:
        raise ValueError("supply at least one of k_omega, k_droop_i")
    if k_omega is not None and len(tuple(k_omega)) != n:
        raise ValueError("k_omega length mismatch")
    if k_droop_i is not None and len(tuple(k_droop_i)) != n:
        raise ValueError("k_droop_i length mismatch")
    if k_droop_i is None:
        k_omega = tuple(float(v) for v in k_omega)
        k_droop_i = tuple(ko / (fp * fv) for ko, fp, fv in zip(k_omega, costs.f_p, k_v))
    elif k_omega is None:
        k_droop_i = tuple(float(v) for v in k_droop_i)
        k_omega = tuple(fp * fv * kdi for kdi, fp, fv in zip(k_droop_i, costs.f_p, k_v))
    else:
        k_omega = tuple(float(v) for v in k_omega)
        k_droop_i = tuple(float(v) for v in k_droop_i)
    if any(v <= 0.0 for v in k_omega) or any(v <= 0.0 for v in k_droop_i):
        raise ValueError("implied gains are not positive; cost weights infeasible")
    implied_f_p = tuple(ko / (kv * kdi) for ko, kv, kdi in zip(k_omega, k_v, k_droop_i))
    residual = max(abs(1.0 / fp - kv * kdi / ko)
                   for fp, kv, kdi, ko in zip(costs.f_p, k_v, k_droop_i, k_omega))
    return GainSolution(
        k_v=k_v,
        k_omega=k_omega,
        k_droop_i=k_droop_i,
        residual=residual,
        implied_f_p=implied_f_p,
        implied_f_v=k_v,
    )
