"""Shared fixtures: the bundled six-terminal setup plus small synthetic grids,
and helpers that read trajectories and reduced models."""

from dataclasses import dataclass

import numpy as np
import pytest

import mtdcsim as m
from mtdcsim.analysis import lyapunov_matrix
from mtdcsim.cli import comparison_models
from mtdcsim.sim import _segments


@pytest.fixture(scope="session")
def paper_sc():
    return m.load_config(m.reference_config_path())


@pytest.fixture(scope="session")
def paper_model_reduced(paper_sc):
    return m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True)


@pytest.fixture(scope="session")
def paper_model_full(paper_sc):
    return m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=False)


@pytest.fixture(scope="session")
def paper_trajs(paper_sc):
    """The configured scenario under all three controller pairings, run as
    ``compare`` runs them."""
    return compare_variants(paper_sc)


def compare_variants(sc):
    """The scenario run on each pairing's model, as ``cmd_compare`` runs it."""
    return {v: m.integrate(model, sc.scenario) for v, model in comparison_models(sc).items()}


def outputs(traj):
    """y = [frequency deviations, DC voltage deviations] per sample."""
    return traj.states @ traj.model.output.T


def dense_projection(model):
    """The dense T of a reduced model, filled from its block map."""
    proj = model.projection
    t_mat = np.zeros((proj.dim, proj.layout.dim))
    for full, red, basis in proj.blocks:
        t_mat[red, full] = np.eye(full.stop - full.start) if basis is None else basis.T
    return t_mat


@dataclass(frozen=True, eq=False)
class LyapunovTrace:
    times: np.ndarray
    values: np.ndarray
    max_step_increase: float


def lyapunov_trace(model, scenario):
    """Candidate-function values along a simulated trajectory of the reduced
    ``model``.

    The state is measured relative to the equilibrium under the final
    constant input, so a single step disturbance from rest yields a series
    that the certificate (when it applies) guarantees to be nonincreasing.
    With multiple events only the part after the last event carries that
    guarantee.
    """
    traj = m.integrate(model, scenario)
    u_final = _segments(model, scenario, scenario.n_steps)[1][-1]
    x_ref = m.equilibrium(model, u_final).x_star if np.any(u_final != 0.0) else np.zeros(model.dim)
    p = lyapunov_matrix(model)
    rel = traj.states - x_ref
    values = np.einsum("ij,jk,ik->i", rel, p, rel)
    max_inc = float(np.diff(values).max()) if values.shape[0] > 1 else 0.0
    return LyapunovTrace(times=traj.times, values=values, max_step_increase=max_inc)


def single_gen_system(n_areas=2, gamma=0.0, variant=m.Variant.DIST_GEN_DIST_CONV,
                      k_phi=15.0, r=0.1, inertia=2.0, k_omega=10.0, k_v=4.0,
                      k_droop=4.0, k_droop_i=2.0, cap=0.1):
    """Chain-topology DC grid with identical single-generator areas."""
    lines = tuple(m.DcLine(i, i + 1, r, l=r * 4e-3, c=0.01) for i in range(n_areas - 1))
    net = m.MtdcNetwork(cap=(cap,) * n_areas, lines=lines)
    areas = tuple(m.AcArea(inertia=(inertia,)) for _ in range(n_areas))
    comm = tuple((ln.i, ln.j, 1.0 / ln.r) for ln in lines)
    cfg = m.ControllerConfig(
        k_droop=((k_droop,),) * n_areas,
        k_droop_i=((k_droop_i,),) * n_areas,
        k_omega=(k_omega,) * n_areas,
        k_v=(k_v,) * n_areas,
        comm_eta=m.WeightedGraph(n_areas, tuple((i, j, 5.0 * w) for i, j, w in comm)) if n_areas > 1 else m.WeightedGraph(1),
        comm_phi=m.WeightedGraph(n_areas, tuple((i, j, k_phi * w) for i, j, w in comm)) if n_areas > 1 else m.WeightedGraph(1),
        gamma=gamma,
        variant=variant,
    )
    return net, areas, cfg


@pytest.fixture
def two_area():
    return single_gen_system(2)


@pytest.fixture
def three_area():
    return single_gen_system(3, gamma=4.0, k_phi=8.0)


def random_stable_config(rng, min_decay=0.05):
    """Random connected MTDC grid with single-generator areas, retried
    until the reduced distributed/distributed loop decays at ``min_decay``."""
    while True:
        n = int(rng.integers(2, 5))
        edges = [(i, i + 1) for i in range(n - 1)]
        extra = [(i, j) for i in range(n) for j in range(i + 2, n)]
        rng.shuffle(extra)
        edges += extra[: int(rng.integers(0, len(extra) + 1))]
        lines = tuple(m.DcLine(i, j, float(rng.uniform(0.05, 0.5)), l=1e-3, c=0.01)
                      for i, j in edges)
        net = m.MtdcNetwork(cap=tuple(float(rng.uniform(0.05, 0.5)) for _ in range(n)),
                            lines=lines)
        areas = tuple(m.AcArea(inertia=(float(rng.uniform(2.0, 20.0)),)) for _ in range(n))
        k_phi = float(rng.uniform(1.0, 10.0))
        gamma = float(rng.choice([0.0, k_phi / 4.0 + rng.uniform(0.5, 2.0)]))
        cfg = m.ControllerConfig(
            k_droop=tuple((float(rng.uniform(0.5, 5.0)),) for _ in range(n)),
            k_droop_i=tuple((float(rng.uniform(0.2, 2.0)),) for _ in range(n)),
            k_omega=tuple(float(rng.uniform(5.0, 50.0)) for _ in range(n)),
            k_v=tuple(float(rng.uniform(1.0, 5.0)) for _ in range(n)),
            comm_eta=m.WeightedGraph(n, tuple((ln.i, ln.j, float(rng.uniform(1.0, 10.0)) / ln.r)
                                              for ln in lines)),
            comm_phi=m.WeightedGraph(n, tuple((ln.i, ln.j, k_phi / ln.r) for ln in lines)),
            gamma=gamma,
            variant=m.Variant.DIST_GEN_DIST_CONV,
        )
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        abscissa, stable = m.hurwitz(model)
        if stable and abscissa < -min_decay:
            return net, areas, cfg


def mixed_relative_error(got, want, floor=1.0):
    """Componentwise |got - want| / max(floor, |want|), maximized."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float((np.abs(got - want) / np.maximum(floor, np.abs(want))).max())
