"""Shared fixtures: the bundled six-terminal setup plus small synthetic grids,
and helpers that read trajectories and reduced models."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import mtdcsim as m
from mtdcsim.cli import comparison_models
from mtdcsim.sim import _segments


# The reference experiment's line inductance and capacitance (p.u.) by line
# resistance. The config format carries a line's r alone, so the tests that
# build the reference's lines as pi-links take l and c from here.
REFERENCE_LINE_LC = {0.0586: (0.256e-3, 0.0085), 0.0878: (0.384e-3, 0.0127),
                     0.0732: (0.32e-3, 0.0106), 0.1464: (0.64e-3, 0.0212)}


def reference_pi_lines(lines, segments=1):
    """The reference's ``lines`` as pi-links of ``segments`` segments."""
    return tuple(m.DcLine(ln.i, ln.j, ln.r, *REFERENCE_LINE_LC[ln.r], segments=segments)
                 for ln in lines)


@pytest.fixture(scope="session")
def paper_sc():
    return m.load_config(m.reference_config_path())


@pytest.fixture(scope="session")
def paper_pi_net(paper_sc):
    """The reference's DC grid, its lines as one-segment pi-links."""
    return replace(paper_sc.net, lines=reference_pi_lines(paper_sc.net.lines))


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


def row_block(model, *names):
    """The rows of ``model.outputs`` of the named blocks, in that order."""
    return model.outputs[np.r_[tuple(model.rows(name) for name in names)]]


def outputs(traj):
    """y = [frequency deviations, DC voltage deviations] per sample."""
    return traj.states @ row_block(traj.model, "bus_frequencies", "dc_voltages").T


def dense_projection(model):
    """The dense T of a reduced model, filled from its block map."""
    proj = model.projection
    t_mat = np.zeros((proj.dim, proj.layout.dim))
    for full, red, basis in proj.blocks:
        t_mat[red, full] = np.eye(full.stop - full.start) if basis is None else basis.T
    return t_mat


def lyapunov_matrix(model):
    """Quadratic form P with W(x) = x^T P x for the model's layout.

    P is built once, on the assembled coordinates; for a reduced model it is
    T P T^T, applied block by block by the model's ``projection``. The pi-link
    terms weight the line currents by the segment inductances and the line
    voltages by the segment capacitances, the stored energy of the chain.
    """
    proj = model.projection
    layout = model.layout if proj is None else proj.layout
    p = np.zeros((layout.dim, layout.dim))
    for i, area in enumerate(model.areas):
        weight = model.cfg.k_omega[i] / (2.0 * model.cfg.k_v[i])
        fq = layout.sl(f"freq{i}")
        p[fq, fq] += weight * np.diag(area.inertia)
        if layout.has(f"angle{i}"):
            ang = layout.sl(f"angle{i}")
            p[ang, ang] += weight * m.laplacian(area.line_graph())
    vdc = layout.sl("vdc")
    p[vdc, vdc] += 0.5 * model.net.v_nom * np.diag(model.net.cap)
    if layout.has("gen_integral"):
        gi = layout.sl("gen_integral")
        p[gi, gi] += 0.5 * np.eye(model.n_areas)
    if layout.has("conv_phase"):
        ph = layout.sl("conv_phase")
        p[ph, ph] += 0.5 * m.laplacian(model.cfg.comm_phi)
    chain = model.chain
    if chain is not None:
        for q in range(1, chain.n_segments + 1):
            sl = layout.sl(f"line_current{q}")
            p[sl, sl] += 0.5 * model.net.v_nom * np.diag(chain.l_seg)
        for q in range(1, chain.n_segments):
            sl = layout.sl(f"line_voltage{q}")
            p[sl, sl] += 0.5 * model.net.v_nom * np.diag(chain.c_seg)
    return p if proj is None else proj.cols(proj.rows(p))


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
    u_final = _segments(model, scenario)[1][-1]
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


def random_config(rng, max_nodes=4):
    """Random connected MTDC grid of 2 to ``max_nodes`` single-generator
    areas under the distributed/distributed law, its phase graph
    proportional to the conductance graph (Assumption 1 held)."""
    n = int(rng.integers(2, max_nodes + 1))
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
    return net, areas, cfg


def wide_gain_config(rng, max_nodes=5):
    """``random_config`` undamped, each controller gain and consensus weight
    times its own 10**U(-1.5, 1.5), so the gains span three decades. The
    phase graph takes one factor, so Assumption 1 still holds. About 1 in
    140 of these loops is not Hurwitz."""
    net, areas, cfg = random_config(rng, max_nodes)

    def spread(gain):
        return float(gain * 10 ** rng.uniform(-1.5, 1.5))

    phi_scale = spread(1.0)
    return net, areas, replace(
        cfg, k_droop=tuple(tuple(map(spread, k)) for k in cfg.k_droop),
        k_droop_i=tuple(tuple(map(spread, k)) for k in cfg.k_droop_i),
        k_omega=tuple(map(spread, cfg.k_omega)), k_v=tuple(map(spread, cfg.k_v)),
        comm_eta=m.WeightedGraph(net.n, tuple((i, j, spread(w)) for i, j, w in cfg.comm_eta.edges)),
        comm_phi=m.WeightedGraph(net.n, tuple((i, j, w * phi_scale) for i, j, w in cfg.comm_phi.edges)),
        gamma=0.0)


def random_stable_config(rng, min_decay=0.05):
    """``random_config``, retried until the reduced loop decays at ``min_decay``."""
    while True:
        net, areas, cfg = random_config(rng)
        model = m.assemble_resistive(net, areas, cfg, reduced=True)
        abscissa, stable = m.hurwitz(model)
        if stable and abscissa < -min_decay:
            return net, areas, cfg


def mixed_relative_error(got, want, floor=1.0):
    """Componentwise |got - want| / max(floor, |want|), maximized."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float((np.abs(got - want) / np.maximum(floor, np.abs(want))).max())
