"""Closed-loop state-space assembly for every plant/controller combination.

States are stacked in a fixed, named order so serialized results stay
stable: per area the (optional) relative rotor angles then the per-bus
frequency deviations, then the DC voltage deviations, the per-area
generation integral states (distributed generation only), the converter
phase states (distributed converter control only), and finally the pi-link
segment currents and internal voltages.

The controller laws are stated once, as the selectors P_gen and P_inj
with p_gen = P_gen x and p_inj = P_inj x; the frequency rows are derived
from them as M^-1 (p_gen - p_inj at each converter bus) and the DC rows as
E p_inj / v_nom. Each quantity read off the state is stated once, as a
named row block of one output matrix (``ClosedLoopModel.rows``): the
series families the command line writes, area-mean frequencies, DC
voltages, area sums of P_gen and P_inj itself (with ``series_offset``, the
derived series), then the per-bus frequencies and P_gen.

Only the full-coordinate model is assembled. A reduced model is its
projection T A T^T (see ``reduce_model``): reduced coordinates drop the
uniform component of each rotor-angle block and of the converter phase
block; those directions are unobservable from the (frequency, DC voltage)
output and, for the phase block, marginally stable, so removing them
leaves the input/output behavior unchanged. A reduced model carries T as a
block map, its ``projection``, and its state matrix, input map and output
matrix are the full ones projected by it. T is applied one block of
the assembled layout at a time and never formed as a dense matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from ._blas import one_thread
from .control import ControllerConfig
from .netgraph import laplacian, ones_complement
from .plant import MtdcNetwork, PiLinkChain, pi_link_matrices

# row blocks of ``outputs``, in this order: the series families, one row per
# converter/area each, then the per-bus blocks, one row per generator bus each
SERIES_FAMILIES = ("frequencies", "dc_voltages", "generation", "injections")
BUS_BLOCKS = ("bus_frequencies", "bus_generation")


class NonFiniteModelError(ValueError):
    """Raised when finite gains, inertias, capacitances or disturbances
    overflow the assembled state matrix, a certificate block or the
    equilibrium."""


@dataclass(frozen=True)
class StateLayout:
    """Named, contiguous blocks: tuple of (name, offset, length).

    Built only by ``end_to_end``: the assembled state blocks by
    ``_build_layout``, the reduced ones by ``reduce_model``, the row blocks
    of ``ClosedLoopModel.outputs`` by ``_output_rows``.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "_index", {name: slice(start, start + length)
                                            for name, start, length in self.blocks})

    @classmethod
    def end_to_end(cls, sized) -> StateLayout:
        """(name, length) blocks, each starting where the one before ends."""
        ends = np.cumsum([length for _, length in sized], dtype=int).tolist()
        return cls(tuple((name, end - length, length) for (name, length), end in zip(sized, ends)))

    @property
    def dim(self) -> int:
        return sum(b[2] for b in self.blocks)

    def has(self, name: str) -> bool:
        return name in self._index

    def sl(self, name: str) -> slice:
        return self._index[name]


@dataclass(frozen=True, eq=False)
class Projection:
    """The map T from assembled to reduced coordinates, one block at a time.

    ``layout`` is the assembled layout and ``blocks`` holds, per block of
    it, (assembled slice, reduced slice, basis): T is the transpose of the
    block's ones-complement basis, or the identity where basis is None.
    """

    layout: StateLayout
    dim: int
    blocks: tuple

    def rows(self, x: np.ndarray) -> np.ndarray:  # T x
        out = np.empty((self.dim, x.shape[1]))
        for full, red, basis in self.blocks:
            out[red] = x[full] if basis is None else basis.T @ x[full]
        return out

    def cols(self, x: np.ndarray) -> np.ndarray:  # x T^T
        out = np.empty((x.shape[0], self.dim))
        for full, red, basis in self.blocks:
            out[:, red] = x[:, full] if basis is None else x[:, full] @ basis
        return out


@dataclass(frozen=True, eq=False)
class ClosedLoopModel:
    """Assembled linear dynamics dx/dt = a x + b_dist u.

    ``u`` carries one uncontrolled power deviation per generator bus
    (area-major order). ``outputs`` x gives every quantity read off the
    state, one named row block each (``rows``): the first rows, one block
    per entry of ``SERIES_FAMILIES``, plus ``series_offset`` are the
    derived series; ``injections`` and ``bus_generation`` are the
    controller selectors P_inj and P_gen. ``projection`` is the map T
    from the assembled coordinates, None on the assembled model.
    """

    a: np.ndarray
    b_dist: np.ndarray
    outputs: np.ndarray
    layout: StateLayout
    net: MtdcNetwork
    areas: tuple
    cfg: ControllerConfig
    series_offset: np.ndarray
    chain: PiLinkChain = None
    projection: Projection = None
    # (spectral abscissa, verdict), filled by the first ``analysis.hurwitz``
    # call; ``a`` is never modified in place, and ``replace`` starts afresh
    hurwitz_memo: tuple = field(default=None, init=False, repr=False)
    # step size -> zero-order-hold discretization (``_kernels.Propagator``),
    # filled by ``sim.integrate`` from the model's own fields alone
    zoh_memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def reduced(self) -> bool:
        return self.projection is not None

    def rows(self, name: str) -> slice:
        """Rows of ``outputs`` (a family's columns of ``Trajectory.series``) of one block."""
        return _output_rows(self.n_areas, self.total_buses).sl(name)

    # read only by perfbench's reference check; they go once it reads ``rows``
    output = property(lambda self: self.outputs[np.r_[self.rows("bus_frequencies"),
                                                      self.rows("dc_voltages")]])
    p_gen_selector = property(lambda self: self.outputs[self.rows("bus_generation")])
    p_inj_selector = property(lambda self: self.outputs[self.rows("injections")])

    @property
    def n_areas(self) -> int:
        return len(self.areas)

    @property
    def total_buses(self) -> int:
        return sum(area.n_buses for area in self.areas)


def _output_rows(n_areas: int, n_buses: int) -> StateLayout:
    return StateLayout.end_to_end([(name, n_areas) for name in SERIES_FAMILIES]
                                  + [(name, n_buses) for name in BUS_BLOCKS])


def _build_layout(areas, cfg: ControllerConfig, chain: PiLinkChain = None) -> StateLayout:
    n = len(areas)
    blocks = []
    for i, area in enumerate(areas):
        nb = area.n_buses
        if nb >= 2:
            blocks.append((f"angle{i}", nb))
        blocks.append((f"freq{i}", nb))
    blocks.append(("vdc", n))
    if cfg.variant.distributed_gen:
        blocks.append(("gen_integral", n))
    if cfg.variant.distributed_conv:
        blocks.append(("conv_phase", n))
    if chain is not None:
        blocks += [(f"line_current{q}", chain.n_lines) for q in range(1, chain.n_segments + 1)]
        blocks += [(f"line_voltage{q}", chain.n_lines) for q in range(1, chain.n_segments)]
    return StateLayout.end_to_end(blocks)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # reported once, by the final check
def _assemble(net: MtdcNetwork, areas, cfg: ControllerConfig,
              chain: PiLinkChain = None) -> ClosedLoopModel:
    """The full-coordinate closed loop with resistive lines, or with the pi-link ``chain``."""
    areas = tuple(areas)
    if len(areas) != net.n:
        raise ValueError("need exactly one AC area per converter node")
    if cfg.n_areas != net.n:
        raise ValueError("controller gain lists must match the converter count")
    if cfg.bus_counts != tuple(a.n_buses for a in areas):
        raise ValueError("per-bus gain lists must match the area bus counts")
    n = net.n
    layout = _build_layout(areas, cfg, chain)
    dim = layout.dim
    total_buses = sum(a.n_buses for a in areas)
    a_mat = np.zeros((dim, dim))
    b_dist = np.zeros((dim, total_buses))
    rows = _output_rows(n, total_buses)
    outputs = np.zeros((rows.dim, dim))
    # the row blocks as views, filled in place: unit rows, area means and sums, the laws
    area_mean, dc_volt, area_gen, p_inj, bus_freq, p_gen = (
        outputs[rows.sl(name)] for name in SERIES_FAMILIES + BUS_BLOCKS)
    area_sum = np.zeros((n, total_buses))

    e_diag = 1.0 / np.array(net.cap)  # the elastance E = diag(1/C)
    vdc = layout.sl("vdc")
    l_phi = laplacian(cfg.comm_phi) if cfg.variant.distributed_conv else None

    bus_off = 0
    for i, area in enumerate(areas):
        nb = area.n_buses
        buses = slice(bus_off, bus_off + nb)
        area_sum[i, buses] = 1.0
        fq = layout.sl(f"freq{i}")
        area_mean[i, fq] = 1.0 / nb
        bus_freq[buses, fq] = np.eye(nb)
        # the controller laws, stated once: p_gen = P_gen x and p_inj = P_inj x
        p_gen[buses, fq] -= np.diag(cfg.k_droop[i])
        p_inj[i, fq.start] += cfg.k_omega[i]
        p_inj[i, vdc.start + i] -= cfg.k_v[i]
        if cfg.variant.distributed_gen:
            gi = layout.sl("gen_integral")
            kdi = np.array(cfg.k_droop_i[i])
            p_gen[buses, gi.start + i] -= cfg.k_v[i] / cfg.k_omega[i] * kdi
            a_mat[gi.start + i, fq] += kdi
        if cfg.variant.distributed_conv:
            p_inj[i, layout.sl("conv_phase")] += l_phi[i]

        # swing equations: M dw/dt = p_gen + p_m - p_inj (converter bus only)
        # - AC line flows
        m_inv = 1.0 / np.array(area.inertia)
        a_mat[fq] += m_inv[:, None] * p_gen[buses]
        a_mat[fq.start] -= m_inv[0] * p_inj[i]
        b_dist[fq, buses] = np.diag(m_inv)
        if nb >= 2:
            ang = layout.sl(f"angle{i}")
            a_mat[fq, ang] -= m_inv[:, None] * laplacian(area.line_graph())
            a_mat[ang, fq] += np.eye(nb)
        bus_off += nb

    # DC nodes: injected current p_inj / v_nom, line coupling per plant model
    a_mat[vdc] += e_diag[:, None] * p_inj / net.v_nom
    if chain is None:
        a_mat[vdc, vdc] -= e_diag[:, None] * laplacian(net.conductance_graph())
    else:
        ell = chain.n_segments
        cur = [layout.sl(f"line_current{q}") for q in range(1, ell + 1)]
        vol = [layout.sl(f"line_voltage{q}") for q in range(1, ell)]
        a_mat[vdc, cur[0]] -= e_diag[:, None] * chain.d_in
        a_mat[vdc, cur[-1]] += e_diag[:, None] * chain.d_out
        l_inv = 1.0 / chain.l_seg
        for q in range(ell):
            a_mat[cur[q], cur[q]] -= np.diag(chain.r_seg * l_inv)
            if q == 0:
                a_mat[cur[q], vdc] += l_inv[:, None] * chain.d_in.T
            else:
                a_mat[cur[q], vol[q - 1]] += np.diag(l_inv)
            if q == ell - 1:
                a_mat[cur[q], vdc] -= l_inv[:, None] * chain.d_out.T
            else:
                a_mat[cur[q], vol[q]] -= np.diag(l_inv)
        for q in range(ell - 1):
            c_inv = 1.0 / chain.c_seg
            a_mat[vol[q], cur[q]] += np.diag(c_inv)
            a_mat[vol[q], cur[q + 1]] -= np.diag(c_inv)

    if cfg.variant.distributed_gen:
        gi = layout.sl("gen_integral")
        a_mat[gi, gi] -= laplacian(cfg.comm_eta)

    if cfg.variant.distributed_conv:
        ph = layout.sl("conv_phase")
        conv_freq = [layout.sl(f"freq{i}").start for i in range(n)]
        a_mat[ph.start + np.arange(n), conv_freq] += np.array(cfg.k_omega) / np.array(cfg.k_v)
        a_mat[ph, ph] -= cfg.gamma * np.eye(n)

    dc_volt[:, vdc] = np.eye(n)
    area_gen[:] = area_sum @ p_gen
    series_offset = np.concatenate([np.full(n, cfg.omega_ref), np.array(net.v_ref, dtype=float),
                                    np.zeros(2 * n)])

    if not np.isfinite(a_mat).all():
        raise NonFiniteModelError("state matrix: non-finite entries (a gain, inertia or "
                                  "capacitance beyond the float range)")
    return ClosedLoopModel(
        a=a_mat,
        b_dist=b_dist,
        outputs=outputs,
        layout=layout,
        net=net,
        areas=tuple(areas),
        cfg=cfg,
        series_offset=series_offset,
        chain=chain,
    )


@one_thread()
def assemble_resistive(net: MtdcNetwork, areas, cfg: ControllerConfig,
                       reduced: bool = True) -> ClosedLoopModel:
    """Closed loop with the purely resistive DC line model."""
    full = _assemble(net, areas, cfg)
    return reduce_model(full) if reduced else full


@one_thread()
def assemble_pi_link(net: MtdcNetwork, areas, cfg: ControllerConfig,
                     reduced: bool = True) -> ClosedLoopModel:
    """Closed loop with dynamic pi-link DC lines, for areas of any size.

    ``analysis.stability_report`` decides what the certificate covers: a
    pi-link model can be ``LYAPUNOV_PROVEN`` only under the decentralised
    converter law.
    """
    full = _assemble(net, areas, cfg, pi_link_matrices(net))
    return reduce_model(full) if reduced else full


@one_thread()
def reduce_model(model: ClosedLoopModel) -> ClosedLoopModel:
    """Drop the unobservable uniform angle/phase directions.

    The projection T is the identity on non-reducible blocks and the
    transpose of the ones-complement basis on each rotor-angle block and on
    the converter phase block, so its rows are orthonormal. The kept
    directions evolve independently of the dropped ones, so the reduced
    model reproduces the output of the full model exactly.

    T is kept as a block map, the model's ``projection``, and never formed
    as a dense matrix: identity blocks are copied, angle and phase blocks
    multiplied by their basis, and the output matrix projected as a whole.
    Each reduced block keeps its name and takes the width of its basis.
    """
    if model.reduced:
        raise ValueError("model is already reduced")
    basis = functools.cache(ones_complement)  # one basis per block length
    bases = {name: basis(length) if name.startswith("angle") or name == "conv_phase" else None
             for name, _, length in model.layout.blocks}
    red_layout = StateLayout.end_to_end([(name, length if bases[name] is None else bases[name].shape[1])
                                         for name, _, length in model.layout.blocks])
    proj = Projection(model.layout, red_layout.dim, tuple(
        (model.layout.sl(name), red_layout.sl(name), b) for name, b in bases.items()))
    return replace(
        model,
        a=proj.cols(proj.rows(model.a)),
        b_dist=proj.rows(model.b_dist),
        outputs=proj.cols(model.outputs),
        layout=red_layout,
        projection=proj,
    )


@np.errstate(over="ignore")  # an infinite sum is reported once, by the equilibrium or run
def disturbance_map(model: ClosedLoopModel, disturbances) -> np.ndarray:
    """Constant input vector from (area, bus, magnitude) power deviations.

    Multiple entries on one bus add up. A generation loss maps to a
    negative magnitude at that bus. Only ``model.areas`` is read, so the
    ``SystemConfig`` a model is assembled from gives the same vector.
    """
    sizes = [area.n_buses for area in model.areas]
    u = np.zeros(sum(sizes))
    for area, bus, magnitude in disturbances:
        if not (0 <= area < len(sizes)):
            raise ValueError(f"unknown area {area}")
        if not (0 <= bus < sizes[area]):
            raise ValueError(f"unknown bus {bus} in area {area}")
        u[sum(sizes[:area]) + bus] += float(magnitude)
    return u


def baseline_disturbance(model: ClosedLoopModel) -> np.ndarray:
    """Constant per-bus power deviations configured on the areas themselves.

    Reads only ``model.areas``, as ``disturbance_map`` does.
    """
    return np.concatenate([np.array(area.p_m) for area in model.areas])
