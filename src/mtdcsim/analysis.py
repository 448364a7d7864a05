"""Stability certificates, equilibrium computation, and optimality checks.

Two routes to a stability verdict are kept deliberately separate: the
spectral test (eigenvalues of the reduced closed loop) and the quadratic
certificate of the resistive-line proof, from the proportionality and
damping conditions on the converter communication graph. It covers resistive
lines, and pi-link lines under the decentralised converter law. It is
sufficient, never necessary: the bundled six-terminal setup with zero phase
damping is spectrally stable without a certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from ._blas import one_thread
from .assembly import ClosedLoopModel, NonFiniteModelError, assemble_resistive
from .control import ControllerConfig
from .netgraph import laplacian, ones_complement
from .plant import MtdcNetwork

HURWITZ_TOL = 1e-9
ASSUMPTION_TOL = 1e-9


class UnstableSystemError(RuntimeError):
    """Raised when an operation requires an asymptotically stable model."""


class CertificateClass(enum.Enum):
    LYAPUNOV_PROVEN = "LYAPUNOV_PROVEN"
    HURWITZ_ONLY = "HURWITZ_ONLY"
    MARGINAL = "MARGINAL"
    UNSTABLE = "UNSTABLE"


@dataclass(frozen=True)
class Assumption1Result:
    """Proportionality of the phase-consensus and conductance Laplacians."""

    holds: bool
    k_phi: float
    residual: float


@dataclass(frozen=True)
class Assumption2Result:
    """Phase damping against the bound k_phi / (4 v_nom)."""

    holds: bool
    bound: float
    gamma: float


@dataclass(frozen=True, eq=False)
class CertificateResult:
    """Assumptions 1 and 2 (``None`` without phase coupling) and the least
    eigenvalues of q1 and q2 (``None`` for an empty block or a failed Assumption 1)."""

    assumption1: Assumption1Result
    assumption2: Assumption2Result
    q1_min_eig: float
    q2_min_eig: float
    schur_ok: bool


@dataclass(frozen=True, eq=False)
class StabilityReport:
    assumption1: Assumption1Result
    assumption2: Assumption2Result
    spectral_abscissa: float
    q1_min_eig: float
    q2_min_eig: float
    certificate: CertificateClass


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Steady state under a constant disturbance, with optimality residuals.

    ``kkt_gen_residual`` measures deviation of the weighted generation
    vector from a uniform multiplier of ones (best multiplier fitted by
    least squares); ``kkt_volt_residual`` is the weighted voltage-deviation
    sum; ``avg_freq_residual`` the integral-gain-weighted frequency sum.
    """

    x_star: np.ndarray
    omega_hat_star: np.ndarray
    v_hat_star: np.ndarray
    eta_star: np.ndarray
    phi_star: np.ndarray
    p_gen_star: np.ndarray
    p_inj_star: np.ndarray
    area_gen_totals: np.ndarray
    kkt_gen_residual: float
    kkt_volt_residual: float
    avg_freq_residual: float
    injection_balance: float
    cost_generation: float
    cost_voltage: float


@dataclass(frozen=True)
class SweepRow:
    scale: float
    is_hurwitz: bool
    max_abs_freq_dev: float
    kkt_gen_residual: float
    kkt_volt_residual: float


def check_assumption1(l_phi: np.ndarray, l_r: np.ndarray) -> Assumption1Result:
    """Best proportionality factor between two Laplacians and its residual.

    The factor minimizing the Frobenius misfit is <L_phi, L_r> / ||L_r||^2;
    the check holds when the remaining max-norm misfit is below 1e-9.
    """
    l_phi = np.asarray(l_phi, dtype=float)
    l_r = np.asarray(l_r, dtype=float)
    if l_phi.shape != l_r.shape:
        raise ValueError("Laplacians must share one shape")
    denom = float(np.sum(l_r * l_r))
    if denom == 0.0:
        raise ValueError("conductance Laplacian is zero; no proportionality factor exists")
    k_phi = float(np.sum(l_phi * l_r)) / denom
    residual = float(np.abs(l_phi - k_phi * l_r).max())
    return Assumption1Result(holds=residual < ASSUMPTION_TOL, k_phi=k_phi, residual=residual)


def check_assumption2(gamma: float, k_phi: float, v_nom: float) -> Assumption2Result:
    """Strict damping condition gamma > k_phi / (4 v_nom), by a margin of
    ``ASSUMPTION_TOL`` relative to the bound (absolute below a bound of 1)."""
    if k_phi < 0.0:
        raise ValueError("k_phi must be >= 0")
    if v_nom <= 0.0:
        raise ValueError("v_nom must be > 0")
    bound = k_phi / (4.0 * v_nom)
    return Assumption2Result(holds=gamma - bound > ASSUMPTION_TOL * max(1.0, bound),
                             bound=bound, gamma=gamma)


@one_thread()
def spectral_abscissa(a: np.ndarray) -> tuple[float, bool]:
    """Largest eigenvalue real part and the strict (tolerance -1e-9) verdict."""
    try:
        eigs = np.linalg.eigvals(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigenvalue computation failed") from exc
    abscissa = float(eigs.real.max()) if eigs.size else -np.inf
    return abscissa, abscissa < -HURWITZ_TOL


def hurwitz(model: ClosedLoopModel) -> tuple[float, bool]:
    """Spectral abscissa of the reduced model and the strict stability verdict.

    The eigenvalues are computed once per model instance and the result is
    kept on the model, so a stability report and an equilibrium of the same
    model share one decomposition.
    """
    if not model.reduced:
        raise ValueError("hurwitz test expects the reduced model")
    if model.hurwitz_memo is None:
        object.__setattr__(model, "hurwitz_memo", spectral_abscissa(model.a))
    return model.hurwitz_memo


def _min_eig(mat: np.ndarray) -> float:
    """Least eigenvalue of a symmetric block; ``None`` for an empty block."""
    if not np.isfinite(mat).all():
        raise NonFiniteModelError("certificate: non-finite entries (a gain or voltage "
                                  "beyond the float range)")
    return float(np.linalg.eigvalsh(mat).min()) if mat.size else None


@one_thread()
@np.errstate(over="ignore", invalid="ignore")  # reported once, by _min_eig
def lyapunov_certificate(net: MtdcNetwork, cfg: ControllerConfig) -> CertificateResult:
    """Check Assumptions 1 and 2 and build the resistive-line proof's two blocks, once each.

    The frequency/voltage block q1 couples the converter gains with the
    converter-bus droop; its Schur complement is positive definite exactly
    when that droop is positive. The voltage/phase block q2 carries the
    proportionality factor k_phi of Assumption 1 (distributed converter
    law) and its Schur complement is positive definite exactly when
    Assumption 2 holds. ``schur_ok`` is both Schur tests together. When
    Assumption 1 fails the result says so, with no block built.
    """
    n = net.n
    s = ones_complement(n)
    l_r = laplacian(net.conductance_graph())
    core = s.T @ l_r @ s
    a1 = a2 = None
    weights = np.array([[net.v_nom]])
    if cfg.variant.distributed_conv and n > 1:
        a1 = check_assumption1(laplacian(cfg.comm_phi), l_r)
        if not a1.holds:
            return CertificateResult(a1, None, None, None, schur_ok=False)
        a2 = check_assumption2(cfg.gamma, a1.k_phi, net.v_nom)
        weights = np.array([[net.v_nom, -0.5 * a1.k_phi],
                            [-0.5 * a1.k_phi, cfg.gamma * a1.k_phi]])
    k_omega = np.array(cfg.k_omega)
    k_v = np.array(cfg.k_v)
    droop_conv = np.array([cfg.k_droop[i][0] for i in range(n)])
    q1 = np.block([
        [np.diag(k_omega / k_v * (k_omega + 0.5 * droop_conv)), -np.diag(k_omega)],
        [-np.diag(k_omega), np.diag(k_v)],
    ])
    schur_ok = bool(np.all(droop_conv > 0.0) and (a2 is None or a2.holds) and
                    (core.size == 0 or _min_eig(core) > 0.0))
    return CertificateResult(a1, a2, _min_eig(q1), _min_eig(np.kron(weights, core)), schur_ok)


def _cost_weights_per_bus(model: ClosedLoopModel, costs=None):
    """Per-bus generation weights and per-converter voltage weights.

    Without explicit costs the weights implied by the gains are used:
    f_p = k_omega / (k_v * k_droop_i) per bus, f_v = k_v.
    """
    cfg = model.cfg
    if costs is not None:
        f_p = np.concatenate([np.full(model.areas[i].n_buses, costs.f_p[i])
                              for i in range(model.n_areas)])
        f_v = np.array(costs.f_v, dtype=float)
        return f_p, f_v
    f_p = np.concatenate([
        cfg.k_omega[i] / (cfg.k_v[i] * np.array(cfg.k_droop_i[i]))
        for i in range(model.n_areas)])
    return f_p, np.array(cfg.k_v)


@one_thread()
@np.errstate(over="ignore", invalid="ignore")  # reported once, by the final check
def equilibrium(model: ClosedLoopModel, u: np.ndarray, costs=None) -> EquilibriumReport:
    """Solve for the steady state under constant input and report residuals.

    Requires the reduced, asymptotically stable model: the full-coordinate
    state matrix is singular whenever phase or angle blocks are present.
    """
    if not model.reduced:
        raise ValueError("equilibrium needs the reduced model (full coordinates are singular)")
    abscissa, stable = hurwitz(model)
    if not stable:
        raise UnstableSystemError(
            f"no unique stable equilibrium: spectral abscissa {abscissa:.3g}")
    u = np.asarray(u, dtype=float)
    x_star = np.linalg.solve(model.a, -model.b_dist @ u)
    layout = model.layout
    omega_hat, v_hat, p_gen, p_inj, area_gen = (
        model.outputs[model.rows(name)] @ x_star
        for name in ("bus_frequencies", "dc_voltages", "bus_generation", "injections", "generation"))
    eta = x_star[layout.sl("gen_integral")] if layout.has("gen_integral") else None
    phi = None
    if layout.has("conv_phase"):
        phi = ones_complement(model.n_areas) @ x_star[layout.sl("conv_phase")]
    f_p, f_v = _cost_weights_per_bus(model, costs)
    weighted = f_p * p_gen
    kkt_gen = float(np.abs(weighted - weighted.mean()).max())
    kkt_volt = float(abs(f_v @ v_hat))
    kdi = np.concatenate([np.array(model.cfg.k_droop_i[i]) for i in range(model.n_areas)])
    avg_freq = float(abs(kdi @ omega_hat))
    balance = float(abs(p_inj.sum() / model.net.v_nom))
    report = EquilibriumReport(
        x_star=x_star,
        omega_hat_star=omega_hat,
        v_hat_star=v_hat,
        eta_star=eta,
        phi_star=phi,
        p_gen_star=p_gen,
        p_inj_star=p_inj,
        area_gen_totals=area_gen,
        kkt_gen_residual=kkt_gen,
        kkt_volt_residual=kkt_volt,
        avg_freq_residual=avg_freq,
        injection_balance=balance,
        cost_generation=float(0.5 * np.sum(f_p * p_gen ** 2)),
        cost_voltage=float(0.5 * np.sum(f_v * v_hat ** 2)),
    )
    if not all(np.isfinite(v).all() for v in vars(report).values() if v is not None):
        raise NonFiniteModelError("equilibrium: non-finite values (a disturbance or gain "
                                  "beyond the float range)")
    return report


def stability_report(model: ClosedLoopModel) -> StabilityReport:
    """Classify a reduced model: ``LYAPUNOV_PROVEN`` by the certificate (an
    empty block counts as positive definite) where its resistive-line proof
    holds, so not for pi-link lines under the distributed converter law, whose
    P can grow; otherwise by the spectrum."""
    abscissa, stable = hurwitz(model)
    cert = lyapunov_certificate(model.net, model.cfg)
    covered = model.chain is None or not model.cfg.variant.distributed_conv
    if covered and cert.schur_ok and all(e is None or e > 0.0
                                         for e in (cert.q1_min_eig, cert.q2_min_eig)):
        certificate = CertificateClass.LYAPUNOV_PROVEN
    elif abscissa > HURWITZ_TOL:
        certificate = CertificateClass.UNSTABLE
    elif stable:
        certificate = CertificateClass.HURWITZ_ONLY
    else:
        certificate = CertificateClass.MARGINAL
    return StabilityReport(
        assumption1=cert.assumption1,
        assumption2=cert.assumption2,
        spectral_abscissa=abscissa,
        q1_min_eig=cert.q1_min_eig,
        q2_min_eig=cert.q2_min_eig,
        certificate=certificate,
    )


@one_thread()
def gain_limit_sweep(net: MtdcNetwork, areas, cfg: ControllerConfig,
                          u: np.ndarray, scales) -> tuple:
    """Equilibrium quality as the converter/integral gains grow jointly.

    Each scale multiplies ``k_omega`` and ``k_droop_i`` together, which
    keeps the implied generation cost weights fixed while shrinking
    ||(k_omega)^-1 k_v||. Requires positive phase damping; rows whose
    scaled system is not Hurwitz are flagged rather than fatal.
    """
    if cfg.gamma <= 0.0:
        raise ValueError("the gain-limit sweep needs gamma > 0")
    rows = []
    for scale in scales:
        scale = float(scale)
        if not 0.0 < scale < np.inf:
            raise ValueError("scales must be finite and > 0")
        scaled = replace(
            cfg,
            k_omega=tuple(k * scale for k in cfg.k_omega),
            k_droop_i=tuple(tuple(k * scale for k in area) for area in cfg.k_droop_i),
        )
        model = assemble_resistive(net, areas, scaled)
        try:
            rep = equilibrium(model, u)
        except UnstableSystemError:
            rows.append(SweepRow(scale, False, np.nan, np.nan, np.nan))
            continue
        rows.append(SweepRow(
            scale=scale,
            is_hurwitz=True,
            max_abs_freq_dev=float(np.abs(rep.omega_hat_star).max()),
            kkt_gen_residual=rep.kkt_gen_residual,
            kkt_volt_residual=rep.kkt_volt_residual,
        ))
    return tuple(rows)
