"""Deterministic fixed-step time-domain simulation of assembled models.

The linear mode propagates with the exact zero-order-hold discretization
of the closed loop: the state jumps from one recorded sample or input
change to the next with a power of the one-step propagator. In a run of
equally spaced samples the first 32 come by a chain of products by that
power, each later block of 32 from the 32 before it by one matrix-matrix
product. It is exact for piecewise-constant disturbances regardless of
stiffness: the DC subsystem carries eigenvalues around 1e5 1/s, the
dynamics of interest last tens of seconds. Against stepping one step at a
time it agrees to 1e-8 of the largest state, and to 1e-10 of one product
per recorded sample; README "Numerical notes" gives the gaps measured on
the reference scenario. The exponential, ``expm``, is scaling and
squaring with the degree-13 Pade approximant in plain numpy (Al-Mohy &
Higham 2009), so the package needs no scipy at run time.

A model is discretized once per step size. The first ``integrate`` at a
``dt`` computes one exponential, on the top rows of the Van Loan matrix of
the state matrix, every disturbance column and the unit DC-voltage
columns, and keeps phi and those columns of gamma with the model as one
``_kernels.Propagator`` (``replace`` starts afresh). That also keeps the
powers of phi runs use: the powers of two, each record stride's power and
its one block power, the 32nd. A later run at that ``dt`` forms its
forcing from thin products and O(log k) matrix-vector products per
interval length k; apart from the fill of its blocks, its only O(n^3) work
is a power of phi that no earlier run needed. What is kept depends only on
the model and ``dt``, so a run gives bit-identical states whatever ran on
the model before.

A run starts at rest, and at its first input when it can. From rest under
zero input the solution is exactly zero, so ``integrate`` writes +0.0 to
the records up to the last one at or before the first event and hands the
kernel the rest of the run, counted in steps from that record: the states
equal those of stepping from t = 0 bit for bit, and a run under no input
at all calls no kernel. Such a run is stepped from t = 0 where that would
abort: where phi is not finite, and in nonlinear mode where a ``v_ref`` is
below the DC-voltage floor (``_kernels.DC_VOLTAGE_FLOOR``), which a run
at rest fails at t = 0.

The mildly nonlinear mode (power converted at the instantaneous voltage
instead of the nominal one) uses the same exact linear propagator with a
second-order Heun treatment of the voltage correction term. The correction
reads the state through q = 2m outputs (the ``dc_voltages`` and
``injections`` rows of the model) and writes it through m columns of
gamma, so inside a block of up to 32 steps the Heun recurrence runs on
those q outputs alone: per step two q x O(32 m) products and a
per-converter correction on Python floats; per block one product with
the stacked [C; C phi; ...] and one n x n product per recorded sample,
which moves the full state. It agrees with the same Heun step taken one
full step at a time to 1e-10 of the largest state and aborts at the same
step.

The module only propagates: it reads a model's state matrix, input map
and output matrix, and builds, analyses or compares no model. The derived
series of a trajectory (area-mean frequencies, DC voltages, generation
totals, injections) are the series rows of the model's ``outputs`` applied
to the recorded states, plus ``series_offset``.

``discretize`` and ``integrate`` run their linear algebra on one BLAS
thread and restore the caller's thread count on return, so their outputs
do not depend on the host's core count. The count is process-global:
Python threads calling them concurrently share that setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, factorial, log2
from numbers import Integral

import numpy as np

from . import _kernels
from ._blas import one_thread
from .assembly import SERIES_FAMILIES, ClosedLoopModel, baseline_disturbance, disturbance_map
from .control import CouplingMode

DT_CAP = 0.01
# Bounds on a run's size: step indices stay exact in a float and far inside
# int64, and the recorded states (samples x states floats: 1.4 GB at 10**6
# samples of the reference's 179 reduced states) fit in memory.
MAX_STEPS = 2**53
MAX_SAMPLES = 10**6


class IntegrationError(RuntimeError):
    """Integration aborted: non-finite state or derived series, or DC voltage collapse."""


@dataclass(frozen=True)
class DisturbanceEvent:
    """Step change of the uncontrolled power at one generator bus: integer
    ``area`` and ``bus`` indices, a finite ``magnitude``."""

    time: float
    area: int
    bus: int
    magnitude: float

    def __post_init__(self):
        for name in ("area", "bus"):
            index = getattr(self, name)
            if isinstance(index, bool) or not isinstance(index, Integral):
                raise ValueError(f"event {name} must be an integer, got {index!r}")
        if not np.isfinite(self.magnitude):
            raise ValueError(f"event magnitude must be finite, got {self.magnitude!r}")


@dataclass(frozen=True)
class Scenario:
    """Horizon, step size, step disturbances, and coupling mode."""

    t_end: float
    dt: float = 1e-3
    disturbances: tuple = field(default=())
    mode: CouplingMode = CouplingMode.LINEAR
    record_every: int = 1

    def __post_init__(self):
        if not (0.0 < self.t_end < np.inf):
            raise ValueError("t_end must be finite and > 0")
        if not (0.0 < self.dt <= DT_CAP):
            raise ValueError(f"dt must be in (0, {DT_CAP}] s")
        if self.t_end / self.dt > MAX_STEPS:  # also where the quotient overflows
            raise ValueError(f"t_end is {self.t_end / self.dt:.3g} steps of dt = {self.dt:g} s, "
                             f"more than MAX_STEPS = {MAX_STEPS}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9:
            raise ValueError(f"t_end must be an integer number of steps of dt = {self.dt:g} s")
        every = self.record_every  # numpy integers pass, a bool does not
        if isinstance(every, bool) or not isinstance(every, Integral) or every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {every!r}")
        n_samples = -(-self.n_steps // every) + 1
        if n_samples > MAX_SAMPLES:
            raise ValueError(f"t_end records {n_samples:.3g} samples at record_every = {every}, "
                             f"more than MAX_SAMPLES = {MAX_SAMPLES}")
        events = tuple(ev if isinstance(ev, DisturbanceEvent) else DisturbanceEvent(*ev)
                       for ev in self.disturbances)
        for ev in events:
            if not (0.0 <= ev.time <= self.t_end):
                raise ValueError(f"event time {ev.time} outside [0, {self.t_end}]")
        object.__setattr__(self, "disturbances", events)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples plus the derived series of each sample.

    ``series`` is ``states @ model.outputs[:4 m].T + model.series_offset``
    for m areas, the rows of the four ``SERIES_FAMILIES``. Nothing is
    integrated separately, and ``model.rows(family)`` picks the columns of
    one family (area-mean frequencies, absolute DC voltages, per-area
    generation totals, converter injections).
    """

    times: np.ndarray
    states: np.ndarray
    model: ClosedLoopModel
    series: np.ndarray


def _event_step(time: float, dt: float, n_steps: int) -> int:
    step = int(np.ceil(time / dt - 1e-9))
    return min(max(step, 0), n_steps)


@np.errstate(over="ignore")  # an input beyond the float range aborts the run, once
def _segments(model: ClosedLoopModel, scenario: Scenario):
    """Piecewise-constant input: boundaries in steps and u per segment.

    The one definition of a run's input: ``integrate`` steps it, and the
    CLI takes its equilibria under the last segment's. An event at
    ``t_end`` starts no segment, so it never applies. Reads only
    ``model.areas``, so a ``SystemConfig`` serves as well.
    """
    n_steps = scenario.n_steps
    u = baseline_disturbance(model)
    events = sorted(scenario.disturbances, key=lambda ev: _event_step(ev.time, scenario.dt, n_steps))
    bounds = [0]
    inputs = [u.copy()]
    for ev in events:
        step = _event_step(ev.time, scenario.dt, n_steps)
        delta = disturbance_map(model, [(ev.area, ev.bus, ev.magnitude)])
        if step == bounds[-1]:
            inputs[-1] += delta
        else:
            bounds.append(step)
            inputs.append(inputs[-1] + delta)
    bounds.append(n_steps)
    if bounds[-1] == bounds[-2] and len(bounds) > 2:
        bounds.pop()
        inputs.pop()
    return np.array(bounds, dtype=np.int64), np.array(inputs)


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return np.array(steps, dtype=np.int64)


# Scaling and squaring with the degree-13 Pade approximant (Al-Mohy & Higham
# 2009, "A new scaling and squaring algorithm for the matrix exponential",
# Algorithm 3.1). The paper's lower degrees save work only at norms that a
# closed loop's A dt (eigenvalues ~1e5 1/s, dt ~1e-3 s) never has.
_THETA_13 = 4.25  # largest norm of 2^-s a at which degree 13 is accurate
# b_j = (26 - j)! 13! / (26! j! (13 - j)!), scaled to b_0 = 1 so that exp(0) is exactly I
_B = [factorial(26 - j) * factorial(13) / (factorial(26) * factorial(j) * factorial(13 - j))
      for j in range(14)]


def _norm1(x: np.ndarray) -> float:
    return np.abs(x).sum(axis=0).max()


def _ell(a: np.ndarray, s: int) -> int:
    """Extra squarings that keep the rounding of the degree-13 approximant of
    ``2^-s a`` below the unit roundoff (ell in the paper), from the exact
    norm of |2^-s a|^27, accumulated in logarithms so it cannot overflow.
    ``a`` holds the top rows of a matrix whose other rows are zero."""
    n = a.shape[0]
    abs_a = np.abs(a)
    np.ldexp(abs_a, -s, out=abs_a)
    v, log_norm = np.ones(a.shape[1]), 0.0
    for _ in range(27):
        v = v[:n] @ abs_a
        peak = float(v.max())
        if peak == 0.0:
            return 0
        v *= 1.0 / peak
        log_norm += log2(peak)
    # |c_27| = 13!^2 / (26! 27!), the leading coefficient of the error series
    log_c = log2(factorial(13) ** 2 / (factorial(26) * factorial(27)))
    return max(ceil((log_norm + log_c - log2(_norm1(abs_a)) + 53) / 26), 0)


@np.errstate(over="ignore", invalid="ignore")
def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (Al-Mohy & Higham 2009).

    ``a`` is square, or the n top rows ``[a11, a12]`` of the augmented
    matrix ``[[a11, a12], [0, 0]]``; the result is then the n top rows
    ``[exp(a11), int_0^1 exp(a11 s) ds a12]`` of its exponential. Every
    power of that matrix has zero bottom rows, so the top rows of a product
    are ``p[:, :n] @ q`` and the work grows with n^2 (n + m), not
    (n + m)^3. A square ``a`` is the case m = 0.

    The number of squarings comes from exact 1-norms of a^2, a^4 and a^6,
    the powers the approximant uses. A matrix whose powers overflow gives
    an all-NaN result; neither that nor an overflow in the squarings warns.
    """
    n, width = a.shape
    a2 = a[:, :n] @ a
    a4 = a2[:, :n] @ a2
    a6 = a2[:, :n] @ a4
    n2, n4, n6 = _norm1(a2), _norm1(a4), _norm1(a6)
    # |a^8| and |a^10| bounded by products of the norms in hand, so neither
    # power is formed; np.minimum and np.maximum keep an overflow's NaN
    d8 = np.minimum(n2 * n6, n4 * n4) ** 0.125
    eta = np.minimum(np.maximum(n6 ** (1 / 6), d8), np.maximum(d8, (n4 * n6) ** 0.1))
    if not np.isfinite(eta):
        return np.full_like(a, np.nan)
    s = ceil(log2(max(eta / _THETA_13, 1.0)))
    s += _ell(a, s)
    for k, p in ((2, a2), (4, a4), (6, a6)):
        np.ldexp(p, -k * s, out=p)  # exact: (2^-s a)^k
    # r_13 = (V - U)^-1 (V + U), U and V accumulated in place; the terms
    # above a^6 share the factor a^6. Below the top rows V is I and U zero.
    # One product at a time and no power kept past its last use: the
    # arrays are n x (n + m) each, and a discretization has m ~ n / 2.
    u, v = _B[13] * a6, _B[12] * a6
    for j, p in ((11, a4), (9, a2)):
        u += _B[j] * p
        v += _B[j - 1] * p
    u = a6[:, :n] @ u
    v = a6[:, :n] @ v
    for j, p in ((7, a6), (5, a4), (3, a2)):
        u += _B[j] * p
        v += _B[j - 1] * p
    del a2, a4, a6, p
    u.flat[::width + 1] += _B[1]
    v.flat[::width + 1] += _B[0]
    u = a[:, :n] @ u
    np.ldexp(u, -s, out=u)  # exact: (2^-s a11) u
    u[:, n:] += _B[1] * np.ldexp(a[:, n:], -s)  # the bottom block B[1] I of u times a12
    v_plus_u = v + u
    v -= u
    # [[v11 - u11, v12 - u12], [0, I]] x = [[v11 + u11, v12 + u12], [0, I]]
    v_plus_u[:, n:] = 2.0 * u[:, n:]
    del u
    x = np.linalg.solve(v[:, :n], v_plus_u)
    del v, v_plus_u
    for _ in range(s):
        sq = x[:, :n] @ x
        sq[:, n:] += x[:, n:]  # the bottom block of x is I
        x = sq
    return x


@one_thread()
def discretize(a: np.ndarray, cols: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold step for dx = a x + cols w: x+ = phi x + gc w.

    Returns ``(phi, gc)`` with ``gc = gamma @ cols``, gamma being the
    integral of the propagator over one step. Both come from one exponential
    of the augmented matrix ``[[a, cols], [0, 0]] dt`` (Van Loan 1978),
    computed on its top rows only, so singular ``a`` works too.
    """
    dim = a.shape[0]
    top = np.empty((dim, dim + cols.shape[1]))
    top[:, :dim] = a * dt
    top[:, dim:] = cols * dt
    big = expm(top)
    return np.ascontiguousarray(big[:, :dim]), np.ascontiguousarray(big[:, dim:])


def _propagator(model: ClosedLoopModel, dt: float) -> _kernels.Propagator:
    """The model's discretization at ``dt``, formed at the first request."""
    prop = model.zoh_memo.get(dt)
    if prop is None:
        n_dist = model.b_dist.shape[1]
        vdc = model.outputs[model.rows("dc_voltages")]  # unit rows: gamma's DC columns
        phi, g = discretize(model.a, np.hstack([model.b_dist, vdc.T]), dt)
        out_map = model.outputs[np.r_[model.rows("dc_voltages"), model.rows("injections")]]
        prop = model.zoh_memo.setdefault(dt, _kernels.Propagator(
            phi, np.ascontiguousarray(g[:, :n_dist].T), out_map,
            np.ascontiguousarray(g[:, n_dist:]), 1.0 / np.array(model.net.cap),
            np.array(model.net.v_ref, dtype=float), model.net.v_nom))
    return prop


def _rest_records(prop: _kernels.Propagator, c_seg: np.ndarray, bounds: np.ndarray,
                  rec_steps: np.ndarray, linear: bool) -> int:
    """How many leading records of a run are +0.0 without stepping: all of
    them for a run under no input, those before the last record at or
    before the first input for one under no input until then, else none.

    A run stays at rest while its forcing is zero, so the first segment's
    forcing decides. Stepping from t = 0 multiplies the zero state by phi,
    so a non-finite phi makes such a run abort at its first record; in
    nonlinear mode it aborts at t = 0 where a ``v_ref`` is below the
    DC-voltage floor. Neither run is skipped. A first input at or after the
    last record but one leaves the kernel two records, which it steps as a
    run recording its end alone: its intervals are then shorter than the
    stride, stepped as before, or one stride from the zero state, which
    comes to the summed forcing whichever power of phi takes it there.
    """
    if c_seg[0].any():
        return 0
    if (not (linear or (prop.v_ref >= _kernels.DC_VOLTAGE_FLOOR).all())
            or not np.isfinite(prop.phi).all()):
        return 0
    if bounds.shape[0] == 2:
        return rec_steps.shape[0]
    return int(np.searchsorted(rec_steps, bounds[1], side="right")) - 1


@one_thread()
def integrate(model: ClosedLoopModel, scenario: Scenario) -> Trajectory:
    """Run one deterministic simulation from rest and return the recorded
    trajectory.

    Step events take effect at the first integration step boundary at or
    after their event time. A record whose derived series is not finite
    aborts the run, as a non-finite state does.

    A run under no input before the first event stays exactly at zero
    until that event: the records up to the last one at or before it are
    written as +0.0 and the kernel starts from that record, so the states
    equal those of stepping from t = 0 bit for bit. A run under no input at
    all calls no kernel. In nonlinear mode such a run is stepped from t = 0
    unless every ``v_ref`` is at or above the DC-voltage floor, so one
    below it still aborts at t = 0.
    """
    n_steps = scenario.n_steps
    bounds, inputs = _segments(model, scenario)
    rec_steps = _record_steps(n_steps, scenario.record_every)
    out = np.empty((rec_steps.shape[0], model.dim))
    prop = _propagator(model, scenario.dt)
    linear = scenario.mode is CouplingMode.LINEAR
    c_seg = inputs @ prop.c_map
    r0 = _rest_records(prop, c_seg, bounds, rec_steps, linear)
    out[:r0] = 0.0
    if r0 < rec_steps.shape[0]:
        # the kernel runs from record r0, in steps counted from there; an
        # event on that record leaves the first segment empty
        off = int(rec_steps[r0])
        s0 = int(bounds[1] == off)
        kernel = _kernels.KERNELS["exact_linear" if linear else "etd2_nonlinear"]
        # a diverging run overflows before the finiteness check sees it; the
        # abort is reported once, as IntegrationError, not also as warnings
        with np.errstate(over="ignore", invalid="ignore"):
            status = kernel(prop, c_seg[s0:], np.concatenate(([0], bounds[s0 + 1:] - off)),
                            np.zeros(model.dim), rec_steps[r0:] - off, out[r0:])
        if status >= 0:
            raise IntegrationError(
                f"integration aborted at t = {(off + status) * scenario.dt:.6g} s "
                f"(non-finite state or DC voltage below {_kernels.DC_VOLTAGE_FLOOR} p.u.)")

    # finite states can still overflow the series; that is an abort too
    with np.errstate(over="ignore", invalid="ignore"):
        series = out @ model.outputs[:len(SERIES_FAMILIES) * model.n_areas].T
        series += model.series_offset
    finite = np.isfinite(series).all(axis=1)
    if not finite.all():
        first = rec_steps[finite.argmin()]  # the first record that is not finite
        raise IntegrationError(f"integration aborted at t = {first * scenario.dt:.6g} s "
                               "(non-finite derived series)")
    return Trajectory(times=rec_steps.astype(float) * scenario.dt, states=out, model=model,
                      series=series)
