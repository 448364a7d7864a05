"""The four seeded workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished and been checked. The seed drives a
``random.Random`` that draws every input; the program sees only the
generated configuration files and scenarios.

Linear trajectories are checked against an independent reference: the
exact solution from rest under a constant input, computed with one
``scipy.linalg.expm`` of the input-augmented matrix ``[[A, B w], [0, 0]]``
and repeated squaring. The tolerance is ``CHECK_ATOL + CHECK_RTOL`` times
the largest reference state (scaled by the norm of the output map for
derived series), loose enough for a strided propagator that deviates by
about 3.5e-11 on states of 1.6e-2, and far tighter than a one-step timing
error.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.linalg import expm

CHECK_RTOL = 1e-7
CHECK_ATOL = 1e-12
HURWITZ_TOL = 1e-9  # the strict stability margin of the spectral test
RESIDUAL_TOL = 1e-8  # optimality residuals that the distributed laws drive to zero
SWEEP_SCALES = "1,10,100"
VARIANTS = ("dist_gen_dist_conv", "dist_gen_dec_conv", "dec_gen_dist_conv", "dec_gen_dec_conv")
FAMILIES = ("frequencies", "dc_voltages", "generation", "injections")
V_FLOOR = 0.5  # DC-voltage floor of the nonlinear mode, p.u.


def _full_model(m, sc):
    return m.assemble_resistive(sc.net, sc.areas, sc.cfg, reduced=False)


def reference_states(a, bw, h, powers):
    """States at times h, 2h, 4h, ... (``powers`` of them) from rest under input bw."""
    n = a.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = a * h
    aug[:n, n] = bw * h
    step = expm(aug)
    states = []
    for _ in range(powers):
        states.append(step[:n, n].copy())
        step = step @ step
    return states


def _row_at(times, t) -> int:
    row = int(np.argmin(np.abs(times - t)))
    if abs(times[row] - t) > 1e-9:
        raise ValueError(f"no recorded sample at t = {t}")
    return row


def _derived_maps(model, bus_counts, omega_ref, v_ref):
    """Affine maps state -> each series family, in the column order the CLI writes."""
    n_bus = sum(bus_counts)
    n_areas = len(bus_counts)
    area_mean = np.zeros((n_areas, n_bus))
    area_sum = np.zeros((n_areas, n_bus))
    off = 0
    for i, nb in enumerate(bus_counts):
        area_mean[i, off:off + nb] = 1.0 / nb
        area_sum[i, off:off + nb] = 1.0
        off += nb
    return {
        "frequencies": (area_mean @ model.output[:n_bus], np.full(n_areas, omega_ref)),
        "dc_voltages": (model.output[n_bus:], np.asarray(v_ref, dtype=float)),
        "generation": (area_sum @ model.p_gen_selector, np.zeros(n_areas)),
        "injections": (model.p_inj_selector, np.zeros(model.p_inj_selector.shape[0])),
    }


def _compare(what, got, want, tol, failures) -> None:
    err = float(np.abs(got - want).max())
    if not err <= tol:
        failures.append(f"{what}: deviation {err:.3g} from the expm reference exceeds {tol:.3g}")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) if path.is_dir() else 0


class Workload:
    """Seeded inputs, one timed operation, and the checks on its outputs."""

    name = ""

    def __init__(self, m, work: Path, rng):
        self.m = m
        self.rng = rng
        self.cfg_path = work / "config.json"
        self.out = work / "out"
        with open(m.reference_config_path(), encoding="utf-8") as fh:
            self.base = json.load(fh)
        self.bus_counts = [len(area["generators"]) for area in self.base["areas"]]

    def _event(self, t_lo: int, t_hi: int) -> dict:
        """One single-bus generation loss at a time on the 10 ms record grid."""
        area = self.rng.randrange(len(self.bus_counts))
        return {"time": round(0.01 * self.rng.randint(t_lo, t_hi), 2), "area": area,
                "bus": self.rng.randrange(self.bus_counts[area]),
                "magnitude": -self.rng.uniform(0.05, 0.3)}

    def _write_config(self, doc: dict) -> None:
        if self.out.exists():
            shutil.rmtree(self.out)
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _cli(self, *argv) -> int:
        # looked up on the module at call time, so a traced op goes through the wrappers
        return self.m.cli.main([*argv, "--config", str(self.cfg_path), "--out", str(self.out)])

    def bytes_written(self) -> int:
        return _dir_bytes(self.out)

    def draw(self):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> list:
        raise NotImplementedError


class ReferenceLinear(Workload):
    """``simulate`` to CSV on the reference plant, one distinct model per op."""

    name = "reference-linear"
    check_h = 5.0  # reference samples at t_event + 5, 10, 20, 40 s

    def draw(self):
        doc = copy.deepcopy(self.base)
        ctrl = doc["controller"]
        ctrl["k_omega"] = [k * self.rng.uniform(0.95, 1.05) for k in ctrl["k_omega"]]
        ctrl["k_v"] = [k * self.rng.uniform(0.95, 1.05) for k in ctrl["k_v"]]
        doc["scenario"]["disturbances"] = [self._event(10, 500)]
        self._write_config(doc)
        return doc

    def run(self, inp):
        return self._cli("simulate")

    def check(self, doc, rc) -> list:
        if rc != 0:
            return [f"simulate exited with {rc}"]
        failures = []
        series = {}
        for family in FAMILIES:
            path = self.out / f"{family}.csv"
            with open(path, encoding="utf-8") as fh:
                if not fh.readline().startswith("t,"):
                    failures.append(f"{path.name}: header does not start with 't,'")
            series[family] = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if not np.all(np.isfinite(series[family])):
                failures.append(f"{path.name}: non-finite values")
        if failures:
            return failures
        sc = self.m.load_config(self.cfg_path)
        model = _full_model(self.m, sc)
        ev = doc["scenario"]["disturbances"][0]
        u = self.m.disturbance_map(model, [(ev["area"], ev["bus"], ev["magnitude"])])
        refs = reference_states(model.a, model.b_dist @ u, self.check_h, 4)
        scale = max(float(np.abs(x).max()) for x in refs)
        maps = _derived_maps(model, self.bus_counts, sc.cfg.omega_ref, sc.net.v_ref)
        for k, x in enumerate(refs):
            t = ev["time"] + self.check_h * 2 ** k
            for family, (mat, offset) in maps.items():
                data = series[family]
                row = _row_at(data[:, 0], t)
                tol = CHECK_ATOL + CHECK_RTOL * scale * float(np.abs(mat).sum(axis=1).max())
                _compare(f"{family} at t={t:g}", data[row, 1:], mat @ x + offset, tol, failures)
        return failures


class ContingencyBatch(Workload):
    """Public ``integrate`` on one shared reference model, single-bus steps."""

    name = "contingency-batch"
    t_end = 5.0
    check_h = 1.0  # reference samples at t_event + 1, 2, 4 s

    def __init__(self, m, work, rng):
        super().__init__(m, work, rng)
        self.model = _full_model(m, m.load_config(m.reference_config_path()))
        self.order = []

    def draw(self):
        if not self.order:
            self.order = [(a, b) for a, nb in enumerate(self.bus_counts) for b in range(nb)]
            self.rng.shuffle(self.order)
        area, bus = self.order.pop()
        event = self.m.DisturbanceEvent(round(0.01 * self.rng.randint(10, 100), 2), area, bus,
                                        -self.rng.uniform(0.05, 0.3))
        return self.m.Scenario(t_end=self.t_end, dt=1e-3, disturbances=(event,), record_every=10)

    def run(self, scenario):
        return self.m.integrate(self.model, scenario)

    def check(self, scenario, traj) -> list:
        states = np.asarray(traj.states)
        times = np.asarray(traj.times)
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(times))):
            return ["trajectory has non-finite values"]
        ev = scenario.disturbances[0]
        u = self.m.disturbance_map(self.model, [(ev.area, ev.bus, ev.magnitude)])
        refs = reference_states(self.model.a, self.model.b_dist @ u, self.check_h, 3)
        tol = CHECK_ATOL + CHECK_RTOL * max(float(np.abs(x).max()) for x in refs)
        failures = []
        for k, x in enumerate(refs):
            t = ev.time + self.check_h * 2 ** k
            _compare(f"state at t={t:g}", states[_row_at(times, t)], x, tol, failures)
        return failures

    def bytes_written(self) -> int:
        return 0


class NonlinearJson(Workload):
    """``simulate --format json`` in nonlinear coupling mode, 5 s horizon.

    The per-step kernel varies by about 15 % from one call to the next, so a
    5 s horizon instead of the reference 45 s gives the median of a 25 s run
    about 50 ops; the per-step cost is the same.
    """

    name = "nonlinear-json"
    t_end = 5.0

    def draw(self):
        doc = copy.deepcopy(self.base)
        doc["scenario"].update(mode="nonlinear", t_end=self.t_end, disturbances=[
            self._event(10, 250) for _ in range(self.rng.randint(1, 3))])
        self._write_config(doc)
        return doc

    def run(self, inp):
        return self._cli("simulate", "--format", "json")

    def check(self, doc, rc) -> list:
        if rc != 0:
            return [f"simulate exited with {rc}"]
        failures = []
        n_samples = int(round(self.t_end / 0.01)) + 1
        for family in FAMILIES:
            with open(self.out / f"{family}.json", encoding="utf-8") as fh:
                data = json.load(fh)
            values = np.array([data["times"]] + list(data["series"].values()), dtype=float)
            if values.shape != (len(self.bus_counts) + 1, n_samples):
                failures.append(f"{family}.json: shape {values.shape}")
            elif not np.all(np.isfinite(values)):
                failures.append(f"{family}.json: non-finite values")
            elif family == "dc_voltages" and not values[1:].min() > V_FLOOR:
                failures.append(f"minimum DC voltage {values[1:].min():.4g} not above {V_FLOOR}")
        return failures


class DesignStudy(Workload):
    """``analyze`` then ``sweep --scales 1,10,100`` on one seeded design draw."""

    name = "design-study"

    def __init__(self, m, work, rng):
        super().__init__(m, work, rng)
        self.variants = []

    def draw(self):
        if not self.variants:  # every variant once per cycle of four ops
            self.variants = list(VARIANTS)
            self.rng.shuffle(self.variants)
        doc = copy.deepcopy(self.base)
        ctrl = doc["controller"]
        s_omega, s_v = self.rng.uniform(0.5, 2.0), self.rng.uniform(0.5, 2.0)
        ctrl.update(variant=self.variants.pop(), gamma=self.rng.uniform(1.0, 10.0),
                    k_omega=[k * s_omega for k in ctrl["k_omega"]],
                    k_v=[k * s_v for k in ctrl["k_v"]])
        doc["scenario"]["disturbances"] = [self._event(10, 500)]
        self._write_config(doc)
        return doc

    def run(self, inp):
        rc = self._cli("analyze")
        return (rc, self._cli("sweep", "--scales", SWEEP_SCALES) if rc == 0 else None)

    def check(self, doc, rcs) -> list:
        if rcs != (0, 0):
            return [f"analyze/sweep exited with {rcs}"]
        failures = []
        dist_gen = doc["controller"]["variant"].startswith("dist_gen")
        with open(self.out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        abscissa = report["stability"]["spectral_abscissa"]
        cert = report["stability"]["certificate"]
        if abscissa > HURWITZ_TOL:
            allowed = ("UNSTABLE",)
        elif abscissa >= -HURWITZ_TOL:
            allowed = ("MARGINAL",)
        else:
            allowed = ("LYAPUNOV_PROVEN", "HURWITZ_ONLY")
        if cert not in allowed:
            failures.append(f"certificate {cert} inconsistent with abscissa {abscissa:.4g}")
        equil = report["equilibrium"]
        if (equil is None) != (abscissa >= -HURWITZ_TOL):
            failures.append("equilibrium presence does not match the stability verdict")
        if equil is not None and dist_gen:
            for key in ("kkt_volt_residual", "avg_freq_residual"):
                if not abs(equil[key]) <= RESIDUAL_TOL:
                    failures.append(f"{key} = {equil[key]:.3g} for a distributed-generation law")
        with open(self.out / "sweep.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if [r[0] for r in rows] != [float(s) for s in SWEEP_SCALES.split(",")]:
            failures.append(f"sweep rows {rows!r} do not match the scales")
        for scale, hurwitz, *values in rows:
            if hurwitz and not all(math.isfinite(v) for v in values):
                failures.append(f"sweep scale {scale:g}: non-finite values")
            elif hurwitz and dist_gen and not abs(values[2]) <= RESIDUAL_TOL:
                failures.append(f"sweep scale {scale:g}: kkt_volt_residual {values[2]:.3g}")
        return failures


WORKLOADS = {cls.name: cls for cls in (ReferenceLinear, ContingencyBatch, NonlinearJson,
                                             DesignStudy)}
