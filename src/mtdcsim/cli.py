"""Command-line surface: analyze | simulate | compare | sweep.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 numerical abort during integration. Time series are written one file
per quantity family with a ``t,<names>`` header, newline-terminated
lines, and floats printed with 17 significant digits so files
round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._blas import one_thread
from .analysis import (
    EquilibriumReport,
    StabilityReport,
    UnstableSystemError,
    gain_limit_sweep,
    equilibrium,
    stability_report,
)
from .assembly import (SERIES_FAMILIES, assemble_resistive, baseline_disturbance, disturbance_map,
                       reduce_model)
from .config import ConfigError, SystemConfig, load_config
from .control import Variant
from .sim import IntegrationError, Trajectory, compare_variants, integrate

TIMESERIES_CSV = "TIMESERIES_CSV"
TIMESERIES_JSON = "TIMESERIES_JSON"
REPORT_JSON = "REPORT_JSON"
SWEEP_CSV = "SWEEP_CSV"


@dataclass(frozen=True)
class RunReport:
    stability: StabilityReport
    equilibrium: EquilibriumReport
    artifacts: tuple


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, names, time_cells, columns) -> None:
    row = ",".join(["%.17g"] * columns.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t," + ",".join(names) + "\n")
        fh.writelines([t + row % tuple(r) for t, r in zip(time_cells, columns.tolist())])


def _write_series_json(path: Path, names, times, columns) -> None:
    doc = {
        "times": times.tolist(),
        "series": {name: columns[:, c].tolist() for c, name in enumerate(names)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))  # json.dump would take the pure-Python encoder
        fh.write("\n")


# column-name prefix of each series family
SERIES_COLUMNS = {"frequencies": "freq_area_", "dc_voltages": "v_dc_",
                  "generation": "p_gen_area_", "injections": "p_inj_"}


def _series_families(traj: Trajectory):
    """(column names, columns) per family: the row blocks of the series map."""
    n = traj.model.n_areas
    return {
        family: ([f"{SERIES_COLUMNS[family]}{i + 1}" for i in range(n)],
                 traj.series[:, traj.model.series_block(family)])
        for family in SERIES_FAMILIES
    }


def _emit_timeseries(trajs: dict, out_dir: Path, fmt: str) -> list:
    """Series files of trajectories on one record grid, keyed by file-name prefix."""
    times = next(iter(trajs.values())).times
    time_cells = ["%.17g," % t for t in times.tolist()] if fmt == "csv" else None
    artifacts = []
    for prefix, traj in trajs.items():
        for family, (names, columns) in _series_families(traj).items():
            if fmt == "csv":
                path = out_dir / f"{prefix}{family}.csv"
                _write_csv(path, names, time_cells, columns)
                artifacts.append((TIMESERIES_CSV, str(path)))
            else:
                path = out_dir / f"{prefix}{family}.json"
                _write_series_json(path, names, times, columns)
                artifacts.append((TIMESERIES_JSON, str(path)))
    return artifacts


def _stability_to_dict(rep: StabilityReport) -> dict:
    if rep is None:
        return None
    return {
        "assumption1": None if rep.assumption1 is None else {
            "holds": rep.assumption1.holds,
            "k_phi": rep.assumption1.k_phi,
            "residual": rep.assumption1.residual,
        },
        "assumption2": None if rep.assumption2 is None else {
            "holds": rep.assumption2.holds,
            "bound": rep.assumption2.bound,
            "gamma": rep.assumption2.gamma,
        },
        "spectral_abscissa": rep.spectral_abscissa,
        "q1_min_eig": rep.q1_min_eig,
        "q2_min_eig": rep.q2_min_eig,
        "certificate": rep.certificate.value,
    }


def _equilibrium_to_dict(rep: EquilibriumReport) -> dict:
    if rep is None:
        return None
    return {
        "omega_hat_star": rep.omega_hat_star.tolist(),
        "v_hat_star": rep.v_hat_star.tolist(),
        "eta_star": None if rep.eta_star is None else rep.eta_star.tolist(),
        "phi_star": None if rep.phi_star is None else rep.phi_star.tolist(),
        "p_gen_star": rep.p_gen_star.tolist(),
        "p_inj_star": rep.p_inj_star.tolist(),
        "area_gen_totals": rep.area_gen_totals.tolist(),
        "kkt_gen_residual": rep.kkt_gen_residual,
        "kkt_volt_residual": rep.kkt_volt_residual,
        "avg_freq_residual": rep.avg_freq_residual,
        "injection_balance": rep.injection_balance,
        "cost_generation": rep.cost_generation,
        "cost_voltage": rep.cost_voltage,
    }


def _write_report(path: Path, stability, equil, artifacts, extra=None) -> None:
    doc = {
        "stability": _stability_to_dict(stability),
        "equilibrium": _equilibrium_to_dict(equil),
        "artifacts": [{"kind": kind, "path": p} for kind, p in artifacts],
    }
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _total_disturbance(sc: SystemConfig, model):
    events = [(ev.area, ev.bus, ev.magnitude) for ev in sc.scenario.disturbances]
    return baseline_disturbance(model) + disturbance_map(model, events)


def _analysis_pair(sc: SystemConfig, model):
    """Stability and equilibrium reports of the reduced ``model``."""
    stability = stability_report(model)
    try:
        equil = equilibrium(model, _total_disturbance(sc, model), costs=sc.costs)
    except UnstableSystemError:
        equil = None
    return stability, equil


def cmd_analyze(config_path, out_dir) -> RunReport:
    sc = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stability, equil = _analysis_pair(
        sc, assemble_resistive(sc.net, sc.areas, sc.cfg, reduced=True))
    report_path = out / "report.json"
    artifacts = ((REPORT_JSON, str(report_path)),)
    _write_report(report_path, stability, equil, artifacts)
    return RunReport(stability=stability, equilibrium=equil, artifacts=artifacts)


def cmd_simulate(config_path, out_dir, variant: str = None, fmt: str = "csv") -> RunReport:
    sc = load_config(config_path)
    if variant is not None:
        try:
            sc = replace(sc, cfg=replace(sc.cfg, variant=Variant(variant)))
        except ValueError as exc:
            raise ConfigError(f"--variant: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = assemble_resistive(sc.net, sc.areas, sc.cfg, reduced=False)
    traj = integrate(model, sc.scenario)
    artifacts = _emit_timeseries({"": traj}, out, fmt)
    stability, equil = _analysis_pair(sc, reduce_model(model))
    report_path = out / "report.json"
    artifacts.append((REPORT_JSON, str(report_path)))
    artifacts = tuple(artifacts)
    _write_report(report_path, stability, equil, artifacts)
    return RunReport(stability=stability, equilibrium=equil, artifacts=artifacts)


def _settling_time(times, series, final_row) -> float:
    """Earliest time from which every series stays inside the 2% band.

    The band is 2% of the largest deviation from the terminal value over
    all series and samples.
    """
    dev = np.abs(series - final_row).max(axis=1)
    max_dev = dev.max()
    if max_dev == 0.0:
        return 0.0
    threshold = 0.02 * max_dev
    outside = np.nonzero(dev > threshold)[0]
    if outside.size == 0:
        return float(times[0])
    last = outside[-1]
    return float(times[last + 1]) if last + 1 < times.shape[0] else float(times[-1])


def cmd_compare(config_path, out_dir, fmt: str = "csv") -> RunReport:
    sc = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = compare_variants(sc.net, sc.areas, sc.cfg, sc.scenario)
    artifacts = _emit_timeseries({f"{v.value}__": traj for v, traj in results.items()}, out, fmt)
    summary_rows = []
    k_v = np.array(sc.cfg.k_v)
    for variant, traj in results.items():
        block = traj.model.series_block
        freq_end = traj.series[-1, block("frequencies")]
        gen_end = traj.series[-1, block("generation")]
        inj = traj.series[:, block("injections")]
        # the deviation state itself: absolute voltage minus v_ref rounds differently
        vdc_dev_end = traj.states[-1, traj.model.layout.sl("vdc")]
        summary_rows.append({
            "variant": variant.value,
            "static_freq_error": float(np.abs(freq_end - sc.cfg.omega_ref).max()),
            "weighted_vdev_terminal": float(abs(k_v @ vdc_dev_end)),
            "gen_spread": float(gen_end.max() - gen_end.min()),
            "settling_time_inj": _settling_time(traj.times, inj, inj[-1]),
        })
    summary_path = out / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        cols = ["variant", "static_freq_error", "weighted_vdev_terminal",
                "gen_spread", "settling_time_inj"]
        fh.write(",".join(cols) + "\n")
        for row in summary_rows:
            fh.write(",".join(row["variant"] if c == "variant" else _fmt(row[c])
                              for c in cols) + "\n")
    artifacts.append((TIMESERIES_CSV, str(summary_path)))
    if sc.cfg.variant in results:
        model = reduce_model(results[sc.cfg.variant].model)
    else:
        model = assemble_resistive(sc.net, sc.areas, sc.cfg, reduced=True)
    stability, equil = _analysis_pair(sc, model)
    report_path = out / "report.json"
    artifacts.append((REPORT_JSON, str(report_path)))
    artifacts = tuple(artifacts)
    _write_report(report_path, stability, equil, artifacts,
                  extra={"comparison": summary_rows})
    return RunReport(stability=stability, equilibrium=equil, artifacts=artifacts)


def cmd_sweep(config_path, out_dir, scales) -> RunReport:
    sc = load_config(config_path)
    if sc.cfg.gamma <= 0.0:
        raise ConfigError("controller.gamma: the gain sweep needs gamma > 0 "
                          "(undamped phase dynamics have no high-gain limit point)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = assemble_resistive(sc.net, sc.areas, sc.cfg, reduced=True)
    rows = gain_limit_sweep(sc.net, sc.areas, sc.cfg,
                                 _total_disturbance(sc, model), scales)
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("scale,is_hurwitz,max_abs_freq_dev,kkt_gen_residual,kkt_volt_residual\n")
        for row in rows:
            fh.write(",".join([
                _fmt(row.scale),
                "1" if row.is_hurwitz else "0",
                _fmt(row.max_abs_freq_dev),
                _fmt(row.kkt_gen_residual),
                _fmt(row.kkt_volt_residual),
            ]) + "\n")
    artifacts = ((SWEEP_CSV, str(sweep_path)),)
    return RunReport(stability=None, equilibrium=None, artifacts=artifacts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtdcsim",
        description="Frequency-control workbench for AC grids coupled through a DC network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default="out", help="output directory")

    p_an = sub.add_parser("analyze", help="stability certificates and equilibrium checks")
    common(p_an)

    p_sim = sub.add_parser("simulate", help="time-domain simulation of the configured scenario")
    common(p_sim)
    p_sim.add_argument("--variant", choices=[v.value for v in Variant],
                       help="override the configured controller variant")
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")

    p_cmp = sub.add_parser("compare", help="run the three controller pairings side by side")
    common(p_cmp)
    p_cmp.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sw = sub.add_parser("sweep", help="equilibrium quality under joint gain scaling")
    common(p_sw)
    p_sw.add_argument("--scales", default="1,10,100",
                      help="comma-separated positive scale factors")
    return parser


@one_thread()
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            cmd_analyze(args.config, args.out)
        elif args.command == "simulate":
            cmd_simulate(args.config, args.out, variant=args.variant, fmt=args.format)
        elif args.command == "compare":
            cmd_compare(args.config, args.out, fmt=args.format)
        elif args.command == "sweep":
            try:
                scales = [float(s) for s in args.scales.split(",") if s.strip()]
            except ValueError:
                print("error: --scales must be comma-separated numbers", file=sys.stderr)
                return 2
            cmd_sweep(args.config, args.out, scales)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
