"""Command-line surface: analyze | simulate | compare | sweep. ``compare``
runs the pairings of ``COMPARISON_VARIANTS``, each on its own reduced model.
``simulate`` and ``compare`` analyse before they integrate, so an
equilibrium beyond the float range ends them before any series file.

Exit codes are a stable contract: 0 success, 2 configuration or usage
error, 3 numerical abort during integration. Every CSV (the time series,
one file per quantity family, ``summary.csv`` and ``sweep.csv``) has a
header line, a first column (``t``, ``variant`` or ``scale``) and then
floats printed with 17 significant digits, so files round-trip bit-exactly.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._blas import one_thread
from .analysis import (
    EquilibriumReport,
    StabilityReport,
    SweepRow,
    UnstableSystemError,
    gain_limit_sweep,
    equilibrium,
    stability_report,
)
from .assembly import (SERIES_FAMILIES, NonFiniteModelError, assemble_resistive,
                       baseline_disturbance, disturbance_map)
from .config import ConfigError, SystemConfig, load_config
from .control import Variant
from .sim import IntegrationError, Trajectory, integrate

TIMESERIES_CSV = "TIMESERIES_CSV"
TIMESERIES_JSON = "TIMESERIES_JSON"
REPORT_JSON = "REPORT_JSON"
SWEEP_CSV = "SWEEP_CSV"

# the controller pairings ``compare`` runs side by side, in this order
COMPARISON_VARIANTS = (Variant.DEC_GEN_DEC_CONV, Variant.DIST_GEN_DEC_CONV, Variant.DIST_GEN_DIST_CONV)


class _UsageError(Exception):
    """A command-line argument the command cannot use: exit 2."""


@dataclass(frozen=True)
class RunReport:
    stability: StabilityReport
    equilibrium: EquilibriumReport
    artifacts: tuple


def _write_csv(path: Path, names, first_cells, rows) -> None:
    """Header ``names``; per row its ready first cell (ending in ``,``), then its floats."""
    row = ",".join(["%.17g"] * (len(names) - 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines([c + row % tuple(r) for c, r in zip(first_cells, rows)])


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
                _write_csv(path, ["t", *names], time_cells, columns.tolist())
                artifacts.append((TIMESERIES_CSV, str(path)))
            else:
                path = out_dir / f"{prefix}{family}.json"
                _write_series_json(path, names, times, columns)
                artifacts.append((TIMESERIES_JSON, str(path)))
    return artifacts


def _jsonable(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _open_run(config_path, out_dir):
    """The loaded config and the created output directory of one command; an
    output directory that cannot be created is a usage error."""
    sc, out = load_config(config_path), Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"--out {out_dir}: cannot create the output directory "
                          f"({exc.strerror})") from None
    return sc, out


def _with_variant(sc: SystemConfig, variant, source: str) -> SystemConfig:
    """``sc`` under another pairing; one its graphs cannot run is a ``ConfigError``."""
    try:
        return replace(sc, cfg=replace(sc.cfg, variant=Variant(variant)))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _finish_run(out: Path, artifacts, stability, equil, **extra) -> RunReport:
    """Write ``report.json``, listed last among ``artifacts``, and return the run's report."""
    path = out / "report.json"
    artifacts = (*artifacts, (REPORT_JSON, str(path)))
    doc = {
        "stability": asdict(stability),
        "equilibrium": None if equil is None else asdict(equil),
        "artifacts": [{"kind": kind, "path": p} for kind, p in artifacts],
        **extra,
    }
    if equil is not None:
        del doc["equilibrium"]["x_star"]  # report.json has never carried the full state
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=_jsonable, allow_nan=False)
        fh.write("\n")
    return RunReport(stability=stability, equilibrium=equil, artifacts=artifacts)


def _total_disturbance(sc: SystemConfig):
    """Baseline plus every scenario event: the input the equilibrium is taken under."""
    events = [(ev.area, ev.bus, ev.magnitude) for ev in sc.scenario.disturbances]
    return baseline_disturbance(sc) + disturbance_map(sc, events)


def _analysis_pair(sc: SystemConfig, model):
    """Stability and equilibrium reports of the reduced ``model``."""
    stability = stability_report(model)
    try:
        equil = equilibrium(model, _total_disturbance(sc), costs=sc.costs)
    except UnstableSystemError:
        equil = None
    return stability, equil


def cmd_analyze(config_path, out_dir) -> RunReport:
    sc, out = _open_run(config_path, out_dir)
    model = assemble_resistive(sc.net, sc.areas, sc.cfg)
    return _finish_run(out, (), *_analysis_pair(sc, model))


def cmd_simulate(config_path, out_dir, variant: str = None, fmt: str = "csv") -> RunReport:
    sc, out = _open_run(config_path, out_dir)
    sc = sc if variant is None else _with_variant(sc, variant, "--variant")
    model = assemble_resistive(sc.net, sc.areas, sc.cfg)
    analysis = _analysis_pair(sc, model)  # an equilibrium beyond the float range stops the run here
    artifacts = _emit_timeseries({"": integrate(model, sc.scenario)}, out, fmt)
    return _finish_run(out, artifacts, *analysis)


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


def comparison_models(sc: SystemConfig) -> dict:
    """The reduced model of each pairing of ``COMPARISON_VARIANTS``; a pairing
    the config cannot run is a ``ConfigError`` before any model is assembled."""
    configs = {v: _with_variant(sc, v, f"compare {v.value}") for v in COMPARISON_VARIANTS}
    return {v: assemble_resistive(c.net, c.areas, c.cfg) for v, c in configs.items()}


def cmd_compare(config_path, out_dir, fmt: str = "csv") -> RunReport:
    sc, out = _open_run(config_path, out_dir)
    models = comparison_models(sc)
    # the configured pairing's model if it is compared; analysed before any run,
    # so an equilibrium beyond the float range stops the command here
    analysis = _analysis_pair(sc, models[sc.cfg.variant] if sc.cfg.variant in models
                              else assemble_resistive(sc.net, sc.areas, sc.cfg))
    results = {v: integrate(model, sc.scenario) for v, model in models.items()}
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
    _write_csv(summary_path, list(summary_rows[0]), [row["variant"] + "," for row in summary_rows],
               [list(row.values())[1:] for row in summary_rows])
    artifacts.append((TIMESERIES_CSV, str(summary_path)))
    return _finish_run(out, artifacts, *analysis, comparison=summary_rows)


def cmd_sweep(config_path, out_dir, scales) -> RunReport:
    sc, out = _open_run(config_path, out_dir)
    if sc.cfg.gamma <= 0.0:
        raise ConfigError("controller.gamma: the gain sweep needs gamma > 0 "
                          "(undamped phase dynamics have no high-gain limit point)")
    rows = gain_limit_sweep(sc.net, sc.areas, sc.cfg, _total_disturbance(sc), scales)
    sweep_path = out / "sweep.csv"
    # "%.17g" % True is "1": is_hurwitz needs no cell of its own
    _write_csv(sweep_path, [f.name for f in fields(SweepRow)],
               ["%.17g," % row.scale for row in rows], [astuple(row)[1:] for row in rows])
    return RunReport(stability=None, equilibrium=None, artifacts=((SWEEP_CSV, str(sweep_path)),))


@functools.cache  # parse_args leaves the parser as it found it
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
                      help="comma-separated positive finite scale factors")
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
                scales = []
            if not scales or not all(0.0 < s < np.inf for s in scales):
                raise _UsageError("--scales must be comma-separated positive finite numbers")
            cmd_sweep(args.config, args.out, scales)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, NonFiniteModelError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
