"""Command-line surface: analyze | simulate | compare | sweep. ``compare``
runs the pairings of ``COMPARISON_VARIANTS``, each on its own reduced model.
``simulate`` and ``compare`` analyse before they integrate, so an
equilibrium beyond the float range ends them before any series file. The
equilibria of ``report.json`` and ``sweep.csv`` are taken under the input of
the run's last segment: an event at exactly ``t_end`` never applies and is
not counted.

Exit codes are a stable contract: 0 success, 2 configuration or usage
error, 3 numerical abort during integration. Every CSV (the time series,
one file per quantity family, ``summary.csv`` and ``sweep.csv``) has a
header line, a first column (``t``, ``variant`` or ``scale``) and then
floats printed with 17 significant digits, so files round-trip bit-exactly.
Two cells of ``sweep.csv`` are not such floats: ``is_hurwitz`` is ``1`` or
``0``, and a scale whose loop is not Hurwitz has ``nan`` in the three
columns after it.

Every cell is written as the bytes of ``"%.17g" % v`` (``_write_csv``).
Its digits are rounded exactly, half to even, in uint64 integer arithmetic
over all cells of 512 rows at once, so they do not depend on the platform's
long double. Only a cell that is not finite or lies outside
1e-11 <= |v| < 1e17 is formatted by ``"%.17g"`` itself.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from ._blas import one_thread
from .analysis import SweepRow, UnstableSystemError, equilibrium, gain_limit_sweep, stability_report
from .assembly import SERIES_FAMILIES, NonFiniteModelError, assemble_resistive
from .config import ConfigError, SystemConfig, load_config
from .control import Variant
from .sim import IntegrationError, Trajectory, _segments, integrate

TIMESERIES_CSV = "TIMESERIES_CSV"
TIMESERIES_JSON = "TIMESERIES_JSON"
REPORT_JSON = "REPORT_JSON"

# the controller pairings ``compare`` runs side by side, in this order
COMPARISON_VARIANTS = (Variant.DEC_GEN_DEC_CONV, Variant.DIST_GEN_DEC_CONV, Variant.DIST_GEN_DIST_CONV)


class _UsageError(Exception):
    """A command-line argument the command cannot use: exit 2."""


@contextmanager
def _artifact(path: Path):
    """``path`` opened for writing bytes. An ``OSError`` while it is opened
    or written, a directory of that name or a full disk, is a usage error
    naming ``--out``."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        raise _UsageError(f"--out {path.parent}: cannot write {path.name} "
                          f"({exc.strerror or exc})") from None


# A formatted cell is 29 byte slots: sign, the "0.000" lead of a fixed
# number below 1, 17 digits with the point, "e-XX" and the separator. A
# skipped slot holds NUL. The longest "%.17g" string,
# "-2.2250738585072014e-308", fits before the separator.
_CELL = 29
_ROWS_PER_CHUNK = 512  # bounds the working arrays: 0.8 MB at 7 columns
# the operands of the limb arithmetic in ``_digits``: all uint64, so that the
# casting rules of numpy 1.x and 2.x both keep uint64 (with int64 it is float64)
_ONE, _LIMB, _WORD, _LOW_LIMB = np.uint64(1), np.uint64(32), np.uint64(64), np.uint64(2**32 - 1)


@functools.cache  # built on first use: a command that writes no CSV never builds them
def _tables():
    """The lookup tables of ``_format_cells``: the ASCII digits of 0000..9999,
    one row per digit, and the trailing zeros of each (the four-digit chunks
    of a cell's digits); 5**k for 0 <= k <= 27; the least double >= 10**e
    for -11 <= e <= 17; and by decimal exponent e, -11 <= e <= 16 (column
    e + 11), the digits before the point, the lead of a fixed number below 1
    and the exponent below 1e-4."""
    chunk = np.arange(10000, dtype=np.int16)
    e = np.arange(-11, 17)
    bounds = []
    for k in range(-11, 18):
        b = float(f"1e{k}")  # the nearest double, so one step below 10**k at most
        num, den = b.as_integer_ratio()
        bounds.append(b if num * 10**max(-k, 0) >= den * 10**max(k, 0) else np.nextafter(b, np.inf))
    return (
        (chunk // np.array([[1000], [100], [10], [1]], np.int16) % 10 + ord("0")).astype(np.uint8),
        sum(chunk % 10**k == 0 for k in range(1, 5)).astype(np.int8),
        np.uint64(5) ** np.arange(28, dtype=np.uint64),
        np.array(bounds),
        np.where(e >= 0, e + 1, e < -4).astype(np.int8),
        np.where((-4 <= e) & (e < 0) & (np.arange(5)[:, None] < 1 - e),
                 np.frombuffer(b"0.000", np.uint8)[:, None], 0).astype(np.uint8),
        np.where(e < -4, np.stack([np.full(28, ord("e")), np.full(28, ord("-")),
                                   -e // 10 + ord("0"), -e % 10 + ord("0")]), 0).astype(np.uint8),
    )


def _fallback_cells(values) -> list:
    """The cells outside the digit arithmetic's range, formatted by Python."""
    return [("%.17g" % v).encode() for v in values]


def _decimal_exponents(a) -> np.ndarray:
    """The decimal exponent e of each float a >= 0, 10**e <= a < 10**(e + 1),
    exactly, for a in [1e-11, 1e17); -12 below that range, and 17 from 1e17
    on, inf and nan included. A zero has e = 0, the exponent it prints with."""
    e = np.searchsorted(_tables()[3], a, side="right") - 12
    e[a == 0.0] = 0
    return e


def _digits(a, k) -> np.ndarray:
    """round-half-even(a·10**k) of each finite float a >= 0, for
    0 <= k <= 27 and a·10**k < 1e17, exactly, as int64.

    Both factors are integers times a power of two: a = M·2**(p - 53) with
    M < 2**53 (``np.frexp``), and 10**k = 5**k·2**k with 5**k < 2**63. So
    a·10**k is M·5**k, of at most 116 bits, held in two uint64 words of
    32-bit limb products, shifted right by s = 53 - p - k bits and rounded;
    where s < 1 it is that product shifted left, and exact."""
    m, p = np.frexp(a)
    big = (m * 2.0**53).astype(np.uint64)
    five = _tables()[2][k]
    big_hi, big_lo = big >> _LIMB, big & _LOW_LIMB
    five_hi, five_lo = five >> _LIMB, five & _LOW_LIMB
    mid = big_hi * five_lo + big_lo * five_hi  # below 2**53 + 2**63: no carry out
    mid_lo = mid << _LIMB
    lo = big_lo * five_lo + mid_lo  # modulo 2**64; it wrapped where lo < mid_lo
    hi = big_hi * five_hi + (mid >> _LIMB) + (lo < mid_lo)
    s = 53 - p - k
    right = np.clip(s, 1, 63).astype(np.uint64)
    q = hi << (_WORD - right) | lo >> right  # the quotient, below 1e17 where s >= 1
    rest = lo & ((_ONE << right) - _ONE)
    half = _ONE << (right - _ONE)
    q += (rest > half) | ((rest == half) & (q & _ONE == _ONE))
    return np.where(s > 0, q, lo << np.clip(-s, 0, 63).astype(np.uint64)).astype(np.int64)


def _format_cells(values) -> np.ndarray:
    """``"%.17g" % v`` of each cell of the 2-D float array ``values``, then
    ``,`` (``\\n`` after the last column), in row-major cell order: uint8
    (cells, _CELL), NUL-padded.

    A cell with 1e-11 <= |v| < 1e17 takes its 17 digits from d =
    round-half-even(|v|·10**(16-e)), with 10**e <= |v| < 10**(e+1), both
    computed exactly in integers (``_decimal_exponents``, ``_digits``). So d
    is in [1e16, 1e17) and is the digit string of ``"%.17g"``, on every
    platform. A zero prints as ``0``. The nonzero cells outside that range,
    and the non-finite ones, take ``_fallback_cells``. The slots are filled
    one slot row at a time, over all cells at once."""
    chunk_digits, chunk_zeros, _, _, int_digits, lead, exponent = _tables()
    x = values.ravel()
    n = x.shape[0]
    a = np.abs(x)
    e = _decimal_exponents(a)
    slow = (e < -11) | (e > 16)
    e[slow] = 0  # with a zero operand, a neutral cell for those the fallback writes
    d = _digits(np.where(slow, 0.0, a), 16 - e)

    # (np.take writes into ``out`` unbuffered only with a mode other than "raise";
    # every index here is in range)
    digits = np.empty((17, n), np.uint8)
    trailing = np.zeros(n, np.int8)  # trailing zeros of the 17 digits, 16 at most
    below_zero = np.ones(n, bool)
    for first in (13, 9, 5, 1):
        q = d // 10000
        chunk = d - q * 10000
        np.take(chunk_digits, chunk, axis=1, out=digits[first:first + 4], mode="clip")
        trailing += chunk_zeros[chunk] * below_zero
        below_zero &= chunk == 0
        d = q
    digits[0] = d + ord("0")
    n_int = int_digits[e + 11]
    # the trailing zeros after the point are dropped, and the point with them
    # when no fraction is left
    keep = np.arange(17, dtype=np.int8)[:, None] < np.maximum(17 - trailing, n_int)
    point = np.where((n_int > 0) & (trailing < 17 - n_int), ord("."), 0)

    cells = np.empty((_CELL, n), np.uint8)
    cells[0] = np.where(np.signbit(x), ord("-"), 0)
    np.take(lead, e + 11, axis=1, out=cells[1:6], mode="clip")
    # the digits padded with a NUL row at each end; slot j takes digit j before
    # the point and digit j - 1 after it (a blend in uint8 arithmetic: it wraps,
    # and is several times faster than np.where here)
    padded = np.zeros((19, n), np.uint8)
    padded[1:18] = digits * keep
    before = np.arange(18, dtype=np.int8)[:, None] < n_int
    cells[6:24] = padded[:-1] + (padded[1:] - padded[:-1]) * before
    cells[6 + n_int, np.arange(n)] = point
    np.take(exponent, e + 11, axis=1, out=cells[24:28], mode="clip")
    cells[28] = ord(",")
    cells[28, values.shape[1] - 1::values.shape[1]] = ord("\n")
    if slow.any():
        cells[:_CELL - 1, slow] = np.array(_fallback_cells(x[slow].tolist()),
                                           dtype=f"S{_CELL - 1}").view(np.uint8).reshape(-1, _CELL - 1).T
    return np.ascontiguousarray(cells.T)


def _write_csv(path: Path, names, values, labels=None) -> None:
    """Header ``names``; per row of the 2-D float array ``values``, its label
    and ``,`` if ``labels`` are given, then its cells as ``"%.17g" % v``."""
    with _artifact(path) as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, values.shape[0], _ROWS_PER_CHUNK):
            block = values[start:start + _ROWS_PER_CHUNK]
            rows = _format_cells(block).reshape(block.shape[0], -1)
            if labels is not None:
                label_cells = np.array([f"{s},".encode() for s in labels[start:start + _ROWS_PER_CHUNK]])
                rows = np.concatenate([label_cells.view(np.uint8).reshape(block.shape[0], -1), rows], axis=1)
            fh.write(rows.tobytes().translate(None, b"\0"))


def _write_series_json(path: Path, names, times, columns) -> None:
    doc = {
        "times": times.tolist(),
        "series": {name: columns[:, c].tolist() for c, name in enumerate(names)},
    }
    with _artifact(path) as fh:
        fh.write(json.dumps(doc).encode())  # json.dump would take the pure-Python encoder
        fh.write(b"\n")


# column-name prefix of each series family
SERIES_COLUMNS = {"frequencies": "freq_area_", "dc_voltages": "v_dc_",
                  "generation": "p_gen_area_", "injections": "p_inj_"}


def _series_families(traj: Trajectory):
    """(column names, columns) per family: the series row blocks of the output matrix."""
    n = traj.model.n_areas
    return {
        family: ([f"{SERIES_COLUMNS[family]}{i + 1}" for i in range(n)],
                 traj.series[:, traj.model.rows(family)])
        for family in SERIES_FAMILIES
    }


def _emit_timeseries(trajs: dict, out_dir: Path, fmt: str) -> list:
    """Series files of trajectories on one record grid, keyed by file-name prefix."""
    times = next(iter(trajs.values())).times
    artifacts = []
    for prefix, traj in trajs.items():
        for family, (names, columns) in _series_families(traj).items():
            if fmt == "csv":
                path = out_dir / f"{prefix}{family}.csv"
                _write_csv(path, ["t", *names], np.column_stack([times, columns]))
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
        return replace(sc, cfg=replace(sc.cfg, variant=variant))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _finish_run(out: Path, artifacts, stability, equil, **extra) -> None:
    """Write ``report.json``: the stability and equilibrium reports, the
    ``artifacts`` (kind, path) with ``report.json`` itself listed last, and
    ``extra``."""
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
    with _artifact(path) as fh:
        fh.write((json.dumps(doc, indent=2, default=_jsonable, allow_nan=False) + "\n").encode())


def _analysis_pair(sc: SystemConfig, model):
    """Stability and equilibrium reports of the reduced ``model``, the
    equilibrium under the input of the run's last segment."""
    stability = stability_report(model)
    try:
        equil = equilibrium(model, _segments(model, sc.scenario)[1][-1], costs=sc.costs)
    except UnstableSystemError:
        equil = None
    return stability, equil


def cmd_analyze(config_path, out_dir) -> None:
    """Write ``report.json`` of the configured loop."""
    sc, out = _open_run(config_path, out_dir)
    model = assemble_resistive(sc.net, sc.areas, sc.cfg)
    _finish_run(out, (), *_analysis_pair(sc, model))


def cmd_simulate(config_path, out_dir, variant: str = None, fmt: str = "csv") -> None:
    """Write the four series files of the configured scenario, then ``report.json``."""
    sc, out = _open_run(config_path, out_dir)
    sc = sc if variant is None else _with_variant(sc, variant, "--variant")
    model = assemble_resistive(sc.net, sc.areas, sc.cfg)
    analysis = _analysis_pair(sc, model)  # an equilibrium beyond the float range stops the run here
    artifacts = _emit_timeseries({"": integrate(model, sc.scenario)}, out, fmt)
    _finish_run(out, artifacts, *analysis)


def _settling_time(times, series) -> float:
    """Earliest time from which every series stays inside the 2% band.

    The band is 2% of the largest deviation from the terminal value over
    all series and samples. The time is that of the sample after the last
    one outside the band (the last sample, at deviation 0, never is), or 0
    where none is.
    """
    dev = np.abs(series - series[-1]).max(axis=1)
    outside = np.nonzero(dev > 0.02 * dev.max())[0]
    return float(times[outside[-1] + 1]) if outside.size else 0.0


def comparison_models(sc: SystemConfig) -> dict:
    """The reduced model of each pairing of ``COMPARISON_VARIANTS``; a pairing
    the config cannot run is a ``ConfigError`` before any model is assembled."""
    configs = {v: _with_variant(sc, v, f"compare {v.value}") for v in COMPARISON_VARIANTS}
    return {v: assemble_resistive(c.net, c.areas, c.cfg) for v, c in configs.items()}


def cmd_compare(config_path, out_dir, fmt: str = "csv") -> None:
    """Write the series files of each compared pairing, ``summary.csv``, then
    ``report.json`` with the summary rows under ``comparison``."""
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
        block = traj.model.rows
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
            "settling_time_inj": _settling_time(traj.times, inj),
        })
    summary_path = out / "summary.csv"
    _write_csv(summary_path, list(summary_rows[0]),
               np.array([list(row.values())[1:] for row in summary_rows]),
               labels=[row["variant"] for row in summary_rows])
    artifacts.append((TIMESERIES_CSV, str(summary_path)))
    _finish_run(out, artifacts, *analysis, comparison=summary_rows)


def cmd_sweep(config_path, out_dir, scales) -> None:
    """Write ``sweep.csv``, one row per scale; the sweep writes no ``report.json``."""
    sc, out = _open_run(config_path, out_dir)
    if sc.cfg.gamma <= 0.0:
        raise ConfigError("controller.gamma: the gain sweep needs gamma > 0 "
                          "(undamped phase dynamics have no high-gain limit point)")
    rows = gain_limit_sweep(sc.net, sc.areas, sc.cfg, _segments(sc, sc.scenario)[1][-1], scales)
    # is_hurwitz as a float prints "1" or "0"
    _write_csv(out / "sweep.csv", [f.name for f in fields(SweepRow)],
               np.array([astuple(row) for row in rows], dtype=float))


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
