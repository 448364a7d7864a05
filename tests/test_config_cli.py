"""Configuration files and the command-line surface."""

import contextlib
import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtdcsim as m
from mtdcsim import assembly, cli
from mtdcsim.cli import (_analysis_pair, _write_csv, _write_series_json, cmd_analyze, cmd_compare, cmd_simulate,
                         cmd_sweep, main)
from mtdcsim.config import (_AC_LINE, _EDGE, _EVENT, _GENERATOR, _LINE, _NODE, SystemConfig,
                            parse_config)
from mtdcsim.sim import _segments

from conftest import random_stable_config, single_gen_system


@pytest.fixture(scope="module")
def paper_doc():
    with open(m.reference_config_path(), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def short_cfg_path(paper_doc, tmp_path):
    """Reference system with a 2 s horizon: cheap but nontrivial output."""
    doc = json.loads(json.dumps(paper_doc))
    doc["scenario"]["t_end"] = 2.0
    doc["scenario"]["record_every"] = 100
    path = tmp_path / "short.cfg"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def damped_cfg_path(short_cfg_path):
    """The short system with gamma = 4: Lyapunov-proven, and the gain sweep runs."""
    doc = json.loads(short_cfg_path.read_text())
    doc["controller"]["gamma"] = 4.0
    path = short_cfg_path.with_name("damped.cfg")
    path.write_text(json.dumps(doc))
    return path


def _package_env() -> dict:
    """The environment of a fresh process that imports this package."""
    src = str(Path(m.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return header, data


# The report and table writers of the CLI from before every CSV went through
# ``cli._write_csv`` and report.json was dumped from the dataclasses,
# unchanged but for their names: the byte-for-byte oracle of
# ``TestWriterOracles``.

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _stability_to_dict(rep) -> dict:
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


def _equilibrium_to_dict(rep) -> dict:
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


def _old_report(path: Path, stability, equil, artifacts, extra=None) -> None:
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


def _old_summary_csv(summary_path: Path, summary_rows) -> None:
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        cols = ["variant", "static_freq_error", "weighted_vdev_terminal",
                "gen_spread", "settling_time_inj"]
        fh.write(",".join(cols) + "\n")
        for row in summary_rows:
            fh.write(",".join(row["variant"] if c == "variant" else _fmt(row[c])
                              for c in cols) + "\n")


def _old_sweep_csv(sweep_path: Path, rows) -> None:
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


# The config writer: the round-trip tests below and the tests that need a
# config file of a system built in Python use it.

def _record(table, obj):
    """The JSON object of ``obj``: its attribute of each key of ``table``."""
    return {key: getattr(obj, key) for key in table}


def config_to_dict(sc: SystemConfig) -> dict:
    """Serialize back to the document shape accepted by ``parse_config``, from
    the parser's own field tables: parse -> to_dict -> parse is the identity."""
    cfg, scen = sc.cfg, sc.scenario
    doc = {
        "mtdc": {
            "v_nom": sc.net.v_nom,
            "nodes": [dict(zip(_NODE, node)) for node in zip(sc.net.cap, sc.net.v_ref)],
            "lines": [_record(_LINE, ln) for ln in sc.net.lines],
        },
        "areas": [{
            "generators": [dict(zip(_GENERATOR, gen))
                           for gen in zip(area.inertia, cfg.k_droop[i], cfg.k_droop_i[i])],
            "ac_lines": [dict(zip(_AC_LINE, edge)) for edge in area.ac_lines],
            "p_m": list(area.p_m),
        } for i, area in enumerate(sc.areas)],
        "controller": {"variant": cfg.variant.value, "k_omega": list(cfg.k_omega),
                       "k_v": list(cfg.k_v), "gamma": cfg.gamma, "omega_ref": cfg.omega_ref},
        "scenario": {"t_end": scen.t_end, "dt": scen.dt, "mode": scen.mode.value,
                     "record_every": scen.record_every,
                     "disturbances": [_record(_EVENT, ev) for ev in scen.disturbances]},
    }
    for key in ("comm_eta", "comm_phi"):
        if getattr(cfg, key) is not None:
            doc["controller"][key] = [dict(zip(_EDGE, edge)) for edge in getattr(cfg, key).edges]
    if sc.costs is not None:
        doc["costs"] = {"f_p": list(sc.costs.f_p), "f_v": list(sc.costs.f_v)}
    return doc


class TestConfigParsing:
    def test_reference_loads(self, paper_sc):
        assert paper_sc.net.n == 6
        assert len(paper_sc.net.lines) == 10
        assert paper_sc.areas[0].n_buses == 14
        assert paper_sc.cfg.k_omega == (1501.0,) * 6
        assert paper_sc.scenario.disturbances[0].magnitude == -0.2

    def test_round_trip(self, paper_doc):
        sc1 = parse_config(paper_doc)
        sc2 = parse_config(config_to_dict(sc1))
        assert sc1 == sc2
        # the converter sits at bus 0 of every area: nothing to write back
        assert all("converter_bus" not in area for area in config_to_dict(sc1)["areas"])

    def test_missing_field_path(self, paper_doc):
        doc = json.loads(json.dumps(paper_doc))
        del doc["mtdc"]["nodes"][0]["cap"]
        with pytest.raises(m.ConfigError, match=r"mtdc\.nodes\[0\]\.cap"):
            parse_config(doc)

    def test_negative_capacitance_path(self, paper_doc):
        doc = json.loads(json.dumps(paper_doc))
        doc["mtdc"]["nodes"][2]["cap"] = -1.0
        with pytest.raises(m.ConfigError, match=r"mtdc\.nodes\[2\]\.cap"):
            parse_config(doc)

    def test_unknown_variant(self, paper_doc):
        doc = json.loads(json.dumps(paper_doc))
        doc["controller"]["variant"] = "fancy"
        with pytest.raises(m.ConfigError, match="controller.variant"):
            parse_config(doc)

    def test_bad_disturbance_bus(self, paper_doc):
        doc = json.loads(json.dumps(paper_doc))
        doc["scenario"]["disturbances"][0]["bus"] = 99
        with pytest.raises(m.ConfigError, match=r"disturbances\[0\]\.bus"):
            parse_config(doc)

    @pytest.mark.parametrize("doc, message", [
        ({}, "mtdc: missing required field"),
        ({"mtdc": 3}, "mtdc: expected dict, got int"),
    ], ids=["empty", "mtdc_int"])
    def test_top_level_field_path(self, doc, message, tmp_path, capsys):
        """A top-level field is named without a leading dot."""
        with pytest.raises(m.ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value).startswith("mtdc:")
        assert str(exc.value) == message
        cfg = tmp_path / "top.cfg"
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_save_load_identity(self, paper_sc, tmp_path):
        path = tmp_path / "copy.cfg"
        path.write_text(json.dumps(config_to_dict(paper_sc)))
        assert m.load_config(path) == paper_sc


_DELETE = object()
# each fuzz mutant takes one of these at one place of the reference document
_MUTATIONS = (_DELETE, None, "x", [], {}, -1, 0, 1e308, 10 ** 400, True, 99,
              float("nan"), float("inf"), float("-inf"))
_ERROR_LINE = re.compile(r"configuration error: (?P<path>[a-z_]+(?:\[\d+\])*"
                         r"(?:\.[a-z_]+(?:\[\d+\])*)*|state matrix): (?P<rest>.+)")


def _places(node, prefix=()):
    """Every key of a document and the first two entries of every list."""
    children = node.items() if isinstance(node, dict) else enumerate(node[:2])
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _places(child, prefix + (key,))


def _set(doc, place, value):
    parent = doc
    for key in place[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[place[-1]]
    else:
        parent[place[-1]] = value


def _analyze_stderr(doc, out):
    """``analyze`` on ``doc``, warnings as errors: the exit code and stderr."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "mutant.cfg"
    cfg.write_text(json.dumps(doc))  # writes NaN / Infinity literals
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["analyze", "--config", str(cfg), "--out", str(out / "o")])
    return code, err.getvalue()


class TestConfigFuzz:
    """Malformed input ends in exit 2 with one line naming a field or section,
    never in a traceback (ROADMAP item 5)."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reference_mutants(self, paper_doc, tmp_path_factory, data):
        doc = json.loads(json.dumps(paper_doc))
        place = data.draw(st.sampled_from(list(_places(doc))), label="place")
        _set(doc, place, data.draw(st.sampled_from(_MUTATIONS), label="value"))
        code, err = _analyze_stderr(doc, tmp_path_factory.mktemp("fuzz"))
        assert code in (0, 2)
        if code == 2:
            assert len(err.splitlines()) == 1, err
            match = _ERROR_LINE.fullmatch(err.rstrip("\n"))
            assert match, err
            # no path repeated, as in "scenario: scenario.t_end: ..."
            assert not match["rest"].startswith(re.split(r"[.[]", match["path"])[0]), err

    @pytest.mark.parametrize("edits, message", [
        ([(("controller", "omega_ref"), None)],
         "controller.omega_ref: expected a number, got null"),
        ([(("scenario", "disturbances", 0, "magnitude"), None)],
         "scenario.disturbances[0].magnitude: expected a number, got null"),
        ([(("mtdc", "nodes", 0, "cap"), None)], "mtdc.nodes[0].cap: expected a number, got null"),
        ([(("mtdc", "nodes", 0, "cap"), True)], "mtdc.nodes[0].cap: expected a number, got bool"),
        ([(("controller", "variant"), 3)], "controller.variant: expected str, got int"),
        ([(("areas",), None)], "areas: expected list, got null"),
        ([(("scenario", "t_end"), 1e308)],
         "scenario: t_end is inf steps of dt = 0.001 s, more than MAX_STEPS = 9007199254740992"),
        ([(("areas", 5), _DELETE), (("controller", "variant"), "dec_gen_dec_conv"),
          (("controller", "k_omega"), [1501.0] * 5), (("controller", "k_v"), [80.0] * 5),
          (("scenario", "disturbances", 0, "area"), 5)],
         "areas: expected 6 areas (one per converter), got 5"),
        ([(("mtdc", "nodes", 0, "v_ref"), -1)], "mtdc: v_ref[0]: must be finite and > 0"),
        ([(("areas", 1, "converter_bus"), 1)], "areas[1]: converter attaches at bus 0 by convention"),
        ([(("areas", 0, "generators", 0, "k_droop"), 1e308)],
         "certificate: non-finite entries (a gain or voltage beyond the float range)"),
        ([(("scenario", "disturbances", 0, "magnitude"), 1e308)],
         "equilibrium: non-finite values (a disturbance or gain beyond the float range)"),
        ([(("scenario", "t_end"), 2.0 ** 60), (("scenario", "dt"), 2.0 ** -10),
          (("scenario", "record_every"), 2 ** 80)],
         "scenario: t_end is 1.18e+21 steps of dt = 0.000976562 s, "
         "more than MAX_STEPS = 9007199254740992"),
        ([(("scenario", "t_end"), 2.0 ** 40), (("scenario", "dt"), 2.0 ** -10),
          (("scenario", "record_every"), 1)],
         "scenario: t_end records 1.13e+15 samples at record_every = 1, "
         "more than MAX_SAMPLES = 1000000"),
        ([(("controller", "gamma"), -1)], "controller: gamma must be >= 0"),
        ([(("controller", "k_omega", 0), 0)], "controller: k_omega and k_v must be > 0"),
        ([(("areas", 0, "generators", 3, "k_droop"), -1)],
         "controller: area 0: droop gains must be >= 0"),
        ([(("areas", 0, "generators", 3, "k_droop_i"), 0)],
         "controller: area 0: integral droop gains must be > 0"),
        ([(("controller", "comm_phi"), [{"i": 0, "j": 1, "w": 1.0}])],
         "controller: comm_phi must be connected"),
        ([(("scenario", "t_end"), -1)], "scenario: t_end must be finite and > 0"),
        ([(("costs",), {"f_p": [0.0] * 6, "f_v": [1.0] * 6})], "costs: cost weights must be > 0"),
        ([(("costs",), {"f_p": [1.0] * 5, "f_v": [1.0] * 5})],
         "costs.f_p: one weight per area required"),
        ([(("mtdc", "nodes"), [])], "mtdc.nodes: at least one node required"),
        ([(("mtdc", "nodes", 2, "v_ref"), _DELETE)],
         "mtdc.nodes: v_ref must be set on all nodes or none"),
        ([(("scenario", "mode"), "fast")], "scenario.mode: unknown value 'fast'"),
        ([(("areas", 0, "generators"), [])],
         "areas[0].generators: at least one generator required"),
        # a key no table names is refused, not dropped: "gama" is no gamma
        ([(("controller", "gama"), 4.0)], "controller.gama: unknown field"),
        ([(("costs_",), {"f_p": [1.0] * 6, "f_v": [1.0] * 6})], "costs_: unknown field"),
        ([(("mtdc", "lines", 0, "len"), 1.0)], "mtdc.lines[0].len: unknown field"),
        ([(("scenario", "disturbances", 0, "area"), 99)],
         "scenario.disturbances[0].area: no such area"),
        ([(("areas", 0, "p_m"), [0.0, 0.0])], "areas[0]: p_m length must match bus count"),
        ([(("controller", "k_v"), [80.0] * 5)],
         "controller: per-converter gain lists must share one length"),
        ([(("controller", "comm_eta"), [{"i": 0, "j": 1, "w": 1.0}])],
         "controller: comm_eta must be connected"),
        ([(("controller", "comm_phi"), _DELETE)],
         "controller: distributed converter law needs a comm_phi graph over the converters"),
        ([(("costs",), {"f_p": [1.0] * 6, "f_v": [1.0] * 5})],
         "costs: f_p and f_v must share one length"),
    ], ids=["omega_ref_null", "magnitude_null", "cap_null", "cap_bool", "variant_int",
            "areas_null", "t_end_1e308", "event_in_missing_area", "v_ref_negative",
            "converter_bus_nonzero", "certificate_overflow", "equilibrium_overflow",
            "t_end_beyond_max_steps", "t_end_beyond_max_samples", "gamma_negative",
            "k_omega_zero", "k_droop_negative", "k_droop_i_zero", "comm_phi_disconnected",
            "t_end_negative", "cost_weights_zero", "five_cost_weights", "no_nodes",
            "v_ref_partial", "mode_unknown", "no_generators", "unknown_controller_key",
            "unknown_top_level_key", "unknown_line_key", "event_in_no_area", "p_m_wrong_length",
            "k_v_wrong_length", "comm_eta_disconnected", "comm_phi_missing",
            "cost_lengths_differ"])
    def test_named_regressions(self, paper_doc, tmp_path, edits, message):
        doc = json.loads(json.dumps(paper_doc))
        for place, value in edits:
            _set(doc, place, value)
        assert _analyze_stderr(doc, tmp_path) == (2, f"configuration error: {message}\n")

    @given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(list(m.Variant)),
           with_costs=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_round_trip_random(self, seed, variant, with_costs):
        """Random grids carry line l, c, segments and, half the time, costs."""
        rng = np.random.default_rng(seed)
        net, areas, cfg = random_stable_config(rng)
        costs = (m.CostWeights(f_p=tuple(rng.uniform(0.5, 2.0, net.n)),
                               f_v=tuple(rng.uniform(0.5, 2.0, net.n)))
                 if with_costs else None)
        event = m.DisturbanceEvent(0.5, int(rng.integers(net.n)), 0, float(rng.uniform(-1, 1)))
        sc = SystemConfig(net=net, areas=areas, cfg=replace(cfg, variant=variant), costs=costs,
                          scenario=m.Scenario(t_end=2.0, record_every=5, disturbances=(event,)))
        assert parse_config(json.loads(json.dumps(config_to_dict(sc)))) == sc


class TestAnalyzeCommand:
    def test_reference_report(self, tmp_path):
        cmd_analyze(m.reference_config_path(), tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["stability"]["certificate"] == "HURWITZ_ONLY"
        assert not doc["stability"]["assumption2"]["holds"]
        assert doc["stability"]["assumption2"]["bound"] == pytest.approx(3.75)
        assert abs(doc["stability"]["assumption1"]["k_phi"] - 15.0) < 1e-9
        assert doc["equilibrium"]["kkt_gen_residual"] < 1e-9

    def test_damped_reference_is_proven(self, paper_doc, tmp_path):
        doc = json.loads(json.dumps(paper_doc))
        doc["controller"]["gamma"] = 4.0
        path = tmp_path / "damped.cfg"
        path.write_text(json.dumps(doc))
        cmd_analyze(path, tmp_path / "out")
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["stability"]["certificate"] == "LYAPUNOV_PROVEN"

    def test_malformed_config_exit_code(self, paper_doc, tmp_path, capsys):
        """A malformed field, a file that is not UTF-8 text, one nested past
        the JSON decoder's recursion limit, a top level that is no object and
        a file that does not exist: each is exit 2 with one stderr line
        (naming the file when it is not JSON or cannot be read), not a
        traceback."""
        doc = json.loads(json.dumps(paper_doc))
        doc["mtdc"]["nodes"][0]["cap"] = -0.1
        cases = {  # file name: (its bytes, None for no file; the start of the message)
            "bad.cfg": (json.dumps(doc).encode(), "mtdc.nodes[0].cap: must be > 0"),
            "not_utf8.cfg": (b'{"mtdc": "\xff"}',
                             "{path}: invalid JSON ('utf-8' codec can't decode byte 0xff"),
            "nested.cfg": (b"[" * 100_000 + b"]" * 100_000,
                           "{path}: invalid JSON (maximum recursion depth exceeded"),
            "array.cfg": (b"[]", "top level: expected an object"),
            "missing.cfg": (None, "cannot read {path}: "),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            if text is not None:
                path.write_bytes(text)
            assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: " + message.format(path=path)), err
            assert len(err.splitlines()) == 1, err

    def test_module_entry_point_exit_code(self, paper_doc, tmp_path):
        """``python -m mtdcsim.cli`` exits with the code of ``main``: 2 on a
        malformed config, with its one stderr line."""
        doc = json.loads(json.dumps(paper_doc))
        doc["mtdc"]["nodes"][0]["cap"] = -0.1
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "mtdcsim.cli", "analyze", "--config", str(path),
                               "--out", str(tmp_path / "o")],
                              env=_package_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, "configuration error: mtdc.nodes[0].cap: "
                                                     "must be > 0\n")

    @pytest.mark.parametrize("section, key, value", [("", "scenario", {"t_end": 1.0}),
                                                     ("controller", "gamma", 4.0)],
                             ids=["top_level", "controller"])
    def test_duplicate_key_refused(self, paper_doc, tmp_path, capsys, section, key, value):
        """A key given twice in one object is exit 2 naming the key: the JSON
        decoder alone keeps the last value, so a gamma of 4.0 followed by the
        reference's 0.0 ran the loop undamped."""
        text = json.dumps(paper_doc)
        opening = f'"{section}": {{' if section else "{"
        path = tmp_path / "twice.cfg"
        path.write_text(text.replace(opening, f'{opening}"{key}": {json.dumps(value)}, ', 1))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f'configuration error: {path}: duplicate key "{key}"\n'

    @pytest.mark.parametrize("variant", list(m.Variant))
    def test_single_terminal_report(self, tmp_path, variant):
        """A one-terminal loop gets a report: no assumption applies, the empty
        q2 block is null, and report.json is strict JSON."""
        net, areas, cfg = single_gen_system(1, variant=variant)
        sc = m.SystemConfig(net=net, areas=areas, cfg=cfg, costs=None,
                            scenario=m.Scenario(t_end=1.0))
        path = tmp_path / "one.cfg"
        path.write_text(json.dumps(config_to_dict(sc)))
        cmd_analyze(path, tmp_path / "o")

        def reject(constant):
            raise ValueError(f"report.json holds {constant}")

        stability = json.loads((tmp_path / "o" / "report.json").read_text(),
                               parse_constant=reject)["stability"]
        assert stability["certificate"] == "LYAPUNOV_PROVEN"
        assert (stability["assumption1"], stability["assumption2"]) == (None, None)
        assert stability["q2_min_eig"] is None and stability["q1_min_eig"] > 0.0

    def test_single_terminal_without_droop_is_marginal(self, tmp_path):
        """One decentralised terminal with no droop keeps a zero eigenvalue:
        the loop is MARGINAL and has no equilibrium, and analyze exits 0."""
        net, areas, cfg = single_gen_system(1, variant=m.Variant.DEC_GEN_DEC_CONV, k_droop=0.0)
        sc = m.SystemConfig(net=net, areas=areas, cfg=cfg, costs=None,
                            scenario=m.Scenario(t_end=1.0))
        path = tmp_path / "one.cfg"
        path.write_text(json.dumps(config_to_dict(sc)))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert doc["stability"]["certificate"] == "MARGINAL"
        assert doc["stability"]["spectral_abscissa"] == 0.0
        assert doc["equilibrium"] is None

    def test_success_exit_code(self, short_cfg_path, tmp_path):
        assert main(["analyze", "--config", str(short_cfg_path),
                     "--out", str(tmp_path / "o")]) == 0

    def test_one_eigen_decomposition_per_analysis(self, paper_sc, monkeypatch):
        """The stability report and the equilibrium share one Hurwitz verdict."""
        shapes = []
        real_eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or real_eigvals(a))
        model = m.assemble_resistive(paper_sc.net, paper_sc.areas, paper_sc.cfg, reduced=True)
        stability, equil = _analysis_pair(paper_sc, model)
        assert shapes == [(model.dim, model.dim)]
        assert stability.spectral_abscissa < 0.0 and equil is not None

    @pytest.mark.parametrize("case", ["event_at_t_end", "three_events_with_baseline"])
    def test_equilibrium_is_under_the_runs_last_input(self, short_cfg_path, tmp_path, case):
        """The report's equilibrium is the one the run converges to: it is
        taken under the last segment's input, so an event at ``t_end`` (which
        never applies) is not counted, and events add to the baseline in the
        order the run applies them, not in config order."""
        doc = json.loads(short_cfg_path.read_text())
        events = doc["scenario"]["disturbances"]
        if case == "event_at_t_end":
            cmd_analyze(short_cfg_path, tmp_path / "without")
            want = json.loads((tmp_path / "without" / "report.json").read_text())["equilibrium"]
            events.append({"time": 2.0, "area": 2, "bus": 0, "magnitude": -0.3})
        else:
            doc["areas"][1]["p_m"] = [0.1] * len(doc["areas"][1]["generators"])
            events[:] = [{"time": t, "area": 1, "bus": 0, "magnitude": mag}
                         for t, mag in ((1.5, 0.2), (0.5, 0.1), (1.0, 0.3))]
            sc = parse_config(doc)
            model = m.assemble_resistive(sc.net, sc.areas, sc.cfg)
            want = _equilibrium_to_dict(m.equilibrium(model, _segments(model, sc.scenario)[1][-1],
                                                      costs=sc.costs))
        path = tmp_path / f"{case}.cfg"
        path.write_text(json.dumps(doc))
        cmd_analyze(path, tmp_path / "with")
        assert json.loads((tmp_path / "with" / "report.json").read_text())["equilibrium"] == want


class TestSimulateCommand:
    def test_emits_all_families(self, short_cfg_path, tmp_path):
        out = tmp_path / "run"
        cmd_simulate(short_cfg_path, out)
        artifacts = json.loads((out / "report.json").read_text())["artifacts"]
        kinds = [a["kind"] for a in artifacts]
        assert kinds.count("TIMESERIES_CSV") == 4
        assert kinds.count("REPORT_JSON") == 1
        for a in artifacts:
            assert Path(a["path"]).exists()
        header, data = _read_csv(out / "frequencies.csv")
        assert header == ["t"] + [f"freq_area_{i}" for i in range(1, 7)]
        assert data[0, 0] == 0.0 and data[-1, 0] == 2.0

    def test_reference_run_restores_frequencies(self, tmp_path):
        out = tmp_path / "full"
        cmd_simulate(m.reference_config_path(), out)
        _, freq = _read_csv(out / "frequencies.csv")
        assert np.abs(freq[-1, 1:] - 1.0).max() < 1e-4

    def test_zero_disturbance_flatline(self, paper_doc, tmp_path):
        doc = json.loads(json.dumps(paper_doc))
        doc["scenario"]["t_end"] = 1.0
        doc["scenario"]["record_every"] = 100
        doc["scenario"]["disturbances"] = []
        path = tmp_path / "quiet.cfg"
        path.write_text(json.dumps(doc))
        out = tmp_path / "quiet_out"
        cmd_simulate(path, out)
        _, freq = _read_csv(out / "frequencies.csv")
        assert np.all(freq[:, 1:] == 1.0)
        _, vdc = _read_csv(out / "dc_voltages.csv")
        assert np.all(vdc[:, 1:] == 1.0)

    def test_v_ref_left_out_takes_v_nom(self, short_cfg_path, tmp_path):
        """A config that sets ``v_ref`` on no node runs every node at ``v_nom``:
        the DC voltages start there."""
        doc = json.loads(short_cfg_path.read_text())
        doc["mtdc"]["v_nom"] = 1.05
        for node in doc["mtdc"]["nodes"]:
            del node["v_ref"]
        path = tmp_path / "no_v_ref.cfg"
        path.write_text(json.dumps(doc))
        out = tmp_path / "nom"
        cmd_simulate(path, out)
        _, vdc = _read_csv(out / "dc_voltages.csv")
        assert vdc[0, 0] == 0.0 and np.all(vdc[0, 1:] == 1.05)

    def test_variant_override(self, short_cfg_path, tmp_path):
        out = tmp_path / "dec"
        cmd_simulate(short_cfg_path, out, variant="dec_gen_dec_conv")
        doc = json.loads((out / "report.json").read_text())
        assert doc["equilibrium"]["eta_star"] is None

    def test_json_format_matches_csv(self, short_cfg_path, tmp_path):
        out_csv = tmp_path / "c"
        out_json = tmp_path / "j"
        cmd_simulate(short_cfg_path, out_csv, fmt="csv")
        cmd_simulate(short_cfg_path, out_json, fmt="json")
        header, data = _read_csv(out_csv / "injections.csv")
        doc = json.loads((out_json / "injections.json").read_text())
        np.testing.assert_array_equal(np.array(doc["times"]), data[:, 0])
        for col, name in enumerate(header[1:], start=1):
            np.testing.assert_array_equal(np.array(doc["series"][name]), data[:, col])

    def test_golden_byte_stability(self, short_cfg_path, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        cmd_simulate(short_cfg_path, out1)
        cmd_simulate(short_cfg_path, out2)
        for name in ("frequencies.csv", "dc_voltages.csv", "generation.csv",
                     "injections.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("field, value, path", [
        (("scenario", "t_end"), float("inf"), r"scenario\.t_end"),
        (("scenario", "t_end"), 1.0005, r"scenario: t_end must be an integer number of steps"),
        (("scenario", "t_end"), 2.0 ** 60, r"scenario: t_end is .* more than MAX_STEPS = "),
        (("scenario", "t_end"), 2.0 ** 40, r"scenario: t_end records .* more than MAX_SAMPLES = "),
        (("controller", "gamma"), float("nan"), r"controller\.gamma"),
        (("controller", "gamma"), 10 ** 400, r"controller\.gamma"),  # beyond the float range
        (("controller", "k_omega", 0), float("inf"), r"controller\.k_omega\[0\]"),
        (("areas", 0, "generators", 0, "k_droop"), float("inf"),
         r"areas\[0\]\.generators\[0\]\.k_droop"),
        (("scenario", "disturbances", 0, "magnitude"), float("inf"),
         r"scenario\.disturbances\[0\]\.magnitude"),
        (("areas", 0, "p_m"), [0.0, float("nan")] + [0.0] * 12, r"areas\[0\]\.p_m\[1\]"),
        (("costs",), {"f_p": [1.0] * 5 + [float("inf")], "f_v": [1.0] * 6},
         r"costs\.f_p\[5\]"),
        (("mtdc", "lines", 0, "r"), 0.0, r"mtdc\.lines\[0\]: .*resistance"),
        (("mtdc", "lines", 1, "l"), -1e-3, r"mtdc\.lines\[1\]: .*l and c"),
        (("mtdc", "lines", 2, "c"), -1e-3, r"mtdc\.lines\[2\]: .*l and c"),
        (("mtdc", "lines", 0, "j"), 0, r"mtdc\.lines\[0\]: .*endpoints"),
        (("mtdc", "lines", 0, "j"), 6, r"^configuration error: mtdc\.lines\[0\]\.j: no such node$"),
        (("mtdc", "lines", 0, "segments"), 0, r"mtdc\.lines\[0\]: .*segments"),
    ], ids=["t_end_inf", "t_end_off_grid", "t_end_max_steps", "t_end_max_samples", "gamma_nan",
            "gamma_huge_int", "k_omega_inf", "k_droop_inf", "magnitude_inf", "p_m_nan",
            "cost_inf", "line_r_zero", "line_l_negative", "line_c_negative", "line_self_loop",
            "line_to_missing_node", "line_no_segments"])
    def test_malformed_number_exit_code(self, paper_doc, tmp_path, capsys, field, value, path):
        """JSON NaN/Infinity or an off-grid horizon is a configuration error
        naming the field, never a traceback or a warning."""
        doc = json.loads(json.dumps(paper_doc))
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and len(err.splitlines()) == 1
        assert re.search(path, err)

    @pytest.mark.parametrize("field, value, argv", [
        (("controller", "k_v"), [1e308] * 6, ["analyze"]),
        (("mtdc", "nodes", 0, "cap"), 1e-320, ["simulate"]),
        (("controller", "gamma"), 4.0, ["sweep", "--scales", "1,1e305"]),
    ], ids=["k_v_huge", "cap_tiny", "sweep_scale_huge"])
    def test_overflowing_matrix_exit_code(self, paper_doc, tmp_path, capsys, field, value, argv):
        """Finite inputs that overflow the assembled state matrix are a
        configuration error: one stderr line, no warning, no traceback."""
        doc = json.loads(json.dumps(paper_doc))
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["configuration error: state matrix: non-finite entries "
                       "(a gain, inertia or capacitance beyond the float range)"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_overflowing_series_write_nothing(self, paper_doc, tmp_path, capsys, command, fmt):
        """A finite disturbance of 1e308 keeps the states finite but overflows
        the series and the equilibrium: the analysis runs first, so the
        command ends at exit 2 with one line and no warning, and no file in
        ``--out`` holds a non-finite value."""
        doc = json.loads(json.dumps(paper_doc))
        doc["scenario"]["t_end"] = 5.0
        doc["scenario"]["disturbances"][0]["magnitude"] = 1e308
        cfg = tmp_path / "huge_event.cfg"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: equilibrium: non-finite values "
            "(a disturbance or gain beyond the float range)"]
        for path in out.iterdir():
            assert not re.search(r"inf|nan", path.read_text(), re.IGNORECASE), path

    @pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
    @pytest.mark.parametrize("overflow", ["duplicate_event", "baseline_plus_event"])
    def test_overflowing_input_sum_reports_once(self, paper_doc, tmp_path, capsys, command,
                                                overflow):
        """Finite inputs whose sum on one bus overflows, the event of 1e308
        twice or a baseline p_m of 1e308 plus the event: the equilibrium
        reports it as one configuration-error line, exit 2, and no numpy
        warning reaches stderr."""
        doc = json.loads(json.dumps(paper_doc))
        doc["scenario"]["t_end"] = 5.0
        event = doc["scenario"]["disturbances"][0]
        event["magnitude"] = 1e308
        if overflow == "duplicate_event":
            doc["scenario"]["disturbances"].append(dict(event))
        else:
            area = doc["areas"][event["area"]]
            area["p_m"] = [0.0] * len(area["generators"])
            area["p_m"][event["bus"]] = 1e308
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: equilibrium: non-finite values "
            "(a disturbance or gain beyond the float range)"]

    def test_numerical_abort_exit_code(self, tmp_path):
        doc = {
            "mtdc": {"v_nom": 1.0, "nodes": [{"cap": 1.0, "v_ref": 1.0}], "lines": []},
            "areas": [{"generators": [{"inertia": 1.0, "k_droop": 1.0, "k_droop_i": 1.0}],
                       "ac_lines": []}],
            "controller": {"variant": "dec_gen_dec_conv", "k_omega": [1.0], "k_v": [1.0],
                           "gamma": 0.0},
            "scenario": {"t_end": 20.0, "dt": 0.01, "mode": "nonlinear",
                         "disturbances": [{"time": 0.0, "area": 0, "bus": 0,
                                           "magnitude": -1.2}]},
        }
        path = tmp_path / "collapse.cfg"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_reference_below_floor_exit_code(self, paper_doc, tmp_path, capsys):
        """The reference in nonlinear mode with every v_ref at 0.4, below the
        0.5 p.u. floor, is a numerical abort at its first step: exit 3 and
        one stderr line at t = 0 s."""
        doc = json.loads(json.dumps(paper_doc))
        doc["scenario"]["mode"] = "nonlinear"
        for node in doc["mtdc"]["nodes"]:
            node["v_ref"] = 0.4
        path = tmp_path / "low_vref.cfg"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "t = 0 s" in err[0], err

    def test_diverging_run_reports_only_the_abort(self, short_cfg_path, tmp_path, monkeypatch,
                                                  capsys):
        """A loop shifted by 800 I overflows; stderr carries the abort line and
        no numpy warning."""
        real_assemble = cli.assemble_resistive

        def unstable(*args, **kwargs):
            model = real_assemble(*args, **kwargs)
            return replace(model, a=model.a + 800.0 * np.eye(model.dim))

        monkeypatch.setattr(cli, "assemble_resistive", unstable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(short_cfg_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical abort: integration aborted at t = ")

    def test_overflowing_gain_reports_only_the_abort(self, short_cfg_path, tmp_path, capsys):
        """k_v = 1e200 overflows the powers of the loop matrix in the exponential:
        the run aborts at the first record, with one stderr line and no warning."""
        doc = json.loads(short_cfg_path.read_text())
        doc["controller"]["k_v"] = [1e200] * len(doc["controller"]["k_v"])
        doc["scenario"]["record_every"] = 10
        path = tmp_path / "huge_kv.cfg"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical abort: integration aborted at t = 0.01 s "
                       "(non-finite state or DC voltage below 0.5 p.u.)"]


class TestRuntimeDependencies:
    def test_commands_run_without_scipy(self, short_cfg_path, tmp_path):
        """A fresh process runs analyze and linear and nonlinear simulate on
        numpy alone: scipy is a test dependency, never imported by the package."""
        doc = json.loads(short_cfg_path.read_text())
        doc["scenario"]["mode"] = "nonlinear"
        nonlinear = tmp_path / "nonlinear.cfg"
        nonlinear.write_text(json.dumps(doc))
        script = """if True:
            import sys
            import mtdcsim, mtdcsim.cli
            lin, nonlin, out = sys.argv[1:]
            codes = [mtdcsim.cli.main(["analyze", "--config", lin, "--out", out + "/a"]),
                     mtdcsim.cli.main(["simulate", "--config", lin, "--out", out + "/l"]),
                     mtdcsim.cli.main(["simulate", "--config", nonlin, "--out", out + "/n"])]
            assert codes == [0, 0, 0], codes
            assert "scipy" not in sys.modules, sorted(k for k in sys.modules if "scipy" in k)
        """
        proc = subprocess.run([sys.executable, "-c", script, str(short_cfg_path), str(nonlinear),
                               str(tmp_path)], env=_package_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "n" / "frequencies.csv").exists()


class TestCompareCommand:
    def test_summary_table(self, short_cfg_path, tmp_path):
        out = tmp_path / "cmp"
        cmd_compare(short_cfg_path, out)
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == [
            "dec_gen_dec_conv", "dist_gen_dec_conv", "dist_gen_dist_conv"]
        for r in rows:
            assert float(r["settling_time_inj"]) >= 0.0
        assert (out / "dist_gen_dist_conv__frequencies.csv").exists()

    def test_each_pairing_alone_writes_its_compare_series(self, short_cfg_path, tmp_path):
        """``simulate --variant P`` writes compare's ``P__*.csv`` byte for byte,
        for each pairing: no discretization kept by one model reaches another."""
        argv = ["--config", str(short_cfg_path), "--out"]
        assert main(["compare", *argv, str(tmp_path / "cmp")]) == 0
        for variant in cli.COMPARISON_VARIANTS:
            out = tmp_path / variant.value
            assert main(["simulate", "--variant", variant.value, *argv, str(out)]) == 0
            for family in cli.SERIES_COLUMNS:
                alone = (out / f"{family}.csv").read_bytes()
                assert alone == (tmp_path / "cmp" / f"{variant.value}__{family}.csv").read_bytes()

    def test_zero_disturbance_all_metrics_zero(self, paper_doc, tmp_path):
        doc = json.loads(json.dumps(paper_doc))
        doc["scenario"]["t_end"] = 1.0
        doc["scenario"]["record_every"] = 100
        doc["scenario"]["disturbances"] = []
        path = tmp_path / "quiet.cfg"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cmp0"
        cmd_compare(path, out)
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["static_freq_error"]) == 0.0
            assert float(r["gen_spread"]) == 0.0
            assert float(r["settling_time_inj"]) == 0.0

    @pytest.mark.parametrize("argv, line", [
        (["simulate", "--variant", "dist_gen_dist_conv"],
         "configuration error: --variant: distributed generation law needs a comm_eta graph "
         "over the areas"),
        (["compare"],
         "configuration error: compare dist_gen_dec_conv: distributed generation law needs a "
         "comm_eta graph over the areas"),
    ], ids=["simulate_variant", "compare"])
    def test_pairing_without_its_graph(self, paper_doc, tmp_path, argv, line):
        """A decentralised config without communication graphs: a pairing
        that needs one is exit 2 with one line naming the graph, before any
        file is written."""
        doc = json.loads(json.dumps(paper_doc))
        doc["controller"]["variant"] = "dec_gen_dec_conv"
        del doc["controller"]["comm_eta"], doc["controller"]["comm_phi"]
        doc["scenario"]["t_end"] = 2.0
        cfg = tmp_path / "dec.cfg"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
            code = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert (code, err.getvalue()) == (2, line + "\n")
        assert list(out.iterdir()) == []


class TestOneModelPerCommand:
    @staticmethod
    def _count_models(monkeypatch) -> dict:
        """Live counts of the models assembled and reduced from here on."""
        calls = {"_assemble": 0, "reduce_model": 0}
        for name in calls:
            def counted(*args, _real=getattr(assembly, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(assembly, name, counted)
        return calls

    @pytest.mark.parametrize("command, n_models", [(cmd_simulate, 1), (cmd_compare, 3)],
                             ids=["simulate", "compare"])
    def test_integrates_the_analysed_model(self, short_cfg_path, tmp_path, monkeypatch, command,
                                           n_models):
        """``simulate`` assembles one model and ``compare`` one per pairing,
        each reduced once inside ``assemble_resistive``; the analysis and the
        run share one model, and so its memos."""
        calls = self._count_models(monkeypatch)
        analysed = []
        real_pair = cli._analysis_pair
        monkeypatch.setattr(cli, "_analysis_pair",
                            lambda sc, model: analysed.append(model) or real_pair(sc, model))
        command(short_cfg_path, tmp_path / "o")
        assert calls == {"_assemble": n_models, "reduce_model": n_models}
        assert not hasattr(cli, "reduce_model")
        (model,) = analysed
        assert model.reduced and list(model.zoh_memo) == [1e-3]

    @pytest.mark.parametrize("command, n_models", [
        (cmd_analyze, 1),
        (lambda config, out: cmd_sweep(config, out, [1.0, 10.0]), 2),
    ], ids=["analyze", "sweep"])
    def test_assembles_only_the_analysed_models(self, damped_cfg_path, tmp_path, monkeypatch,
                                                command, n_models):
        """``analyze`` assembles the one model it analyses and ``sweep`` one
        per scale: the sweep's input comes from the configuration, not from
        a model of its own."""
        calls = self._count_models(monkeypatch)
        command(damped_cfg_path, tmp_path / "o")
        assert calls == {"_assemble": n_models, "reduce_model": n_models}


class TestSweepCommand:
    def test_rejects_zero_damping(self, short_cfg_path, tmp_path):
        assert main(["sweep", "--config", str(short_cfg_path),
                     "--out", str(tmp_path / "s"), "--scales", "1,10"]) == 2

    def test_damped_sweep_rows(self, paper_doc, tmp_path):
        doc = json.loads(json.dumps(paper_doc))
        doc["controller"]["gamma"] = 4.0
        path = tmp_path / "damped.cfg"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        cmd_sweep(path, out, [1.0, 10.0])
        header, data = _read_csv(out / "sweep.csv")
        assert header[0] == "scale"
        assert data.shape[0] == 2
        assert data[0, 2] > data[1, 2]  # max_abs_freq_dev decreasing

    @pytest.mark.parametrize("scales", ["-1", "0", "nan", "inf", "1e400", "", "abc"])
    def test_rejects_bad_scales(self, damped_cfg_path, tmp_path, capsys, scales):
        """Non-positive, non-finite, non-numeric or no scales: exit 2, one
        stderr line, no table."""
        out = tmp_path / "w"
        code = main(["sweep", "--config", str(damped_cfg_path), "--out", str(out),
                     "--scales", scales])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --scales ") and len(err.splitlines()) == 1
        assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [["analyze"], ["simulate"], ["compare"],
                                  ["sweep", "--scales", "1,10"]],
                         ids=["analyze", "simulate", "compare", "sweep"])
def test_out_that_cannot_be_a_directory(damped_cfg_path, tmp_path, capsys, argv):
    """An ``--out`` that is an existing file, or lies below one, is exit 2
    with one stderr line naming ``--out``, not a traceback; the file stays."""
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    for out in (blocker, blocker / "sub"):
        assert main([*argv, "--config", str(damped_cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and len(err.splitlines()) == 1, err
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("argv, name", [
    (["analyze"], "report.json"),
    (["simulate"], "frequencies.csv"),
    (["simulate", "--format", "json"], "injections.json"),
    (["compare"], "dist_gen_dec_conv__generation.csv"),
    (["compare"], "summary.csv"),
    (["sweep", "--scales", "1,10"], "sweep.csv"),
], ids=["analyze", "simulate", "simulate_json", "compare_series", "compare_summary", "sweep"])
def test_artifact_that_cannot_be_written(damped_cfg_path, tmp_path, capsys, argv, name):
    """An artifact path that cannot be opened, here a directory of that name
    inside ``--out``, is exit 2 with one stderr line naming ``--out`` and the
    file, not a traceback; the directory stays."""
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert main([*argv, "--config", str(damped_cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: cannot write {name} ("), err
    assert len(err.splitlines()) == 1, err
    assert (out / name).is_dir()


def test_artifact_write_error(short_cfg_path, tmp_path, capsys, monkeypatch):
    """An ``OSError`` while an artifact is written, a full disk, is exit 2
    with one stderr line too."""
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(short_cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: --out {out}: cannot write frequencies.csv "
                                       f"({os.strerror(errno.ENOSPC)})\n")


class TestWriters:
    """The writers reproduce the per-value formatting they replaced."""

    AWKWARD = [0.0, -0.0, 1e-300, -5e-324, 5e-324, np.inf, -np.inf, np.nan,
               0.1, 1 / 3, 1.7976931348623157e308, -2.5e-17, 123456789.0]

    def _data(self):
        values = np.array(self.AWKWARD)
        columns = np.column_stack([values, values[::-1]])
        times = np.arange(values.shape[0]) * 1e-3
        return ["a", "b"], times, columns

    def test_csv_matches_per_value_format(self, tmp_path):
        names, times, columns = self._data()
        want = "t,a,b\n" + "".join(
            ",".join([f"{times[r]:.17g}"] + [f"{columns[r, c]:.17g}" for c in range(2)]) + "\n"
            for r in range(times.shape[0]))
        _write_csv(tmp_path / "s.csv", ["t", *names], [f"{t:.17g}," for t in times], columns.tolist())
        assert (tmp_path / "s.csv").read_bytes() == want.encode("utf-8")

    def test_json_matches_per_value_dump(self, tmp_path):
        names, times, columns = self._data()
        doc = {"times": [float(t) for t in times],
               "series": {n: [float(v) for v in columns[:, c]] for c, n in enumerate(names)}}
        with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        _write_series_json(tmp_path / "s.json", names, times, columns)
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def _series_csvs(out: Path, prefixes=("",)) -> list:
    """The (kind, path) artifacts of the series CSV files under each file-name prefix."""
    return [("TIMESERIES_CSV", str(out / f"{prefix}{family}.csv")) for prefix in prefixes
            for family in ("frequencies", "dc_voltages", "generation", "injections")]


class TestWriterOracles:
    """report.json, summary.csv and sweep.csv equal, byte for byte, what the
    hand-written writers kept above produce from the same results."""

    @staticmethod
    def _assert_report_matches(config_path, out, tmp_path, artifacts, variant=None, extra=None):
        """report.json against the old writer, given the analysis of the model
        the command builds (``cli.assemble_resistive``, patched or not) and
        the artifacts before report.json."""
        sc = m.load_config(config_path)
        if variant is not None:
            sc = replace(sc, cfg=replace(sc.cfg, variant=variant))
        stability, equil = _analysis_pair(sc, cli.assemble_resistive(sc.net, sc.areas, sc.cfg))
        _old_report(tmp_path / "want.json", stability, equil,
                    [*artifacts, ("REPORT_JSON", str(out / "report.json"))], extra)
        assert (out / "report.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_analyze_hurwitz_only(self, short_cfg_path, tmp_path):
        cmd_analyze(short_cfg_path, tmp_path / "a")
        stability = json.loads((tmp_path / "a" / "report.json").read_text())["stability"]
        assert stability["certificate"] == "HURWITZ_ONLY"
        assert not stability["assumption2"]["holds"]
        self._assert_report_matches(short_cfg_path, tmp_path / "a", tmp_path, [])

    def test_analyze_lyapunov_proven(self, damped_cfg_path, tmp_path):
        cmd_analyze(damped_cfg_path, tmp_path / "a")
        stability = json.loads((tmp_path / "a" / "report.json").read_text())["stability"]
        assert stability["certificate"] == "LYAPUNOV_PROVEN"
        self._assert_report_matches(damped_cfg_path, tmp_path / "a", tmp_path, [])

    def test_simulate_decentralized_nulls(self, short_cfg_path, tmp_path):
        out = tmp_path / "s"
        cmd_simulate(short_cfg_path, out, variant="dec_gen_dec_conv")
        doc = json.loads((out / "report.json").read_text())
        assert doc["stability"]["assumption1"] is None and doc["stability"]["assumption2"] is None
        assert doc["equilibrium"]["eta_star"] is None and doc["equilibrium"]["phi_star"] is None
        self._assert_report_matches(short_cfg_path, out, tmp_path, _series_csvs(out),
                                    variant=m.Variant.DEC_GEN_DEC_CONV)

    def test_non_hurwitz_loop_has_null_equilibrium(self, short_cfg_path, tmp_path, monkeypatch):
        real_assemble = cli.assemble_resistive

        def unstable(*args, **kwargs):
            model = real_assemble(*args, **kwargs)
            return replace(model, a=model.a + 800.0 * np.eye(model.dim))

        monkeypatch.setattr(cli, "assemble_resistive", unstable)
        cmd_analyze(short_cfg_path, tmp_path / "u")
        doc = json.loads((tmp_path / "u" / "report.json").read_text())
        assert doc["stability"]["certificate"] == "UNSTABLE"
        assert doc["equilibrium"] is None
        self._assert_report_matches(short_cfg_path, tmp_path / "u", tmp_path, [])

    def test_compare_summary_and_report(self, short_cfg_path, tmp_path):
        out = tmp_path / "c"
        cmd_compare(short_cfg_path, out)
        rows = json.loads((out / "report.json").read_text())["comparison"]
        _old_summary_csv(tmp_path / "want.csv", rows)
        assert (out / "summary.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        artifacts = [*_series_csvs(out, ("dec_gen_dec_conv__", "dist_gen_dec_conv__",
                                         "dist_gen_dist_conv__")),
                     ("TIMESERIES_CSV", str(out / "summary.csv"))]
        self._assert_report_matches(short_cfg_path, out, tmp_path, artifacts,
                                    extra={"comparison": rows})

    def test_sweep_with_non_hurwitz_row(self, damped_cfg_path, tmp_path):
        out = tmp_path / "w"
        assert main(["sweep", "--config", str(damped_cfg_path), "--out", str(out),
                     "--scales", "1,1e300"]) == 0
        sc = m.load_config(damped_cfg_path)
        rows = m.gain_limit_sweep(sc.net, sc.areas, sc.cfg, _segments(sc, sc.scenario)[1][-1],
                                  [1.0, 1e300])
        assert [r.is_hurwitz for r in rows] == [True, False]
        _old_sweep_csv(tmp_path / "want.csv", rows)
        got = (out / "sweep.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.splitlines()[2].startswith(b"1.0000000000000001e+300,0,nan,")
