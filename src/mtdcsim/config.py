"""Configuration files: JSON documents describing the DC grid, the AC
areas, the controller, optional cost weights, and the simulation scenario.

Validation reports the path of the offending field (for example
``mtdc.nodes[2].cap``) so configuration mistakes are quick to locate.
Parsing and serialization round-trip: parse -> to_dict -> parse yields an
equal in-memory configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .control import ControllerConfig, CostWeights, CouplingMode, Variant
from .netgraph import WeightedGraph
from .plant import AcArea, DcLine, MtdcNetwork
from .sim import DisturbanceEvent, Scenario


class ConfigError(ValueError):
    """Configuration file rejected; message carries the field path."""


@dataclass(frozen=True)
class SystemConfig:
    """Everything one run needs: plant, controller, costs, scenario."""

    net: MtdcNetwork
    areas: tuple
    cfg: ControllerConfig
    costs: CostWeights
    scenario: Scenario


def _expect(container, key, path, kind=None, required=True, default=None):
    name = f"{path}.{key}" if path else key  # a top-level field has no parent
    if key not in container:
        if required:
            raise ConfigError(f"{name}: missing required field")
        return default
    value = container[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if not isinstance(kind, tuple) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{name}: expected {names}, got {type(value).__name__}")
    return value


def _finite(value, path):
    """``value`` as a finite float; JSON ``NaN``/``Infinity`` are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number}")
    return number


def _number(container, key, path, required=True, default=None):
    value = _expect(container, key, path, required=required, default=default)
    return _finite(value, f"{path}.{key}") if value is not None else None


def _numbers(container, key, path, required=True):
    """A list of finite numbers, each checked under its own index path."""
    values = _expect(container, key, path, kind=list, required=required)
    if values is None:
        return None
    return tuple(_finite(v, f"{path}.{key}[{i}]") for i, v in enumerate(values))


def _int(container, key, path, required=True, default=None):
    value = _expect(container, key, path, kind=int, required=required, default=default)
    if isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return value


def _edges(raw, path, weight_key):
    edges = []
    for idx, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}[{idx}]: expected an object")
        edges.append((
            _int(item, "i", f"{path}[{idx}]"),
            _int(item, "j", f"{path}[{idx}]"),
            _number(item, weight_key, f"{path}[{idx}]"),
        ))
    return tuple(edges)


def parse_config(doc: dict) -> SystemConfig:
    """Validate a parsed JSON document and build the domain objects."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")

    mtdc = _expect(doc, "mtdc", "", kind=dict)
    nodes = _expect(mtdc, "nodes", "mtdc", kind=list)
    if not nodes:
        raise ConfigError("mtdc.nodes: at least one node required")
    cap, v_ref = [], []
    for idx, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ConfigError(f"mtdc.nodes[{idx}]: expected an object")
        c = _number(node, "cap", f"mtdc.nodes[{idx}]")
        if c <= 0.0:
            raise ConfigError(f"mtdc.nodes[{idx}].cap: must be > 0")
        cap.append(c)
        v_ref.append(_number(node, "v_ref", f"mtdc.nodes[{idx}]", required=False, default=None))
    v_nom = _number(mtdc, "v_nom", "mtdc", required=False, default=1.0)
    if any(v is None for v in v_ref):
        if not all(v is None for v in v_ref):
            raise ConfigError("mtdc.nodes: v_ref must be set on all nodes or none")
        v_ref = None
    lines_raw = _expect(mtdc, "lines", "mtdc", kind=list)
    lines = []
    for idx, ln in enumerate(lines_raw):
        path = f"mtdc.lines[{idx}]"
        if not isinstance(ln, dict):
            raise ConfigError(f"{path}: expected an object")
        values = dict(
            i=_int(ln, "i", path),
            j=_int(ln, "j", path),
            r=_number(ln, "r", path),
            l=_number(ln, "l", path, required=False, default=0.0),
            c=_number(ln, "c", path, required=False, default=0.0),
            segments=_int(ln, "segments", path, required=False, default=1),
        )
        try:
            lines.append(DcLine(**values))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        net = MtdcNetwork(cap=tuple(cap), lines=tuple(lines), v_nom=v_nom,
                          v_ref=tuple(v_ref) if v_ref is not None else None)
    except ValueError as exc:
        raise ConfigError(f"mtdc: {exc}") from exc

    areas_raw = _expect(doc, "areas", "", kind=list)
    areas = []
    k_droop, k_droop_i = [], []
    for idx, area in enumerate(areas_raw):
        path = f"areas[{idx}]"
        if not isinstance(area, dict):
            raise ConfigError(f"{path}: expected an object")
        gens = _expect(area, "generators", path, kind=list)
        if not gens:
            raise ConfigError(f"{path}.generators: at least one generator required")
        inertia, kd, kdi = [], [], []
        for g, gen in enumerate(gens):
            gpath = f"{path}.generators[{g}]"
            if not isinstance(gen, dict):
                raise ConfigError(f"{gpath}: expected an object")
            inertia.append(_number(gen, "inertia", gpath))
            kd.append(_number(gen, "k_droop", gpath))
            kdi.append(_number(gen, "k_droop_i", gpath))
        ac_lines = _edges(_expect(area, "ac_lines", path, kind=list, required=False, default=[]),
                          f"{path}.ac_lines", "k")
        p_m = _numbers(area, "p_m", path, required=False)
        try:
            areas.append(AcArea(
                inertia=tuple(inertia),
                ac_lines=ac_lines,
                converter_bus=_int(area, "converter_bus", path, required=False, default=0),
                p_m=p_m,
            ))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        k_droop.append(tuple(kd))
        k_droop_i.append(tuple(kdi))

    ctrl = _expect(doc, "controller", "", kind=dict)
    variant_name = _expect(ctrl, "variant", "controller", kind=str)
    try:
        variant = Variant(variant_name)
    except ValueError:
        raise ConfigError(
            f"controller.variant: unknown value {variant_name!r}; expected one of "
            + ", ".join(v.value for v in Variant)) from None
    comm_eta_raw = _expect(ctrl, "comm_eta", "controller", kind=list, required=False, default=None)
    comm_phi_raw = _expect(ctrl, "comm_phi", "controller", kind=list, required=False, default=None)
    try:
        comm_eta = (WeightedGraph(net.n, _edges(comm_eta_raw, "controller.comm_eta", "w"))
                    if comm_eta_raw is not None else None)
        comm_phi = (WeightedGraph(net.n, _edges(comm_phi_raw, "controller.comm_phi", "w"))
                    if comm_phi_raw is not None else None)
        cfg = ControllerConfig(
            k_droop=tuple(k_droop),
            k_droop_i=tuple(k_droop_i),
            k_omega=_numbers(ctrl, "k_omega", "controller"),
            k_v=_numbers(ctrl, "k_v", "controller"),
            comm_eta=comm_eta,
            comm_phi=comm_phi,
            gamma=_number(ctrl, "gamma", "controller", required=False, default=0.0),
            omega_ref=_number(ctrl, "omega_ref", "controller", required=False, default=1.0),
            variant=variant,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"controller: {exc}") from exc

    costs = None
    if "costs" in doc:
        section = _expect(doc, "costs", "", kind=dict)
        f_p, f_v = _numbers(section, "f_p", "costs"), _numbers(section, "f_v", "costs")
        try:
            costs = CostWeights(f_p=f_p, f_v=f_v)
        except ValueError as exc:
            raise ConfigError(f"costs: {exc}") from exc
        if len(costs.f_p) != net.n:
            raise ConfigError("costs.f_p: one weight per area required")

    scen = _expect(doc, "scenario", "", kind=dict)
    events = []
    for idx, ev in enumerate(_expect(scen, "disturbances", "scenario", kind=list,
                                     required=False, default=[])):
        path = f"scenario.disturbances[{idx}]"
        if not isinstance(ev, dict):
            raise ConfigError(f"{path}: expected an object")
        events.append(DisturbanceEvent(
            time=_number(ev, "time", path),
            area=_int(ev, "area", path),
            bus=_int(ev, "bus", path),
            magnitude=_number(ev, "magnitude", path),
        ))
        if not (0 <= events[-1].area < net.n):
            raise ConfigError(f"{path}.area: no such area")
        if not (0 <= events[-1].bus < areas[events[-1].area].n_buses):
            raise ConfigError(f"{path}.bus: no such bus in area {events[-1].area}")
    mode_name = _expect(scen, "mode", "scenario", kind=str, required=False, default="linear")
    try:
        mode = CouplingMode(mode_name)
    except ValueError:
        raise ConfigError(f"scenario.mode: unknown value {mode_name!r}") from None
    try:
        scenario = Scenario(
            t_end=_number(scen, "t_end", "scenario"),
            dt=_number(scen, "dt", "scenario", required=False, default=1e-3),
            disturbances=tuple(events),
            mode=mode,
            record_every=_int(scen, "record_every", "scenario", required=False, default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    if len(areas) != net.n:
        raise ConfigError(f"areas: expected {net.n} areas (one per converter), got {len(areas)}")
    return SystemConfig(net=net, areas=tuple(areas), cfg=cfg, costs=costs, scenario=scenario)


def config_to_dict(sc: SystemConfig) -> dict:
    """Serialize back to the document shape accepted by ``parse_config``."""
    doc = {
        "mtdc": {
            "v_nom": sc.net.v_nom,
            "nodes": [{"cap": c, "v_ref": v} for c, v in zip(sc.net.cap, sc.net.v_ref)],
            "lines": [{"i": ln.i, "j": ln.j, "r": ln.r, "l": ln.l, "c": ln.c,
                       "segments": ln.segments} for ln in sc.net.lines],
        },
        "areas": [],
        "controller": {
            "variant": sc.cfg.variant.value,
            "k_omega": list(sc.cfg.k_omega),
            "k_v": list(sc.cfg.k_v),
            "gamma": sc.cfg.gamma,
            "omega_ref": sc.cfg.omega_ref,
        },
        "scenario": {
            "t_end": sc.scenario.t_end,
            "dt": sc.scenario.dt,
            "mode": sc.scenario.mode.value,
            "record_every": sc.scenario.record_every,
            "disturbances": [
                {"time": ev.time, "area": ev.area, "bus": ev.bus, "magnitude": ev.magnitude}
                for ev in sc.scenario.disturbances
            ],
        },
    }
    for i, area in enumerate(sc.areas):
        doc["areas"].append({
            "generators": [
                {"inertia": m, "k_droop": kd, "k_droop_i": kdi}
                for m, kd, kdi in zip(area.inertia, sc.cfg.k_droop[i], sc.cfg.k_droop_i[i])
            ],
            "ac_lines": [{"i": a, "j": b, "k": w} for a, b, w in area.ac_lines],
            "converter_bus": area.converter_bus,
            "p_m": list(area.p_m),
        })
    if sc.cfg.comm_eta is not None:
        doc["controller"]["comm_eta"] = [
            {"i": i, "j": j, "w": w} for i, j, w in sc.cfg.comm_eta.edges]
    if sc.cfg.comm_phi is not None:
        doc["controller"]["comm_phi"] = [
            {"i": i, "j": j, "w": w} for i, j, w in sc.cfg.comm_phi.edges]
    if sc.costs is not None:
        doc["costs"] = {"f_p": list(sc.costs.f_p), "f_v": list(sc.costs.f_v)}
    return doc


def load_config(path) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)
