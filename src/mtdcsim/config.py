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


_REQUIRED = object()


def _type_name(value) -> str:
    return "null" if value is None else type(value).__name__


def _check(value, name, kind):
    """``value`` as ``kind``: float (a finite number), int (not a bool), str,
    list or dict. JSON ``NaN``/``Infinity`` and ``null`` are wrong values."""
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number, got {_type_name(value)}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{name}: expected a finite number, got {value}")
    elif isinstance(value, bool) or not isinstance(value, kind):  # JSON true is no int
        raise ConfigError(f"{name}: expected {kind.__name__}, got {_type_name(value)}")
    return value


def _get(obj, key, path, kind, default=_REQUIRED):
    """``obj[key]`` checked by ``_check``. A missing key gives ``default``, or
    an error when there is none; a present ``null`` never stands for it."""
    name = f"{path}.{key}" if path else key  # a top-level field has no parent
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(f"{name}: missing required field")
        return default
    return _check(obj[key], name, kind)


def _numbers(obj, key, path, default=_REQUIRED):
    """A list of finite numbers, each checked under its own index path."""
    values = _get(obj, key, path, list, default)
    if values is None:
        return None
    return tuple(_check(v, f"{path}.{key}[{i}]", float) for i, v in enumerate(values))


def _objects(obj, key, path, default=_REQUIRED):
    """Yield ``(entry, entry_path)`` for each entry of a list of objects."""
    name = f"{path}.{key}" if path else key
    for idx, item in enumerate(_get(obj, key, path, list, default)):
        if not isinstance(item, dict):
            raise ConfigError(f"{name}[{idx}]: expected an object")
        yield item, f"{name}[{idx}]"


def _edges(obj, key, path, weight_key, default=_REQUIRED):
    """``(i, j, weight)`` triples from a list of edge objects."""
    return tuple((_get(e, "i", epath, int), _get(e, "j", epath, int),
                  _get(e, weight_key, epath, float))
                 for e, epath in _objects(obj, key, path, default))


def _build(path, factory, **fields):
    """``factory(**fields)``; its ``ValueError`` is reported under ``path``,
    a ``ConfigError`` passes unchanged."""
    try:
        return factory(**fields)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(doc: dict) -> SystemConfig:
    """Validate a parsed JSON document and build the domain objects."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")

    mtdc = _get(doc, "mtdc", "", dict)
    cap, v_ref = [], []
    for node, path in _objects(mtdc, "nodes", "mtdc"):
        cap.append(_get(node, "cap", path, float))
        if cap[-1] <= 0.0:
            raise ConfigError(f"{path}.cap: must be > 0")
        v_ref.append(_get(node, "v_ref", path, float, None))
    if not cap:
        raise ConfigError("mtdc.nodes: at least one node required")
    v_nom = _get(mtdc, "v_nom", "mtdc", float, 1.0)
    if None in v_ref:
        if any(v is not None for v in v_ref):
            raise ConfigError("mtdc.nodes: v_ref must be set on all nodes or none")
        v_ref = None
    lines = tuple(
        _build(path, DcLine,
               i=_get(ln, "i", path, int),
               j=_get(ln, "j", path, int),
               r=_get(ln, "r", path, float),
               l=_get(ln, "l", path, float, 0.0),
               c=_get(ln, "c", path, float, 0.0),
               segments=_get(ln, "segments", path, int, 1))
        for ln, path in _objects(mtdc, "lines", "mtdc"))
    for k, ln in enumerate(lines):
        for key in ("i", "j"):
            if not 0 <= getattr(ln, key) < len(cap):
                raise ConfigError(f"mtdc.lines[{k}].{key}: no such node")
    net = _build("mtdc", MtdcNetwork, cap=cap, lines=lines, v_nom=v_nom, v_ref=v_ref)

    areas, k_droop, k_droop_i = [], [], []
    for area, path in _objects(doc, "areas", ""):
        gens = list(_objects(area, "generators", path))
        if not gens:
            raise ConfigError(f"{path}.generators: at least one generator required")
        areas.append(_build(
            path, AcArea,
            inertia=tuple(_get(gen, "inertia", gpath, float) for gen, gpath in gens),
            ac_lines=_edges(area, "ac_lines", path, "k", ()),
            converter_bus=_get(area, "converter_bus", path, int, 0),
            p_m=_numbers(area, "p_m", path, None),
        ))
        k_droop.append(tuple(_get(gen, "k_droop", gpath, float) for gen, gpath in gens))
        k_droop_i.append(tuple(_get(gen, "k_droop_i", gpath, float) for gen, gpath in gens))
    if len(areas) != net.n:
        raise ConfigError(f"areas: expected {net.n} areas (one per converter), got {len(areas)}")

    ctrl = _get(doc, "controller", "", dict)
    variant_name = _get(ctrl, "variant", "controller", str)
    try:
        variant = Variant(variant_name)
    except ValueError:
        raise ConfigError(
            f"controller.variant: unknown value {variant_name!r}; expected one of "
            + ", ".join(v.value for v in Variant)) from None
    graphs = {key: _build(f"controller.{key}", WeightedGraph, n_nodes=net.n,
                          edges=_edges(ctrl, key, "controller", "w"))
              for key in ("comm_eta", "comm_phi") if key in ctrl}
    cfg = _build(
        "controller", ControllerConfig,
        k_droop=tuple(k_droop),
        k_droop_i=tuple(k_droop_i),
        k_omega=_numbers(ctrl, "k_omega", "controller"),
        k_v=_numbers(ctrl, "k_v", "controller"),
        gamma=_get(ctrl, "gamma", "controller", float, 0.0),
        omega_ref=_get(ctrl, "omega_ref", "controller", float, 1.0),
        variant=variant,
        **graphs,
    )

    costs = None
    if "costs" in doc:
        section = _get(doc, "costs", "", dict)
        costs = _build("costs", CostWeights, f_p=_numbers(section, "f_p", "costs"),
                       f_v=_numbers(section, "f_v", "costs"))
        if len(costs.f_p) != net.n:
            raise ConfigError("costs.f_p: one weight per area required")

    scen = _get(doc, "scenario", "", dict)
    events = []
    for ev, path in _objects(scen, "disturbances", "scenario", ()):
        events.append(_build(
            path, DisturbanceEvent,
            time=_get(ev, "time", path, float),
            area=_get(ev, "area", path, int),
            bus=_get(ev, "bus", path, int),
            magnitude=_get(ev, "magnitude", path, float),
        ))
        if not (0 <= events[-1].area < net.n):
            raise ConfigError(f"{path}.area: no such area")
        if not (0 <= events[-1].bus < areas[events[-1].area].n_buses):
            raise ConfigError(f"{path}.bus: no such bus in area {events[-1].area}")
    mode_name = _get(scen, "mode", "scenario", str, "linear")
    try:
        mode = CouplingMode(mode_name)
    except ValueError:
        raise ConfigError(f"scenario.mode: unknown value {mode_name!r}") from None
    scenario = _build(
        "scenario", Scenario,
        t_end=_get(scen, "t_end", "scenario", float),
        dt=_get(scen, "dt", "scenario", float, 1e-3),
        disturbances=tuple(events),
        mode=mode,
        record_every=_get(scen, "record_every", "scenario", int, 1),
    )
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
