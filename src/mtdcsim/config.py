"""Configuration files: JSON documents describing the DC grid, the AC
areas, the controller, optional cost weights, and the simulation scenario.

The fields of each JSON object are listed once, in one table per object
(``_TOP``, ``_MTDC``, ``_NODE`` and so on), which the parser and its
unknown-key check read. Validation reports the path of the offending field
(for example ``mtdc.nodes[2].cap``) so configuration mistakes are quick to
locate; a key that no table names is refused as an ``unknown field``,
never dropped, and so is a key given twice in one object.
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


# One table per JSON object: each key maps to its kind, or to (kind, default)
# for an optional field. A kind is float, int or str, a table (a nested
# object), [float] (a list of numbers) or [table] (a list of objects). The
# parser and its unknown-key check read these tables.
_NODE = {"cap": float, "v_ref": (float, None)}
_LINE = {"i": int, "j": int, "r": float, "l": (float, 0.0), "c": (float, 0.0),
         "segments": (int, 1)}
_MTDC = {"nodes": [_NODE], "v_nom": (float, 1.0), "lines": [_LINE]}
_GENERATOR = {"inertia": float, "k_droop": float, "k_droop_i": float}
_AC_LINE = {"i": int, "j": int, "k": float}
_AREA = {"generators": [_GENERATOR], "converter_bus": (int, 0),
         "ac_lines": ([_AC_LINE], ()), "p_m": ([float], None)}
_EDGE = {"i": int, "j": int, "w": float}
_CONTROLLER = {"variant": str, "comm_eta": ([_EDGE], None), "comm_phi": ([_EDGE], None),
               "k_omega": [float], "k_v": [float], "gamma": (float, 0.0),
               "omega_ref": (float, 1.0)}
_COSTS = {"f_p": [float], "f_v": [float]}
_EVENT = {"time": float, "area": int, "bus": int, "magnitude": float}
_SCENARIO = {"disturbances": ([_EVENT], ()), "mode": (str, "linear"), "t_end": float,
             "dt": (float, 1e-3), "record_every": (int, 1)}
_TOP = {"mtdc": _MTDC, "areas": [_AREA], "controller": _CONTROLLER,
        "costs": (_COSTS, None), "scenario": _SCENARIO}


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


def _value(value, name, kind):
    """``value`` checked as a table kind: a nested object read by its table,
    a list (a tuple of its checked entries) or a ``_check`` kind."""
    if isinstance(kind, type):
        return _check(value, name, kind)
    if isinstance(kind, dict):
        return _fields(_check(value, name, dict), name, kind)
    (item,), entries = kind, []
    for idx, entry in enumerate(_check(value, name, list)):
        if not isinstance(item, dict):
            entries.append(_check(entry, f"{name}[{idx}]", item))
        elif isinstance(entry, dict):
            entries.append(_fields(entry, f"{name}[{idx}]", item))
        else:
            raise ConfigError(f"{name}[{idx}]: expected an object")
    return tuple(entries)


def _fields(obj, path, table):
    """The fields of the object ``obj`` at ``path``, in ``table`` order: each
    present one checked, each absent optional one at its default. A key the
    table does not name is refused, the first in document order; a missing
    key without a default is too. A present ``null`` never stands for a
    default."""
    prefix = f"{path}." if path else ""  # a top-level field has no parent
    if not obj.keys() <= table.keys():
        raise ConfigError(f"{prefix}{next(k for k in obj if k not in table)}: unknown field")
    fields = {}
    for key, spec in table.items():
        optional = type(spec) is tuple
        if key in obj:
            fields[key] = _value(obj[key], prefix + key, spec[0] if optional else spec)
        elif optional:
            fields[key] = spec[1]
        else:
            raise ConfigError(f"{prefix}{key}: missing required field")
    return fields


def _edges(entries):
    """``(i, j, weight)`` triples from checked edge objects."""
    return tuple(tuple(edge.values()) for edge in entries)


def _build(path, factory, **fields):
    """``factory(**fields)``; its ``ValueError`` is reported under ``path``."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_config(doc: dict) -> SystemConfig:
    """Validate a parsed JSON document and build the domain objects."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    top = _fields(doc, "", _TOP)

    mtdc = top["mtdc"]
    nodes = mtdc["nodes"]
    for k, node in enumerate(nodes):
        if node["cap"] <= 0.0:
            raise ConfigError(f"mtdc.nodes[{k}].cap: must be > 0")
    if not nodes:
        raise ConfigError("mtdc.nodes: at least one node required")
    v_ref = [node["v_ref"] for node in nodes]
    if None in v_ref:
        if any(v is not None for v in v_ref):
            raise ConfigError("mtdc.nodes: v_ref must be set on all nodes or none")
        v_ref = None
    lines = tuple(_build(f"mtdc.lines[{k}]", DcLine, **ln) for k, ln in enumerate(mtdc["lines"]))
    for k, ln in enumerate(lines):
        for key in ("i", "j"):
            if not 0 <= getattr(ln, key) < len(nodes):
                raise ConfigError(f"mtdc.lines[{k}].{key}: no such node")
    net = _build("mtdc", MtdcNetwork, cap=[node["cap"] for node in nodes], lines=lines,
                 v_nom=mtdc["v_nom"], v_ref=v_ref)

    areas = []
    for k, area in enumerate(top["areas"]):
        path = f"areas[{k}]"
        if not area["generators"]:
            raise ConfigError(f"{path}.generators: at least one generator required")
        if area["converter_bus"] != 0:
            raise ConfigError(f"{path}: converter attaches at bus 0 by convention")
        areas.append(_build(path, AcArea, inertia=tuple(g["inertia"] for g in area["generators"]),
                            ac_lines=_edges(area["ac_lines"]), p_m=area["p_m"]))
    if len(areas) != net.n:
        raise ConfigError(f"areas: expected {net.n} areas (one per converter), got {len(areas)}")

    ctrl = top["controller"]
    try:
        ctrl["variant"] = Variant(ctrl["variant"])
    except ValueError:
        raise ConfigError(
            f"controller.variant: unknown value {ctrl['variant']!r}; expected one of "
            + ", ".join(v.value for v in Variant)) from None
    for key in ("comm_eta", "comm_phi"):
        if ctrl[key] is not None:
            ctrl[key] = _build(f"controller.{key}", WeightedGraph, n_nodes=net.n,
                               edges=_edges(ctrl[key]))
    gens = [area["generators"] for area in top["areas"]]
    cfg = _build("controller", ControllerConfig, **ctrl,
                 k_droop=tuple(tuple(g["k_droop"] for g in area) for area in gens),
                 k_droop_i=tuple(tuple(g["k_droop_i"] for g in area) for area in gens))

    costs = top["costs"]
    if costs is not None:
        costs = _build("costs", CostWeights, **costs)
        if len(costs.f_p) != net.n:
            raise ConfigError("costs.f_p: one weight per area required")

    scen = top["scenario"]
    events = []
    for k, fields in enumerate(scen["disturbances"]):
        path = f"scenario.disturbances[{k}]"
        event = _build(path, DisturbanceEvent, **fields)
        if not (0 <= event.area < net.n):
            raise ConfigError(f"{path}.area: no such area")
        if not (0 <= event.bus < areas[event.area].n_buses):
            raise ConfigError(f"{path}.bus: no such bus in area {event.area}")
        events.append(event)
    scen["disturbances"] = tuple(events)
    try:
        scen["mode"] = CouplingMode(scen["mode"])
    except ValueError:
        raise ConfigError(f"scenario.mode: unknown value {scen['mode']!r}") from None
    scenario = _build("scenario", Scenario, **scen)
    return SystemConfig(net=net, areas=tuple(areas), cfg=cfg, costs=costs, scenario=scenario)


def load_config(path) -> SystemConfig:
    def unique_keys(pairs):  # json alone keeps the last value of a key given twice
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {json.dumps(key)}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8 text, or arrays nested beyond the decoder's recursion limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)
