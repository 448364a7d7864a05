"""The value rules of the library types: every number, index, choice and
container field refuses a bad value with a ``ValueError`` that starts with the field's
name, never a ``TypeError``, an ``OverflowError`` or silent acceptance."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import mtdcsim as m
from conftest import single_gen_system

NET, _, CFG = single_gen_system(2)
SWEEP_NET, SWEEP_AREAS, SWEEP_CFG = single_gen_system(3, gamma=4.0, k_phi=8.0)
ONE_BUS = SimpleNamespace(areas=(m.AcArea(inertia=(1.0,)),))  # all that disturbance_map reads
NOT_A_NUMBER = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "True": True,
                "str": "1.0", "None": None}
NOT_FINITE = {**NOT_A_NUMBER, "1e400": 10**400, "-1e400": -10**400}
NOT_AN_INDEX = {**NOT_A_NUMBER, "2.5": 2.5}  # any integer is an index, 10**400 too

# (owner, the field as its message names it, a builder that puts the value there)
REAL_FIELDS = [
    ("WeightedGraph", "edge 0 weight", lambda v: m.WeightedGraph(2, ((0, 1, v),))),
    ("DcLine", r"line \(0,1\) r", lambda v: m.DcLine(0, 1, v)),
    ("DcLine", r"line \(0,1\) l", lambda v: m.DcLine(0, 1, 0.1, l=v)),
    ("DcLine", r"line \(0,1\) c", lambda v: m.DcLine(0, 1, 0.1, c=v)),
    ("MtdcNetwork", r"cap\[1\]", lambda v: replace(NET, cap=(0.1, v))),
    ("MtdcNetwork", "v_nom", lambda v: replace(NET, v_nom=v)),
    ("MtdcNetwork", r"v_ref\[1\]", lambda v: replace(NET, v_ref=(1.0, v))),
    ("AcArea", r"inertia\[0\]", lambda v: m.AcArea(inertia=(v,))),
    ("AcArea", r"p_m\[0\]", lambda v: m.AcArea(inertia=(1.0,), p_m=(v,))),
    ("ControllerConfig", r"k_droop\[1\]\[0\]", lambda v: replace(CFG, k_droop=((4.0,), (v,)))),
    ("ControllerConfig", r"k_droop_i\[0\]\[0\]", lambda v: replace(CFG, k_droop_i=((v,), (2.0,)))),
    ("ControllerConfig", r"k_omega\[1\]", lambda v: replace(CFG, k_omega=(10.0, v))),
    ("ControllerConfig", r"k_v\[0\]", lambda v: replace(CFG, k_v=(v, 4.0))),
    ("ControllerConfig", "gamma", lambda v: replace(CFG, gamma=v)),
    ("ControllerConfig", "omega_ref", lambda v: replace(CFG, omega_ref=v)),
    ("CostWeights", r"f_p\[1\]", lambda v: m.CostWeights(f_p=(1.0, v), f_v=(1.0, 1.0))),
    ("CostWeights", r"f_v\[0\]", lambda v: m.CostWeights(f_p=(1.0, 1.0), f_v=(v, 1.0))),
    ("DisturbanceEvent", "time", lambda v: m.DisturbanceEvent(v, 0, 0, -0.1)),
    ("DisturbanceEvent", "magnitude", lambda v: m.DisturbanceEvent(0.5, 0, 0, v)),
    ("Scenario", "t_end", lambda v: m.Scenario(t_end=v)),
    ("Scenario", "dt", lambda v: m.Scenario(t_end=1.0, dt=v)),
    ("check_assumption2", "gamma", lambda v: m.check_assumption2(v, 15.0, 1.0)),
    ("check_assumption2", "k_phi", lambda v: m.check_assumption2(4.0, v, 1.0)),
    ("check_assumption2", "v_nom", lambda v: m.check_assumption2(4.0, 15.0, v)),
    ("gain_limit_sweep", r"scales\[0\]", lambda v: m.gain_limit_sweep(SWEEP_NET, SWEEP_AREAS, SWEEP_CFG, [0.0] * 3, [v])),
    ("disturbance_map", "magnitude", lambda v: m.disturbance_map(ONE_BUS, [(0, 0, v)])),
]
INDEX_FIELDS = [
    ("WeightedGraph", "n_nodes", lambda v: m.WeightedGraph(v)),
    ("WeightedGraph", "edge 0 endpoint", lambda v: m.WeightedGraph(2, ((0, v, 1.0),))),
    ("DcLine", "i", lambda v: m.DcLine(v, 1, 0.1)),
    ("DcLine", "j", lambda v: m.DcLine(0, v, 0.1)),
    ("DcLine", r"line \(0,1\) segments", lambda v: m.DcLine(0, 1, 0.1, segments=v)),
    ("DisturbanceEvent", "area", lambda v: m.DisturbanceEvent(0.5, v, 0, -0.1)),
    ("DisturbanceEvent", "bus", lambda v: m.DisturbanceEvent(0.5, 0, v, -0.1)),
    ("Scenario", "record_every", lambda v: m.Scenario(t_end=1.0, record_every=v)),
    ("disturbance_map", "area", lambda v: m.disturbance_map(ONE_BUS, [(v, 0, -0.1)])),
    ("disturbance_map", "bus", lambda v: m.disturbance_map(ONE_BUS, [(0, v, -0.1)])),
]
SWEEP_MODEL = m.assemble_resistive(SWEEP_NET, SWEEP_AREAS, SWEEP_CFG)
# (owner, the field as its message names it, what is wrong, a call that puts it there)
CONTAINER_CASES = [
    ("ControllerConfig", "comm_eta", "edge_tuple", lambda: replace(CFG, comm_eta=((0, 1, 1.0),))),
    ("ControllerConfig", "k_omega", "None", lambda: replace(CFG, k_omega=None)),
    ("ControllerConfig", "k_droop", "None", lambda: replace(CFG, k_droop=None)),
    ("ControllerConfig", r"k_droop\[1\]", "float", lambda: replace(CFG, k_droop=((4.0,), 4.0))),
    ("AcArea", "inertia", "None", lambda: m.AcArea(inertia=None)),
    ("AcArea", "ac_lines", "None", lambda: m.AcArea(inertia=(1.0,), ac_lines=None)),
    ("CostWeights", "f_p", "None", lambda: m.CostWeights(f_p=None, f_v=(1.0, 1.0))),
    ("MtdcNetwork", "lines", "None", lambda: replace(NET, lines=None)),
    ("MtdcNetwork", r"lines\[0\]", "pair", lambda: replace(NET, lines=((0, 1),))),
    ("Scenario", "disturbances", "None", lambda: m.Scenario(t_end=1.0, disturbances=None)),
    ("Scenario", r"disturbances\[0\]", "triple",
     lambda: m.Scenario(t_end=1.0, disturbances=((0.5, 0, 0),))),
    ("WeightedGraph", "edge 0", "pair", lambda: m.WeightedGraph(2, ((0, 1),))),
    ("disturbance_map", r"disturbances\[0\]", "pair", lambda: m.disturbance_map(ONE_BUS, [(0, 0)])),
    ("equilibrium", "u", "short", lambda: m.equilibrium(SWEEP_MODEL, np.zeros(2))),
    ("equilibrium", "u", "long", lambda: m.equilibrium(SWEEP_MODEL, np.zeros(4))),
    ("equilibrium", "u", "2d", lambda: m.equilibrium(SWEEP_MODEL, np.zeros((3, 2)))),
    ("gain_limit_sweep", "u", "short",
     lambda: m.gain_limit_sweep(SWEEP_NET, SWEEP_AREAS, SWEEP_CFG, [0.0] * 2, [1.0])),
]
CHOICE_FIELDS = [
    ("ControllerConfig", "variant", lambda v: replace(CFG, variant=v)),
    ("Scenario", "mode", lambda v: m.Scenario(t_end=1.0, mode=v)),
]


def _id(owner, field):
    return f"{owner}.{field.replace(chr(92), '')}"  # the field without its regex escapes


CASES = [pytest.param(field, build, value, id=f"{_id(owner, field)}-{label}")
         for fields, values in ((REAL_FIELDS, NOT_FINITE), (INDEX_FIELDS, NOT_AN_INDEX),
                                (CHOICE_FIELDS, NOT_FINITE))
         for owner, field, build in fields for label, value in values.items()]


@pytest.mark.parametrize("field, build, value", CASES)
def test_bad_value_names_its_field(field, build, value):
    with pytest.raises(ValueError, match=f"^{field}: "):
        build(value)


@pytest.mark.parametrize("field, call", [
    pytest.param(field, call, id=f"{_id(owner, field)}-{label}")
    for owner, field, label, call in CONTAINER_CASES])
def test_bad_container_names_its_field(field, call):
    """A container of the wrong kind or length, never a ``TypeError``, an
    ``AttributeError`` or an unpacking error that names no field."""
    with pytest.raises(ValueError, match=f"^{field}: "):
        call()


@pytest.mark.parametrize("owner, field, build", REAL_FIELDS,
                         ids=[_id(owner, field) for owner, field, _ in REAL_FIELDS])
def test_real_fields_take_numpy_floats(owner, field, build):
    """The rules refuse what is not a finite number, nothing else."""
    build(np.float64(1e-3))
