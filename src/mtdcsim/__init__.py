"""Deterministic workbench for frequency control of asynchronous AC grids
coupled through a multi-terminal HVDC network: plant models, controller
laws, closed-loop assembly, stability/optimality analysis, and fixed-step
simulation."""

from importlib.resources import files

from .analysis import (
    CertificateClass,
    EquilibriumReport,
    StabilityReport,
    UnstableSystemError,
    check_assumption1,
    check_assumption2,
    gain_limit_sweep,
    equilibrium,
    hurwitz,
    lyapunov_certificate,
    stability_report,
)
from .assembly import (
    ClosedLoopModel,
    NonFiniteModelError,
    assemble_pi_link,
    assemble_resistive,
    baseline_disturbance,
    disturbance_map,
    reduce_model,
)
from .config import ConfigError, SystemConfig, load_config, parse_config
from .control import (
    ControllerConfig,
    CostWeights,
    CouplingMode,
    Variant,
    gains_from_costs,
)
from .netgraph import WeightedGraph, connectivity, laplacian, line_incidence, ones_complement
from .plant import AcArea, DcLine, MtdcNetwork, mtdc_resistive_matrices, pi_link_matrices
from .sim import (
    DisturbanceEvent,
    IntegrationError,
    Scenario,
    Trajectory,
    integrate,
)

__version__ = "0.1.0"


def reference_config_path() -> str:
    """Path of the bundled six-terminal reference configuration."""
    return str(files("mtdcsim").joinpath("data/paper_sec6.cfg"))
