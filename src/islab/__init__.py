"""islab: a numerical laboratory for area-preserving surface dynamics.

Subpackages/modules:

- maps: map descriptors, composition/inversion, the linear torus
  automorphism, standard-family kicks, shears and Henon-form maps
- hamiltonian: implicit-midpoint time maps with exact variational Jacobians
- blowup: per-center surgery charts, the surgered torus map, boundary saddles
- lyapunov: exponent estimators, entropy grids, cone certificates
- curves: graph curves, periodic functions, graph transforms, bump partitions
- links: the near-linking model, splitting functionals, link restoration,
  time-energy charts
- rescaling: saddle normal forms, transition maps, rescaling charts,
  Henon-product comparison
- config / cli: flat key=value experiment configs, the `islab` command
"""

from .maps import (
    MapDescriptor,
    anosov_map,
    chirikov_map,
    compose,
    finite_difference_jacobian,
    henon_like,
    identity_map,
    quarter_turn,
    rotation_map,
    shear_map,
    torus_diff,
    wrap_torus,
)
from .hamiltonian import HamiltonianSystem, energy_drift, hamiltonian_time_map, saddle_system
from .blowup import IslandMap, SurgeryProfile, link_saddles
from .lyapunov import cone_certificate, entropy_estimate, max_lyapunov
from .curves import (
    BumpFn,
    GraphCurve,
    MaskedPeriodic,
    PartitionBump,
    PeriodicFn,
    StepFn,
    TransversalityError,
    curve_sup_diff,
    graph_transform,
    random_trig_poly,
    straight_curve,
)
from .links import (
    LinkGeometry,
    PsiChart,
    SuitableModel,
    TimeEnergyChart,
    build_suitable_model,
    restore_link_a,
    restore_link_b,
    splitting_a,
    splitting_b,
    stable_curve,
    time_energy_chart,
    unstable_curve,
)
from .rescaling import (
    RescalingCharts,
    RescalingModel,
    SaddleNormalForm,
    TransitionMap,
    build_perturbation,
    build_transition,
    corollary_composition,
    desk_model,
    r_sequence,
    saddle_normal_form,
    verify_rescaling,
    xi_eta,
)
from .config import ConfigError, ExperimentConfig
from .cli import emit_plot_data, run

__all__ = [
    "MapDescriptor",
    "anosov_map",
    "chirikov_map",
    "compose",
    "finite_difference_jacobian",
    "henon_like",
    "identity_map",
    "quarter_turn",
    "rotation_map",
    "shear_map",
    "torus_diff",
    "wrap_torus",
    "HamiltonianSystem",
    "energy_drift",
    "hamiltonian_time_map",
    "saddle_system",
    "IslandMap",
    "SurgeryProfile",
    "link_saddles",
    "cone_certificate",
    "entropy_estimate",
    "max_lyapunov",
    "BumpFn",
    "GraphCurve",
    "MaskedPeriodic",
    "PartitionBump",
    "PeriodicFn",
    "StepFn",
    "TransversalityError",
    "curve_sup_diff",
    "graph_transform",
    "random_trig_poly",
    "straight_curve",
    "LinkGeometry",
    "PsiChart",
    "SuitableModel",
    "TimeEnergyChart",
    "build_suitable_model",
    "restore_link_a",
    "restore_link_b",
    "splitting_a",
    "splitting_b",
    "stable_curve",
    "time_energy_chart",
    "unstable_curve",
    "RescalingCharts",
    "RescalingModel",
    "SaddleNormalForm",
    "TransitionMap",
    "build_perturbation",
    "build_transition",
    "corollary_composition",
    "desk_model",
    "r_sequence",
    "saddle_normal_form",
    "verify_rescaling",
    "xi_eta",
    "ConfigError",
    "ExperimentConfig",
    "emit_plot_data",
    "run",
]

__version__ = "0.1.0"
