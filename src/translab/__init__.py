"""Numerical laboratory for zero-set lower bounds under sup-norm perturbation.

Builds extremal continuous maps with a prescribed modulus of continuity,
certifies how many zero components every small perturbation must keep
(Poincare-Miranda cube certification), constructs adversarial
perturbations realizing upper counts, and sweeps the budget to compare
empirical counts with the theoretical envelopes.
"""

from .adversary import (
    flatten_many,
    flatten_perturbation,
    improvement_envelope,
    iterate_improvement,
    refine_interpolant,
    theory_upper_curve,
)
from .certifier import (
    Certificate,
    Cube,
    LevelCount,
    certify,
    cube_at,
    enumerate_cubes,
    miranda_verify,
    resolve_depth,
    theory_lower_bound,
)
from .chart import (
    Chart,
    affine_chart,
    gamma_w,
    identity_chart,
    polar_demo_chart,
    pullback_perturbation,
    transport_function,
)
from .driver import SweepConfig, SweepRecord, fit_slope, parse_config, read_csv, sweep, write_csv
from .errors import (
    ConfigError,
    DomainError,
    EnumerationCapError,
    RangeEscapeError,
    ShapeError,
    TranslabError,
)
from .extremal import (
    ExtremalFunction,
    LevelSchedule,
    ResolutionWarning,
    bump,
    level_schedule,
    profile,
    profile_many,
)
from .funcrep import (
    SampledFunction,
    ZeroSetSummary,
    count_zero_components,
    nudge_knot_zeros,
    sup_distance,
)
from .modulus import AxiomReport, ModulusSpec, check_modulus_axioms

__version__ = "0.1.0"
