"""Numerical laboratory for zero-set lower bounds under sup-norm perturbation.

Builds extremal continuous maps with a prescribed modulus of continuity,
certifies how many zero components every small perturbation must keep
(Poincare-Miranda cube certification), constructs adversarial
perturbations realizing upper counts, and sweeps the budget to compare
empirical counts with the theoretical envelopes.

``import translab`` loads the certify core: ``errors``, ``modulus``,
``funcrep``, ``extremal``, ``chart`` and ``certifier``.  The adversary
and the sweep driver, with their public names, load on first access
(PEP 562) and are then cached in this module.
"""

from importlib import import_module as _import_module

from .certifier import (
    Certificate,
    LevelCount,
    certify,
    enumerate_cubes,
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

_LAZY = {
    "adversary": ("flatten_perturbation", "improvement_envelope", "iterate_improvement", "refine_interpolant",
                  "theory_upper_curve"),
    "driver": ("SweepConfig", "SweepRecord", "fit_slope", "parse_config", "read_csv", "sweep", "write_csv"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

# ``from translab import *`` gives every public name, submodules included
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_LAZY_OWNER))


def __getattr__(name: str):
    """Load a lazy submodule, or the one owning a lazy name, and cache the result here."""
    owner = _LAZY_OWNER.get(name, name)
    if owner not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{owner}", __name__)
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
