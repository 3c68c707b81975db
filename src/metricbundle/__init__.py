"""Non-Hermitian quantum dynamics with a co-evolved Hilbert-space metric.

Evolves states, the metric, left/right propagators, and the vielbein on one
time grid, transports observables into the Schroedinger, Heisenberg, and
Heisenberg-like pictures, and certifies the equivalence identities between
them numerically.
"""

from .errors import MetricBundleError
from .evolution import EvolutionBundle, closed_form_metric, integrate
from .model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    Scenario,
    load_scenario,
    save_scenario,
    solve_stationary_metric,
)
from .verify import VerificationReport, budget, run_suite
from .zoo import builtin_models, get_demo

__all__ = [
    "MetricBundleError",
    "EvolutionBundle",
    "closed_form_metric",
    "integrate",
    "IntegratorConfig",
    "MetricInit",
    "OperatorSpec",
    "Scenario",
    "load_scenario",
    "save_scenario",
    "solve_stationary_metric",
    "VerificationReport",
    "budget",
    "run_suite",
    "builtin_models",
    "get_demo",
]

__version__ = "0.1.0"
