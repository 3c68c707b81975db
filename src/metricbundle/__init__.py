"""Non-Hermitian quantum dynamics with a co-evolved Hilbert-space metric.

Evolves states, the metric, left/right propagators, and the vielbein on one
time grid, transports observables into the Schroedinger, Heisenberg, and
Heisenberg-like pictures, and certifies the equivalence identities between
them numerically.

The names below are imported from their submodules on first access (PEP 562),
so importing one submodule, such as `metricbundle.cli`, loads only what it uses.
"""

import importlib

_EXPORTS = {
    "MetricBundleError": "errors",
    "EvolutionBundle": "evolution",
    "closed_form_metric": "evolution",
    "integrate": "evolution",
    "IntegratorConfig": "model",
    "MetricInit": "model",
    "OperatorSpec": "model",
    "Scenario": "model",
    "load_scenario": "model",
    "save_scenario": "model",
    "solve_stationary_metric": "model",
    "VerificationReport": "verify",
    "budget": "verify",
    "run_suite": "verify",
    "builtin_models": "zoo",
    "get_demo": "zoo",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
