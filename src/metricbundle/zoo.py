"""Built-in demo scenarios: a small zoo of two-level systems.

A demo is its physics parameters (the coupling s, and the gain/loss rate
gamma where it has one). Every demo starts from |0> with the three Pauli
observables over [0, 10] at step 1e-3; `get_demo` replaces t0, t1 and step
through `model.with_overrides`, as the CLI does for a scenario file.

The dimer family H = s*sigma_x + i*gamma*sigma_z straddles the exceptional
point at gamma/s = 1: the spectrum is real for gamma/s < 1 (unbroken phase,
a positive-definite stationary metric exists), coalesces at 0 for
gamma/s = 1, and forms a complex-conjugate pair for gamma/s > 1 (broken
phase, no positive-definite stationary metric).
"""

from __future__ import annotations

import inspect
import math
from typing import Callable

import numpy as np

from .errors import SchemaError
from .matops import SIGMA_X, SIGMA_Y, SIGMA_Z
from .model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    Scenario,
    constant_operator,
    with_overrides,
)

__all__ = ["builtin_models", "get_demo", "DEMO_PREFIX"]

DEMO_PREFIX = "demo:"

_PAULI_OBSERVABLES = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
}


def _operator(terms) -> OperatorSpec:
    return OperatorSpec([ProfileTerm.parse(source, matrix) for source, matrix in terms])


def _demo(name: str, hamiltonian, metric_mode: str,
          expected_failures=("conventional_dagger_transport",), **extra_observables) -> Scenario:
    """A demo from its Hamiltonian and extra observables, as (coefficient, matrix) terms."""
    observables = {k: constant_operator(v) for k, v in _PAULI_OBSERVABLES.items()}
    observables.update({k: _operator(v) for k, v in extra_observables.items()})
    return Scenario(
        hamiltonian=_operator(hamiltonian),
        metric_init=MetricInit(metric_mode),
        psi0=np.array([1.0, 0.0], dtype=complex),
        observables=observables,
        t0=0.0,
        t1=10.0,
        integrator=IntegratorConfig(step=1e-3),
        name=name,
        expected_failures=expected_failures,
    )


def _dimer(s: float, gamma: float) -> list:
    return [(repr(float(s)), SIGMA_X), (repr(float(gamma)), 1j * SIGMA_Z)]


def make_hermitian_rabi(s: float = 1.0) -> Scenario:
    return _demo("hermitian-rabi", [(repr(float(s)), SIGMA_X)], "identity", ())


def make_pt_dimer_unbroken(s: float = 1.0, gamma: float = 0.5) -> Scenario:
    return _demo("pt-dimer-unbroken", _dimer(s, gamma), "stationary")


def make_pt_dimer_broken(s: float = 1.0, gamma: float = 1.5) -> Scenario:
    # In the broken phase the propagators grow exponentially; identities that
    # are exact in exact arithmetic drown in the conditioning, and the metric
    # loses numerical positivity. Those checks are declared expected-to-fail.
    return _demo("pt-dimer-broken", _dimer(s, gamma), "identity", (
        "conventional_dagger_transport", "metric_positive_definite", "propagator_inverse",
        "metric_closed_form", "vielbein_reconstructs_metric", "norm_conservation",
        "expectation_s_vs", "isospectral_", "heisenberg_eom_fd", "heisenberg_like_eom_fd",
        "commutator_transport", "metric_hermitian",
    ))


def make_pt_ep(s: float = 1.0) -> Scenario:
    return _demo("pt-ep", _dimer(s, s), "identity")


def make_driven_dimer(s: float = 1.0, gamma: float = 0.5) -> Scenario:
    terms = [(repr(float(s)), SIGMA_X), (f"{float(gamma)!r} * sin(t)", 1j * SIGMA_Z)]
    return _demo("driven-dimer", terms, "identity")


def make_time_dependent_observable(s: float = 1.0, gamma: float = 0.5) -> Scenario:
    return _demo("time-dependent-observable", _dimer(s, gamma), "stationary",
                 rotating=[("cos(t)", SIGMA_X), ("sin(t)", SIGMA_Y)])


def builtin_models() -> dict[str, Callable[..., Scenario]]:
    return {
        "hermitian-rabi": make_hermitian_rabi,
        "pt-dimer-unbroken": make_pt_dimer_unbroken,
        "pt-dimer-broken": make_pt_dimer_broken,
        "pt-ep": make_pt_ep,
        "driven-dimer": make_driven_dimer,
        "time-dependent-observable": make_time_dependent_observable,
    }


def get_demo(name: str, *, t0: float | None = None, t1: float | None = None,
             step: float | None = None, **params: float) -> Scenario:
    """Demo `name` at the physics parameters `params`; t0, t1 and step as in with_overrides."""
    models = builtin_models()
    if name not in models:
        raise SchemaError(
            f"unknown demo model {name!r}; available: {', '.join(sorted(models))}", ""
        )
    factory = models[name]
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise SchemaError(f"demo {name!r} takes no parameter {unknown[0]!r}", "")
    for key, value in params.items():
        if not math.isfinite(value):
            raise SchemaError(f"demo {name!r} parameter {key!r} must be finite, got {value!r}", "")
    return with_overrides(factory(**params), t0=t0, t1=t1, step=step)
