"""Built-in demo scenarios: a small zoo of two-level systems.

The dimer family H = s*sigma_x + i*gamma*sigma_z straddles the exceptional
point at gamma/s = 1: the spectrum is real for gamma/s < 1 (unbroken phase,
a positive-definite stationary metric exists), coalesces at 0 for
gamma/s = 1, and forms a complex-conjugate pair for gamma/s > 1 (broken
phase, no positive-definite stationary metric).
"""

from __future__ import annotations

import inspect
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
)

__all__ = ["builtin_models", "get_demo", "DEMO_PREFIX"]

DEMO_PREFIX = "demo:"

_PAULI_OBSERVABLES = {
    "sigma_x": SIGMA_X,
    "sigma_y": SIGMA_Y,
    "sigma_z": SIGMA_Z,
}


def _base_kwargs(t0, t1, step):
    return dict(
        psi0=np.array([1.0, 0.0], dtype=complex),
        observables={k: constant_operator(v) for k, v in _PAULI_OBSERVABLES.items()},
        t0=t0,
        t1=t1,
        integrator=IntegratorConfig(step=step),
    )


def _dimer_hamiltonian(s: float, gamma: float) -> OperatorSpec:
    return OperatorSpec(
        [
            ProfileTerm.parse(repr(float(s)), SIGMA_X),
            ProfileTerm.parse(repr(float(gamma)), 1j * SIGMA_Z),
        ]
    )


def make_hermitian_rabi(s: float = 1.0, t0: float = 0.0, t1: float = 10.0,
                        step: float = 1e-3) -> Scenario:
    return Scenario(
        hamiltonian=OperatorSpec([ProfileTerm.parse(repr(float(s)), SIGMA_X)]),
        metric_init=MetricInit("identity"),
        name="hermitian-rabi",
        **_base_kwargs(t0, t1, step),
    )


def make_pt_dimer_unbroken(s: float = 1.0, gamma: float = 0.5, t0: float = 0.0,
                           t1: float = 10.0, step: float = 1e-3) -> Scenario:
    return Scenario(
        hamiltonian=_dimer_hamiltonian(s, gamma),
        metric_init=MetricInit("stationary"),
        name="pt-dimer-unbroken",
        expected_failures=("conventional_dagger_transport",),
        **_base_kwargs(t0, t1, step),
    )


def make_pt_dimer_broken(s: float = 1.0, gamma: float = 1.5, t0: float = 0.0,
                         t1: float = 10.0, step: float = 1e-3) -> Scenario:
    # In the broken phase the propagators grow exponentially; identities that
    # are exact in exact arithmetic drown in the conditioning, and the metric
    # loses numerical positivity. Those checks are declared expected-to-fail.
    return Scenario(
        hamiltonian=_dimer_hamiltonian(s, gamma),
        metric_init=MetricInit("identity"),
        name="pt-dimer-broken",
        expected_failures=(
            "conventional_dagger_transport",
            "metric_positive_definite",
            "propagator_inverse",
            "metric_closed_form",
            "vielbein_reconstructs_metric",
            "norm_conservation",
            "expectation_s_vs",
            "isospectral_",
            "heisenberg_eom_fd",
            "heisenberg_like_eom_fd",
            "commutator_transport",
            "metric_hermitian",
        ),
        **_base_kwargs(t0, t1, step),
    )


def make_pt_ep(s: float = 1.0, t0: float = 0.0, t1: float = 10.0,
               step: float = 1e-3) -> Scenario:
    return Scenario(
        hamiltonian=_dimer_hamiltonian(s, s),
        metric_init=MetricInit("identity"),
        name="pt-ep",
        expected_failures=("conventional_dagger_transport",),
        **_base_kwargs(t0, t1, step),
    )


def make_driven_dimer(s: float = 1.0, gamma: float = 0.5, t0: float = 0.0,
                      t1: float = 10.0, step: float = 1e-3) -> Scenario:
    hamiltonian = OperatorSpec(
        [
            ProfileTerm.parse(repr(float(s)), SIGMA_X),
            ProfileTerm.parse(f"{float(gamma)!r} * sin(t)", 1j * SIGMA_Z),
        ]
    )
    return Scenario(
        hamiltonian=hamiltonian,
        metric_init=MetricInit("identity"),
        name="driven-dimer",
        expected_failures=("conventional_dagger_transport",),
        **_base_kwargs(t0, t1, step),
    )


def make_time_dependent_observable(s: float = 1.0, gamma: float = 0.5,
                                   t0: float = 0.0, t1: float = 10.0,
                                   step: float = 1e-3) -> Scenario:
    base = _base_kwargs(t0, t1, step)
    base["observables"]["rotating"] = OperatorSpec(
        [
            ProfileTerm.parse("cos(t)", SIGMA_X),
            ProfileTerm.parse("sin(t)", SIGMA_Y),
        ]
    )
    return Scenario(
        hamiltonian=_dimer_hamiltonian(s, gamma),
        metric_init=MetricInit("stationary"),
        name="time-dependent-observable",
        expected_failures=("conventional_dagger_transport",),
        **base,
    )


def builtin_models() -> dict[str, Callable[..., Scenario]]:
    return {
        "hermitian-rabi": make_hermitian_rabi,
        "pt-dimer-unbroken": make_pt_dimer_unbroken,
        "pt-dimer-broken": make_pt_dimer_broken,
        "pt-ep": make_pt_ep,
        "driven-dimer": make_driven_dimer,
        "time-dependent-observable": make_time_dependent_observable,
    }


def get_demo(name: str, **overrides) -> Scenario:
    models = builtin_models()
    if name not in models:
        raise SchemaError(
            f"unknown demo model {name!r}; available: {', '.join(sorted(models))}",
            "/name",
        )
    factory = models[name]
    unknown = sorted(set(overrides) - set(inspect.signature(factory).parameters))
    if unknown:
        raise SchemaError(f"demo {name!r} takes no parameter {unknown[0]!r}", "")
    return factory(**overrides)
