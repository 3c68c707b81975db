"""The exact-answer family (exact_family.py) as an oracle for integrate and verify."""

import functools

import numpy as np
import pytest

import exact_family
from metricbundle.evolution import integrate
from metricbundle.matops import frobenius
from metricbundle.representations import expectation_schrodinger
from metricbundle.verify import run_suite


@functools.cache
def run(n: int):
    """scenario(n) at g 0.3, w 0.7, t1 2 and step 1e-3, its bundle and the exact answers."""
    scenario = exact_family.scenario(n)
    bundle = integrate(scenario)
    return scenario, bundle, exact_family.exact(n, bundle.ts)


def largest_relative_error(values, exact) -> float:
    """The largest relative error at any node, in the Frobenius norm for matrices."""
    if np.ndim(exact) == 1:
        return float(np.max(np.abs(values - exact) / np.abs(exact)))
    return float(np.max(frobenius(values - exact) / frobenius(exact)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_channels_and_expectation_match_the_exact_answer(n):
    scenario, bundle, exact = run(n)
    assert len(scenario.hamiltonian.terms) == 4 * n - 3
    x = expectation_schrodinger(
        bundle, slice(None), scenario.observables["x"].assemble_many(bundle.ts))
    # Measured: U_R 6.1e-12, 8.2e-13, 1.1e-10; U_L 3.8e-12, 1.4e-12, 8.9e-11;
    # <x> 3.6e-12, 7.1e-13, 9.1e-11; G 2.8e-14, 2.2e-13, 4.8e-12.
    for channel, values in (("u_r", bundle.u_r), ("u_l", bundle.u_l), ("x", x)):
        assert largest_relative_error(values, exact[channel]) <= 1e-9, channel
    assert largest_relative_error(bundle.g, exact["g"]) <= 5e-11


def test_convergence_orders_on_the_family():
    # Criterion 11's windows on a time-dependent H with a dynamical metric:
    # U_R's error falls 16x per halving, max ||U_L U_R - I|| 32x.
    errors, inverse_residuals = [], []
    for step in (0.04, 0.02, 0.01, 0.005):
        scenario = exact_family.scenario(4, t1=1.0, step=step)
        bundle = integrate(scenario)
        exact = exact_family.exact(4, bundle.ts)
        errors.append(np.max(frobenius(bundle.u_r - exact["u_r"])))
        inverse_residuals.append(np.max(frobenius(bundle.u_l @ bundle.u_r - np.eye(4))))
    for a, b in zip(errors, errors[1:]):
        assert 16.0 * 0.8 <= a / b <= 16.0 * 1.2, errors
    for a, b in zip(inverse_residuals, inverse_residuals[1:]):
        assert 32.0 * 0.8 <= a / b <= 32.0 * 1.2, inverse_residuals


CONTROL = "conventional_dagger_transport"
EOM_FD = ["heisenberg_eom_fd[x]", "heisenberg_like_eom_fd[x]"]


@pytest.mark.parametrize("n, failed, total", [
    (2, [CONTROL], 18),  # the declared control only
    # False alarms: the answer is exact to 1e-10, yet the EOM finite
    # differences read 2.3e-3 (n = 4) and 2.3e-2 (n = 8) against 1e-3. This
    # is the baseline for budgets derived from H; it is neither declared nor
    # given a larger budget.
    (4, EOM_FD, 14),
    (8, EOM_FD, 14),
])
def test_verify_baseline(n, failed, total):
    scenario, bundle, _ = run(n)
    report = run_suite(bundle, scenario)
    assert [c.name for c in report.checks if not c.passed] == failed
    assert [c.name for c in report.unexpected_failures] == [f for f in failed if f != CONTROL]
    assert len(report.checks) == total
