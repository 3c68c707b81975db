"""Identity suite over an evolution bundle, with named residuals and budgets.

Every analytic identity the evolution is supposed to satisfy is measured as a
drift norm and compared against a budget derived from the integrator
configuration. Scenarios may declare checks that are *supposed* to fail
(physics says no — e.g. positive-definiteness in the broken phase, or the
conventional-transport control for any genuinely non-Hermitian Hamiltonian);
those are reported but do not count as suite failures.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import representations as rep
from .errors import MetricBundleError
from .evolution import EvolutionBundle, closed_form_metric, rhs_vielbein
from .matops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    frobenius,
    hermitian_deviation,
    inverse,
    min_eig_hermitian,
    sorted_eigenvalues,
)
from .model import Scenario, scenario_to_json_dict

__all__ = ["CheckResult", "VerificationReport", "budget", "run_suite", "render_table"]

# Budget model: one quartic-in-step truncation term plus a rounding floor.
# Constants frozen after bring-up calibration against the demo zoo: at
# step 1e-3 over a span of 10 the base budget is 1e-8, two decades above the
# measured drift of the unbroken-phase demos.
BUDGET_STEP_COEFF = 1000.0
BUDGET_ROUNDING_COEFF = 100.0

# The metric Hermiticity drift is an order of magnitude tighter than the
# generic budget; the Heisenberg-EOM finite-difference check carries its own
# O(delta^2) differencing error on top of the base budget.
HERMITICITY_BUDGET_FACTOR = 0.1
EOM_FD_COEFF = 10.0


def budget(step: float, span: float, dim: int) -> float:
    """Combined drift budget for one integration run."""
    eps = float(np.finfo(float).eps)
    return BUDGET_STEP_COEFF * step**4 * span + BUDGET_ROUNDING_COEFF * eps * dim**2


@dataclass(frozen=True)
class CheckResult:
    """A check's largest residual and its budget. It passes when residual <= budget, the one
    verdict rule: a check that raised (error) or was not evaluated has residual inf, and fails."""

    name: str
    residual: float
    budget: float
    context: str = ""
    expected_fail: bool = False
    error: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.budget

    def to_json_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "residual": self.residual,
            "budget": self.budget,
            "pass": self.passed,
            "context": self.context,
        }
        if self.expected_fail:
            doc["expected_fail"] = True
        if self.error:
            doc["error"] = self.error
        return doc


@dataclass(frozen=True)
class VerificationReport:
    scenario_digest: str
    scenario_name: str
    integrator: dict[str, Any]
    base_budget: float
    checks: tuple[CheckResult, ...]

    @property
    def unexpected_failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed and not c.expected_fail]

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(c.passed for c in self.checks)
        return {
            "total": len(self.checks),
            "passed": passed,
            "failed": len(self.checks) - passed,
            "unexpected_failed": len(self.unexpected_failures),
        }

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "scenario_digest": self.scenario_digest,
            "scenario_name": self.scenario_name,
            "integrator": self.integrator,
            "base_budget": self.base_budget,
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def scenario_digest(scenario: Scenario) -> str:
    doc = json.dumps(scenario_to_json_dict(scenario), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _sample_indices(n_nodes: int, stride: int) -> np.ndarray:
    idx = list(range(0, n_nodes, stride))
    if idx[-1] != n_nodes - 1:
        idx.append(n_nodes - 1)
    return np.array(idx)


def _once(compute):
    """Memoize compute per argument tuple, to its value or to the MetricBundleError
    it raised, which every later call with those arguments raises again."""
    memo: dict[tuple, tuple[bool, Any]] = {}

    def once(*args):
        if args not in memo:
            try:
                memo[args] = (True, compute(*args))
            except MetricBundleError as exc:
                memo[args] = (False, exc)
        ok, value = memo[args]
        if not ok:
            raise value
        return value

    return once


def run_suite(
    bundle: EvolutionBundle,
    scenario: Scenario,
    node_stride: int = 10,
) -> VerificationReport:
    """Run every identity check on a bundle; never aborts on a failing check.

    Each check family is evaluated once on the stacked sampled nodes, as one
    residual per node; the report keeps the largest and the first node that
    attains it. A run too short for node_stride is sampled at max(1, (n_nodes - 1) // 2),
    so the EOM difference reads sampled nodes only. Raises ValueError unless node_stride
    is an integer (not a bool) of at least 1.
    """
    if not isinstance(node_stride, numbers.Integral) or isinstance(node_stride, bool):
        raise ValueError(f"node_stride must be an integer, got {node_stride!r}")
    if node_stride < 1:
        raise ValueError(f"node_stride must be at least 1, got {node_stride}")
    span = float(bundle.ts[-1] - bundle.ts[0])
    base = budget(bundle.step, span, bundle.dim)
    stride = max(1, min(int(node_stride), (bundle.n_nodes - 1) // 2))
    nodes = _sample_indices(bundle.n_nodes, stride)
    over_nodes = f"max over {len(nodes)} nodes"
    results: list[CheckResult] = []

    def add(name, check_budget, residuals, at=nodes, context=over_nodes):
        residual, error = float("inf"), ""
        try:
            with np.errstate(all="ignore"):  # a non-finite residual fails
                values = residuals()
        except MetricBundleError as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            if len(values):
                worst = int(np.argmax(values))
                residual, context = float(values[worst]), f"node {at[worst]}"
            else:  # only the EOM checks can have no node: see inner below
                error = ("not evaluated: no sampled node has its central-difference "
                         "neighbours on the grid")
        expected_fail = any(name.startswith(p) for p in scenario.expected_failures)
        results.append(CheckResult(name, residual, check_budget, context, expected_fail, error))

    ts = bundle.ts[nodes]
    u_l, u_r, g = bundle.u_l[nodes], bundle.u_r[nodes], bundle.g[nodes]
    eye = np.eye(bundle.dim)

    # The Heisenberg equation of motion, in the H and the HL picture, vs a
    # central finite difference of the transported operator (independent of
    # the commutator path), at the positions in nodes whose two neighbours
    # lie one stride away. With no such node the checks are not evaluated,
    # and fail.
    delta = stride * bundle.step
    fd_budget = base + EOM_FD_COEFF * delta**2
    inner = np.flatnonzero((nodes >= stride) & (nodes + stride < bundle.n_nodes))

    # Shared inputs are evaluated once, on first use, to a value or an error;
    # an error is then reported by every check that needs the input. E is
    # formed once at the sampled nodes and inverted there: a node where E is
    # refused fails every check that inverts E, as a node where an observable
    # is not finite fails every check of it.
    e = _once(lambda: bundle.e_at(nodes))
    e_inv = _once(lambda: inverse(e()))

    # Propagator inverse identity.
    add("propagator_inverse_left", base, lambda: frobenius(u_l @ u_r - eye))
    add("propagator_inverse_right", base, lambda: frobenius(u_r @ u_l - eye))

    # Metric health and cross-checks.
    add("metric_hermitian", base * HERMITICITY_BUDGET_FACTOR, lambda: hermitian_deviation(g))
    add("metric_positive_definite", 0.0, lambda: -min_eig_hermitian(g))
    add("metric_closed_form", base, lambda: frobenius(g - closed_form_metric(bundle, nodes)))
    add("vielbein_reconstructs_metric", base, lambda: frobenius(adjoint(e()) @ e() - g))

    def norm_drift():
        norms = rep.expectation_schrodinger(bundle, nodes, eye)
        return np.abs(norms - norms[0])  # nodes[0] is node 0

    add("norm_conservation", base, norm_drift)

    h_s = _once(lambda: scenario.hamiltonian.assemble_many(ts))

    # Zero-gauge generator residual: both terms are built from the same
    # vielbein, so the cancellation is exact up to rounding.
    add("hermitized_generator_gauge", base, lambda: frobenius(
        rep.hermitized_hamiltonian(h_s(), e(), e_inv(), rhs_vielbein(h_s(), e()))))

    # The frozen-state pictures, which share one equation of motion: check
    # suffix, EOM check name, transport of an operator at positions in nodes,
    # frozen state (a shared input). The transports are read from the module
    # at call time, where a tracer may have wrapped them.
    pictures = (
        ("h", "heisenberg", lambda o, at: rep.to_heisenberg(o, bundle, nodes[at]),
         _once(lambda: rep.schrodinger_state(bundle, 0))),
        ("hl", "heisenberg_like", lambda o, at: rep.to_heisenberg_like(o, e()[at], e_inv()[at]),
         _once(lambda: rep.heisenberg_like_state(bundle))),
    )
    # H in each picture, where the EOM checks read it.
    h_in = _once(lambda transport: transport(h_s()[inner], inner))

    def observable_checks(obs_name, obs):
        o_s = _once(lambda: obs.assemble_many(ts))
        exp_s = _once(lambda: rep.expectation_schrodinger(bundle, nodes, o_s()))
        # A constant O_S has one spectrum, which the isospectral checks broadcast over the nodes.
        spectrum_s = _once(lambda: sorted_eigenvalues(
            o_s() if obs.constant is None else obs.constant))
        dt_s = _once(lambda: obs.differentiate().assemble_many(ts[inner]))
        o_in = _once(lambda transport: transport(o_s(), slice(None)))  # O in each picture

        def eom_fd(transport):
            if not len(inner):
                return np.zeros(0)
            o_p = o_in(transport)
            fd = (o_p[inner + 1] - o_p[inner - 1]) / (2 * delta)
            return frobenius(fd - rep.heisenberg_rhs(
                o_p[inner], h_in(transport), transport(dt_s(), inner)))

        for suffix, _, transport, state in pictures:
            add(f"expectation_s_vs_{suffix}[{obs_name}]", base,
                lambda transport=transport, state=state:
                    np.abs(exp_s() - rep.expectation(state(), o_in(transport))))
        for suffix, _, transport, _ in pictures:
            add(f"isospectral_{suffix}[{obs_name}]", base,
                lambda transport=transport: np.max(np.abs(
                    sorted_eigenvalues(o_in(transport)) - spectrum_s()), axis=-1))
        for _, eom_name, transport, _ in pictures:
            add(f"{eom_name}_eom_fd[{obs_name}]", fd_budget,
                lambda transport=transport: eom_fd(transport), at=nodes[inner])

    for obs_name, obs in scenario.observables.items():
        observable_checks(obs_name, obs)

    if bundle.dim == 2:
        # Commutator transport for the su(2) pairs.
        for pair_name, a, b in (("sx_sy", SIGMA_X, SIGMA_Y), ("sx_sz", SIGMA_X, SIGMA_Z),
                                ("sy_sz", SIGMA_Y, SIGMA_Z)):
            add(f"commutator_transport[{pair_name}]", base,
                lambda a=a, b=b: rep.commutator_gap(rep.to_heisenberg, a, b, bundle, nodes))

        # Conventional-transport negative control: for a genuinely non-Hermitian
        # Hamiltonian this check is EXPECTED to fail (that is the point).
        t_target = min(bundle.ts[0] + 1.0, bundle.ts[-1])
        i = min(int(round((t_target - bundle.ts[0]) / bundle.step)), bundle.n_nodes - 1)
        near = np.array([i])
        add("conventional_dagger_transport", base,
            lambda: rep.commutator_gap(
                rep.naive_dagger_transport, SIGMA_X, SIGMA_Y, bundle, near),
            at=near, context="su(2) pair near t0+1")

    return VerificationReport(
        scenario_digest=scenario_digest(scenario),
        scenario_name=scenario.name,
        integrator={
            "method": scenario.integrator.method,
            "step": bundle.step,
            "node_stride": stride,
            "tolerance_scale": 1.0,  # kept so that the report schema does not change
        },
        base_budget=base,
        checks=tuple(results),
    )


def render_table(report: VerificationReport) -> str:
    """Plain-text table, one row per check."""
    lines = [
        f"scenario: {report.scenario_name or report.scenario_digest[:12]}"
        f"  (budget {report.base_budget:.3e})",
        f"{'check':44s} {'residual':>12s} {'budget':>12s}  status",
    ]
    for c in report.checks:
        status = "pass" if c.passed else ("expected-fail" if c.expected_fail else "FAIL")
        lines.append(f"{c.name:44s} {c.residual:12.3e} {c.budget:12.3e}  {status}")
    s = report.summary
    lines.append(
        f"{s['passed']}/{s['total']} passed, "
        f"{s['unexpected_failed']} unexpected failures"
    )
    return "\n".join(lines)
