import collections
import dataclasses
import json

import numpy as np
import pytest

import exact_family
from conftest import bundle_from_json_dict
from metricbundle import matops, verify
from metricbundle import representations as rep
from metricbundle.evolution import bundle_to_json_dict, integrate, to_json_parts
from metricbundle.matops import SIGMA_X, SIGMA_Y, SIGMA_Z
from metricbundle.model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    Scenario,
    constant_operator,
)
from metricbundle.verify import (
    BUDGET_ROUNDING_COEFF,
    BUDGET_STEP_COEFF,
    budget,
    render_table,
    run_suite,
)
from metricbundle.zoo import builtin_models, get_demo

EPS = float(np.finfo(float).eps)


class TestBudget:
    def test_quartic_in_step(self):
        b1 = budget(1e-2, 10.0, 2) - BUDGET_ROUNDING_COEFF * EPS * 4
        b2 = budget(5e-3, 10.0, 2) - BUDGET_ROUNDING_COEFF * EPS * 4
        assert b1 / b2 == pytest.approx(16.0)

    def test_linear_in_span(self):
        floor = BUDGET_ROUNDING_COEFF * EPS * 4
        assert (budget(1e-3, 20.0, 2) - floor) == pytest.approx(
            2 * (budget(1e-3, 10.0, 2) - floor)
        )

    def test_rounding_floor_scales_with_dim_squared(self):
        assert budget(0.0, 0.0, 4) == pytest.approx(16 * BUDGET_ROUNDING_COEFF * EPS)

    def test_reference_point(self):
        assert budget(1e-3, 10.0, 2) == pytest.approx(
            BUDGET_STEP_COEFF * 1e-12 * 10 + BUDGET_ROUNDING_COEFF * EPS * 4
        )


class TestSuiteOutcomes:
    def test_hermitian_scenario_all_pass(self, rabi_bundle):
        scenario, bundle = rabi_bundle
        report = run_suite(bundle, scenario)
        assert report.unexpected_failures == []
        assert all(c.passed for c in report.checks)
        assert report.summary["failed"] == 0

    def test_unbroken_scenario_fails_only_the_negative_control(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        report = run_suite(bundle, scenario)
        assert report.unexpected_failures == []
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["conventional_dagger_transport"]
        assert failed[0].expected_fail
        assert failed[0].residual > 0.1

    def test_driven_scenario_clean(self, driven_bundle):
        scenario, bundle = driven_bundle
        report = run_suite(bundle, scenario)
        assert report.unexpected_failures == []

    def test_zero_hamiltonian_residuals_at_rounding_level(self):
        scenario = get_demo("pt-dimer-unbroken", gamma=0.0, s=0.0, t1=1.0, step=0.01)
        report = run_suite(integrate(scenario), scenario)
        for c in report.checks:
            if c.name == "metric_positive_definite":
                continue  # residual is -min_eig = -1 by design
            assert c.residual <= 1e-14, c.name

    def test_broken_phase_failures_are_all_declared(self):
        scenario = get_demo("pt-dimer-broken")
        report = run_suite(integrate(scenario), scenario)
        assert report.unexpected_failures == []
        names = {c.name for c in report.checks if not c.passed}
        assert any(n.startswith("metric_positive_definite") for n in names)
        assert any(n.startswith("norm_conservation") for n in names)

    def test_positive_definite_check_residual_is_negated_min_eig(self, rabi_bundle):
        scenario, bundle = rabi_bundle
        report = run_suite(bundle, scenario)
        pd = next(c for c in report.checks if c.name == "metric_positive_definite")
        assert pd.residual == pytest.approx(-1.0)  # identity metric
        assert pd.budget == 0.0 and pd.passed


class TestDeterminismAndConvergence:
    def test_bitwise_deterministic(self):
        scenario = get_demo("driven-dimer", t1=2.0, step=0.01)
        r1 = run_suite(integrate(scenario), scenario)
        r2 = run_suite(integrate(scenario), scenario)
        assert r1.to_json() == r2.to_json()
        assert r1.scenario_digest == r2.scenario_digest

    def test_residuals_shrink_under_step_halving(self):
        # Checks dominated by truncation error (not the rounding floor) must
        # fall monotonically across three halvings.
        tracked = ("metric_closed_form", "propagator_inverse_left", "norm_conservation")
        history = {name: [] for name in tracked}
        for step in (0.04, 0.02, 0.01, 0.005):
            scenario = get_demo("pt-dimer-unbroken", t1=2.0, step=step)
            report = run_suite(integrate(scenario), scenario)
            by_name = {c.name: c.residual for c in report.checks}
            for name in tracked:
                history[name].append(by_name[name])
        for name, values in history.items():
            assert all(a > b for a, b in zip(values, values[1:])), (name, values)
            assert values[0] / values[-1] > 100.0, (name, values)


class TestReportShape:
    def test_reingested_bundle_gives_identical_residuals(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        direct = run_suite(bundle, scenario)
        doc = bundle_to_json_dict(bundle, scenario, {})
        back = bundle_from_json_dict(json.loads("".join(to_json_parts(doc))))
        replayed = run_suite(back, scenario)
        assert [c.residual for c in direct.checks] == [c.residual for c in replayed.checks]

    def test_json_round_trip(self, rabi_bundle):
        scenario, bundle = rabi_bundle
        report = run_suite(bundle, scenario)
        doc = json.loads(report.to_json())
        assert doc["summary"]["total"] == len(report.checks)
        assert len(doc["scenario_digest"]) == 64
        assert doc["integrator"]["step"] == bundle.step
        # The report schema keeps tolerance_scale; every budget is unscaled.
        assert doc["integrator"]["tolerance_scale"] == 1.0
        assert doc["base_budget"] == budget(bundle.step, bundle.ts[-1] - bundle.ts[0], bundle.dim)

    def test_render_table(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        text = render_table(run_suite(bundle, scenario))
        assert "conventional_dagger_transport" in text
        assert "expected-fail" in text
        assert "0 unexpected failures" in text

    @pytest.mark.parametrize("stride", [0, -3])
    def test_node_stride_below_one_is_rejected(self, pt_unbroken_bundle, stride):
        scenario, bundle = pt_unbroken_bundle
        with pytest.raises(ValueError, match="node_stride must be at least 1"):
            run_suite(bundle, scenario, node_stride=stride)

    def test_numpy_integer_stride_is_stored_as_an_int(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        report = run_suite(bundle, scenario, node_stride=np.int64(3))
        assert type(report.integrator["node_stride"]) is int
        assert json.loads(report.to_json())["integrator"]["node_stride"] == 3

    @pytest.mark.parametrize("stride", [2.5, 3.0, True, "3"])
    def test_stride_that_is_not_an_integer_is_rejected(self, pt_unbroken_bundle, stride):
        scenario, bundle = pt_unbroken_bundle
        with pytest.raises(ValueError, match="node_stride must be an integer, got"):
            run_suite(bundle, scenario, node_stride=stride)

    def test_run_suite_takes_no_tolerance_scale(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        with pytest.raises(TypeError, match="tolerance_scale"):
            run_suite(bundle, scenario, tolerance_scale=100.0)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_every_budget_is_the_unscaled_one(self, name, stride):
        # A check's budget follows from the step, span, dim and stride only:
        # the base budget, a fixed multiple of it, or for an EOM finite
        # difference the base budget plus its O(delta^2) differencing term.
        scenario = get_demo(name, t1=0.1)
        bundle = integrate(scenario)
        report = run_suite(bundle, scenario, node_stride=stride)
        base = budget(bundle.step, bundle.ts[-1] - bundle.ts[0], bundle.dim)
        delta = max(1, min(stride, (bundle.n_nodes - 1) // 2)) * bundle.step
        assert report.base_budget == base
        assert report.integrator["tolerance_scale"] == 1.0
        fixed = {"metric_hermitian": base * verify.HERMITICITY_BUDGET_FACTOR,
                 "metric_positive_definite": 0.0}
        for c in report.checks:
            if "_eom_fd[" in c.name:
                assert c.budget == base + verify.EOM_FD_COEFF * delta**2, c.name
            else:
                assert c.budget == fixed.get(c.name, base), c.name


class TestErrorPath:
    # On an identity-metric demo E0 = I, so E = E0 U_L is U_L bit for bit: a
    # singular U_L at a node is a singular vielbein there.
    @staticmethod
    def _with_singular_u_l(bundle, blocks):
        assert np.array_equal(bundle.e0, np.eye(bundle.dim))
        u_l = bundle.u_l.copy()
        for node, block in blocks.items():
            u_l[node] = block
        return dataclasses.replace(bundle, u_l=u_l)

    def test_singular_vielbein_is_reported_at_its_first_node(self):
        scenario = get_demo("driven-dimer", t1=0.5, step=0.01)  # nodes 0, 10, ..., 50
        bundle = integrate(scenario)
        singular = self._with_singular_u_l(
            bundle, {20: np.diag([3.0, 0.0]), 40: np.diag([2.0, 0.0])})
        clean = {c.name: c for c in run_suite(bundle, scenario).checks}
        report = run_suite(singular, scenario)

        error = ("SingularMatrixError: condition number exceeds cap 1.0e+12 "
                 "(sigma_min=0.000e+00, sigma_max=3.000e+00)")
        inverts_e = ("expectation_s_vs_hl", "isospectral_hl", "heisenberg_like_eom_fd",
                     "hermitized_generator_gauge")
        reads_e = ("vielbein_reconstructs_metric",)
        reads_u_l = ("propagator_inverse", "metric_closed_form", "expectation_s_vs_h[",
                     "isospectral_h[", "heisenberg_eom_fd", "commutator_transport")
        errored = [c for c in report.checks if c.name.startswith(inverts_e)]
        assert len(errored) == 3 * len(scenario.observables) + 1
        for c in errored:
            assert (c.residual, c.passed, c.context, c.error) == (
                float("inf"), False, "max over 6 nodes", error), c.name
        for c in report.checks:
            if c.name in reads_e:
                assert not c.passed and not c.error and c.context in ("node 20", "node 40")
            elif not c.name.startswith(inverts_e + reads_u_l):
                assert c == clean[c.name]

    def test_singular_vielbein_at_an_unsampled_node_changes_no_check(self):
        # 52 nodes at stride 26 are sampled at stride 25, nodes 0, 25, 50 and
        # 51: no check reads node 1, so a vielbein refused there changes nothing.
        scenario = get_demo("driven-dimer", t1=0.51, step=0.01)
        bundle = integrate(scenario)
        singular = self._with_singular_u_l(bundle, {1: np.diag([3.0, 0.0])})
        clean = run_suite(bundle, scenario, node_stride=26)
        report = run_suite(singular, scenario, node_stride=26)
        assert report.to_json() == clean.to_json()
        assert not any(c.error for c in report.checks)

    def test_observable_not_finite_at_an_unsampled_node_changes_no_check(self):
        # An observable is assembled at the sampled nodes 0, 25, 50 and 51
        # only: one with a pole at node 1 (t = 0.01) adds six finite rows and
        # changes no other row.
        scenario = get_demo("driven-dimer", t1=0.51, step=0.01)
        pole = OperatorSpec([ProfileTerm.parse("1 / (t - 0.01)", SIGMA_Z)])
        with_pole = dataclasses.replace(
            scenario, observables={**scenario.observables, "pole": pole})
        bundle = integrate(scenario)
        clean = run_suite(bundle, scenario, node_stride=26).checks
        report = run_suite(bundle, with_pole, node_stride=26).checks
        assert [c for c in report if not c.name.endswith("[pole]")] == list(clean)
        pole_rows = [c for c in report if c.name.endswith("[pole]")]
        assert [c.name for c in pole_rows] == [f"{check}[pole]" for check in OBSERVABLE_CHECKS]
        for c in pole_rows:
            assert np.isfinite(c.residual) and not c.error, c.name

    def test_a_refused_vielbein_is_inverted_once(self, monkeypatch):
        # The error of the one inverse of E at the sampled nodes (0, 25, 50
        # and 51) is what each of the ten checks that invert E reports; none
        # of them inverts E again.
        scenario = get_demo("driven-dimer", t1=0.51, step=0.01)
        singular = self._with_singular_u_l(integrate(scenario), {25: np.diag([3.0, 0.0])})
        counts = _count_calls(monkeypatch, ((verify, "inverse"),))
        report = run_suite(singular, scenario, node_stride=26)
        assert sum(c.error.startswith("SingularMatrixError") for c in report.checks) == 10
        assert counts["inverse"] == 1

    def test_an_observable_not_finite_on_the_grid_is_assembled_once(self, monkeypatch):
        # A pole at the sampled node 25 (t = 0.25) fails the six checks of its
        # observable from one assembly.
        scenario = get_demo("driven-dimer", t1=0.51, step=0.01)
        pole = OperatorSpec([ProfileTerm.parse("1 / (t - 0.25)", SIGMA_Z)])
        with_pole = dataclasses.replace(
            scenario, observables={**scenario.observables, "pole": pole})
        counts = _count_calls(monkeypatch, ((pole, "assemble_many"),))
        report = run_suite(integrate(scenario), with_pole, node_stride=26)
        assert sum(c.error.startswith("EvalError") for c in report.checks) == 6
        assert counts["assemble_many"] == 1

    def test_a_metric_with_no_cholesky_factor_at_t0_fails_every_check_that_reads_e(self):
        # E(t0) is the Cholesky factor of G(t0), so no check can read E; the
        # suite still returns its report.
        scenario = get_demo("driven-dimer", t1=0.2)
        bundle = integrate(scenario)
        g = bundle.g.copy()
        g[0] = np.diag([1.0, -1.0])
        report = run_suite(dataclasses.replace(bundle, g=g), scenario)
        assert report.summary == {"total": 30, "passed": 16, "failed": 14,
                                  "unexpected_failed": 13}
        reads_e = ("vielbein_reconstructs_metric", "hermitized_generator_gauge",
                   "expectation_s_vs_hl", "isospectral_hl", "heisenberg_like_eom_fd")
        errored = [c for c in report.checks if c.error]
        assert [c.name for c in errored] == [
            c.name for c in report.checks if c.name.startswith(reads_e)]
        assert len(errored) == 2 + 3 * len(scenario.observables) == 11
        for c in errored:
            assert (c.residual, c.passed, c.error) == (
                float("inf"), False,
                "NotPositiveDefiniteError: cholesky_upper: Matrix is not positive definite")

    @pytest.mark.parametrize("demo, t1, stride", [
        ("hermitian-rabi", 0.001, 10),  # one step: nodes 0 and 1, delta 1 node
        ("time-dependent-observable", 0.001, 3),
    ])
    def test_eom_checks_without_a_central_difference_are_not_evaluated(self, demo, t1, stride):
        scenario = get_demo(demo, t1=t1)
        report = run_suite(integrate(scenario), scenario, node_stride=stride)
        eom = [c for c in report.checks if "_eom_fd[" in c.name]
        assert len(eom) == 2 * len(scenario.observables)
        for c in eom:
            assert (c.residual, c.passed, c.context) == (float("inf"), False, "max over 2 nodes")
            assert c.error.startswith("not evaluated:"), c.name
        assert report.unexpected_failures == eom


def _pt_chain(n: int = 8, gamma: float = 0.4) -> Scenario:
    hopping = np.diag(np.ones(n - 1), 1)
    hopping = hopping + hopping.T
    gain_loss = np.zeros((n, n), dtype=complex)
    gain_loss[0, 0], gain_loss[-1, -1] = 1j, -1j
    position = np.diag(np.arange(n) - (n - 1) / 2)
    weights = np.linspace(1.0, 2.0, n)
    return Scenario(
        hamiltonian=OperatorSpec([
            ProfileTerm.parse("-1.0", hopping),
            ProfileTerm.parse(repr(gamma), gain_loss),
        ]),
        metric_init=MetricInit("stationary"),
        psi0=(weights / np.linalg.norm(weights)).astype(complex),
        observables={
            "position": constant_operator(position),
            "drifting": OperatorSpec([
                ProfileTerm.parse("cos(t)", position),
                ProfileTerm.parse("sin(2 * t)", hopping),
            ]),
        },
        t0=0.0,
        t1=0.75,
        integrator=IntegratorConfig(step=1e-3),
        name=f"pt-chain-{n}",
    )


def per_node_reference(bundle, scenario, node_stride=10):
    """Worst residual and node of nine check families, one node at a time."""
    n = bundle.n_nodes
    dn = max(1, min(node_stride, (n - 1) // 2))  # a short run is sampled at this stride
    nodes = list(range(0, n, dn))
    if nodes[-1] != n - 1:
        nodes.append(n - 1)
    eye = np.eye(bundle.dim)
    ket_hl = bundle.e_at(0) @ bundle.psi_at(0)
    frozen = {"h": (bundle.psi_at(0).conj() @ bundle.g[0], bundle.psi_at(0)),
              "hl": (ket_hl.conj(), ket_hl)}

    def spectral_distance(a, b):
        return np.max(np.abs(np.sort_complex(np.linalg.eigvals(a))
                             - np.sort_complex(np.linalg.eigvals(b))))

    def expectation_gap(i, obs, picture, transport):
        psi, o = bundle.psi_at(i), obs.assemble(bundle.ts[i])
        value_s = (psi.conj()[None, :] @ bundle.g[i] @ o @ psi[:, None])[0, 0]
        dual, ket = frozen[picture]
        return abs(value_s - (dual[None, :] @ transport(obs, i) @ ket[:, None])[0, 0])

    def o_h(obs, j):
        return bundle.u_l[j] @ obs.assemble(bundle.ts[j]) @ bundle.u_r[j]

    def o_hl(obs, j):
        e = bundle.e_at(j)
        return e @ obs.assemble(bundle.ts[j]) @ np.linalg.inv(e)

    def eom_fd(i, obs, d_obs, transport):
        if i - dn < 0 or i + dn >= n:
            return -float("inf")  # not evaluated at this node
        fd = (transport(obs, i + dn) - transport(obs, i - dn)) / (2 * dn * bundle.step)
        h_p = transport(scenario.hamiltonian, i)
        o = transport(obs, i)
        return np.linalg.norm(fd - (1j * (h_p @ o - o @ h_p) + transport(d_obs, i)))

    def commutator_gap(i, a, b):
        def heisenberg(m):
            return bundle.u_l[i] @ m @ bundle.u_r[i]

        ta, tb = heisenberg(a), heisenberg(b)
        gap = np.linalg.norm(ta @ tb - tb @ ta - heisenberg(a @ b - b @ a))
        return gap / max(1.0, np.linalg.norm(ta) * np.linalg.norm(tb))

    families = {
        "propagator_inverse_left":
            lambda i: np.linalg.norm(bundle.u_l[i] @ bundle.u_r[i] - eye),
        "metric_positive_definite":
            lambda i: -np.linalg.eigvalsh(0.5 * (bundle.g[i] + bundle.g[i].conj().T))[0],
    }
    for name, obs in scenario.observables.items():
        for picture, transport in (("h", o_h), ("hl", o_hl)):
            families[f"expectation_s_vs_{picture}[{name}]"] = (
                lambda i, obs=obs, picture=picture, transport=transport:
                    expectation_gap(i, obs, picture, transport))
            families[f"isospectral_{picture}[{name}]"] = (
                lambda i, obs=obs, transport=transport:
                    spectral_distance(transport(obs, i), obs.assemble(bundle.ts[i])))
        for family, transport in (("heisenberg_eom_fd", o_h), ("heisenberg_like_eom_fd", o_hl)):
            families[f"{family}[{name}]"] = (
                lambda i, obs=obs, d_obs=obs.differentiate(), transport=transport:
                    eom_fd(i, obs, d_obs, transport))
    if bundle.dim == 2:
        for pair, a, b in (("sx_sy", SIGMA_X, SIGMA_Y), ("sx_sz", SIGMA_X, SIGMA_Z),
                           ("sy_sz", SIGMA_Y, SIGMA_Z)):
            families[f"commutator_transport[{pair}]"] = (
                lambda i, a=a, b=b: commutator_gap(i, a, b))

    worst = {}
    for name, residual in families.items():
        value, at = -float("inf"), nodes[0]
        for i in nodes:
            r = residual(i)
            if r > value:
                value, at = r, i
        worst[name] = (value, f"node {at}")
    return worst


@pytest.mark.parametrize("name", [
    *sorted(builtin_models()), "pt-chain-8", "pt-dimer-unbroken-stride-26",
    "pt-dimer-unbroken-20-nodes", "exact-family-4-20-nodes", "pt-dimer-unbroken-6-nodes",
    "pt-dimer-unbroken-11-nodes"])
def test_stacked_checks_match_per_node_loop(name):
    node_stride = 10
    if name == "pt-chain-8":
        scenario = _pt_chain()
    elif name == "pt-dimer-unbroken-stride-26":
        # 52 nodes, too few for stride 26 on each side of a node: sampled at
        # stride 25, nodes 0, 25, 50 and 51, and the difference at node 25
        # reads nodes 0 and 50.
        scenario, node_stride = get_demo("pt-dimer-unbroken", t1=0.51, step=0.01), 26
    elif name == "pt-dimer-unbroken-20-nodes":
        # Nodes 0, 9, 18 and 19 at stride 9: the same shape at the default stride.
        scenario = get_demo("pt-dimer-unbroken", t1=0.019)
    elif name == "exact-family-4-20-nodes":
        # The same shape at dim 4, with a time-dependent H and a dynamical metric.
        scenario = exact_family.scenario(4, t1=0.019)
    elif name == "pt-dimer-unbroken-6-nodes":
        scenario = get_demo("pt-dimer-unbroken", t1=0.005)  # nodes 0, 2, 4 and 5 at stride 2
    elif name == "pt-dimer-unbroken-11-nodes":
        scenario = get_demo("pt-dimer-unbroken", t1=0.01)  # nodes 0, 5 and 10 at stride 5
    else:
        scenario = get_demo(name, t1=0.75)
    bundle = integrate(scenario)
    checks = {c.name: c for c in run_suite(bundle, scenario, node_stride).checks}
    for name, (residual, context) in per_node_reference(bundle, scenario, node_stride).items():
        c = checks[name]
        assert not c.error, name
        assert abs(c.residual - residual) <= 1e-12 * max(1.0, abs(residual)), name
        assert c.context == context, name


SHORT_RUN_SCENARIOS = [*sorted(builtin_models()), "exact-family-4"]


def _short_run(name, n_nodes):
    """name run over n_nodes nodes at step 1e-3."""
    t1 = (n_nodes - 1) * 1e-3
    if name == "exact-family-4":
        return exact_family.scenario(4, t1=t1)
    return get_demo(name, t1=t1)


@pytest.mark.parametrize("stride, lengths", [
    (10, range(3, 22)), (3, (3, 4, 5, 6, 7, 9)), (1, (3, 4, 5)), (100, (51,))])
@pytest.mark.parametrize("name", SHORT_RUN_SCENARIOS)
def test_a_short_run_evaluates_its_eom_checks(name, stride, lengths):
    # A run too short for the stride on each side of a node is sampled at
    # (n - 1) // 2, so every run of three nodes or more has an EOM difference,
    # and its verdicts are those of a long run: none fails on the demos, and
    # the family fails the EOM checks of x it fails at any length (its pinned
    # false alarm, test_exact_family.py::test_verify_baseline).
    unexpected = ["heisenberg_eom_fd[x]", "heisenberg_like_eom_fd[x]"] if name.startswith(
        "exact-family") else []
    for n_nodes in lengths:
        scenario = _short_run(name, n_nodes)
        bundle = integrate(scenario)
        assert bundle.n_nodes == n_nodes
        report = run_suite(bundle, scenario, node_stride=stride)
        assert report.integrator["node_stride"] == min(stride, (n_nodes - 1) // 2)
        assert [c.name for c in report.unexpected_failures] == unexpected, n_nodes
        eom = [c for c in report.checks if "_eom_fd[" in c.name]
        assert len(eom) == 2 * len(scenario.observables)
        assert [c.error for c in eom] == [""] * len(eom), n_nodes


@pytest.mark.parametrize("name, stride", [
    ("time-dependent-observable-20-nodes", 10), ("exact-family-4-20-nodes", 10),
    ("driven-dimer-52-nodes", 26), ("pt-dimer-unbroken", 10)])
def test_a_report_reads_only_the_sampled_nodes_and_the_control_node(name, stride):
    # U_R, U_L and G are NaN at every other node, and the report keeps its bytes.
    scenario = {
        "time-dependent-observable-20-nodes": lambda: _short_run("time-dependent-observable", 20),
        "exact-family-4-20-nodes": lambda: _short_run("exact-family-4", 20),
        "driven-dimer-52-nodes": lambda: get_demo("driven-dimer", t1=0.51, step=0.01),
        "pt-dimer-unbroken": lambda: get_demo("pt-dimer-unbroken", t1=0.75),
    }[name]()
    bundle = integrate(scenario)
    n = bundle.n_nodes
    read = {*range(0, n, max(1, min(stride, (n - 1) // 2))), n - 1}
    if bundle.dim == 2:  # the conventional-transport control, near t0 + 1
        read.add(min(round((min(bundle.ts[0] + 1.0, bundle.ts[-1]) - bundle.ts[0]) / bundle.step),
                     n - 1))
    unread = [i for i in range(n) if i not in read]
    assert unread
    channels = {}
    for channel in ("u_r", "u_l", "g"):
        channels[channel] = getattr(bundle, channel).copy()
        channels[channel][unread] = np.nan
    blanked = dataclasses.replace(bundle, **channels)
    assert (run_suite(blanked, scenario, stride).to_json()
            == run_suite(bundle, scenario, stride).to_json())


GENERIC_CHECKS = [
    "propagator_inverse_left", "propagator_inverse_right", "metric_hermitian",
    "metric_positive_definite", "metric_closed_form", "vielbein_reconstructs_metric",
    "norm_conservation", "hermitized_generator_gauge",
]
OBSERVABLE_CHECKS = [
    "expectation_s_vs_h", "expectation_s_vs_hl", "isospectral_h", "isospectral_hl",
    "heisenberg_eom_fd", "heisenberg_like_eom_fd",
]
SU2_CHECKS = [
    "commutator_transport[sx_sy]", "commutator_transport[sx_sz]",
    "commutator_transport[sy_sz]", "conventional_dagger_transport",
]


@pytest.mark.parametrize("name, observables, tail, total", [
    ("time-dependent-observable", ["sigma_x", "sigma_y", "sigma_z", "rotating"], SU2_CHECKS, 36),
    ("pt-chain-8", ["position", "drifting"], [], 20),
])
def test_check_names_in_report_order(name, observables, tail, total):
    scenario = _pt_chain() if name == "pt-chain-8" else get_demo(name, t1=0.75)
    names = [c.name for c in run_suite(integrate(scenario), scenario).checks]
    assert names == [*GENERIC_CHECKS,
                     *(f"{check}[{obs}]" for obs in observables for check in OBSERVABLE_CHECKS),
                     *tail]
    assert len(names) == total


def _count_calls(monkeypatch, targets):
    """Count calls to each (module, name) through that module's binding."""
    counts = collections.Counter()
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_each_operand_is_transported_and_diagonalized_once(monkeypatch):
    scenario = get_demo("time-dependent-observable", t1=0.75)
    bundle = integrate(scenario)
    counts = _count_calls(monkeypatch, ((rep, "to_heisenberg"), (rep, "to_heisenberg_like"),
                                        (verify, "inverse"), (matops, "eigenvalues")))
    run_suite(bundle, scenario)
    # Four observables, each transported on the grid and its d/dt at the
    # inner nodes, per picture; H once per picture; three commutator pairs.
    assert counts["to_heisenberg"] + counts["to_heisenberg_like"] == 4 * 2 * 2 + 2 + 3 * 3 == 27
    # E inverted once, on the grid, for every HL check and the hermitized generator.
    assert counts["inverse"] == 1
    # Per observable: O_S once, O_H and O_HL once each.
    assert counts["eigenvalues"] == 4 * 3 == 12


def test_a_run_of_two_strides_transports_each_operand_once(monkeypatch):
    # 20 nodes are sampled at stride 9, nodes 0, 9, 18 and 19, and each
    # observable is still transported once per picture, at those nodes.
    scenario = get_demo("time-dependent-observable", t1=0.019)
    bundle = integrate(scenario)
    counts = _count_calls(monkeypatch, ((rep, "to_heisenberg"), (rep, "to_heisenberg_like"),
                                        (verify, "inverse"), (matops, "eigenvalues")))
    run_suite(bundle, scenario)
    assert counts["to_heisenberg"] + counts["to_heisenberg_like"] == 27
    assert counts["inverse"] == 1
    assert counts["eigenvalues"] == 12


def test_two_observable_chain_inverts_e_once(monkeypatch):
    scenario = _pt_chain()
    bundle = integrate(scenario)
    counts = _count_calls(monkeypatch, ((verify, "inverse"),))
    run_suite(bundle, scenario)
    assert counts["inverse"] == 1


def test_constant_observable_spectrum_is_taken_once(monkeypatch):
    # O_S's spectrum of a constant observable comes from its one matrix.
    scenario = get_demo("time-dependent-observable", t1=0.75)
    constant = sum(obs.constant is not None for obs in scenario.observables.values())
    shapes = []
    eigenvalues = matops.eigenvalues

    def recorded(a):
        shapes.append(np.shape(a))
        return eigenvalues(a)

    monkeypatch.setattr(matops, "eigenvalues", recorded)
    run_suite(integrate(scenario), scenario)
    assert constant > 0
    assert sum(len(shape) == 2 for shape in shapes) == constant


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64, 128])
def test_one_spectrum_has_the_bits_of_the_stacked_spectra(dim):
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for matrix in (m, m + m.conj().T):
        obs = constant_operator(matrix)
        # As verify samples O_S: the grid's broadcast stack at an index array.
        grid = obs.assemble_many(np.linspace(0.0, 1.0, 11))
        stacked = matops.sorted_eigenvalues(grid[[0, 5, 10]])
        one = matops.sorted_eigenvalues(obs.constant)
        assert [row.tobytes() for row in stacked] == [one.tobytes()] * 3
