import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import G_PT
from metricbundle.errors import NonFiniteError, SchemaError, StepLimitExceededError
from metricbundle.evolution import (
    BLOCK_STEPS,
    BLOWUP_LIMIT,
    _rhs,
    bundle_from_json_dict,
    bundle_to_json_dict,
    closed_form_metric,
    integrate,
)
from metricbundle.matops import SIGMA_X, SIGMA_Z, cholesky_upper
from metricbundle.model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    Scenario,
    constant_operator,
    resolve_initial_metric,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from metricbundle.zoo import builtin_models, get_demo

H_PT = SIGMA_X + 0.5j * SIGMA_Z


def channel_rates(h, psi=(1.0, 0.0), u_r=None, u_l=None, g=None, e=None):
    """d/dt of (psi, U_R, U_L, G, E) from the integrator's one RHS definition."""
    eye = np.eye(2, dtype=complex)
    rge = np.stack([eye if m is None else np.asarray(m, dtype=complex) for m in (u_l, g, e)])
    dpsi, du_r, drge = _rhs(h, np.asarray(psi, dtype=complex), eye if u_r is None else u_r, rge)
    return dpsi, du_r, drge[0], drge[1], drge[2]


class TestRightHandSides:
    def test_state(self):
        dpsi = channel_rates(SIGMA_X)[0]
        assert np.array_equal(dpsi, np.array([0.0, -1j]))

    def test_metric_hermitian_h_identity_metric_is_static(self):
        assert np.array_equal(channel_rates(SIGMA_X)[3], np.zeros((2, 2)))

    def test_metric_stationary_pt(self):
        # G_PT intertwines H and adj(H), so the metric flow vanishes on it.
        assert np.max(np.abs(channel_rates(H_PT, g=G_PT)[3])) <= 1e-15

    def test_metric_generic(self):
        expected = 1j * (H_PT - H_PT.conj().T)
        assert np.allclose(channel_rates(H_PT)[3], expected)

    def test_propagators_are_opposite_sided(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        _, du_r, du_l, _, de = channel_rates(H_PT, u_r=u, u_l=u, e=u)
        assert np.allclose(du_r, -1j * H_PT @ u)
        assert np.allclose(du_l, 1j * u @ H_PT)
        assert np.array_equal(de, du_l)


class TestAgainstMatrixExponential:
    """Constant-H runs have exact solutions via the matrix exponential."""

    def test_right_propagator(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        for t in (1.0, 5.0, 10.0):
            i = bundle.index_of_time(t)
            exact = expm(-1j * t * H_PT)
            assert np.max(np.abs(bundle.u_r[i] - exact)) <= 1e-9

    def test_left_propagator(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        for t in (1.0, 10.0):
            i = bundle.index_of_time(t)
            exact = expm(1j * t * H_PT)
            assert np.max(np.abs(bundle.u_l[i] - exact)) <= 1e-9

    def test_state_channel(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        i = bundle.index_of_time(3.0)
        exact = expm(-1j * 3.0 * H_PT) @ scenario.psi0
        assert np.max(np.abs(bundle.psi[i] - exact)) <= 1e-9

    def test_vielbein_channel(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = bundle.index_of_time(2.0)
        exact = bundle.e[0] @ expm(1j * 2.0 * H_PT)
        assert np.max(np.abs(bundle.e[i] - exact)) <= 1e-9

    def test_metric_channel_is_stationary(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        assert np.max(np.abs(bundle.g - bundle.g0)) <= 1e-9


class TestRabiOracle:
    def test_population_follows_cos_squared(self, rabi_bundle):
        # H = sx on |0>: P(stay) = cos(t)^2 in closed form.
        _, bundle = rabi_bundle
        for t in (0.5, 1.0, 2.5, 7.0):
            i = bundle.index_of_time(t)
            assert abs(abs(bundle.psi[i][0]) ** 2 - np.cos(t) ** 2) <= 1e-10

    def test_norm_conserved(self, rabi_bundle):
        _, bundle = rabi_bundle
        norms = np.linalg.norm(bundle.psi, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10


class TestGridAndLimits:
    def test_grid_snaps_to_endpoint(self):
        scenario = get_demo("pt-dimer-unbroken", t1=1.0, step=0.3)
        bundle = integrate(scenario)
        assert bundle.ts[-1] == pytest.approx(1.0, abs=1e-15)
        assert bundle.n_nodes == 4  # round(1.0/0.3) = 3 steps

    def test_zero_hamiltonian_is_exactly_static(self):
        scenario = get_demo("pt-dimer-unbroken", gamma=0.0, s=0.0, t1=1.0, step=0.1)
        bundle = integrate(scenario)
        assert np.array_equal(bundle.u_r[-1], np.eye(2))
        assert np.array_equal(bundle.psi[-1], bundle.psi[0])
        assert np.array_equal(bundle.g[-1], bundle.g0)

    def test_step_limit(self):
        scenario = get_demo("pt-dimer-unbroken")
        config = dataclasses.replace(scenario.integrator, max_steps=100)
        scenario = dataclasses.replace(scenario, integrator=config)
        with pytest.raises(StepLimitExceededError):
            integrate(scenario)

    def test_broken_phase_blowup_raises(self):
        # gamma=1.5 grows like exp(sqrt(gamma^2-1) t); by t=60 all propagator
        # channels exceed the blow-up limit.
        scenario = get_demo("pt-dimer-broken", t1=60.0, step=0.01)
        with pytest.raises(NonFiniteError) as err:
            integrate(scenario)
        assert err.value.node_index > 0

    def test_index_of_time_rejects_off_grid(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        with pytest.raises(IndexError):
            bundle.index_of_time(11.0)


class TestClosedFormMetric:
    def test_matches_integrated_metric(self, driven_bundle):
        _, bundle = driven_bundle
        for i in (0, bundle.n_nodes // 2, bundle.n_nodes - 1):
            assert np.max(np.abs(closed_form_metric(bundle, i) - bundle.g[i])) <= 1e-9

    def test_vielbein_transport_closed_form(self, driven_bundle):
        _, bundle = driven_bundle
        i = bundle.n_nodes - 1
        assert np.max(np.abs(bundle.e[i] - bundle.e[0] @ bundle.u_l[i])) <= 1e-9


class TestConvergence:
    def test_right_propagator_is_fourth_order(self):
        # Error vs. the exact exponential must fall 16x per step halving.
        errors = []
        for step in (0.04, 0.02, 0.01):
            scenario = get_demo("pt-dimer-unbroken", t1=2.0, step=step)
            bundle = integrate(scenario)
            exact = expm(-1j * 2.0 * H_PT)
            errors.append(np.max(np.abs(bundle.u_r[-1] - exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    def test_richardson_method_is_schema_error(self):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken"))
        doc["integrator"]["method"] = "rk4_richardson"
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == "/integrator/method"


def reference_integrate(scenario):
    """The per-step loop: H assembled at each stage, the guard after each step.

    Returns (psi, u_r, u_l, g, e) stacked over the nodes, or raises
    NonFiniteError at the first node and channel out of the finite range.
    """
    n_steps = max(1, round((scenario.t1 - scenario.t0) / scenario.integrator.step))
    step = (scenario.t1 - scenario.t0) / n_steps
    g0 = resolve_initial_metric(scenario)
    eye = np.eye(scenario.dim, dtype=complex)
    psi = np.array(scenario.psi0, dtype=complex)
    u_r = eye
    rge = np.stack([eye, g0.astype(complex), cholesky_upper(g0).astype(complex)])
    ts = scenario.t0 + step * np.arange(n_steps + 1)
    nodes = [(psi, u_r, rge)]
    assemble = scenario.hamiltonian.assemble
    for k in range(n_steps):
        t = ts[k]
        h1, h2, h4 = assemble(t), assemble(t + 0.5 * step), assemble(t + step)
        k1 = _rhs(h1, psi, u_r, rge)
        k2 = _rhs(h2, psi + 0.5 * step * k1[0], u_r + 0.5 * step * k1[1], rge + 0.5 * step * k1[2])
        k3 = _rhs(h2, psi + 0.5 * step * k2[0], u_r + 0.5 * step * k2[1], rge + 0.5 * step * k2[2])
        k4 = _rhs(h4, psi + step * k3[0], u_r + step * k3[1], rge + step * k3[2])
        sixth = step / 6.0
        psi = psi + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u_r = u_r + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        rge = rge + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        channels = (("psi", psi), ("u_r", u_r), ("u_l", rge[0]), ("g", rge[1]), ("e", rge[2]))
        for channel, arr in channels:
            a = np.abs(arr)
            if not np.all(np.isfinite(a)) or np.max(a) > BLOWUP_LIMIT:
                raise NonFiniteError("channel left the finite range", k + 1, channel)
        nodes.append((psi, u_r, rge))
    psi, u_r, rge = (np.array(c) for c in zip(*nodes))
    return psi, u_r, rge[:, 0], rge[:, 1], rge[:, 2]


def _channels(bundle):
    return bundle.psi, bundle.u_r, bundle.u_l, bundle.g, bundle.e


def _driven_pt_chain(n: int = 8) -> Scenario:
    """Open PT chain whose gain/loss and on-site terms follow exp and tanh profiles."""
    hopping = np.diag(np.ones(n - 1), 1)
    hopping = hopping + hopping.T
    gain_loss = np.zeros((n, n), dtype=complex)
    gain_loss[0, 0], gain_loss[-1, -1] = 1j, -1j
    position = np.diag(np.arange(n) - (n - 1) / 2).astype(complex)
    return Scenario(
        hamiltonian=OperatorSpec([
            ProfileTerm.parse("-1.0", hopping),
            ProfileTerm.parse("0.3 * (1 + 0.5 * tanh(4 * t - 1))", gain_loss),
            ProfileTerm.parse("0.2 * exp(-t) * cos(3 * t)", position),
        ]),
        metric_init=MetricInit("identity"),
        psi0=np.ones(n, dtype=complex) / np.sqrt(n),
        observables={"position": constant_operator(position)},
        t0=0.0,
        t1=0.75,
        integrator=IntegratorConfig(step=1e-3),
        name=f"driven-pt-chain-{n}",
    )


def _switched_on_at(node: int, step: float = 0.01) -> Scenario:
    """H is exactly zero until the last stage of the step that ends at node,
    then ~1e20 sigma_x: psi leaves the finite range exactly at that node."""
    switch = (node - 0.25) * step
    return Scenario(
        hamiltonian=OperatorSpec(
            [ProfileTerm.parse(f"1e20 * (1 + tanh(1e6 * (t - {switch!r})))", SIGMA_X)]
        ),
        metric_init=MetricInit("identity"),
        psi0=np.array([1.0, 0.0], dtype=complex),
        observables={},
        t0=0.0,
        t1=(node + 5) * step,
        integrator=IntegratorConfig(step=step),
    )


class TestBlockedIntegratorParity:
    """integrate runs blocks of steps; the per-step loop is the reference."""

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_demos_bit_identical(self, name):
        scenario = get_demo(name, t1=0.75)
        for got, want in zip(_channels(integrate(scenario)), reference_integrate(scenario)):
            assert np.array_equal(got, want)

    def test_stage_times_are_those_of_single_steps(self, monkeypatch):
        # ts[k] + step differs from ts[k + 1] in the last bit at 361 of these steps.
        scenario = get_demo("driven-dimer", t0=0.3, t1=1.05)
        seen = []
        assemble_many = OperatorSpec.assemble_many
        monkeypatch.setattr(
            OperatorSpec, "assemble_many", lambda spec, ts: seen.append(ts) or assemble_many(spec, ts)
        )
        bundle = integrate(scenario)
        starts = bundle.ts[:-1]
        want = np.concatenate([starts, starts + 0.5 * bundle.step, starts + bundle.step])
        assert np.array_equal(np.sort(np.concatenate(seen)), np.sort(want))

    def test_driven_chain_with_exp_and_tanh(self):
        scenario = _driven_pt_chain()
        for got, want in zip(_channels(integrate(scenario)), reference_integrate(scenario)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scenario",
        [
            # Immediate, inside the first block (node 3, channel g).
            get_demo("pt-dimer-broken", s=100.0, gamma=300.0, step=0.05),
            # Several blocks in: node 1216 and node 4869, channel g.
            get_demo("pt-dimer-broken", t1=60.0, step=0.01),
            get_demo("pt-dimer-broken", s=1.0, gamma=3.0, t1=15.0),
            # The last node of the first block and the first node of the second.
            _switched_on_at(BLOCK_STEPS),
            _switched_on_at(BLOCK_STEPS + 1),
        ],
        ids=["first-block", "t60", "ep-sweep", "block-end", "block-start"],
    )
    def test_blowup_node_and_channel(self, scenario):
        with pytest.raises(NonFiniteError) as want:
            reference_integrate(scenario)
        with pytest.raises(NonFiniteError) as got:
            integrate(scenario)
        assert (got.value.node_index, got.value.channel) == (
            want.value.node_index, want.value.channel)

    def test_switch_scenarios_blow_up_where_designed(self):
        for node in (BLOCK_STEPS, BLOCK_STEPS + 1):
            with pytest.raises(NonFiniteError) as err:
                reference_integrate(_switched_on_at(node))
            assert (err.value.node_index, err.value.channel) == (node, "psi")


class TestBundleSerialization:
    def test_round_trip_is_exact(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        doc = bundle_to_json_dict(bundle)
        back = bundle_from_json_dict(doc)
        assert np.array_equal(back.psi, bundle.psi)
        assert np.array_equal(back.u_r, bundle.u_r)
        assert np.array_equal(back.u_l, bundle.u_l)
        assert np.array_equal(back.g, bundle.g)
        assert np.array_equal(back.e, bundle.e)
        assert np.array_equal(back.g0, bundle.g0)
        assert back.step == bundle.step
