import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import G_PT, bundle_from_json_dict, index_of_time
from metricbundle import evolution
from metricbundle import representations as rep
from metricbundle.cli import main
from metricbundle.errors import NonFiniteError, SchemaError, StepLimitExceededError
from metricbundle.evolution import (
    BLOCK_STEPS,
    BLOWUP_LIMIT,
    _CHANNELS,
    _INPUT,
    _LEFT,
    _RATES,
    _RIGHT,
    _SLOTS,
    EvolutionBundle,
    _check_finite,
    _fill_stage_stacks,
    _row_views,
    _stage_rates,
    _steps_per_block,
    bundle_to_json_dict,
    closed_form_metric,
    integrate,
    rhs_vielbein,
    to_json_parts,
)
from metricbundle.matops import SIGMA_X, SIGMA_Z, cholesky_upper
from metricbundle.model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    Scenario,
    complex_pairs,
    constant_operator,
    load_scenario,
    resolve_initial_metric,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from metricbundle.zoo import builtin_models, get_demo

H_PT = SIGMA_X + 0.5j * SIGMA_Z


def channel_rates(h, u_r=None, u_l=None, g=None):
    """d/dt of (U_R, U_L, G) from the integrator's stage stack and stage rates."""
    stacks = np.empty((1, 1, _SLOTS, 2, 2), dtype=complex)
    _fill_stage_stacks(stacks, np.asarray(h, dtype=complex)[None, None])
    stack = stacks[0, 0]
    given = {"u_r": u_r, "u_l": u_l, "g": g}
    stack[_INPUT] = [np.eye(2) if given[name] is None else given[name] for name in _CHANNELS]
    row = np.empty((6, 2, 2), dtype=complex)
    _stage_rates(stack[_LEFT], stack[_RIGHT], _row_views(row))
    rates = dict(zip(_CHANNELS, row[_RATES]))
    return rates["u_r"], rates["u_l"], rates["g"]


class TestRightHandSides:
    def test_state(self):
        # A state evolves as U_R's column: from U_R = I, column 0 is -i H e_0.
        du_r = channel_rates(SIGMA_X)[0]
        assert np.array_equal(du_r[:, 0], np.array([0.0, -1j]))

    def test_metric_hermitian_h_identity_metric_is_static(self):
        assert np.array_equal(channel_rates(SIGMA_X)[2], np.zeros((2, 2)))

    def test_metric_stationary_pt(self):
        # G_PT intertwines H and adj(H), so the metric flow vanishes on it.
        assert np.max(np.abs(channel_rates(H_PT, g=G_PT)[2])) <= 1e-15

    def test_metric_generic(self):
        expected = 1j * (H_PT - H_PT.conj().T)
        assert np.allclose(channel_rates(H_PT)[2], expected)

    def test_propagators_are_opposite_sided(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        du_r, du_l, _ = channel_rates(H_PT, u_r=u, u_l=u)
        assert np.allclose(du_r, -1j * H_PT @ u)
        assert np.allclose(du_l, 1j * u @ H_PT)
        # The vielbein follows the same right-multiplied flow as U_L.
        assert np.array_equal(rhs_vielbein(H_PT, u), du_l)


class TestAgainstMatrixExponential:
    """Constant-H runs have exact solutions via the matrix exponential."""

    def test_right_propagator(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        for t in (1.0, 5.0, 10.0):
            i = index_of_time(bundle, t)
            exact = expm(-1j * t * H_PT)
            assert np.max(np.abs(bundle.u_r[i] - exact)) <= 1e-9

    def test_left_propagator(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        for t in (1.0, 10.0):
            i = index_of_time(bundle, t)
            exact = expm(1j * t * H_PT)
            assert np.max(np.abs(bundle.u_l[i] - exact)) <= 1e-9

    def test_state_channel(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 3.0)
        exact = expm(-1j * 3.0 * H_PT) @ scenario.psi0
        assert np.max(np.abs(bundle.psi_at(i) - exact)) <= 1e-9

    def test_vielbein_channel(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 2.0)
        exact = bundle.e_at(0) @ expm(1j * 2.0 * H_PT)
        assert np.max(np.abs(bundle.e_at(i) - exact)) <= 1e-9

    def test_metric_channel_is_stationary(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        assert np.max(np.abs(bundle.g - bundle.g[0])) <= 1e-9


class TestRabiOracle:
    def test_population_follows_cos_squared(self, rabi_bundle):
        # H = sx on |0>: P(stay) = cos(t)^2 in closed form.
        _, bundle = rabi_bundle
        for t in (0.5, 1.0, 2.5, 7.0):
            i = index_of_time(bundle, t)
            assert abs(abs(bundle.psi_at(i)[0]) ** 2 - np.cos(t) ** 2) <= 1e-10

    def test_norm_conserved(self, rabi_bundle):
        _, bundle = rabi_bundle
        norms = np.linalg.norm(bundle.psi_at(slice(None)), axis=1)
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
        assert np.array_equal(bundle.psi_at(-1), bundle.psi_at(0))
        assert np.array_equal(bundle.g[-1], bundle.g[0])

    def test_step_limit(self):
        scenario = get_demo("pt-dimer-unbroken")
        config = dataclasses.replace(scenario.integrator, max_steps=100)
        scenario = dataclasses.replace(scenario, integrator=config)
        with pytest.raises(StepLimitExceededError):
            integrate(scenario)

    @pytest.mark.parametrize("max_steps, message", [
        (10_000_000, "1000000000000000000161765076786456438212... steps needed, "
                     "max_steps is 10000000"),
        (10**100, "1000000000000000000161765076786456438212... steps needed, "
                  "max_steps is 1000000000000000000000000000000000000000..."),
        # A limit past the count: the grid is too large to allocate.
        (10**400, "cannot allocate 1000000000000000000161765076786456438212... steps: "),
    ], ids=["past-the-limit", "past-a-long-limit", "cannot-allocate"])
    def test_step_limit_message_cuts_each_count_to_40_digits(self, max_steps, message):
        scenario = get_demo("pt-ep", t1=1e300)  # 1e303 steps
        config = dataclasses.replace(scenario.integrator, max_steps=max_steps)
        with pytest.raises(StepLimitExceededError) as err:
            integrate(dataclasses.replace(scenario, integrator=config))
        assert str(err.value).startswith(message)
        assert len(str(err.value)) < 200

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
            index_of_time(bundle, 11.0)


class TestDerivedChannels:
    """psi_at and e_at at any nodes are the rows of U_R psi0 and E0 U_L over the
    whole trajectory, bit for bit, so every reader sees the values the
    trajectory document holds; G(t0) is g[0]."""

    @staticmethod
    def assert_derived_bits(scenario):
        bundle = integrate(scenario)
        psi, e = bundle.u_r @ bundle.psi0, bundle.e0 @ bundle.u_l
        last = bundle.n_nodes - 1
        for index in (0, last // 2, last, np.array([0, 1, last // 3, last]), slice(None)):
            for got, want in ((bundle.psi_at(index), psi[index]), (bundle.e_at(index), e[index])):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), index
        g0 = resolve_initial_metric(scenario)
        assert np.array_equal(bundle.g[0].view(np.uint64), g0.view(np.uint64))

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_demos(self, name):
        self.assert_derived_bits(get_demo(name, t1=0.75))

    def test_perfbench_chains(self, perfbench_chain_files):
        for path in perfbench_chain_files:
            self.assert_derived_bits(load_scenario(path))

    def test_e0_is_derived_from_g0_once_per_bundle(self, monkeypatch, tmp_path):
        calls = []

        def counted(g):
            calls.append(g)
            return cholesky_upper(g)

        monkeypatch.setattr(evolution, "cholesky_upper", counted)
        scenario = get_demo("pt-dimer-unbroken", t1=0.1)  # a stationary G(t0)
        bundle = integrate(scenario)
        assert not calls
        assert np.array_equal(bundle.e_at(3), bundle.e0 @ bundle.u_l[3])
        doc = bundle_to_json_dict(bundle, scenario, {})
        assert len(calls) == 1
        assert bundle.e0.tobytes() == cholesky_upper(bundle.g[0]).tobytes()
        back = bundle_from_json_dict(doc)
        assert len(calls) == 1
        assert np.array_equal(back.e0, bundle.e0)
        assert len(calls) == 2
        fields = {f.name: getattr(bundle, f.name) for f in dataclasses.fields(EvolutionBundle)}
        with pytest.raises(TypeError):
            EvolutionBundle(**fields, e0=bundle.e0)
        calls.clear()
        assert main(["evolve", "demo:pt-dimer-unbroken", "--t1", "0.1",
                     "-o", str(tmp_path / "out.csv")]) == 0
        assert not calls


class TestClosedFormMetric:
    def test_matches_integrated_metric(self, driven_bundle):
        _, bundle = driven_bundle
        for i in (0, bundle.n_nodes // 2, bundle.n_nodes - 1):
            assert np.max(np.abs(closed_form_metric(bundle, i) - bundle.g[i])) <= 1e-9

    def test_vielbein_transport_closed_form(self, driven_bundle):
        _, bundle = driven_bundle
        i = bundle.n_nodes - 1
        assert np.max(np.abs(bundle.e_at(i) - bundle.e_at(0) @ bundle.u_l[i])) <= 1e-9


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
    """The five-channel per-step loop: H assembled at each stage, psi and E
    integrated as channels of their own, the guard after each step.

    Returns (psi, u_r, u_l, g, e) stacked over the nodes, or raises
    NonFiniteError at the first node, and its first channel in the order
    u_r, u_l, g, out of the finite range. psi and E are not guarded:
    integrate derives them from U_R and U_L.
    """
    n_steps = max(1, round((scenario.t1 - scenario.t0) / scenario.integrator.step))
    step = (scenario.t1 - scenario.t0) / n_steps
    g0 = resolve_initial_metric(scenario)
    eye = np.eye(scenario.dim, dtype=complex)
    y = (np.array(scenario.psi0, dtype=complex), eye, eye, g0.astype(complex),
         cholesky_upper(g0).astype(complex))

    def rates(h, psi, u_r, u_l, g, e):
        return (-1j * (h @ psi), -1j * (h @ u_r), 1j * (u_l @ h),
                1j * (g @ h) - 1j * (h.conj().T @ g), 1j * (e @ h))

    def shifted(by, k):
        return [a + by * da for a, da in zip(y, k)]

    ts = scenario.t0 + step * np.arange(n_steps + 1)
    nodes = [y]
    assemble = scenario.hamiltonian.assemble
    for k in range(n_steps):
        t = ts[k]
        h1, h2, h4 = assemble(t), assemble(t + 0.5 * step), assemble(t + step)
        k1 = rates(h1, *y)
        k2 = rates(h2, *shifted(0.5 * step, k1))
        k3 = rates(h2, *shifted(0.5 * step, k2))
        k4 = rates(h4, *shifted(step, k3))
        sixth = step / 6.0
        y = tuple(a + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
                  for a, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4))
        for channel, arr in zip(("u_r", "u_l", "g"), y[1:4]):
            a = np.abs(arr)
            if not np.all(np.isfinite(a)) or np.max(a) > BLOWUP_LIMIT:
                raise NonFiniteError(
                    "channel left the finite range", k + 1, float(ts[k + 1]), channel)
        nodes.append(y)
    return tuple(np.array(c) for c in zip(*nodes))


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


def _switched_on_at(node: int, step: float = 0.01, sites: int = 2) -> Scenario:
    """H is exactly zero until the last stage of the step that ends at node,
    then ~1e20 times the open chain's hopping (sigma_x at two sites): U_R
    leaves the finite range exactly at that node."""
    switch = (node - 0.25) * step
    hopping = np.diag(np.ones(sites - 1), 1)
    return Scenario(
        hamiltonian=OperatorSpec(
            [ProfileTerm.parse(f"1e20 * (1 + tanh(1e6 * (t - {switch!r})))", hopping + hopping.T)]
        ),
        metric_init=MetricInit("identity"),
        psi0=np.eye(sites, dtype=complex)[0],
        observables={},
        t0=0.0,
        t1=(node + 5) * step,
        integrator=IntegratorConfig(step=step),
    )


class TestBlockedIntegratorParity:
    """integrate runs blocks of steps; the per-step loop is the reference."""

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_demos_bit_identical(self, name):
        # With the demos' psi0 = e_0, U_R psi0 comes out as the integrated state
        # bit for bit; in general the two differ by rounding.
        scenario = get_demo(name, t1=0.75)
        bundle = integrate(scenario)
        psi, u_r, u_l, g, _ = reference_integrate(scenario)
        for got, want in ((bundle.psi_at(slice(None)), psi), (bundle.u_r, u_r), (bundle.u_l, u_l),
                          (bundle.g, g)):
            assert np.array_equal(got, want)

    @staticmethod
    def assembled_times(monkeypatch, scenario):
        """integrate's bundle of scenario, and the times of each of its assemble_many calls."""
        seen = []
        assemble_many = OperatorSpec.assemble_many
        monkeypatch.setattr(
            OperatorSpec, "assemble_many", lambda spec, ts: seen.append(ts) or assemble_many(spec, ts)
        )
        return integrate(scenario), seen

    def test_one_assembly_per_block(self, monkeypatch):
        # 750 steps: blocks of 256, 256 and 238 steps, each with its 3 samples a step.
        _, seen = self.assembled_times(monkeypatch, get_demo("driven-dimer", t1=0.75))
        assert [len(ts) for ts in seen] == [3 * 256, 3 * 256, 3 * 238]

    def test_stage_times_are_those_of_single_steps(self, monkeypatch):
        # ts[k] + step differs from ts[k + 1] in the last bit at 361 of these steps.
        scenario = get_demo("driven-dimer", t0=0.3, t1=1.05)
        bundle, seen = self.assembled_times(monkeypatch, scenario)
        starts = np.split(bundle.ts[:-1], range(BLOCK_STEPS, bundle.n_nodes - 1, BLOCK_STEPS))
        assert len(seen) == len(starts)
        for ts, t in zip(seen, starts):
            # Sample-major: the first time whose H is not finite is that of a call per sample.
            assert np.array_equal(ts, np.concatenate([t, t + 0.5 * bundle.step, t + bundle.step]))

    def test_driven_chain_with_exp_and_tanh(self):
        scenario = _driven_pt_chain()
        bundle = integrate(scenario)
        psi, u_r, u_l, g, _ = reference_integrate(scenario)
        for got, want in ((bundle.u_r, u_r), (bundle.u_l, u_l), (bundle.g, g)):
            assert np.array_equal(got, want)
        # psi0 is uniform here: the derived channels are images of the
        # integrated ones, and agree with the integrated psi and E in what
        # they are used for.
        every = slice(None)
        assert np.array_equal(bundle.psi_at(every), bundle.u_r @ scenario.psi0)
        assert np.array_equal(bundle.e_at(every), cholesky_upper(bundle.g[0]) @ bundle.u_l)
        for obs in scenario.observables.values():
            o = obs.assemble_many(bundle.ts)
            want = (psi.conj()[:, None, :] @ g @ o @ psi[:, :, None])[:, 0, 0]
            got = rep.expectation_schrodinger(bundle, every, o)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [3, 6])
    def test_random_complex_hamiltonian_bit_identical(self, dim):
        # Entries with two nonzero parts, at dims that are not a multiple of 4:
        # there i folded into the left factor of a product changes its rounding.
        rng = np.random.default_rng(dim)

        def matrix():
            return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

        a = matrix()
        scenario = Scenario(
            hamiltonian=OperatorSpec([ProfileTerm.parse("0.5", matrix()),
                                      ProfileTerm.parse("sin(3 * t)", matrix())]),
            metric_init=MetricInit("explicit", a @ a.conj().T + dim * np.eye(dim)),
            psi0=np.eye(dim, dtype=complex)[0],
            observables={},
            t0=0.1,
            t1=0.2,
            integrator=IntegratorConfig(step=1e-3),
        )
        bundle = integrate(scenario)
        _, u_r, u_l, g, _ = reference_integrate(scenario)
        for got, want in ((bundle.u_r, u_r), (bundle.u_l, u_l), (bundle.g, g)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_perfbench_chains_bit_identical(self, perfbench_chain_files, n):
        # BLAS-sized products; at 32 and 64 sites BLOCK_BYTES splits the 30 steps.
        (path,) = [p for p in perfbench_chain_files if p.name == f"chain{n}.json"]
        scenario = load_scenario(path)
        bundle = integrate(scenario)
        _, u_r, u_l, g, _ = reference_integrate(scenario)
        for got, want in ((bundle.u_r, u_r), (bundle.u_l, u_l), (bundle.g, g)):
            assert np.array_equal(got, want)

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
            # The same at 64 sites, where BLOCK_BYTES shortens the block.
            _switched_on_at(_steps_per_block(64), sites=64),
            _switched_on_at(_steps_per_block(64) + 1, sites=64),
        ],
        ids=["first-block", "t60", "ep-sweep", "block-end", "block-start",
             "64-site-block-end", "64-site-block-start"],
    )
    def test_blowup_node_and_channel(self, scenario):
        with pytest.raises(NonFiniteError) as want:
            reference_integrate(scenario)
        with pytest.raises(NonFiniteError) as got:
            integrate(scenario)
        assert (got.value.node_index, got.value.time, got.value.channel) == (
            want.value.node_index, want.value.time, want.value.channel)
        assert str(got.value) == str(want.value)

    def test_guard_reports_the_first_bad_channel_in_u_r_u_l_g_order(self):
        # The stored channel order differs from the reported one.
        block = np.zeros((2, len(_CHANNELS), 2, 2), dtype=complex)
        block[1, _CHANNELS.index("u_l")] = block[1, _CHANNELS.index("g")] = np.inf
        with pytest.raises(NonFiniteError) as err:
            _check_finite(5, np.array([0.5, 0.75]), block)
        assert (err.value.node_index, err.value.time, err.value.channel) == (6, 0.75, "u_l")

    def test_switch_scenarios_blow_up_where_designed(self):
        short = _steps_per_block(64)
        assert short < BLOCK_STEPS
        for node, sites in ((BLOCK_STEPS, 2), (BLOCK_STEPS + 1, 2), (short, 64), (short + 1, 64)):
            with pytest.raises(NonFiniteError) as err:
                reference_integrate(_switched_on_at(node, sites=sites))
            assert (err.value.node_index, err.value.channel) == (node, "u_r")


def _open_chain(sites: int, steps: int) -> Scenario:
    """Open PT chain with a constant H: hopping -1, gain and loss 0.5 at the ends."""
    hopping = np.diag(np.ones(sites - 1), 1)
    gain_loss = np.zeros((sites, sites), dtype=complex)
    gain_loss[0, 0], gain_loss[-1, -1] = 1j, -1j
    return Scenario(
        hamiltonian=OperatorSpec([ProfileTerm.parse("-1.0", hopping + hopping.T),
                                  ProfileTerm.parse("0.5", gain_loss)]),
        metric_init=MetricInit("identity"),
        psi0=np.eye(sites, dtype=complex)[0],
        observables={},
        t0=0.0,
        t1=steps * 1e-3,
        integrator=IntegratorConfig(step=1e-3),
    )


class TestBlockMemory:
    # Peaks of the integrator that assembled one H stack per 256-step block and
    # advanced each stage from it; the trajectory and E set them. Stage stacks
    # for 256 steps at 64 sites would add about 350 MB: BLOCK_BYTES caps them.
    @pytest.mark.parametrize("sites, steps, earlier_peak_mb", [(64, 300, 87.9), (128, 60, 76.1)])
    def test_peak_stays_within_ten_percent(self, sites, steps, earlier_peak_mb):
        scenario = _open_chain(sites, steps)
        tracemalloc.start()
        try:
            integrate(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * earlier_peak_mb * 1e6


def reference_json_text(a: np.ndarray) -> str:
    """The trajectory export's first array encoder: nested lists, then json.dumps."""
    if np.iscomplexobj(a):
        return json.dumps(np.stack([a.real, a.imag], axis=-1).tolist())
    return json.dumps(a.tolist())


def _bits(x: float) -> int:
    return int(np.array(x, dtype=np.float64).view(np.uint64))


# The ends of the float64 range and of repr's fixed and exponent formats
# (1e16, 1e-4, 1e-5 and their neighbours), signed zeros, and non-finite
# values, NaN with either sign and a signalling payload.
_EDGE_BITS = [
    _bits(x)
    for x in (
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308,
        1e16, np.nextafter(1e16, 0.0), -1e16, np.nextafter(-1e16, 0.0),
        1e-4, np.nextafter(1e-4, 0.0), 1e-5, np.nextafter(1e-5, 1.0), -1e-5,
        math.inf, -math.inf, math.nan,
    )
] + [0xFFF8000000000000, 0x7FF0000000000001]
float64_bits = st.one_of(st.sampled_from(_EDGE_BITS), st.integers(0, 2**64 - 1))
array_shapes = st.one_of(
    st.tuples(st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(1, 4)),
    st.integers(1, 4).flatmap(lambda d: st.tuples(st.integers(0, 4), st.just(d), st.just(d))),
    st.integers(1, 4).map(lambda d: (d, d)),
)


@st.composite
def float64_arrays(draw, complex_valued: bool):
    """Arrays whose float64 entries have arbitrary bit patterns, repeats included."""
    shape = draw(array_shapes)
    size = math.prod(shape) * (2 if complex_valued else 1)
    pool = draw(st.lists(float64_bits, min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(pool) | float64_bits, min_size=size, max_size=size))
    values = np.array(picks, dtype=np.uint64).view(np.float64)
    if complex_valued:
        return values.view(np.complex128).reshape(shape)
    return values.reshape(shape)


# Magnitudes (sign bit clear): the edge values, subnormals, NaN payloads and any other.
magnitude_bits = st.one_of(
    st.sampled_from(sorted({bits & ~(1 << 63) for bits in _EDGE_BITS})),
    st.integers(1, 2**52 - 1),
    st.integers(0x7FF0000000000001, 2**63 - 1),
    st.integers(0, 2**63 - 1),
)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)


@st.composite
def float64_documents(draw):
    """Nested dicts of float64 arrays whose entries take either sign of a few shared
    magnitudes; some arrays repeat an earlier one bit for bit, or with one sign flipped."""
    pool = draw(st.lists(magnitude_bits, min_size=1, max_size=6))
    arrays = []

    def array():
        if arrays and draw(st.booleans()):
            bits = draw(st.sampled_from(arrays)).view(np.uint64).copy()
            if bits.size and draw(st.booleans()):
                bits.reshape(-1)[draw(st.integers(0, bits.size - 1))] ^= np.uint64(1 << 63)
        else:
            shape = draw(array_shapes)
            size = math.prod(shape)
            mags = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
            signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            bits = (np.array(mags, dtype=np.uint64)
                    | np.array(signs, dtype=np.uint64) << np.uint64(63)).reshape(shape)
        arrays.append(bits.view(np.float64))
        return arrays[-1]

    def document(depth):
        doc = {}
        for key in draw(st.lists(st.text(max_size=3), max_size=4, unique=True)):
            kind = draw(st.sampled_from(["array", "array", "scalar"] + ["dict"] * (depth > 0)))
            doc[key] = (array() if kind == "array" else document(depth - 1) if kind == "dict"
                        else draw(json_scalars))
        return doc

    return document(2)


def json_text(value) -> str:
    """The whole text that to_json_parts gives in pieces."""
    return "".join(to_json_parts(value))


def plain(value):
    """value with each array replaced by its tolist()."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


class TestBundleSerialization:
    def test_round_trip_is_exact(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        nodes = np.arange(bundle.n_nodes)
        expectations = {
            name: rep.expectation_schrodinger(bundle, nodes, obs.assemble_many(bundle.ts))
            for name, obs in scenario.observables.items()
        }
        doc = bundle_to_json_dict(bundle, scenario, expectations)
        text = json_text(doc)
        # Bit for bit: the vielbein channel holds -0.0 imaginary parts.
        back = bundle_from_json_dict(json.loads(text))
        assert json_text(bundle_to_json_dict(back, scenario, expectations)) == text
        for back in (bundle_from_json_dict(doc), bundle_from_json_dict(json.loads(text))):
            assert np.array_equal(back.ts, bundle.ts)
            assert np.array_equal(back.psi0, bundle.psi0)
            assert np.array_equal(back.u_r, bundle.u_r)
            assert np.array_equal(back.u_l, bundle.u_l)
            assert np.array_equal(back.g, bundle.g)
            assert np.array_equal(back.e0, bundle.e0)
            assert back.step == bundle.step
            assert back.metadata == bundle.metadata

    @settings(max_examples=300, deadline=None)
    @given(a=float64_arrays(complex_valued=False))
    def test_real_array_text_matches_reference(self, a):
        assert json_text(a) == reference_json_text(a)

    @settings(max_examples=300, deadline=None)
    @given(a=float64_arrays(complex_valued=True))
    def test_complex_array_text_matches_reference(self, a):
        assert json_text(complex_pairs(a)) == reference_json_text(a)

    def test_signed_zeros_and_nonfinite_values(self):
        a = np.array([[0.0, -0.0, math.inf], [-math.inf, math.nan, -0.0]])
        assert json_text(a) == "[[0.0, -0.0, Infinity], [-Infinity, NaN, -0.0]]"
        assert json_text(a) == reference_json_text(a)

    def test_document_text_matches_json_dumps(self):
        pairs = complex_pairs(np.array([1 + 2j, -0.5j]))
        doc = {
            "t": np.array([0.0, 0.1]),
            "step": 0.1,
            "caf\u00e9": {"x": pairs, "empty": {}},
            "metadata": {"method": "rk4", "n_steps": 1},
        }
        plain = {**doc, "t": doc["t"].tolist(), "caf\u00e9": {"x": pairs.tolist(), "empty": {}}}
        assert json_text(doc) == json.dumps(plain)

    @pytest.mark.parametrize("a", [np.arange(3), np.array([1j]), np.ones(2, dtype=np.float32)])
    def test_arrays_other_than_float64_are_rejected(self, a):
        with pytest.raises(TypeError):
            json_text(a)

    @settings(max_examples=300, deadline=None)
    @given(doc=float64_documents())
    def test_document_with_shared_magnitudes_matches_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(plain(doc))

    def test_arrays_differing_in_one_signed_zero_keep_their_texts(self):
        a = np.array([[0.0, 1.5], [-2.0, 0.0]])
        b = a.copy()
        b[1, 1] = -0.0
        assert np.array_equal(a, b)
        text = json_text({"a": a, "b": b, "c": a.copy()})
        assert text == ('{"a": [[0.0, 1.5], [-2.0, 0.0]], "b": [[0.0, 1.5], [-2.0, -0.0]], '
                        '"c": [[0.0, 1.5], [-2.0, 0.0]]}')

    def test_bit_equal_array_of_another_shape_keeps_its_own_text(self):
        # An array reuses an earlier array's text only if their bits and their shapes are equal.
        x = np.arange(6.0) - 2.5
        doc = {"x": x, "rows": x.reshape(2, 3), "columns": x.reshape(3, 2), "again": x.copy()}
        assert json_text(doc) == json.dumps(plain(doc))

    def test_encoding_leaves_no_reference_cycle(self, pt_unbroken_bundle):
        scenario, bundle = pt_unbroken_bundle
        doc = bundle_to_json_dict(bundle, scenario, {"x": bundle.psi_at(slice(None))[:, 0]})
        gc.collect()
        gc.disable()
        try:
            json_text(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_keys_other_than_str_are_rejected(self, key):
        with pytest.raises(TypeError, match="dict keys must be str"):
            json_text({"x": {key: np.array([1.0])}})
