import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import G_PT
from metricbundle.errors import NonFiniteError, StepLimitExceededError
from metricbundle.evolution import (
    _rhs,
    bundle_from_json_dict,
    bundle_to_json_dict,
    closed_form_metric,
    integrate,
)
from metricbundle.matops import SIGMA_X, SIGMA_Z
from metricbundle.model import IntegratorConfig
from metricbundle.zoo import get_demo

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

    def test_richardson_beats_plain_rk4(self):
        exact = expm(-1j * 2.0 * H_PT)
        plain = integrate(get_demo("pt-dimer-unbroken", t1=2.0, step=0.05))
        rich_scenario = get_demo("pt-dimer-unbroken", t1=2.0, step=0.05)
        config = dataclasses.replace(rich_scenario.integrator, method="rk4_richardson")
        rich = integrate(dataclasses.replace(rich_scenario, integrator=config))
        err_plain = np.max(np.abs(plain.u_r[-1] - exact))
        err_rich = np.max(np.abs(rich.u_r[-1] - exact))
        assert err_rich < err_plain / 50
        assert rich.metadata["max_step_error_estimate"] > 0


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
