import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import index_of_time
from metricbundle.evolution import integrate, rhs_vielbein
from metricbundle.matops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    cholesky_upper,
    hermitian_deviation,
    inverse,
    sorted_eigenvalues,
)
from metricbundle.model import solve_stationary_metric
from metricbundle.representations import (
    commutator_gap,
    expectation,
    expectation_schrodinger,
    heisenberg_like_state,
    heisenberg_rhs,
    heisenberg_state,
    hermitized_hamiltonian,
    naive_dagger_transport,
    to_heisenberg,
    to_heisenberg_like,
)
from metricbundle.zoo import get_demo

H_PT = SIGMA_X + 0.5j * SIGMA_Z


def to_hl(o, bundle, i):
    e = bundle.e_at(i)
    return to_heisenberg_like(o, e, inverse(e))


class TestTransportExamples:
    def test_identity_is_fixed_point(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 4.0)
        for transport in (to_heisenberg, to_hl):
            out = transport(np.eye(2), bundle, i)
            assert np.max(np.abs(out - np.eye(2))) <= 1e-9

    def test_hamiltonian_commutes_with_its_own_flow(self, pt_unbroken_bundle):
        # Constant H: transported H equals H exactly (up to integrator error).
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 5.0)
        out = to_heisenberg(H_PT, bundle, i)
        assert np.max(np.abs(out - H_PT)) <= 1e-9

    def test_heisenberg_transport_against_exponential(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        t = 2.0
        i = index_of_time(bundle, t)
        out = to_heisenberg(SIGMA_Z, bundle, i)
        exact = expm(1j * t * H_PT) @ SIGMA_Z @ expm(-1j * t * H_PT)
        assert np.max(np.abs(out - exact)) <= 1e-9

    def test_transports_are_isospectral(self, driven_bundle):
        _, bundle = driven_bundle
        i = bundle.n_nodes - 1
        for obs in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            for transport in (to_heisenberg, to_hl):
                out = transport(obs, bundle, i)
                gap = np.max(np.abs(sorted_eigenvalues(out) - sorted_eigenvalues(obs)))
                assert gap <= 1e-8

    def test_naive_transport_not_isospectral_for_nonhermitian(self, pt_unbroken_bundle):
        # sigma_x is accidentally invariant (sx H sx = adj(H) here), so probe
        # with sigma_z, which has no such protection.
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 1.0)
        out = naive_dagger_transport(SIGMA_Z, bundle, i)
        gap = np.max(np.abs(sorted_eigenvalues(out) - sorted_eigenvalues(SIGMA_Z)))
        assert gap > 1e-2


class TestExpectationEquivalence:
    def test_three_pictures_agree(self, driven_bundle):
        scenario, bundle = driven_bundle
        state_h = heisenberg_state(bundle)
        state_hl = heisenberg_like_state(bundle)
        for t in (0.0, 1.0, 5.0, 10.0):
            i = index_of_time(bundle, t)
            for name, spec in scenario.observables.items():
                obs = spec.assemble(t)
                val_s = expectation_schrodinger(bundle, i, obs)
                val_h = expectation(state_h, to_heisenberg(obs, bundle, i))
                val_hl = expectation(state_hl, to_hl(obs, bundle, i))
                assert abs(val_s - val_h) <= 1e-8
                assert abs(val_s - val_hl) <= 1e-8

    def test_hl_dual_is_exact_conjugate(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        state = heisenberg_like_state(bundle)
        assert np.array_equal(state[1], state[0].conj())


class TestHermitizedHamiltonian:
    def test_zero_generator_gauge_cancels(self, driven_bundle):
        scenario, bundle = driven_bundle
        for t in (0.0, 3.0, 10.0):
            i = index_of_time(bundle, t)
            h_s = scenario.hamiltonian.assemble(t)
            e = bundle.e_at(i)
            flat = hermitized_hamiltonian(h_s, e, inverse(e), rhs_vielbein(h_s, e))
            assert np.max(np.abs(flat)) <= 1e-10

    def test_static_vielbein_from_stationary_metric_hermitizes(self):
        # With E frozen at the Cholesky factor of the stationary metric and
        # dE/dt = 0, the transformed generator must come out Hermitian.
        g, _ = solve_stationary_metric(H_PT)
        e = cholesky_upper(g)
        flat = hermitized_hamiltonian(H_PT, e, inverse(e), np.zeros((2, 2)))
        assert hermitian_deviation(flat) <= 1e-10
        # and it shares the (real) spectrum of the original generator
        assert np.max(np.abs(sorted_eigenvalues(flat) - sorted_eigenvalues(H_PT))) <= 1e-10

    def test_hermitian_h_identity_vielbein_is_identity_map(self):
        flat = hermitized_hamiltonian(SIGMA_X, np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(flat, SIGMA_X)


def _eom_fd_error(bundle, transport):
    t = 2.0
    i = index_of_time(bundle, t)
    obs = SIGMA_Z
    h_p = transport(H_PT, bundle, i)
    rhs = heisenberg_rhs(transport(obs, bundle, i), h_p, np.zeros((2, 2)))
    delta = 100 * bundle.step
    plus = transport(obs, bundle, index_of_time(bundle, t + delta))
    minus = transport(obs, bundle, index_of_time(bundle, t - delta))
    fd = (plus - minus) / (2 * delta)
    return np.max(np.abs(fd - rhs)), max(1.0, np.max(np.abs(rhs)))


class TestHeisenbergEquationOfMotion:
    def test_rhs_matches_finite_difference(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        err, scale = _eom_fd_error(bundle, to_heisenberg)
        assert err <= 1e-2 * scale

    def test_hl_rhs_matches_finite_difference(self, pt_unbroken_bundle):
        # The HL picture obeys the same equation of motion as the H picture.
        _, bundle = pt_unbroken_bundle
        err, scale = _eom_fd_error(bundle, to_hl)
        assert err <= 1e-2 * scale


class TestCommutatorTransport:
    def test_similarity_transport_preserves_commutators(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 1.0)
        for a, b in ((SIGMA_X, SIGMA_Y), (SIGMA_X, SIGMA_Z), (SIGMA_Y, SIGMA_Z)):
            assert commutator_gap(to_heisenberg, a, b, bundle, i) <= 1e-10

    def test_naive_transport_breaks_commutators(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 1.0)
        naive = commutator_gap(naive_dagger_transport, SIGMA_X, SIGMA_Y, bundle, i)
        correct = commutator_gap(to_heisenberg, SIGMA_X, SIGMA_Y, bundle, i)
        assert naive > 0.1
        assert naive / max(correct, 1e-300) > 100.0

    def test_naive_transport_fine_for_hermitian_dynamics(self, rabi_bundle):
        _, bundle = rabi_bundle
        i = index_of_time(bundle, 1.0)
        naive = commutator_gap(naive_dagger_transport, SIGMA_X, SIGMA_Y, bundle, i)
        assert naive <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), t=st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_transport_is_an_algebra_automorphism(seed, t):
    # Products must transport to products: T(AB) = T(A) T(B).
    rng = np.random.default_rng(seed)
    scenario = get_demo("pt-dimer-unbroken", t1=4.0, step=0.01)
    bundle = integrate(scenario)
    i = index_of_time(bundle, t)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for transport in (to_heisenberg, to_hl):
        ta = transport(a, bundle, i)
        tb = transport(b, bundle, i)
        tab = transport(a @ b, bundle, i)
        scale = max(1.0, np.linalg.norm(ta) * np.linalg.norm(tb))
        assert np.linalg.norm(ta @ tb - tab) / scale <= 1e-8
