import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import index_of_time
from metricbundle.errors import TagMismatchError
from metricbundle.evolution import integrate, rhs_vielbein
from metricbundle.matops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    cholesky_upper,
    eigenvalue_match_distance,
    hermitian_deviation,
)
from metricbundle.model import solve_stationary_metric
from metricbundle.representations import (
    RepresentationTag,
    TaggedOperator,
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


def s_op(matrix):
    return TaggedOperator(RepresentationTag.S, matrix)


class TestTransportExamples:
    def test_identity_is_fixed_point(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 4.0)
        for transport in (to_heisenberg, to_heisenberg_like):
            out = transport(s_op(np.eye(2)), bundle, i)
            assert np.max(np.abs(out.matrix - np.eye(2))) <= 1e-9

    def test_hamiltonian_commutes_with_its_own_flow(self, pt_unbroken_bundle):
        # Constant H: transported H equals H exactly (up to integrator error).
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 5.0)
        out = to_heisenberg(s_op(H_PT), bundle, i)
        assert np.max(np.abs(out.matrix - H_PT)) <= 1e-9

    def test_heisenberg_transport_against_exponential(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        t = 2.0
        i = index_of_time(bundle, t)
        out = to_heisenberg(s_op(SIGMA_Z), bundle, i)
        exact = expm(1j * t * H_PT) @ SIGMA_Z @ expm(-1j * t * H_PT)
        assert np.max(np.abs(out.matrix - exact)) <= 1e-9
        assert out.rep is RepresentationTag.H

    def test_transports_are_isospectral(self, driven_bundle):
        _, bundle = driven_bundle
        i = bundle.n_nodes - 1
        for obs in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            for transport in (to_heisenberg, to_heisenberg_like):
                out = transport(s_op(obs), bundle, i)
                assert eigenvalue_match_distance(out.matrix, obs) <= 1e-8

    def test_naive_transport_not_isospectral_for_nonhermitian(self, pt_unbroken_bundle):
        # sigma_x is accidentally invariant (sx H sx = adj(H) here), so probe
        # with sigma_z, which has no such protection.
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 1.0)
        out = naive_dagger_transport(s_op(SIGMA_Z), bundle, i)
        assert out.rep is RepresentationTag.NAIVE
        assert eigenvalue_match_distance(out.matrix, SIGMA_Z) > 1e-2


class TestTagDiscipline:
    def test_transport_rejects_wrong_tag(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        h_tagged = TaggedOperator(RepresentationTag.H, SIGMA_X)
        for fn in (to_heisenberg, to_heisenberg_like, naive_dagger_transport):
            with pytest.raises(TagMismatchError):
                fn(h_tagged, bundle, 0)

    def test_expectation_rejects_mixed_tags(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        state_h = heisenberg_state(bundle)
        op_hl = to_heisenberg_like(s_op(SIGMA_Z), bundle, 0)
        with pytest.raises(TagMismatchError):
            expectation(state_h, op_hl)
        op_h = to_heisenberg(s_op(SIGMA_Z), bundle, 0)
        with pytest.raises(TagMismatchError):
            expectation(heisenberg_like_state(bundle), op_h)

    def test_rhs_requires_h_tags(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        op_h = to_heisenberg(s_op(SIGMA_Z), bundle, 0)
        zero_h = TaggedOperator(RepresentationTag.H, np.zeros((2, 2)))
        with pytest.raises(TagMismatchError):
            heisenberg_rhs(op_h, s_op(H_PT), zero_h)

    def test_rhs_requires_one_picture_tag(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        op_h = to_heisenberg(s_op(SIGMA_Z), bundle, 0)
        op_hl = to_heisenberg_like(s_op(SIGMA_Z), bundle, 0)
        zero_h = TaggedOperator(RepresentationTag.H, np.zeros((2, 2)))
        for args in ((op_h, op_h, op_hl), (op_hl, op_hl, zero_h),
                     (s_op(SIGMA_Z), s_op(H_PT), s_op(np.zeros((2, 2))))):
            with pytest.raises(TagMismatchError):
                heisenberg_rhs(*args)


class TestExpectationEquivalence:
    def test_three_pictures_agree(self, driven_bundle):
        scenario, bundle = driven_bundle
        state_h = heisenberg_state(bundle)
        state_hl = heisenberg_like_state(bundle)
        for t in (0.0, 1.0, 5.0, 10.0):
            i = index_of_time(bundle, t)
            for name, spec in scenario.observables.items():
                obs = s_op(spec.assemble(t))
                val_s = expectation_schrodinger(bundle, i, obs.matrix)
                val_h = expectation(state_h, to_heisenberg(obs, bundle, i))
                val_hl = expectation(state_hl, to_heisenberg_like(obs, bundle, i))
                assert abs(val_s - val_h) <= 1e-8
                assert abs(val_s - val_hl) <= 1e-8

    def test_hl_dual_is_exact_conjugate(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        state = heisenberg_like_state(bundle)
        assert np.array_equal(state.dual, state.ket.conj())


class TestHermitizedHamiltonian:
    def test_zero_generator_gauge_cancels(self, driven_bundle):
        scenario, bundle = driven_bundle
        for t in (0.0, 3.0, 10.0):
            i = index_of_time(bundle, t)
            h_s = scenario.hamiltonian.assemble(t)
            de_dt = rhs_vielbein(h_s, bundle.e[i])
            flat = hermitized_hamiltonian(h_s, bundle.e[i], de_dt)
            assert np.max(np.abs(flat)) <= 1e-10

    def test_static_vielbein_from_stationary_metric_hermitizes(self):
        # With E frozen at the Cholesky factor of the stationary metric and
        # dE/dt = 0, the transformed generator must come out Hermitian.
        g, _ = solve_stationary_metric(H_PT)
        e = cholesky_upper(g)
        flat = hermitized_hamiltonian(H_PT, e, np.zeros((2, 2)))
        assert hermitian_deviation(flat) <= 1e-10
        # and it shares the (real) spectrum of the original generator
        assert eigenvalue_match_distance(flat, H_PT) <= 1e-10

    def test_hermitian_h_identity_vielbein_is_identity_map(self):
        flat = hermitized_hamiltonian(SIGMA_X, np.eye(2), np.zeros((2, 2)))
        assert np.array_equal(flat, SIGMA_X)


def _eom_fd_error(bundle, transport):
    t = 2.0
    i = index_of_time(bundle, t)
    obs = s_op(SIGMA_Z)
    h_p = transport(s_op(H_PT), bundle, i)
    zero = TaggedOperator(h_p.rep, np.zeros((2, 2)))
    rhs = heisenberg_rhs(transport(obs, bundle, i), h_p, zero)
    delta = 100 * bundle.step
    plus = transport(obs, bundle, index_of_time(bundle, t + delta)).matrix
    minus = transport(obs, bundle, index_of_time(bundle, t - delta)).matrix
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
        err, scale = _eom_fd_error(bundle, to_heisenberg_like)
        assert err <= 1e-2 * scale


class TestCommutatorTransport:
    def test_similarity_transport_preserves_commutators(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 1.0)
        for a, b in ((SIGMA_X, SIGMA_Y), (SIGMA_X, SIGMA_Z), (SIGMA_Y, SIGMA_Z)):
            assert commutator_gap(to_heisenberg, s_op(a), s_op(b), bundle, i) <= 1e-10

    def test_naive_transport_breaks_commutators(self, pt_unbroken_bundle):
        _, bundle = pt_unbroken_bundle
        i = index_of_time(bundle, 1.0)
        naive = commutator_gap(naive_dagger_transport, s_op(SIGMA_X), s_op(SIGMA_Y), bundle, i)
        correct = commutator_gap(to_heisenberg, s_op(SIGMA_X), s_op(SIGMA_Y), bundle, i)
        assert naive > 0.1
        assert naive / max(correct, 1e-300) > 100.0

    def test_naive_transport_fine_for_hermitian_dynamics(self, rabi_bundle):
        _, bundle = rabi_bundle
        i = index_of_time(bundle, 1.0)
        naive = commutator_gap(naive_dagger_transport, s_op(SIGMA_X), s_op(SIGMA_Y), bundle, i)
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
    for transport in (to_heisenberg, to_heisenberg_like):
        ta = transport(s_op(a), bundle, i).matrix
        tb = transport(s_op(b), bundle, i).matrix
        tab = transport(s_op(a @ b), bundle, i).matrix
        scale = max(1.0, np.linalg.norm(ta) * np.linalg.norm(tb))
        assert np.linalg.norm(ta @ tb - tab) / scale <= 1e-8
