import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricbundle.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from metricbundle.matops import (
    ATOL,
    CONDITION_CAP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    cholesky_upper,
    eigenvalues,
    frobenius,
    hermitian_deviation,
    inverse,
    min_eig_hermitian,
    sorted_eigenvalues,
)
from conftest import COS_ALPHA, G_PT, SIN_ALPHA


def random_matrix(seed: int, dim: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestMul:
    def test_identity(self):
        a = random_matrix(1, 2)
        assert np.allclose(np.eye(2) @ a, a)

    def test_inverse_product(self):
        a = np.array([[2.0, 1.0], [0.5, 3.0]], dtype=complex)
        assert np.linalg.norm(a @ inverse(a) - np.eye(2)) <= 1e-12

    def test_pauli_product(self):
        # sigma_x sigma_z = -i sigma_y, by direct expansion
        assert np.allclose(SIGMA_X @ SIGMA_Z, -1j * SIGMA_Y)


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_involution(self):
        a = random_matrix(2)
        assert np.array_equal(adjoint(adjoint(a)), a)

    def test_nilpotent(self):
        assert np.array_equal(
            adjoint(np.array([[0, 1], [0, 0]])), np.array([[0, 0], [1, 0]])
        )


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_near_defective_rejected(self):
        # determinant ~1e-18: condition estimate far beyond the cap
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-18]], dtype=complex)
        with pytest.raises(SingularMatrixError):
            inverse(a)

    def test_cap_boundary(self):
        inverse(np.diag([1.0, 10 / CONDITION_CAP]))  # cond CONDITION_CAP / 10
        with pytest.raises(SingularMatrixError):
            inverse(np.diag([1.0, 0.1 / CONDITION_CAP]))  # cond 10 * CONDITION_CAP


class TestCholeskyUpper:
    def test_identity(self):
        assert np.allclose(cholesky_upper(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(cholesky_upper(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_pt_metric_reconstructs(self):
        e = cholesky_upper(G_PT)
        assert np.triu(e).tolist() == e.tolist()
        assert np.all(np.diag(e).real > 0)
        assert np.linalg.norm(adjoint(e) @ e - G_PT) <= 1e-12

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError):
            cholesky_upper(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_upper(np.diag([1.0, -1.0]))


class TestEigenvalues:
    def test_diagonal(self):
        vals = sorted(eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
        assert np.allclose(vals, [1, 2, 3])

    def test_pt_dimer_unbroken(self):
        # characteristic polynomial gives lambda^2 = s^2 - gamma^2
        h = SIGMA_X + 0.5j * SIGMA_Z
        vals = np.sort(eigenvalues(h).real)
        assert np.allclose(vals, [-np.sqrt(0.75), np.sqrt(0.75)], atol=1e-12)
        assert np.max(np.abs(eigenvalues(h).imag)) <= 1e-12

    def test_exceptional_point(self):
        h = SIGMA_X + 1j * SIGMA_Z
        assert np.max(np.abs(eigenvalues(h))) <= 1e-7  # coalescence at 0


class TestHermitianDeviation:
    def test_hermitian(self):
        assert hermitian_deviation(SIGMA_X) == 0.0

    def test_anti_hermitian(self):
        gamma = 0.5
        a = 1j * gamma * SIGMA_Z
        expected = np.linalg.norm(2j * gamma * SIGMA_Z) / max(1.0, np.linalg.norm(a))
        assert np.isclose(hermitian_deviation(a), expected)

    def test_zero(self):
        assert hermitian_deviation(np.zeros((2, 2))) == 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 3.0, 1e5, 1e300])
    def test_is_the_unscaled_ratio_bit_for_bit(self, scale):
        for seed in range(20):
            a = scale * random_matrix(seed)
            unscaled = frobenius(a - a.conj().T) / max(1.0, frobenius(a))
            assert hermitian_deviation(a) == unscaled, seed

    @pytest.mark.parametrize("a, expected", [
        ([[1, 1.5e308], [-1.5e308, 1]], 2.0),  # a - adj(a) overflows
        (1.79e308 * np.array([[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]), np.sqrt(8 / 3)),
    ])
    def test_near_the_float_limit_is_finite(self, a, expected):
        assert hermitian_deviation(a) == pytest.approx(expected, rel=1e-15)


class TestMinEigHermitian:
    def test_identity(self):
        assert min_eig_hermitian(np.eye(4)) == pytest.approx(1.0)

    def test_indefinite_diagonal(self):
        assert min_eig_hermitian(np.diag([3.0, -2.0])) == pytest.approx(-2.0)

    def test_pt_metric(self):
        expected = (1 - SIN_ALPHA) / COS_ALPHA
        assert min_eig_hermitian(G_PT) == pytest.approx(expected, abs=1e-12)
        # cross-check against the general eigenvalue routine
        assert min(eigenvalues(G_PT).real) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            min_eig_hermitian(SIGMA_X + 1j * SIGMA_Z)


class TestFrobenius:
    def test_norm_whose_squares_overflow_is_finite(self):
        norm = frobenius(np.diag([1e300, -1e300]))
        assert abs(norm - np.sqrt(2) * 1e300) <= 1e-15 * np.sqrt(2) * 1e300
        assert frobenius(np.stack([np.diag([1e300, 1e300j]), np.eye(2)])).tolist() == [
            frobenius(np.diag([1e300, 1e300j])), np.sqrt(2)]

    def test_norm_beyond_the_float_range_is_inf(self):
        assert frobenius(np.full((2, 2), 1.7e308)) == np.inf

    @pytest.mark.parametrize("dim", [2, 3, 16, 64])
    @pytest.mark.parametrize("magnitude", [1e-100, 1e-20, 1.0, 1e40, 1e150])
    def test_equals_numpy_norm_bit_for_bit(self, dim, magnitude):
        rng = np.random.default_rng(dim)
        stack = magnitude * (rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim)))
        assert np.array_equal(frobenius(stack), np.linalg.norm(stack, axis=(-2, -1)))
        assert frobenius(stack[1]) == np.linalg.norm(stack[1])
        assert frobenius(stack[1, 0]) == np.linalg.norm(stack[1, 0])
        assert np.array_equal(frobenius(stack.real), np.linalg.norm(stack.real, axis=(-2, -1)))
        transposed = stack.transpose(0, 2, 1)  # the order of summation follows the layout
        assert np.array_equal(frobenius(transposed), np.linalg.norm(transposed, axis=(-2, -1)))

    def test_infinite_entry_gives_inf_not_nan(self):
        # A complex product with a power of two would turn inf * 0 into nan.
        assert frobenius(np.array([[np.inf, 1e300], [0, 1]], dtype=complex)) == np.inf


class TestStacks:
    """A (nodes, d, d) stack gives, per matrix, what the kernel gives for that matrix."""

    @pytest.mark.parametrize("kernel", [
        frobenius,
        hermitian_deviation,
        inverse,
        sorted_eigenvalues,
        lambda m: min_eig_hermitian(adjoint(m) @ m),
    ])
    def test_matches_per_matrix(self, kernel):
        stack = np.stack([random_matrix(seed) + 3 * np.eye(3) for seed in range(5)])
        stacked = kernel(stack)
        for k, m in enumerate(stack):
            assert np.allclose(stacked[k], kernel(m), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_slice_of_a_batched_inverse_is_the_inverse_of_the_slice(self, dim):
        # verify inverts E once on its grid and reads each check's nodes from
        # that stack; its reports are byte-identical to per-check inverses
        # only while LAPACK gives a slice the same bits as the whole stack.
        rng = np.random.default_rng(dim)
        stack = rng.normal(size=(7, dim, dim)) + 1j * rng.normal(size=(7, dim, dim))
        at = [0, 2, 5]
        assert np.array_equal(np.linalg.inv(stack)[at], np.linalg.inv(stack[at]))
        assert np.array_equal(np.linalg.svd(stack, compute_uv=False)[at],
                              np.linalg.svd(stack[at], compute_uv=False))

    def test_error_describes_first_bad_matrix(self):
        singular = np.stack([np.eye(2), np.diag([3.0, 0.0]), np.diag([2.0, 0.0])])
        with pytest.raises(SingularMatrixError, match=r"sigma_min=0\.000e\+00, sigma_max=3\.000e\+00"):
            inverse(singular)
        skew = np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]], [[1.0, 4.0], [0.0, 1.0]]])
        with pytest.raises(NotHermitianError, match=r"deviation 1\.155e\+00"):
            min_eig_hermitian(skew)

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatchError):
            inverse(np.ones((3, 2, 4)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
def test_similarity_preserves_spectrum(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    p = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) + 3 * np.eye(dim)
    if np.linalg.cond(p) > 1e4:
        return
    similar = inverse(p) @ a @ p
    scale = max(1.0, np.linalg.norm(a))
    assert np.max(np.abs(sorted_eigenvalues(a) - sorted_eigenvalues(similar))) <= (
        ATOL + 1e-8 * scale)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 6))
def test_cholesky_reconstructs_random_pd(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = m.conj().T @ m + 0.1 * np.eye(dim)
    e = cholesky_upper(g)
    assert np.linalg.norm(adjoint(e) @ e - g) <= 1e-12 * dim * np.linalg.norm(g)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adjoint_product_rule(seed):
    a, b = random_matrix(seed), random_matrix(seed + 1)
    assert np.allclose(adjoint(a @ b), adjoint(b) @ adjoint(a), atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inverse_is_involutive(seed):
    a = random_matrix(seed) + 3 * np.eye(3)
    if np.linalg.cond(a) > 1e6:
        return
    assert np.allclose(inverse(inverse(a)), a, atol=1e-9)
