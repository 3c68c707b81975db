import dataclasses
import fractions
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import G_PT
from metricbundle import model, profile
from metricbundle import representations as rep
from metricbundle.errors import (
    DimensionMismatchError,
    EigenConvergenceError,
    EvalError,
    NoPositiveDefiniteSolutionError,
    SchemaError,
)
from metricbundle.evolution import bundle_to_json_dict, integrate, to_json_parts
from metricbundle.matops import ATOL, RTOL, SIGMA_X, SIGMA_Y, SIGMA_Z, min_eig_hermitian
from metricbundle.model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    Scenario,
    _complex_array_from_json,
    _pointer_token,
    _short_repr,
    constant_operator,
    load_scenario,
    resolve_initial_metric,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    scenario_to_json_text,
    solve_stationary_metric,
    with_overrides,
)
from metricbundle.verify import run_suite
from metricbundle.zoo import builtin_models, get_demo


class TestAssemble:
    def test_single_constant_term(self):
        spec = constant_operator(SIGMA_X)
        for t in (0.0, 1.7, -4.0):
            assert np.array_equal(spec.assemble(t), SIGMA_X)

    def test_linear_combination(self):
        spec = OperatorSpec(
            [ProfileTerm.parse("1", SIGMA_X), ProfileTerm.parse("0.5", 1j * SIGMA_Z)]
        )
        assert np.allclose(spec.assemble(0.0), SIGMA_X + 0.5j * SIGMA_Z)

    def test_cosine_profile_at_pi(self):
        spec = OperatorSpec([ProfileTerm.parse("cos(t)", SIGMA_X)])
        assert np.max(np.abs(spec.assemble(np.pi) + SIGMA_X)) <= 1e-15

    def test_linearity_in_terms(self):
        a = ProfileTerm.parse("sin(t)", SIGMA_X)
        b = ProfileTerm.parse("t^2", SIGMA_Y)
        joint = OperatorSpec([a, b])
        for t in (0.0, 0.3, 2.0):
            separate = OperatorSpec([a]).assemble(t) + OperatorSpec([b]).assemble(t)
            assert np.array_equal(joint.assemble(t), separate)

    def test_time_free_expressions_are_constant(self):
        spec = OperatorSpec(
            [ProfileTerm.parse("-1.0", SIGMA_X), ProfileTerm.parse("2^3 / 4", SIGMA_Z)]
        )
        assert np.array_equal(spec.constant, -SIGMA_X + 2.0 * SIGMA_Z)
        many = spec.assemble_many(np.linspace(0.0, 1.0, 5))
        assert many.strides[0] == 0  # one matrix broadcast over the times
        assert np.array_equal(many[3], -SIGMA_X + 2.0 * SIGMA_Z)
        assert OperatorSpec([ProfileTerm.parse("0 * t", SIGMA_X)]).constant is None

    def test_constant_operator_that_overflows_fails_when_built(self):
        big = np.diag([1e10, 1.0]).astype(complex)
        with pytest.raises(EvalError, match=r"^operator is not finite$"):
            OperatorSpec([ProfileTerm.parse("1e300", big)])
        # An operator in t overflows only at some times, so it is checked where assembled.
        spec = OperatorSpec([ProfileTerm.parse("1e300 * t", big)])
        assert spec.constant is None
        with pytest.raises(EvalError, match=r"^operator is not finite at t = 1\.0$"):
            spec.assemble(1.0)

    def test_constant_term_that_fails_fails_where_used(self):
        # A coefficient without t is evaluated where it is parsed.
        with pytest.raises(EvalError, match=r"^division by zero \(at offset 2\)$"):
            ProfileTerm.parse("1 / (1 - 1)", SIGMA_X)

    def test_differentiate(self):
        spec = OperatorSpec([ProfileTerm.parse("sin(t)", SIGMA_X)])
        d = spec.differentiate()
        t = 0.9
        assert np.allclose(d.assemble(t), np.cos(t) * SIGMA_X)

    def test_differentiate_labels_each_term_and_keeps_its_tree(self):
        spec = OperatorSpec([ProfileTerm.parse("sin(t)", SIGMA_X),
                             ProfileTerm.parse("2 * t^2", SIGMA_Z)])
        d = spec.differentiate()
        assert [term.source for term in d.terms] == ["d/dt (sin(t))", "d/dt (2 * t^2)"]
        for term, d_term in zip(spec.terms, d.terms):
            assert repr(d_term.expr) == repr(profile.differentiate(term.expr))  # offsets too
            assert np.array_equal(d_term.matrix, term.matrix)


def _hermitian_nullspace(h: np.ndarray) -> list[np.ndarray]:
    """Brute force: a Frobenius-orthonormal real basis of the Hermitian G with
    G H - adj(H) G = 0, from the SVD of the n^2 x n^2 Kronecker system restricted
    to an orthonormal Hermitian basis (an explicitly assembled real system)."""
    n = h.shape[0]
    basis = []
    for j in range(n):
        for k in range(j, n):
            e = np.zeros((n, n), dtype=complex)
            if j == k:
                e[j, j] = 1
                basis.append(e)
            else:
                e[j, k] = e[k, j] = 2 ** -0.5
                basis.append(e)
                basis.append(1j * (e - 2 * np.triu(e)))
    # Row-major vec: vec(G H) = (I (x) H^T) vec(G); vec(H^dag G) = (H^dag (x) I) vec(G).
    eye = np.eye(n)
    lin = np.kron(eye, h.T) - np.kron(h.conj().T, eye)
    cols = lin @ np.stack([b.ravel() for b in basis], axis=1)
    _, svals, vt = np.linalg.svd(np.concatenate([cols.real, cols.imag]))
    null_tol = max(ATOL, RTOL * svals[0])
    null = [vt[i] for i in range(n * n) if svals[i] <= null_tol]
    return [np.tensordot(c, basis, axes=1) for c in null]


def _reference_accept(g, h):
    g = 0.5 * (g + g.conj().T)
    norm = np.linalg.norm(g)
    if norm <= 1e-10 or np.linalg.eigvalsh(g)[0] <= 1e-12 + 1e-10 * norm:
        return None
    g = g * (g.shape[0] / np.real(np.trace(g)))
    if np.linalg.norm(g @ h - h.conj().T @ g) > 1e-10 * max(1.0, np.linalg.norm(g)) * max(
        1.0, np.linalg.norm(h)
    ):
        return None
    return g


def _reference_solve(h: np.ndarray):
    """The Kronecker-SVD stationary-metric solver, kept as the reference:
    project the identity onto the Hermitian nullspace; if that is not
    positive-definite, fall back to adj(inv(V)) inv(V) from the eigenvectors."""
    null = _hermitian_nullspace(h)
    if not null:
        raise NoPositiveDefiniteSolutionError("no Hermitian solution")
    g = _reference_accept(sum(np.real(np.trace(b)) * b for b in null), h)
    if g is not None:
        return g
    vals, vecs = np.linalg.eig(h)
    if np.max(np.abs(vals.imag)) > max(1e-12, 1e-9 * max(1.0, np.linalg.norm(h))):
        raise NoPositiveDefiniteSolutionError("complex spectrum")
    if np.linalg.cond(vecs) > 1e8:
        raise NoPositiveDefiniteSolutionError("eigenvectors coalesce", degenerate=True)
    vinv = np.linalg.inv(vecs)
    g = _reference_accept(vinv.conj().T @ vinv, h)
    if g is None:
        raise NoPositiveDefiniteSolutionError("singular metric", degenerate=True)
    return g


def _similar_to(blocks: np.ndarray, seed: int, top: float = 3.0) -> np.ndarray:
    """V blocks inv(V) for a random complex V with singular values in [1, top]."""
    rng = np.random.default_rng(seed)
    n = blocks.shape[0]
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v = (q1 * rng.uniform(1.0, top, size=n)) @ q2
    return v @ blocks @ np.linalg.inv(v)


def _perfbench_chain(n: int, seed: int) -> np.ndarray:
    """H of the n-site PT chain that perfbench/workloads.py writes for a seed.

    Replays its draws: for each chain size in turn, gamma ~ U(0.2, 0.6), then
    two normal vectors for psi0.
    """
    rng = np.random.default_rng(seed)
    for size in (16, 32, 64):
        gamma = float(rng.uniform(0.2, 0.6))
        rng.normal(size=size), rng.normal(size=size)
        if size == n:
            break
    hopping = np.diag(np.ones(n - 1), 1)
    gain_loss = np.zeros((n, n), dtype=complex)
    gain_loss[0, 0], gain_loss[-1, -1] = 1j, -1j
    return -1.0 * (hopping + hopping.T) + gamma * gain_loss


def _assert_stationary_metric(g, h):
    assert min_eig_hermitian(g) > 0
    assert np.real(np.trace(g)) == pytest.approx(h.shape[0])
    assert np.linalg.norm(g @ h - h.conj().T @ g) <= 1e-10 * np.linalg.norm(g) * max(
        1.0, np.linalg.norm(h)
    )


class TestStationaryMetric:
    def test_hermitian_hamiltonian_gives_identity(self):
        g = solve_stationary_metric(SIGMA_X)
        assert np.allclose(g, np.eye(2), atol=1e-10)

    def test_unbroken_dimer(self):
        h = SIGMA_X + 0.5j * SIGMA_Z
        g = solve_stationary_metric(h)
        expected = np.array([[1.0, -0.5j], [0.5j, 1.0]])
        assert np.allclose(g, expected, atol=1e-10)
        assert np.real(np.trace(g)) == pytest.approx(2.0)
        assert np.linalg.norm(g @ h - h.conj().T @ g) <= 1e-10
        assert min_eig_hermitian(g) > 0
        # independent oracle: g lies in the brute-force Hermitian nullspace
        null = _hermitian_nullspace(h)
        coeffs = np.linalg.lstsq(
            np.stack([b.ravel() for b in null], axis=1), g.ravel(), rcond=None
        )[0]
        recombined = sum(c * b for c, b in zip(coeffs, null))
        assert np.linalg.norm(recombined - g) <= 1e-8

    def test_broken_dimer_has_no_pd_solution(self):
        h = SIGMA_X + 1.5j * SIGMA_Z
        # oracle: every Hermitian nullspace element is indefinite
        for b in _hermitian_nullspace(h):
            vals = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
            assert vals[0] * vals[-1] <= 1e-12
        with pytest.raises(NoPositiveDefiniteSolutionError) as err:
            solve_stationary_metric(h)
        assert not err.value.degenerate

    def test_exceptional_point_reported_degenerate(self):
        with pytest.raises(NoPositiveDefiniteSolutionError) as err:
            solve_stationary_metric(SIGMA_X + 1j * SIGMA_Z)
        assert err.value.degenerate

    @settings(max_examples=30, deadline=None)
    @given(gamma=st.floats(0.0, 0.9), seed=st.integers(0, 1000))
    def test_quasi_hermitian_regime_always_solvable(self, gamma, seed):
        h = SIGMA_X + 1j * gamma * SIGMA_Z
        g = solve_stationary_metric(h)
        _assert_stationary_metric(g, h)


    @settings(max_examples=60, deadline=None)
    @given(
        spectrum=st.lists(
            st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.5, 3.0]), min_size=2, max_size=8
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # eig picks eigenvectors with cond(V) = 88 inside the degenerate clusters:
    # unless each cluster gets an orthonormal basis, G is off by 1.1e-10.
    @example(spectrum=[3.0, -1.0, 0.0, 3.0, 0.0, 3.0, 1.5, 1.5], seed=1)
    def test_matches_kronecker_reference_on_real_spectra(self, spectrum, seed):
        # Repeated values give degenerate clusters with free Hermitian blocks.
        h = _similar_to(np.diag(spectrum).astype(complex), seed)
        g = solve_stationary_metric(h)
        g_ref = _reference_solve(h)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)

    @pytest.mark.parametrize("spectrum, seed", [([0.0, 1.0, 2.0, 3.0], 4), ([0.0, 1.0, 2.0], 7)])
    def test_eigenbasis_fallback_when_closest_to_identity_is_indefinite(
            self, monkeypatch, spectrum, seed):
        # With V's singular values in [1, 30], not [1, 3], the solution closest
        # to the identity is not positive-definite and adj(W) W is taken. Random
        # non-normal H with a real simple spectrum often take it: 1394 of 4000
        # with a complex Gaussian V and n = 2-6. min eig G is 0.051 (seed 4)
        # and 0.0054 (seed 7).
        h = _similar_to(np.diag(spectrum).astype(complex), seed, top=30.0)
        accept, accepted = model._accept_candidate, []

        def spy(*args):
            g = accept(*args)
            accepted.append(g is not None)
            return g

        monkeypatch.setattr(model, "_accept_candidate", spy)
        g = solve_stationary_metric(h)
        assert accepted == [False, True]
        g_ref = _reference_solve(h)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
        _assert_stationary_metric(g, h)

    @settings(max_examples=40, deadline=None)
    @given(
        spectrum=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 1.5]), min_size=0, max_size=6),
        block=st.sampled_from(["complex_pair", "jordan"]),
        centre=st.sampled_from([-1.0, 0.0, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_broken_and_ep_match_kronecker_reference(self, spectrum, block, centre, seed):
        n = len(spectrum) + 2
        blocks = np.zeros((n, n), dtype=complex)
        blocks[2:, 2:] = np.diag(spectrum)
        if block == "complex_pair":  # eigenvalues centre +- 0.75 i
            blocks[:2, :2] = [[centre, 0.75], [-0.75, centre]]
        else:  # a 2x2 Jordan block: the eigenvectors coalesce
            blocks[:2, :2] = [[centre, 1.0], [0.0, centre]]
        h = _similar_to(blocks, seed)
        with pytest.raises(NoPositiveDefiniteSolutionError) as ref:
            _reference_solve(h)
        with pytest.raises(NoPositiveDefiniteSolutionError) as err:
            solve_stationary_metric(h)
        assert err.value.degenerate == ref.value.degenerate
        if block == "complex_pair":
            assert not err.value.degenerate

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_perfbench_chain_matches_kronecker_reference(self, seed):
        h = _perfbench_chain(16, seed)
        g = solve_stationary_metric(h)
        g_ref = _reference_solve(h)
        assert np.linalg.norm(g - g_ref) <= 1e-10 * np.linalg.norm(g_ref)
        _assert_stationary_metric(g, h)

    def test_hamiltonian_whose_norm_overflows_is_rejected(self):
        # Broken phase: with an infinite norm every tolerance would be inf, and
        # a metric would be accepted. Each entry is finite; the norm, 1.9e308, is not.
        h = 6e307 * (SIGMA_X + 2j * SIGMA_Z)
        with pytest.raises(EigenConvergenceError, match="the norm of H overflows"):
            solve_stationary_metric(h)
        with pytest.raises(NoPositiveDefiniteSolutionError):
            solve_stationary_metric(1e-5 * h)

    @pytest.mark.parametrize("scale", [1e155, 1.25e308])
    def test_hamiltonian_whose_squares_overflow_is_solved(self, scale):
        # The squares of the entries overflow, the norm does not; at 1.25e308 the
        # gap between the two eigenvalues overflows too.
        g = solve_stationary_metric(scale * SIGMA_X)
        assert np.abs(g - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("n, seed", [(32, 6), (64, 1)])
    def test_large_chain_solves(self, n, seed):
        # The 32-site chain of seed 6 made the Kronecker SVD fail to converge;
        # at 64 sites that SVD is 4096 x 4096.
        h = _perfbench_chain(n, seed)
        g = solve_stationary_metric(h)
        _assert_stationary_metric(g, h)


@pytest.mark.parametrize("make, change", [
    (lambda: ProfileTerm.parse("1", np.eye(2)), {"source": "2"}),
    (lambda: MetricInit("explicit", np.eye(2)), {"mode": "identity", "matrix": None}),
    (lambda: get_demo("pt-ep"), {"name": "renamed"}),
    (lambda: integrate(get_demo("pt-ep", t1=0.01)), {"step": 0.5}),
], ids=["ProfileTerm", "MetricInit", "Scenario", "EvolutionBundle"])
def test_array_holding_records_compare_by_identity(make, change):
    # A generated == or hash over array fields would raise or answer by
    # accident; these records compare and hash by identity instead.
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
    changed = dataclasses.replace(a, **change)
    assert changed != a
    for name, value in change.items():
        assert getattr(changed, name) == value


# Keys built from the pieces a pointer token escapes, and the escapes themselves.
POINTER_KEYS = st.lists(st.sampled_from(
    ["\\", "~", "/", "~0", "~1", "\n", "\r", "\u2028", "\\u000a", "\\u000d", "\ud800",
     "\\ud800", "\\\\", "u", "a"]), max_size=5).map("".join) | st.text(max_size=5)


class TestScenarioSchema:
    def test_round_trip_is_bit_exact(self):
        for name in builtin_models():
            scenario = get_demo(name)
            doc = scenario_to_json_dict(scenario)
            text = json.dumps(doc)
            doc2 = scenario_to_json_dict(scenario_from_json_dict(json.loads(text)))
            assert json.dumps(doc2) == text

    def test_load_save(self, tmp_path):
        scenario = get_demo("pt-dimer-unbroken")
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.name == scenario.name
        assert np.array_equal(loaded.psi0, scenario.psi0)
        for term, original in zip(loaded.hamiltonian.terms, scenario.hamiltonian.terms,
                                  strict=True):
            assert term.source == original.source
            assert np.array_equal(term.matrix, original.matrix)

    def test_minimal_identity_metric_scenario(self):
        doc = {
            "dim": 2,
            "hamiltonian": [
                {"coeff": "1", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
            ],
            "metric": {"mode": "identity"},
            "psi0": [[1, 0], [0, 0]],
            "observables": {"sz": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
            "t0": 0.0,
            "t1": 1.0,
            "integrator": {"method": "rk4", "step": 0.01},
        }
        scenario = scenario_from_json_dict(doc)
        assert scenario.dim == 2
        assert np.array_equal(scenario.observables["sz"].assemble(0.0), SIGMA_Z)

    def test_omitted_integrator_keys_take_the_config_defaults(self):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["integrator"] = {}
        assert scenario_from_json_dict(doc).integrator == model.IntegratorConfig()

    def test_psi0_dimension_mismatch_names_field(self):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["psi0"] = [[1, 0]]
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert "psi0" in str(err.value)

    def test_bad_complex_pair_pointer(self):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["hamiltonian"][0]["matrix"][0][1] = [1, 2, 3]
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == "/hamiltonian/0/matrix/0/1"

    def test_bad_coefficient_is_schema_error(self):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["hamiltonian"][0]["coeff"] = "sin(x)"
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert "/hamiltonian/0/coeff" == err.value.pointer

    @pytest.mark.parametrize("name", [1, None, ("x",)])
    def test_non_string_observable_name_is_schema_error(self, name):
        scenario = get_demo("hermitian-rabi")
        with pytest.raises(SchemaError) as err:
            dataclasses.replace(scenario, observables={name: scenario.observables["sigma_z"]})
        assert err.value.pointer == "/observables"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(a=POINTER_KEYS, b=POINTER_KEYS)
    @example(a="\n", b="\\u000a")
    @example(a="\\", b="\\\\")
    def test_distinct_keys_have_distinct_pointer_tokens(self, a, b):
        assume(a != b)
        assert _pointer_token(a) != _pointer_token(b)

    @pytest.mark.parametrize("key, token", [("\r", "\\u000d"), ("a\nb", "a\\u000ab"),
                                            ("\u2028", "\\u2028"), ("a~/b", "a~0~1b"),
                                            ("\ud800", "\\ud800"), ("a/\udcff~", "a~1\\udcff~0")])
    def test_pointer_of_a_key_fits_one_line(self, key, token):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc[key] = 1
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == f"/{token}"
        assert str(err.value).splitlines() == [f"/{token}: unknown key"]

    @pytest.mark.parametrize("text, key", [
        ('{"hamiltonian": [{"coeff": "1", "coeff": "t"}]}', "coeff"),
        ('{"a/b": 1, "a/b": 2}', "a~1b"),
        ('{"b": 1, "a": 1, "a": 2, "b": 2}', "a"),
    ], ids=["in-a-list", "escaped", "first-repeat"])
    def test_repeated_key_is_schema_error(self, tmp_path, text, key):
        # In any object, before any other check; test_cli covers the top level,
        # integrator and observables. RFC 8259 leaves a repeated name unpredictable.
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(SchemaError) as err:
            load_scenario(path)
        assert (str(err.value), err.value.pointer) == (f"duplicate key {key}", "")

    @pytest.mark.parametrize("name", [["x"], None, 3, {"a": "b"}, True])
    def test_non_string_name_is_schema_error(self, name):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["name"] = name
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == "/name"

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"\xff\xfe{}", "not UTF-8"),
            ('{"name": "caf\u00e9"}'.encode("latin-1"), "not UTF-8"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        ],
        ids=["bom-like", "latin-1", "deep"],
    )
    def test_unreadable_file_is_schema_error(self, tmp_path, raw, message):
        path = tmp_path / "s.json"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match=message) as err:
            load_scenario(path)
        assert err.value.pointer == ""

    def test_explicit_metric_validated(self):
        with pytest.raises(SchemaError):
            MetricInit("explicit", None)

    @pytest.mark.parametrize("matrix, message", [
        ([[1, 2], [0, 1]], "explicit metric is not Hermitian"),
        (np.diag([1.0, -1.0]), "explicit metric is not positive-definite"),
        # Smallest eigenvalue 6.8e-16 > 0, yet LAPACK's Cholesky factorization fails.
        ([[1.5300000000000011, 0.72, 0.8549999999999999],
          [0.72, 5.94, 8.244],
          [0.8549999999999999, 8.244, 11.4561]],
         "explicit metric is not positive-definite: cholesky_upper: "),
        # Smallest eigenvalue -5e307; g + adj(g) overflows, (g + adj(g)) / 2 does not.
        ([[1e308, 1.5e308], [1.5e308, 1e308]], "explicit metric is not positive-definite"),
        # g - adj(g) overflows; the deviation was inf / inf = nan, which passed the test.
        ([[1, 1.5e308], [-1.5e308, 1]], "explicit metric is not Hermitian"),
        (1.79e308 * np.array([[1, 1, 1], [-1, 1, 1], [-1, -1, 1]]),
         "explicit metric is not Hermitian"),
    ], ids=["not-hermitian", "indefinite", "cholesky-fails", "indefinite-near-the-float-limit",
            "not-hermitian-near-the-float-limit", "not-hermitian-at-the-float-limit"])
    def test_bad_explicit_metric_is_schema_error_when_built(self, matrix, message):
        with pytest.raises(SchemaError) as err:
            MetricInit("explicit", matrix)
        assert err.value.pointer == "/metric/matrix"
        assert str(err.value).startswith(f"/metric/matrix: {message}")

    def test_explicit_metric_from_a_list_is_stored_as_a_complex_array(self):
        init = MetricInit("explicit", [[1, 0], [0, 1]])
        assert isinstance(init.matrix, np.ndarray) and init.matrix.dtype == complex
        scenario = dataclasses.replace(get_demo("hermitian-rabi"), metric_init=init)
        assert np.array_equal(resolve_initial_metric(scenario), np.eye(2))

    def test_explicit_metric_at_the_float_limit_is_resolved_to_itself(self):
        # g + adj(g) overflows here; a warning is an error under pytest.
        init = MetricInit("explicit", 1e308 * np.eye(2))
        scenario = dataclasses.replace(get_demo("hermitian-rabi"), metric_init=init)
        assert np.array_equal(resolve_initial_metric(scenario), 1e308 * np.eye(2))

    @pytest.mark.parametrize("mode", ["identity", "stationary"])
    @pytest.mark.parametrize("matrix", ["garbage", None, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
                             ids=["garbage", "null", "valid"])
    def test_matrix_outside_explicit_mode_is_schema_error(self, mode, matrix):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken"))
        doc["metric"] = {"mode": mode, "matrix": matrix}
        with pytest.raises(SchemaError, match=f"{mode} metric takes no matrix") as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == "/metric/matrix"
        with pytest.raises(SchemaError) as err:
            MetricInit(mode, np.eye(2, dtype=complex))
        assert err.value.pointer == "/metric/matrix"

    def test_unknown_metric_mode_is_named_before_its_matrix(self):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken"))
        doc["metric"] = {"mode": "bogus", "matrix": "garbage"}
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == "/metric/mode"

    @pytest.mark.parametrize("section, key, pointer", [
        ("", "a/b", "/a~1b"),
        ("metric", "~", "/metric/~0"),
        ("integrator", "x~y/z", "/integrator/x~0y~1z"),
    ])
    def test_unknown_key_pointer_escapes_its_token(self, section, key, pointer):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        (doc[section] if section else doc)[key] = 0
        with pytest.raises(SchemaError, match="unknown key") as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == pointer

    def test_observable_pointer_escapes_its_name(self):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["observables"] = {"a/b": [[[1, 0], [0, 0]], [[0, 0], "x"]]}
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert err.value.pointer == "/observables/a~1b/1/1"

    def test_explicit_metric_round_trip(self):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken"))
        doc["metric"] = {
            "mode": "explicit",
            "matrix": [[[1, 0], [0, -0.5]], [[0, 0.5], [1, 0]]],
        }
        scenario = scenario_from_json_dict(doc)
        assert np.allclose(scenario.metric_init.matrix, G_PT * np.sqrt(0.75))


    def test_explicit_complex_metric_round_trips_through_a_file(self, tmp_path):
        scenario = dataclasses.replace(
            get_demo("pt-dimer-unbroken"),
            metric_init=MetricInit("explicit", [[2, 0.5j], [-0.5j, 1]]))
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        back = load_scenario(path)
        assert scenario_to_json_dict(back) == scenario_to_json_dict(scenario)
        assert json.loads(path.read_text())["metric"]["mode"] == "explicit"
        assert back.metric_init.matrix.tobytes() == scenario.metric_init.matrix.tobytes()


def _build(scenario, **change):
    """Scenario(...) from scenario's fields, with change applied."""
    fields = {field.name: getattr(scenario, field.name) for field in dataclasses.fields(scenario)}
    return Scenario(**{**fields, **change})


class TestScenarioBuiltInCode:
    """A Scenario built in code obeys the rules of a scenario file."""

    @pytest.mark.parametrize("field, value", [
        ("name", 5),
        ("expected_failures", "abc"),  # each letter would be a prefix
        ("expected_failures", ["x", 1]),
        ("expected_failures", ("",)),
        ("expected_failures", ["norm_conservation", ""]),
    ])
    def test_bad_value_raises_the_files_schema_error(self, field, value):
        scenario = get_demo("pt-dimer-broken", t1=3)
        doc = scenario_to_json_dict(scenario)
        doc[field] = list(value) if isinstance(value, tuple) else value
        with pytest.raises(SchemaError) as from_file:
            scenario_from_json_dict(doc)
        for build in (_build, dataclasses.replace):
            with pytest.raises(SchemaError) as in_code:
                build(scenario, **{field: value})
            assert str(in_code.value) == str(from_file.value)
            assert in_code.value.pointer == from_file.value.pointer

    @pytest.mark.parametrize("field, value, pointer", [
        ("name", "a\ud800", "/name"),
        ("name", "\udcff", "/name"),
        ("observables", "\udfff", "/observables/\\udfff"),
        ("observables", "x/\ud83d", "/observables/x~1\\ud83d"),
    ])
    def test_surrogate_in_a_name_is_schema_error(self, field, value, pointer):
        # UTF-8 cannot encode it, so the name could not be printed or written.
        scenario = get_demo("hermitian-rabi", t1=0.1)
        doc = scenario_to_json_dict(scenario)
        if field == "observables":
            value = {value: scenario.observables["sigma_z"]}
            doc[field] = {name: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]] for name in value}
        else:
            doc[field] = value
        for build in (lambda: scenario_from_json_dict(doc),
                      lambda: dataclasses.replace(scenario, **{field: value})):
            with pytest.raises(SchemaError) as err:
                build()
            assert str(err.value) == f"{pointer}: holds a surrogate, which UTF-8 cannot encode"

    @pytest.mark.parametrize("psi0, message", [
        ([np.nan, 0], "psi0 contains non-finite entries"),
        ([1, 1j * np.inf], "psi0 contains non-finite entries"),
        (np.eye(2), "psi0 must be a vector, got shape (2, 2)"),
        (1.0, "psi0 must be a vector, got shape ()"),
        ([1, 0, 0], "psi0 has dimension 3, hamiltonian 2"),
    ])
    def test_bad_psi0_is_dimension_mismatch(self, psi0, message):
        scenario = get_demo("hermitian-rabi")
        for build in (_build, dataclasses.replace):
            with pytest.raises(DimensionMismatchError) as err:
                build(scenario, psi0=psi0)
            assert str(err.value) == message

    @pytest.mark.parametrize("build, error, message", [
        (lambda s: dataclasses.replace(s, psi0="ab"), DimensionMismatchError,
         "psi0 is not a numeric array"),
        (lambda s: dataclasses.replace(s, psi0=object()), DimensionMismatchError,
         "psi0 is not a numeric array"),
        (lambda s: MetricInit("explicit", "ab"), DimensionMismatchError,
         "metric is not a numeric array"),
        (lambda s: ProfileTerm.parse("1", "ab"), DimensionMismatchError,
         "matrix is not a numeric array"),
        (lambda s: dataclasses.replace(s, observables={"a/b": 1}), SchemaError,
         "/observables/a~1b: expected an OperatorSpec, got int"),
        # A line break and the six characters of its escape: two keys, two pointers.
        (lambda s: dataclasses.replace(s, observables={"\n": 1, "\\u000a": s.hamiltonian}),
         SchemaError, "/observables/\\u000a: expected an OperatorSpec, got int"),
        (lambda s: dataclasses.replace(s, observables={"\\u000a": 1, "\n": s.hamiltonian}),
         SchemaError, "/observables/\\\\u000a: expected an OperatorSpec, got int"),
        (lambda s: dataclasses.replace(s, observables=[1]), SchemaError,
         "/observables: observables must be a dict, got list"),
        (lambda s: dataclasses.replace(s, hamiltonian=None), SchemaError,
         "/hamiltonian: expected an OperatorSpec, got NoneType"),
    ])
    def test_value_of_the_wrong_kind_is_a_package_error(self, build, error, message):
        # Files never reach these: the codec builds the operators and arrays.
        with pytest.raises(error) as err:
            build(get_demo("hermitian-rabi"))
        assert str(err.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda s: OperatorSpec([]), "operator spec needs at least one term"),
        (lambda s: OperatorSpec([ProfileTerm.parse("1", np.eye(2)),
                                 ProfileTerm.parse("1", np.eye(3))]),
         "term matrices must share one dimension"),
        (lambda s: dataclasses.replace(s, observables={"x": constant_operator(np.eye(3))}),
         "observable 'x' dimension mismatch"),
        (lambda s: dataclasses.replace(s, metric_init=MetricInit("explicit", np.eye(3))),
         "metric matrix dimension mismatch"),
        (lambda s: ProfileTerm.parse("1", [[np.nan, 0], [0, 1]]),
         "matrix contains non-finite entries"),
        (lambda s: ProfileTerm.parse("1", [1, 2]), "matrix must be square, got shape (2,)"),
        (lambda s: rep.expectation_schrodinger(integrate(s), 0, np.eye(3)),
         "observable dimension mismatch"),
    ], ids=["no-terms", "term-dims", "observable", "metric", "nan", "vector", "expectation"])
    def test_dimension_fault_is_named(self, build, message):
        with pytest.raises(DimensionMismatchError) as err:
            build(get_demo("hermitian-rabi", t1=0.01))
        assert str(err.value) == message

    @pytest.mark.parametrize("t0, t1, step", [
        (np.int64(0), np.int64(2), np.int64(1)),
        (np.float32(0), np.float32(0.5), np.float32(0.125)),
        (fractions.Fraction(0), fractions.Fraction(1, 2), fractions.Fraction(1, 8)),
    ], ids=["int64", "float32", "fraction"])
    def test_numbers_are_stored_as_plain_floats_and_ints(self, t0, t1, step):
        integrator = IntegratorConfig(step=step, max_steps=np.int64(100))
        assert (type(integrator.step), type(integrator.max_steps)) == (float, int)
        assert (integrator.step, integrator.max_steps) == (float(step), 100)
        for build in (_build, dataclasses.replace):
            scenario = build(get_demo("hermitian-rabi"), t0=t0, t1=t1, integrator=integrator)
            assert (type(scenario.t0), type(scenario.t1)) == (float, float)
            assert (scenario.t0, scenario.t1) == (float(t0), float(t1))
            bundle = integrate(scenario)
            # Every writer of these values: the scenario file, the report, the trajectory.
            assert json.loads(scenario_to_json_text(scenario))["t1"] == float(t1)
            assert json.loads(run_suite(bundle, scenario).to_json())["scenario_digest"]
            trajectory = json.loads("".join(to_json_parts(bundle_to_json_dict(bundle, scenario, {}))))
            assert trajectory["scenario"]["integrator"]["step"] == float(step)

    def test_values_are_stored_as_a_file_gives_them(self):
        scenario = dataclasses.replace(get_demo("hermitian-rabi"), psi0=[1, 0],
                                       expected_failures=["norm_conservation"])
        assert scenario.expected_failures == ("norm_conservation",)
        assert scenario.psi0.dtype == complex and scenario.psi0.tolist() == [1, 0]
        assert with_overrides(scenario, t1=1.0).expected_failures == ("norm_conservation",)

    def test_codec_leaves_these_rules_to_scenario(self, monkeypatch):
        monkeypatch.setattr(Scenario, "__post_init__", lambda self: None)
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["name"], doc["expected_failures"], doc["t0"], doc["t1"] = 5, [""], "x", True
        scenario = scenario_from_json_dict(doc)
        assert (scenario.name, scenario.expected_failures) == (5, [""])
        assert (scenario.t0, scenario.t1) == ("x", True)


def test_every_shipped_scenario_is_valid_by_construction(perfbench_chain_files,
                                                         perfbench_ep_sweep_files):
    # The demos as the zoo-d2 workload runs them and at their default span, and
    # the files pt-chain and ep-sweep write: a later rule that rejects one of
    # them fails here, not in a benchmark run.
    scenarios = [get_demo(name, **times) for name in builtin_models()
                 for times in ({}, {"t1": 0.75})]
    files = [*perfbench_chain_files, *perfbench_ep_sweep_files]
    assert len(files) == 3 + 7  # three chains; five dimers, the EP and the blow-up
    scenarios += [load_scenario(path) for path in files]
    for scenario in scenarios:
        text = json.dumps(scenario_to_json_dict(scenario))
        assert json.dumps(scenario_to_json_dict(dataclasses.replace(scenario))) == text
        assert json.dumps(scenario_to_json_dict(scenario_from_json_dict(json.loads(text)))) == text


def _reference_pair(value, pointer: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise SchemaError("complex number must be a [re, im] pair", pointer)
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:
        raise SchemaError("complex number part is too large for a float", pointer) from None


def reference_decode(value, shape: tuple[int, ...], pointer: str) -> np.ndarray:
    """The scenario decoder as first written: one Python call per [re, im] pair.

    It lets non-finite parts through; the decoder under test rejects them.
    """
    dim = shape[0]
    if len(shape) == 1:
        if not isinstance(value, list) or len(value) != dim:
            raise SchemaError(f"psi0 must have {_short_repr(dim)} entries", pointer)
        return np.array([_reference_pair(z, f"{pointer}/{i}") for i, z in enumerate(value)])
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"matrix must have {_short_repr(dim)} rows", pointer)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(
                f"matrix row must have {_short_repr(dim)} entries", f"{pointer}/{i}")
        rows.append([_reference_pair(z, f"{pointer}/{i}/{j}") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


EDGE_PARTS = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    2**53 + 1, -(2**53 + 1), 2**63, 2**63 + 1, -(2**63) - 1, 2**64 + 3, 2**1023 + 2**980,
]
PARTS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(min_value=-(2**1023), max_value=2**1023)
    | st.sampled_from(EDGE_PARTS)
)
PAIRS = st.lists(PARTS, min_size=2, max_size=2) | st.tuples(PARTS, PARTS)


@st.composite
def complex_arrays(draw):
    """(value, shape): nested lists of [re, im] pairs, a vector or a square matrix."""
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(dim,), (dim, dim)]))
    entries = st.lists(PAIRS, min_size=dim, max_size=dim)
    if len(shape) == 2:
        entries = st.lists(entries, min_size=dim, max_size=dim)
    return draw(entries), shape


def _locations(value, path=()):
    """Index path of every row, pair and part, the whole value included."""
    yield path
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _locations(item, (*path, i))


def _replace(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = _replace(items[path[0]], path[1:], new)
    return items if isinstance(value, list) else tuple(items)


BAD_VALUES = st.sampled_from([
    True, False, "1", None, [1.0], [1.0, 2.0, 3.0], [[1.0, 0.0]], {}, 10**400, -(10**400),
    math.nan, math.inf, -math.inf,
])


@st.composite
def malformed_arrays(draw):
    """A valid array with one location replaced: by a bad value, shortened, lengthened,
    or, above the pairs, made a tuple. A few replacements are valid by chance."""
    value, shape = draw(complex_arrays())
    path = draw(st.sampled_from(list(_locations(value))))
    old = value
    for i in path:
        old = old[i]
    edits = [BAD_VALUES]
    if isinstance(old, list):
        edits += [st.just(old[:-1]), st.just([*old, old[0]])]
        if len(path) < len(shape):
            edits.append(st.just(tuple(old)))
    return _replace(value, path, draw(st.one_of(edits))), shape


class TestComplexArrayDecoder:
    @settings(max_examples=300, deadline=None)
    @given(case=complex_arrays())
    def test_valid_arrays_match_reference_bit_for_bit(self, case):
        value, shape = case
        got = _complex_array_from_json(value, shape, "/x")
        want = reference_decode(value, shape, "/x")
        assert got.shape == want.shape == shape and got.dtype == np.complex128
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=300, deadline=None)
    @given(case=malformed_arrays())
    @example(case=([[1.0, 0.0], [math.nan, 0.0]], (2,)))
    @example(case=([[[1, 0], [0, 0]], ([0, 0], [1, 0])], (2, 2)))
    def test_malformed_arrays_fail_like_reference(self, case):
        value, shape = case
        try:
            decoded = reference_decode(value, shape, "/x")
        except SchemaError as want:
            with pytest.raises(SchemaError) as got:
                _complex_array_from_json(value, shape, "/x")
            assert (got.value.pointer, str(got.value)) == (want.pointer, str(want))
            return
        bad = np.flatnonzero(~np.isfinite(decoded.reshape(-1)))
        if not bad.size:  # the replacement happened to be valid
            got = _complex_array_from_json(value, shape, "/x")
            assert np.array_equal(_bits(got), _bits(decoded))
            return
        # The one change the reference lets through: a non-finite part.
        pointer = "/x/" + "/".join(map(str, np.unravel_index(bad[0], shape)))
        with pytest.raises(SchemaError) as got:
            _complex_array_from_json(value, shape, "/x")
        assert got.value.pointer == pointer
        assert str(got.value) == f"{pointer}: complex number part must be finite"

    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_part_is_rejected_at_its_pair(self, part, bad):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["psi0"][1][part] = bad
        with pytest.raises(SchemaError) as err:
            scenario_from_json_dict(doc)
        assert str(err.value) == "/psi0/1: complex number part must be finite"

    def test_valid_chains_skip_the_per_entry_walk(self, perfbench_chain_files, monkeypatch):
        def walk(*args):
            raise AssertionError("the per-entry walk ran on a valid document")

        monkeypatch.setattr(model, "_raise_first_bad_entry", walk)
        for path in perfbench_chain_files:
            doc = json.loads(path.read_text())
            scenario = scenario_from_json_dict(doc)
            assert scenario_to_json_dict(scenario) == doc
        assert scenario.dim == 64
