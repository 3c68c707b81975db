import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import G_PT
from metricbundle.errors import (
    EvalError,
    NoPositiveDefiniteSolutionError,
    SchemaError,
)
from metricbundle.matops import SIGMA_X, SIGMA_Y, SIGMA_Z, min_eig_hermitian
from metricbundle.model import (
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    constant_operator,
    load_scenario,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    solve_stationary_metric,
)
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
        assert spec.is_constant()
        many = spec.assemble_many(np.linspace(0.0, 1.0, 5))
        assert many.strides[0] == 0  # one matrix broadcast over the times
        assert np.array_equal(many[3], -SIGMA_X + 2.0 * SIGMA_Z)
        assert not OperatorSpec([ProfileTerm.parse("0 * t", SIGMA_X)]).is_constant()

    def test_constant_term_that_fails_fails_where_used(self):
        spec = OperatorSpec([ProfileTerm.parse("1 / (1 - 1)", SIGMA_X)])
        with pytest.raises(EvalError):
            spec.assemble(0.0)

    def test_differentiate(self):
        spec = OperatorSpec([ProfileTerm.parse("sin(t)", SIGMA_X)])
        d = spec.differentiate()
        t = 0.9
        assert np.allclose(d.assemble(t), np.cos(t) * SIGMA_X)


def _stationary_nullspace_oracle(h: np.ndarray) -> list[np.ndarray]:
    """Brute-force: solve G H - adj(H) G = 0 over the 4-real-parameter
    Hermitian ansatz for 2x2 H, via an explicitly assembled real system."""
    basis = [
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [0, 1]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
    ]
    rows = []
    for b in basis:
        r = b @ h - h.conj().T @ b
        rows.append(np.concatenate([r.real.ravel(), r.imag.ravel()]))
    system = np.array(rows).T  # (8, 4) real
    _, svals, vt = np.linalg.svd(system)
    out = []
    for i in range(4):
        if i >= len(svals) or svals[i] <= 1e-10:
            coeffs = vt[i]
            out.append(sum(c * b for c, b in zip(coeffs, basis)))
    return out


class TestStationaryMetric:
    def test_hermitian_hamiltonian_gives_identity(self):
        g, meta = solve_stationary_metric(SIGMA_X)
        assert np.allclose(g, np.eye(2), atol=1e-10)
        assert not meta["unique"]

    def test_unbroken_dimer(self):
        h = SIGMA_X + 0.5j * SIGMA_Z
        g, _ = solve_stationary_metric(h)
        expected = np.array([[1.0, -0.5j], [0.5j, 1.0]])
        assert np.allclose(g, expected, atol=1e-10)
        assert np.real(np.trace(g)) == pytest.approx(2.0)
        assert np.linalg.norm(g @ h - h.conj().T @ g) <= 1e-10
        assert min_eig_hermitian(g) > 0
        # independent oracle: g lies in the brute-force Hermitian nullspace
        null = _stationary_nullspace_oracle(h)
        coeffs = np.linalg.lstsq(
            np.stack([b.ravel() for b in null], axis=1), g.ravel(), rcond=None
        )[0]
        recombined = sum(c * b for c, b in zip(coeffs, null))
        assert np.linalg.norm(recombined - g) <= 1e-8

    def test_broken_dimer_has_no_pd_solution(self):
        h = SIGMA_X + 1.5j * SIGMA_Z
        # oracle: every Hermitian nullspace element is indefinite
        for b in _stationary_nullspace_oracle(h):
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
        g, _ = solve_stationary_metric(h)
        assert min_eig_hermitian(g) > 0
        assert np.linalg.norm(g @ h - h.conj().T @ g) <= 1e-10 * np.linalg.norm(g) * max(
            1.0, np.linalg.norm(h)
        )


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
        assert loaded.hamiltonian == scenario.hamiltonian

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

    def test_explicit_metric_validated(self):
        with pytest.raises(SchemaError):
            MetricInit("explicit", None)

    def test_explicit_metric_round_trip(self):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken"))
        doc["metric"] = {
            "mode": "explicit",
            "matrix": [[[1, 0], [0, -0.5]], [[0, 0.5], [1, 0]]],
        }
        scenario = scenario_from_json_dict(doc)
        assert np.allclose(scenario.metric_init.matrix, G_PT * np.sqrt(0.75))
