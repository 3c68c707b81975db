"""Scenario ingestion: Hamiltonian families, initial metrics, states, observables.

A scenario file is a single JSON document; complex numbers are always
2-element [re, im] arrays:

    {
      "dim": 2,
      "hamiltonian": [{"coeff": "1", "matrix": [[[0,0],[1,0]],[[1,0],[0,0]]]}],
      "metric": {"mode": "identity" | "explicit" | "stationary", "matrix": ...},
      "psi0": [[1,0],[0,0]],
      "observables": {"sigma_z": <matrix>, "driven": [{"coeff": ..., "matrix": ...}]},
      "t0": 0.0, "t1": 10.0,
      "integrator": {"method": "rk4", "step": 0.001},   # "rk4" is the only method
      "name": optional, "expected_failures": optional [check-name prefixes]
    }

The schema round-trips bit-exactly: coefficient source text is preserved
verbatim and floats survive JSON via repr.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import profile
from .errors import (
    DimensionMismatchError,
    NoPositiveDefiniteSolutionError,
    SchemaError,
)
from .matops import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    cholesky_upper,
    frobenius,
    hermitian_deviation,
    min_eig_hermitian,
)

__all__ = [
    "ProfileTerm",
    "OperatorSpec",
    "MetricInit",
    "IntegratorConfig",
    "Scenario",
    "constant_operator",
    "solve_stationary_metric",
    "resolve_initial_metric",
    "scenario_to_json_dict",
    "scenario_from_json_dict",
    "load_scenario",
    "save_scenario",
]


@dataclass(frozen=True)
class ProfileTerm:
    """One time-profile-weighted constant matrix; keeps its source text."""

    source: str
    expr: profile.ProfileExpr
    matrix: np.ndarray

    @staticmethod
    def parse(source: str, matrix) -> "ProfileTerm":
        return ProfileTerm(source, profile.parse_profile(source), as_matrix(matrix))


class OperatorSpec:
    """Sum of constant matrices weighted by profile expressions; yields M(t)."""

    def __init__(self, terms: list[ProfileTerm] | tuple[ProfileTerm, ...]):
        terms = tuple(terms)
        if not terms:
            raise DimensionMismatchError("operator spec needs at least one term")
        dim = terms[0].matrix.shape[0]
        for term in terms:
            if term.matrix.shape[0] != dim:
                raise DimensionMismatchError("term matrices must share one dimension")
        self.terms = terms
        self.dim = dim

    def assemble(self, t: float) -> np.ndarray:
        """M(t) at one time: assemble_many at that time."""
        return self.assemble_many([t])[0]

    def assemble_many(self, ts) -> np.ndarray:
        """M(t) at each of the times ts, shape (len(ts), dim, dim).

        Each term's profile is evaluated once over all the times. A constant
        operator gives its one matrix broadcast over the times, without copies.
        """
        if self.is_constant():
            return np.broadcast_to(self._constant, (len(ts), self.dim, self.dim))
        out = np.zeros((len(ts), self.dim, self.dim), dtype=complex)
        for term in self.terms:
            out += profile.eval_profile(term.expr, ts)[:, None, None] * term.matrix
        return out

    def differentiate(self) -> "OperatorSpec":
        """Analytic d/dt, term by term, via AST differentiation."""
        terms = []
        for term in self.terms:
            dexpr = profile.differentiate(term.expr)
            terms.append(ProfileTerm(profile.print_profile(dexpr), dexpr, term.matrix))
        return OperatorSpec(terms)

    def is_constant(self) -> bool:
        """True when no term depends on t (e.g. "-1.0" or "2^3", not only literals)."""
        return not any(profile.contains_time(t.expr) for t in self.terms)

    @functools.cached_property
    def _constant(self) -> np.ndarray:
        # Evaluated on first use, so a term that fails to evaluate fails there.
        return sum(profile.eval_profile(t.expr, 0.0) * t.matrix for t in self.terms)

    def __eq__(self, other):
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return len(self.terms) == len(other.terms) and all(
            a.source == b.source and np.array_equal(a.matrix, b.matrix)
            for a, b in zip(self.terms, other.terms)
        )


def constant_operator(matrix) -> OperatorSpec:
    return OperatorSpec([ProfileTerm.parse("1", matrix)])


@dataclass(frozen=True)
class MetricInit:
    mode: str  # identity | explicit | stationary
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("identity", "explicit", "stationary"):
            raise SchemaError(f"unknown metric mode {self.mode!r}", "/metric/mode")
        if self.mode == "explicit" and self.matrix is None:
            raise SchemaError("explicit metric requires a matrix", "/metric/matrix")


def _require_finite_number(value, pointer: str) -> None:
    """Reject bools, non-numbers and numbers with no finite float value."""
    try:
        ok = (
            isinstance(value, numbers.Real)
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise SchemaError(f"must be a finite number, got {value!r}", pointer)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # the only method: classic fourth-order Runge-Kutta
    step: float = 1e-3
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method != "rk4":
            raise SchemaError(f"unknown method {self.method!r}", "/integrator/method")
        _require_finite_number(self.step, "/integrator/step")
        if self.step <= 0:
            raise SchemaError("step must be positive", "/integrator/step")
        if (
            not isinstance(self.max_steps, numbers.Integral)
            or isinstance(self.max_steps, bool)
            or self.max_steps < 1
        ):
            raise SchemaError("max_steps must be a positive integer", "/integrator/max_steps")


@dataclass(frozen=True)
class Scenario:
    hamiltonian: OperatorSpec
    metric_init: MetricInit
    psi0: np.ndarray
    observables: dict[str, OperatorSpec]
    t0: float
    t1: float
    integrator: IntegratorConfig
    name: str = ""
    expected_failures: tuple[str, ...] = ()

    def __post_init__(self):
        dim = self.hamiltonian.dim
        if self.psi0.shape[0] != dim:
            raise DimensionMismatchError(
                f"psi0 has dimension {self.psi0.shape[0]}, hamiltonian {dim}"
            )
        for obs_name, obs in self.observables.items():
            if obs.dim != dim:
                raise DimensionMismatchError(f"observable {obs_name!r} dimension mismatch")
        if self.metric_init.matrix is not None and self.metric_init.matrix.shape[0] != dim:
            raise DimensionMismatchError("metric matrix dimension mismatch")
        _require_finite_number(self.t0, "/t0")
        _require_finite_number(self.t1, "/t1")
        if not self.t1 > self.t0:
            raise SchemaError("t1 must exceed t0", "/t1")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def solve_stationary_metric(
    h, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, dict[str, Any]]:
    """Hermitian positive-definite G with G H == adj(H) G, trace-normalized.

    Solved as a nullspace problem in the entries of G. Among Hermitian
    nullspace elements the solution closest to identity in Frobenius norm is
    preferred; when that candidate is not positive-definite but H has a real,
    non-degenerate spectrum, the eigenbasis construction
    G = adj(inv(V)) inv(V) is used instead. Returns (G, metadata); metadata
    carries nullspace dimension and a non-uniqueness flag.

    Raises NoPositiveDefiniteSolutionError when no positive-definite solution
    exists (broken phase) or only a singular one does (degenerate, e.g. at an
    exceptional point).
    """
    h = as_matrix(h, "hamiltonian")
    n = h.shape[0]
    scale = max(1.0, frobenius(h))

    # Row-major vec: vec(G H) = (I (x) H^T) vec(G); vec(H^dag G) = (H^dag (x) I) vec(G).
    eye = np.eye(n)
    lin = np.kron(eye, h.T) - np.kron(h.conj().T, eye)
    _, svals, vh = np.linalg.svd(lin)
    null_tol = max(tol.atol, tol.rtol * (svals[0] if svals.size else 1.0))
    null_vecs = [vh[i].conj() for i in range(n * n) if i >= len(svals) or svals[i] <= null_tol]
    if not null_vecs:
        raise NoPositiveDefiniteSolutionError(
            "stationarity equation has no nontrivial solution"
        )

    # The nullspace is closed under adjoint; extract a real basis of its
    # Hermitian elements.
    herm_candidates = []
    for vec in null_vecs:
        g = vec.reshape(n, n)
        herm_candidates.append(0.5 * (g + g.conj().T))
        herm_candidates.append(0.5j * (g - g.conj().T))
    basis = _real_orthonormal_basis(herm_candidates, tol)
    if not basis:
        raise NoPositiveDefiniteSolutionError(
            "no Hermitian solution of the stationarity equation"
        )
    nullspace_dim = len(basis)

    # Least-squares projection of the identity onto the Hermitian nullspace;
    # if positive-definite this is the closest-to-identity solution.
    coeffs = [float(np.real(np.vdot(b, eye))) for b in basis]
    candidate = sum(c * b for c, b in zip(coeffs, basis))
    metadata = {"nullspace_dim": nullspace_dim, "unique": nullspace_dim == 1}

    g = _accept_candidate(candidate, h, scale, tol)
    if g is None:
        g = _eigenbasis_metric(h, scale, tol)
        metadata["construction"] = "eigenbasis"
    else:
        metadata["construction"] = "closest_to_identity"
    return g, metadata


def _real_orthonormal_basis(mats, tol: Tolerance):
    """Orthonormal basis (real span) of a list of Hermitian matrices."""
    basis: list[np.ndarray] = []
    for m in mats:
        for b in basis:
            m = m - np.real(np.vdot(b, m)) * b
        norm = frobenius(m)
        if norm > max(tol.atol, 1e-10):
            basis.append(m / norm)
    return basis


def _accept_candidate(g, h, scale: float, tol: Tolerance):
    if g is None or frobenius(g) <= max(tol.atol, 1e-10):
        return None
    g = 0.5 * (g + g.conj().T)
    try:
        if min_eig_hermitian(g, tol) <= tol.atol + 1e-10 * frobenius(g):
            return None
    except Exception:
        return None
    g = g * (g.shape[0] / np.real(np.trace(g)))
    residual = frobenius(g @ h - h.conj().T @ g)
    if residual > 1e-10 * max(1.0, frobenius(g)) * scale:
        return None
    return g


def _eigenbasis_metric(h, scale: float, tol: Tolerance):
    """Quasi-Hermitian construction G = adj(inv(V)) inv(V) for real spectra."""
    vals, vecs = np.linalg.eig(h)
    if np.max(np.abs(vals.imag)) > max(tol.atol, tol.rtol * scale):
        raise NoPositiveDefiniteSolutionError(
            "spectrum is complex (broken phase); no positive-definite metric"
        )
    svals = np.linalg.svd(vecs, compute_uv=False)
    if svals[-1] <= 0 or svals[0] / svals[-1] > 1e8:
        raise NoPositiveDefiniteSolutionError(
            "eigenvectors coalesce (exceptional point); metric is degenerate",
            degenerate=True,
        )
    vinv = np.linalg.inv(vecs)
    g = vinv.conj().T @ vinv
    g = _accept_candidate(g, h, scale, tol)
    if g is None:
        raise NoPositiveDefiniteSolutionError(
            "only degenerate (singular) metric solutions exist", degenerate=True
        )
    return g


def resolve_initial_metric(scenario: Scenario, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Produce G(t0) according to the metric init mode; validates PD."""
    dim = scenario.dim
    init = scenario.metric_init
    if init.mode == "identity":
        return np.eye(dim, dtype=complex)
    if init.mode == "explicit":
        g = as_matrix(init.matrix, "metric")
        if hermitian_deviation(g) > tol.atol + tol.rtol:
            raise SchemaError("explicit metric is not Hermitian", "/metric/matrix")
        if min_eig_hermitian(g, tol) <= 0:
            raise SchemaError("explicit metric is not positive-definite", "/metric/matrix")
        cholesky_upper(g, tol)  # also rejects near-singular metrics
        return 0.5 * (g + g.conj().T)
    g, _ = solve_stationary_metric(scenario.hamiltonian.assemble(scenario.t0), tol)
    return g


# --- JSON codec ------------------------------------------------------------


def _c_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_c_to_pair(z) for z in row] for row in m]


def _vector_to_json(v: np.ndarray) -> list:
    return [_c_to_pair(z) for z in v]


def _pair_from_json(value, pointer: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise SchemaError("complex number must be a [re, im] pair", pointer)
    return complex(float(value[0]), float(value[1]))


def _matrix_from_json(value, dim: int, pointer: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"matrix must have {dim} rows", pointer)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"matrix row must have {dim} entries", f"{pointer}/{i}")
        rows.append([_pair_from_json(z, f"{pointer}/{i}/{j}") for j, z in enumerate(row)])
    return np.array(rows, dtype=complex)


def _terms_from_json(value, dim: int, pointer: str) -> OperatorSpec:
    if not isinstance(value, list) or not value:
        raise SchemaError("expected a non-empty list of terms", pointer)
    terms = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict) or set(entry) != {"coeff", "matrix"}:
            raise SchemaError('term must be {"coeff", "matrix"}', f"{pointer}/{i}")
        if not isinstance(entry["coeff"], str):
            raise SchemaError("coeff must be a string", f"{pointer}/{i}/coeff")
        matrix = _matrix_from_json(entry["matrix"], dim, f"{pointer}/{i}/matrix")
        try:
            terms.append(ProfileTerm.parse(entry["coeff"], matrix))
        except Exception as exc:
            raise SchemaError(f"bad coefficient: {exc}", f"{pointer}/{i}/coeff") from exc
    return OperatorSpec(terms)


def _observable_from_json(value, dim: int, pointer: str) -> OperatorSpec:
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return _terms_from_json(value, dim, pointer)
    return constant_operator(_matrix_from_json(value, dim, pointer))


def scenario_from_json_dict(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", "")
    required = {"dim", "hamiltonian", "metric", "psi0", "observables", "t0", "t1", "integrator"}
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}", "")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dim must be a positive integer", "/dim")

    hamiltonian = _terms_from_json(doc["hamiltonian"], dim, "/hamiltonian")

    metric_doc = doc["metric"]
    if not isinstance(metric_doc, dict) or "mode" not in metric_doc:
        raise SchemaError('metric must be {"mode": ...}', "/metric")
    mode = metric_doc["mode"]
    matrix = None
    if mode == "explicit":
        if "matrix" not in metric_doc:
            raise SchemaError("explicit metric requires a matrix", "/metric/matrix")
        matrix = _matrix_from_json(metric_doc["matrix"], dim, "/metric/matrix")
    metric = MetricInit(mode, matrix)

    psi_doc = doc["psi0"]
    if not isinstance(psi_doc, list) or len(psi_doc) != dim:
        raise SchemaError(f"psi0 must have {dim} entries", "/psi0")
    psi0 = np.array([_pair_from_json(z, f"/psi0/{i}") for i, z in enumerate(psi_doc)])

    obs_doc = doc["observables"]
    if not isinstance(obs_doc, dict):
        raise SchemaError("observables must be an object", "/observables")
    observables = {
        obs_name: _observable_from_json(v, dim, f"/observables/{obs_name}")
        for obs_name, v in obs_doc.items()
    }

    for key in ("t0", "t1"):
        _require_finite_number(doc[key], f"/{key}")

    integ_doc = doc["integrator"]
    if not isinstance(integ_doc, dict):
        raise SchemaError("integrator must be an object", "/integrator")
    integrator = IntegratorConfig(
        method=integ_doc.get("method", "rk4"),
        step=integ_doc.get("step", 1e-3),
        max_steps=integ_doc.get("max_steps", 10_000_000),
    )

    expected = doc.get("expected_failures", [])
    if not isinstance(expected, list) or not all(isinstance(x, str) for x in expected):
        raise SchemaError("expected_failures must be a list of strings", "/expected_failures")

    try:
        return Scenario(
            hamiltonian=hamiltonian,
            metric_init=metric,
            psi0=psi0,
            observables=observables,
            t0=float(doc["t0"]),
            t1=float(doc["t1"]),
            integrator=integrator,
            name=str(doc.get("name", "")),
            expected_failures=tuple(expected),
        )
    except DimensionMismatchError as exc:
        raise SchemaError(str(exc), "") from exc


def scenario_to_json_dict(scenario: Scenario) -> dict:
    doc: dict[str, Any] = {
        "dim": scenario.dim,
        "hamiltonian": [
            {"coeff": t.source, "matrix": _matrix_to_json(t.matrix)}
            for t in scenario.hamiltonian.terms
        ],
        "metric": {"mode": scenario.metric_init.mode},
        "psi0": _vector_to_json(scenario.psi0),
        "observables": {
            obs_name: (
                _matrix_to_json(obs.terms[0].matrix)
                if len(obs.terms) == 1 and obs.terms[0].source == "1"
                else [
                    {"coeff": t.source, "matrix": _matrix_to_json(t.matrix)}
                    for t in obs.terms
                ]
            )
            for obs_name, obs in scenario.observables.items()
        },
        "t0": scenario.t0,
        "t1": scenario.t1,
        "integrator": {
            "method": scenario.integrator.method,
            "step": scenario.integrator.step,
            "max_steps": scenario.integrator.max_steps,
        },
    }
    if scenario.metric_init.matrix is not None:
        doc["metric"]["matrix"] = _matrix_to_json(scenario.metric_init.matrix)
    if scenario.name:
        doc["name"] = scenario.name
    if scenario.expected_failures:
        doc["expected_failures"] = list(scenario.expected_failures)
    return doc


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "") from exc
    scenario = scenario_from_json_dict(doc)
    as_vector(scenario.psi0, "psi0")
    return scenario


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json_dict(scenario), indent=2) + "\n")
