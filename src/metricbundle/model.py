"""Scenario ingestion: Hamiltonian families, initial metrics, states, observables.

A scenario file is a single JSON document; complex numbers are always
2-element [re, im] arrays of finite ints or floats (never bools):

    {
      "dim": 2,
      "hamiltonian": [{"coeff": "1", "matrix": [[[0,0],[1,0]],[[1,0],[0,0]]]}],
      "metric": {"mode": "identity" | "explicit" | "stationary", "matrix": ...},
      "psi0": [[1,0],[0,0]],
      "observables": {"sigma_z": <matrix>, "driven": [{"coeff": ..., "matrix": ...}]},
      "t0": 0.0, "t1": 10.0,
      "integrator": {"method": "rk4", "step": 0.001},   # "rk4" is the only method
      "name": optional string, "expected_failures": optional [check-name prefixes]
    }

Any other key at the top level, in "metric" or in "integrator" is a SchemaError,
as are a key repeated in any object and a surrogate code point in any name.

A Scenario built in code (the zoo, with_overrides, dataclasses.replace, any
caller) obeys the same rules: Scenario, MetricInit and IntegratorConfig check and
store their own values (t0, t1 and step as floats) and raise the SchemaError,
message and pointer, that the same fault gives in a file. Each operator must be
an OperatorSpec; psi0 must be a 1-d vector of dim finite entries, and every array
numeric (DimensionMismatchError). The codec checks only what is particular to JSON.

The schema round-trips bit-exactly: coefficient source text is preserved
verbatim and floats survive JSON via repr.
"""

from __future__ import annotations

import dataclasses
import errno
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
    EigenConvergenceError,
    EvalError,
    NoPositiveDefiniteSolutionError,
    NotPositiveDefiniteError,
    ProfileSyntaxError,
    SchemaError,
)
from .matops import (
    ATOL,
    RTOL,
    as_complex,
    as_matrix,
    cholesky_upper,
    frobenius,
    hermitian_deviation,
    hermitian_part,
    min_eig_hermitian,
)

__all__ = [
    "ProfileTerm",
    "OperatorSpec",
    "MetricInit",
    "IntegratorConfig",
    "Scenario",
    "constant_operator",
    "complex_pairs",
    "solve_stationary_metric",
    "resolve_initial_metric",
    "with_overrides",
    "scenario_to_json_dict",
    "scenario_to_json_text",
    "scenario_from_json_dict",
    "load_scenario",
    "save_scenario",
]


@dataclass(frozen=True, eq=False)
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
        # M when no term depends on t (the parser folds "-1.0" or "2^3" to a Const),
        # assembled once here; EvalError when it overflows. None otherwise.
        self.constant = None
        if all(isinstance(term.expr, profile.Const) for term in terms):
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                self.constant = sum(term.expr.value * term.matrix for term in terms)
            if not np.isfinite(self.constant).all():
                raise EvalError("operator is not finite", None)

    def assemble(self, t: float) -> np.ndarray:
        """M(t) at one time: assemble_many at that time."""
        return self.assemble_many([t])[0]

    def assemble_many(self, ts) -> np.ndarray:
        """M(t) at each of the times ts, shape (len(ts), dim, dim).

        Each term's profile is evaluated once over all the times. A constant
        operator gives its one matrix, checked when built, broadcast without copies;
        any other raises EvalError at the first time whose matrix is not finite.
        """
        if self.constant is not None:
            return np.broadcast_to(self.constant, (len(ts), self.dim, self.dim))
        out = np.zeros((len(ts), self.dim, self.dim), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for term in self.terms:
                out += profile.eval_profile(term.expr, ts)[:, None, None] * term.matrix
        bad = ~np.isfinite(out).all(axis=(1, 2))
        if bad.any():
            raise EvalError(f"operator is not finite at t = {float(ts[np.argmax(bad)])!r}", None)
        return out

    def differentiate(self) -> "OperatorSpec":
        """Analytic d/dt, term by term; each term's source is "d/dt (<its source>)"."""
        return OperatorSpec([
            ProfileTerm(f"d/dt ({term.source})", profile.differentiate(term.expr), term.matrix)
            for term in self.terms
        ])


def constant_operator(matrix) -> OperatorSpec:
    return OperatorSpec([ProfileTerm.parse("1", matrix)])


@dataclass(frozen=True, eq=False)
class MetricInit:
    """How G(t0) is made. An explicit matrix is checked here and stored as a complex array."""

    mode: str  # identity | explicit | stationary
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("identity", "explicit", "stationary"):
            raise SchemaError(f"unknown metric mode {_short_repr(self.mode)}", "/metric/mode")
        if self.mode != "explicit":
            if self.matrix is not None:
                raise SchemaError(f"{self.mode} metric takes no matrix", "/metric/matrix")
            return
        if self.matrix is None:
            raise SchemaError("explicit metric requires a matrix", "/metric/matrix")
        g = as_matrix(self.matrix, "metric")
        if hermitian_deviation(g) > ATOL + RTOL:
            raise SchemaError("explicit metric is not Hermitian", "/metric/matrix")
        if min_eig_hermitian(g) <= 0:
            raise SchemaError("explicit metric is not positive-definite", "/metric/matrix")
        try:
            cholesky_upper(g)  # also rejects near-singular metrics
        except NotPositiveDefiniteError as exc:
            raise SchemaError(f"explicit metric is not positive-definite: {exc}",
                              "/metric/matrix") from exc
        object.__setattr__(self, "matrix", g)


def _short_repr(value, limit: int = 40) -> str:
    """repr of a string or number cut to limit characters, else the type name."""
    if not isinstance(value, (str, numbers.Number)):
        return type(value).__name__
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _finite_float(value, pointer: str) -> float:
    """value as a float; bools, non-numbers and numbers with no finite float value are rejected."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise SchemaError(f"must be a finite number, got {_short_repr(value)}", pointer)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # the only method: classic fourth-order Runge-Kutta
    step: float = 1e-3
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.method != "rk4":
            raise SchemaError(f"unknown method {_short_repr(self.method)}", "/integrator/method")
        object.__setattr__(self, "step", _finite_float(self.step, "/integrator/step"))
        if self.step <= 0:
            raise SchemaError("step must be positive", "/integrator/step")
        if (
            not isinstance(self.max_steps, numbers.Integral)
            or isinstance(self.max_steps, bool)
            or self.max_steps < 1
        ):
            raise SchemaError("max_steps must be a positive integer", "/integrator/max_steps")
        object.__setattr__(self, "max_steps", int(self.max_steps))


@dataclass(frozen=True, eq=False)
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
        if not isinstance(self.name, str):
            raise SchemaError(f"name must be a string, got {type(self.name).__name__}", "/name")
        prefixes = self.expected_failures
        if not (isinstance(prefixes, (list, tuple))
                and all(isinstance(prefix, str) for prefix in prefixes)):
            raise SchemaError("expected_failures must be a list of strings", "/expected_failures")
        if "" in prefixes:
            raise SchemaError("prefix is empty, so it matches every check",
                              f"/expected_failures/{prefixes.index('')}")
        object.__setattr__(self, "expected_failures", tuple(prefixes))
        if not isinstance(self.observables, dict):
            raise SchemaError(f"observables must be a dict, got {type(self.observables).__name__}",
                              "/observables")
        # (pointer, name, operator): the Hamiltonian, then each observable in order.
        operators = [("/hamiltonian", "", self.hamiltonian), *(
            (f"/observables/{_pointer_token(k)}", k, v) for k, v in self.observables.items())]
        for _, obs_name, _ in operators:
            if not isinstance(obs_name, str):
                raise SchemaError(
                    f"observable names must be strings, got {type(obs_name).__name__}",
                    "/observables")
        for pointer, text, _ in [("/name", self.name, None), *operators]:
            if any("\ud800" <= c <= "\udfff" for c in text):
                raise SchemaError("holds a surrogate, which UTF-8 cannot encode", pointer)
        for pointer, _, operator in operators:
            if not isinstance(operator, OperatorSpec):
                raise SchemaError(f"expected an OperatorSpec, got {type(operator).__name__}",
                                  pointer)
        dim = self.hamiltonian.dim
        psi0 = as_complex(self.psi0, "psi0")
        if psi0.ndim != 1:
            raise DimensionMismatchError(f"psi0 must be a vector, got shape {psi0.shape}")
        if not np.isfinite(psi0).all():
            raise DimensionMismatchError("psi0 contains non-finite entries")
        if psi0.shape[0] != dim:
            raise DimensionMismatchError(f"psi0 has dimension {psi0.shape[0]}, hamiltonian {dim}")
        object.__setattr__(self, "psi0", psi0)
        for _, obs_name, operator in operators:
            if operator.dim != dim:
                raise DimensionMismatchError(f"observable {obs_name!r} dimension mismatch")
        if self.metric_init.matrix is not None and self.metric_init.matrix.shape[0] != dim:
            raise DimensionMismatchError("metric matrix dimension mismatch")
        for key in ("t0", "t1"):
            object.__setattr__(self, key, _finite_float(getattr(self, key), f"/{key}"))
        if not self.t1 > self.t0:
            raise SchemaError("t1 must exceed t0", "/t1")

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


def with_overrides(scenario: Scenario, *, t0: float | None = None, t1: float | None = None,
                   step: float | None = None) -> Scenario:
    """scenario with t0, t1 and step replaced; None keeps its value. A bad step is named first."""
    integrator = scenario.integrator
    if step is not None:
        integrator = dataclasses.replace(integrator, step=step)
    times = {key: value for key, value in (("t0", t0), ("t1", t1)) if value is not None}
    return dataclasses.replace(scenario, integrator=integrator, **times)


def solve_stationary_metric(h) -> np.ndarray:
    """Hermitian positive-definite G with G H == adj(H) G, trace-normalized.

    Solved in the eigenbasis of H (Mostafazadeh, arXiv:0810.5643). With
    H = V diag(lam) W and W = inv(V), the substitution G = adj(W) X W turns
    the equation into X_jk (lam_k - conj(lam_j)) = 0. For a real spectrum the
    Hermitian solutions are therefore the Hermitian X that are block-diagonal
    over clusters of equal eigenvalues, equal to within
    max(ATOL, RTOL * max(1, ||H||_F)): one free m x m block per eigenvalue of
    multiplicity m, a nullspace of real dimension sum m^2. Among them the
    solution closest to identity in Frobenius norm is preferred; when that
    candidate is not positive-definite the eigenbasis construction
    G = adj(W) W (X = I) is used instead. Costs one n x n eigendecomposition
    plus a linear solve in sum m^2 unknowns.

    Raises NoPositiveDefiniteSolutionError when no positive-definite solution
    exists (complex spectrum: broken phase) or only a singular one does
    (coalescing eigenvectors, degenerate=True: e.g. an exceptional point), and
    EigenConvergenceError when a LAPACK routine fails or the norm of H overflows.
    """
    h = as_matrix(h, "hamiltonian")
    scale = max(1.0, frobenius(h))
    if scale == math.inf:  # every tolerance below would be inf, and every test pass
        raise EigenConvergenceError("stationary metric: the norm of H overflows")
    cluster_tol = max(ATOL, RTOL * scale)
    try:
        vals, vecs = np.linalg.eig(h)
        if np.max(np.abs(vals.imag)) > cluster_tol:
            raise NoPositiveDefiniteSolutionError(
                "spectrum is complex (broken phase); no positive-definite metric"
            )
        svals = np.linalg.svd(vecs, compute_uv=False)
        if svals[-1] <= 0 or svals[0] / svals[-1] > 1e8:
            raise NoPositiveDefiniteSolutionError(
                "eigenvectors coalesce (exceptional point); metric is degenerate",
                degenerate=True,
            )
        w = np.linalg.inv(vecs)
        # Cluster label per eigenvalue: the sorted spectrum split at gaps > cluster_tol.
        order = np.argsort(vals.real)
        with np.errstate(over="ignore"):  # a gap beyond the float range is inf: a split
            gaps = np.diff(vals.real[order]) > cluster_tol
        cluster = np.empty(len(vals), dtype=int)
        cluster[order] = np.concatenate(([0], np.cumsum(gaps)))
        rows, cols = np.nonzero(cluster[:, None] == cluster[None, :])
        # Rows of Q: an orthonormal basis of each cluster's left eigenspace
        # (for a simple spectrum, the normalized rows of W). The solutions do
        # not depend on that basis, and with it the normal equations below are
        # no worse conditioned than P = Q adj(Q).
        q = w / np.linalg.norm(w, axis=1, keepdims=True)
        for c in np.flatnonzero(np.bincount(cluster) > 1):
            members = cluster == c
            q[members] = np.linalg.qr(w[members].conj().T)[0].conj().T
        # Closest to identity: minimize ||adj(Q) X Q - I|| over X supported on
        # the cluster blocks; the normal equations are (P X P)_jk = P_jk there.
        # For a simple spectrum the matrix is |P|^2, elementwise.
        p = q @ q.conj().T
        x = np.zeros_like(p)
        x[rows, cols] = np.linalg.solve(
            p[np.ix_(rows, rows)] * p[np.ix_(cols, cols)].T, p[rows, cols]
        )
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"stationary metric: {exc}") from exc
    for candidate in (q.conj().T @ x @ q, w.conj().T @ w):
        g = _accept_candidate(candidate, h, scale)
        if g is not None:
            return g
    raise NoPositiveDefiniteSolutionError(
        "only degenerate (singular) metric solutions exist", degenerate=True
    )


def _accept_candidate(g, h, scale: float):
    """Trace-normalized g when it is positive-definite and solves the equation."""
    if not max(ATOL, 1e-10) < frobenius(g) < math.inf:
        return None
    g = hermitian_part(g)
    try:
        if min_eig_hermitian(g) <= ATOL + 1e-10 * frobenius(g):
            return None
    except EigenConvergenceError:
        return None
    g = g * (g.shape[0] / np.real(np.trace(g)))
    residual = frobenius(g @ h - h.conj().T @ g)
    if not residual <= 1e-10 * max(1.0, frobenius(g)) * scale:  # nan too
        return None
    return g


def resolve_initial_metric(scenario: Scenario) -> np.ndarray:
    """G(t0) by the metric init mode; MetricInit has checked an explicit matrix."""
    init = scenario.metric_init
    if init.mode == "identity":
        return np.eye(scenario.dim, dtype=complex)
    if init.mode == "explicit":
        return hermitian_part(init.matrix)
    return solve_stationary_metric(scenario.hamiltonian.assemble(scenario.t0))


# --- JSON codec ------------------------------------------------------------


def complex_pairs(a) -> np.ndarray:
    """Float array with a trailing [re, im] axis (the scenario-file convention)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1)


def _complex_array_from_json(value, shape: tuple[int, ...], pointer: str) -> np.ndarray:
    """Complex array of the given shape from nested lists of [re, im] pairs.

    Bit-exact: each part converts as float() does, -0.0 included. A valid
    document costs one scan of its types and one np.array call; when any
    check fails, the per-entry walk names the first bad entry in order.
    """
    if _only_numbers_in(value, len(shape)):
        try:
            parts = np.array(value, dtype=np.float64)
        except (OverflowError, ValueError):  # an int too large for a float; ragged lists
            pass
        else:
            if parts.shape == (*shape, 2) and np.isfinite(parts).all():
                return parts.view(np.complex128)[..., 0]
    _raise_first_bad_entry(value, shape, pointer, _SHAPE_MESSAGES[len(shape)])
    raise AssertionError(f"{pointer}: no bad entry found in a rejected array")


def _only_numbers_in(value, depth: int) -> bool:
    """True when value nests lists depth deep, then lists or tuples of ints and floats."""
    level = [value]
    for _ in range(depth):
        if not all(issubclass(kind, list) for kind in {type(x) for x in level}):
            return False
        level = [item for row in level for item in row]
    if not all(issubclass(kind, (list, tuple)) for kind in {type(x) for x in level}):
        return False
    kinds = {type(x) for pair in level for x in pair}
    return all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds)


# Length messages per axis, by the number of axes: a vector is always psi0.
_SHAPE_MESSAGES = {
    1: ("psi0 must have {} entries",),
    2: ("matrix must have {} rows", "matrix row must have {} entries"),
}


def _raise_first_bad_entry(value, shape, pointer: str, messages) -> None:
    """Walk the document in order, raising SchemaError at the first bad row or pair."""
    if not shape:
        _check_pair(value, pointer)
        return
    if not isinstance(value, list) or len(value) != shape[0]:
        raise SchemaError(messages[0].format(_short_repr(shape[0])), pointer)
    for i, item in enumerate(value):
        _raise_first_bad_entry(item, shape[1:], f"{pointer}/{i}", messages[1:])


def _check_pair(value, pointer: str) -> None:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise SchemaError("complex number must be a [re, im] pair", pointer)
    try:
        parts = [float(x) for x in value]
    except OverflowError:  # an int too large for a float
        raise SchemaError("complex number part is too large for a float", pointer) from None
    if not all(math.isfinite(x) for x in parts):
        raise SchemaError("complex number part must be finite", pointer)


def _terms_from_json(value, dim: int, pointer: str) -> OperatorSpec:
    if not isinstance(value, list) or not value:
        raise SchemaError("expected a non-empty list of terms", pointer)
    terms = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict) or set(entry) != {"coeff", "matrix"}:
            raise SchemaError('term must be {"coeff", "matrix"}', f"{pointer}/{i}")
        if not isinstance(entry["coeff"], str):
            raise SchemaError("coeff must be a string", f"{pointer}/{i}/coeff")
        matrix = _complex_array_from_json(entry["matrix"], (dim, dim), f"{pointer}/{i}/matrix")
        try:
            terms.append(ProfileTerm.parse(entry["coeff"], matrix))
        # The parser evaluates each sub-expression without t, which can fail (EvalError).
        except (ProfileSyntaxError, EvalError) as exc:
            raise SchemaError(f"bad coefficient: {exc}", f"{pointer}/{i}/coeff") from exc
    try:
        return OperatorSpec(terms)
    except EvalError as exc:  # a constant operator that overflows
        raise SchemaError(str(exc), pointer) from exc


def _observable_from_json(value, dim: int, pointer: str) -> OperatorSpec:
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return _terms_from_json(value, dim, pointer)
    return constant_operator(_complex_array_from_json(value, (dim, dim), pointer))


# The characters str.splitlines() breaks at and the surrogate code points, as
# JSON escapes, and a backslash as two: a pointer that names a key holding one,
# or a scenario path, still fits on the CLI's one error line, as valid UTF-8,
# and two keys never share a pointer.
_JSON_ESCAPES = str.maketrans({"\\": "\\\\", **{c: f"\\u{ord(c):04x}" for c in [
    *"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", *map(chr, range(0xD800, 0xE000))]}})


def _pointer_token(key) -> str:
    """key as one JSON-pointer token (RFC 6901): "~" escaped as "~0", "/" as "~1",
    then a backslash as "\\\\" and a line break or a surrogate as its JSON escape."""
    return str(key).replace("~", "~0").replace("/", "~1").translate(_JSON_ESCAPES)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's key-value pairs as a dict; a repeated key is a SchemaError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"duplicate key {_pointer_token(key)}", "")
        doc[key] = value
    return doc


_REQUIRED_KEYS = {"dim", "hamiltonian", "metric", "psi0", "observables", "t0", "t1", "integrator"}
# The keys of each object whose keys the schema fixes, by pointer.
_KNOWN_KEYS = {"": _REQUIRED_KEYS | {"name", "expected_failures"}, "/metric": {"mode", "matrix"},
               "/integrator": {field.name for field in dataclasses.fields(IntegratorConfig)}}


def scenario_from_json_dict(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object", "")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise SchemaError(f"missing fields: {sorted(missing)}", "")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dim must be a positive integer", "/dim")

    hamiltonian = _terms_from_json(doc["hamiltonian"], dim, "/hamiltonian")

    metric_doc = doc["metric"]
    if not isinstance(metric_doc, dict) or "mode" not in metric_doc:
        raise SchemaError('metric must be {"mode": ...}', "/metric")
    matrix = None
    if metric_doc["mode"] == "explicit" and "matrix" in metric_doc:
        matrix = _complex_array_from_json(metric_doc["matrix"], (dim, dim), "/metric/matrix")
    metric = MetricInit(metric_doc["mode"], matrix)  # an unknown mode is named first
    if "matrix" in metric_doc and metric.mode != "explicit":
        raise SchemaError(f"{metric.mode} metric takes no matrix", "/metric/matrix")

    psi0 = _complex_array_from_json(doc["psi0"], (dim,), "/psi0")

    obs_doc = doc["observables"]
    if not isinstance(obs_doc, dict):
        raise SchemaError("observables must be an object", "/observables")
    observables = {
        obs_name: _observable_from_json(v, dim, f"/observables/{_pointer_token(obs_name)}")
        for obs_name, v in obs_doc.items()
    }

    integ_doc = doc["integrator"]
    if not isinstance(integ_doc, dict):
        raise SchemaError("integrator must be an object", "/integrator")
    integrator = IntegratorConfig(
        **{key: value for key, value in integ_doc.items() if key in _KNOWN_KEYS["/integrator"]})

    scenario = Scenario(
        hamiltonian=hamiltonian,
        metric_init=metric,
        psi0=psi0,
        observables=observables,
        t0=doc["t0"],
        t1=doc["t1"],
        integrator=integrator,
        name=doc.get("name", ""),
        expected_failures=doc.get("expected_failures", ()),
    )
    # Checked last, so that an unknown key never hides an error in a known field.
    for pointer, section in (("", doc), ("/metric", metric_doc), ("/integrator", integ_doc)):
        for key in section:
            if key not in _KNOWN_KEYS[pointer]:
                raise SchemaError("unknown key", f"{pointer}/{_pointer_token(key)}")
    return scenario


def scenario_to_json_dict(scenario: Scenario) -> dict:
    def terms(spec: OperatorSpec) -> list:
        return [{"coeff": t.source, "matrix": complex_pairs(t.matrix).tolist()}
                for t in spec.terms]

    doc: dict[str, Any] = {
        "dim": scenario.dim,
        "hamiltonian": terms(scenario.hamiltonian),
        "metric": {"mode": scenario.metric_init.mode},
        "psi0": complex_pairs(scenario.psi0).tolist(),
        "observables": {
            obs_name: (
                complex_pairs(obs.terms[0].matrix).tolist()
                if len(obs.terms) == 1 and obs.terms[0].source == "1"
                else terms(obs)
            )
            for obs_name, obs in scenario.observables.items()
        },
        "t0": scenario.t0,
        "t1": scenario.t1,
        "integrator": dataclasses.asdict(scenario.integrator),
    }
    if scenario.metric_init.matrix is not None:
        doc["metric"]["matrix"] = complex_pairs(scenario.metric_init.matrix).tolist()
    if scenario.name:
        doc["name"] = scenario.name
    if scenario.expected_failures:
        doc["expected_failures"] = list(scenario.expected_failures)
    return doc


# The errors for which Path.exists() answers False: the path names no file.
_NOT_FOUND_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.EBADF)


def load_scenario(path: str | Path) -> Scenario:
    """The scenario in the file at path. A path that names no file is "scenario
    file not found: <path as given, line breaks and surrogates escaped>"; any
    other fault in reading or parsing it is a SchemaError of its own."""
    not_found = f"scenario file not found: {str(path).translate(_JSON_ESCAPES)}"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # a ValueError: caught before the next clause
        raise SchemaError(f"not UTF-8 text: {exc}", "") from exc
    except ValueError as exc:  # a path no file can have, such as one with a NUL
        raise SchemaError(not_found, "") from exc
    except OSError as exc:
        if exc.errno in _NOT_FOUND_ERRNOS:
            raise SchemaError(not_found, "") from exc
        raise SchemaError(f"cannot read scenario file: {exc}", "") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}", "") from exc
    except RecursionError as exc:
        raise SchemaError(f"JSON nested too deeply: {exc}", "") from exc
    return scenario_from_json_dict(doc)


def scenario_to_json_text(scenario: Scenario) -> str:
    """The scenario file text: scenario_to_json_dict indented by 2, ending in a newline."""
    return json.dumps(scenario_to_json_dict(scenario), indent=2) + "\n"


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(scenario_to_json_text(scenario))
