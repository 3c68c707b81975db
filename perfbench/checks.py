"""Correctness checks on the CLI's outputs, independent of the package's code.

For every scenario the benchmark checks:
- each exit code: 0, or 3 with an `error[numeric]:` line for the designed blow-up;
- the verify report has `summary.unexpected_failed == 0`;
- the verify report is byte-identical to the first pass's report on the
  same scenario (verify reports are deterministic);
- the JSON trajectory's `expectations` equal the CSV values bit for bit;
- for a constant Hamiltonian, each constant observable's CSV column matches
  an exact matrix-exponential reference built with numpy from the JSON
  trajectory's psi(t0) and g0.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

# Relative to max(1, |<O>|). RK4 at step 1e-3 on the three workloads stays
# below 6e-13 (the growing broken-phase dimer; 1e-14 elsewhere). A third-order
# Runge-Kutta step gives 1e-11 to 3e-9 on the same scenarios.
REFERENCE_RTOL = 5e-12


def check_exit(kind: str, rc, stderr: str, expect_rc: int) -> str | None:
    if rc != expect_rc:
        return f"{kind}: exit {rc}, expected {expect_rc}: {stderr.strip()[-300:]}"
    if expect_rc == 3 and "error[numeric]:" not in stderr:
        return f"{kind}: exit 3 without an error[numeric]: line"
    return None


def check_report(path: Path, previous: bytes | None) -> tuple[str | None, bytes | None]:
    """Returns (failure or None, report bytes)."""
    try:
        raw = path.read_bytes()
        summary = json.loads(raw)["summary"]
    except (OSError, ValueError, KeyError) as exc:
        return f"verify: unreadable report: {exc}", None
    if summary.get("unexpected_failed") != 0:
        return f"verify: summary {summary}", raw
    if previous is not None and raw != previous:
        return "verify: report differs from the previous pass", raw
    return None, raw


def check_trajectories(csv_path: Path, json_path: Path) -> dict[str, str]:
    """Failures keyed by 'evolve_csv' / 'evolve_json'; empty when both are right."""
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        traj = json.loads(json_path.read_text())
    except (OSError, ValueError) as exc:
        return {"evolve_json": f"unreadable output: {exc}"}
    header, body = rows[0], np.array(rows[1:], dtype=float)
    columns = {
        name: body[:, header.index(f"{name}_re")] + 1j * body[:, header.index(f"{name}_im")]
        for name in traj["expectations"]
    }
    for name, pairs in traj["expectations"].items():
        values = np.array(pairs, dtype=float)
        if not np.array_equal(values[:, 0] + 1j * values[:, 1], columns[name]):
            return {"evolve_json": f"expectations[{name}] differ from the CSV"}
    if not np.array_equal(body[:, 0], np.asarray(traj["t"])):
        return {"evolve_json": "time grid differs from the CSV"}

    reference = reference_expectations(traj)
    for name, expected in reference.items():
        scale = max(1.0, float(np.max(np.abs(expected))))
        error = float(np.max(np.abs(columns[name] - expected))) / scale
        if not error <= REFERENCE_RTOL:
            return {"evolve_csv": f"{name}: error {error:.3e} vs exact reference"}
    return {}


def reference_expectations(traj: dict) -> dict[str, np.ndarray]:
    """<O>(t) = psi0^H G0 exp(iH tau) O exp(-iH tau) psi0 for constant H and O.

    Returns nothing for a time-dependent Hamiltonian, and skips observables
    given as coefficient terms.
    """
    scenario = traj["scenario"]
    try:
        coeffs = [float(term["coeff"]) for term in scenario["hamiltonian"]]
    except ValueError:
        return {}
    h = sum(c * _complex(term["matrix"]) for c, term in zip(coeffs, scenario["hamiltonian"]))
    psi0 = _complex(traj["psi"][0])
    g0 = _complex(traj["g0"])
    tau = np.asarray(traj["t"]) - traj["t"][0]
    forward = expm(-1j * tau[:, None, None] * h)  # exp(-iH tau) for every node
    backward = expm(1j * tau[:, None, None] * h)
    kets = forward @ psi0
    duals = (psi0.conj() @ g0) @ backward
    out = {}
    for name, value in scenario["observables"].items():
        if value and isinstance(value[0], dict):
            continue
        out[name] = np.einsum("kd,de,ke->k", duals, _complex(value), kets)
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of matrices: scaling, Taylor, squaring."""
    norm = float(np.max(np.abs(a).sum(axis=-2))) if a.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    term = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape).copy()
    total = term.copy()
    for k in range(1, 20):  # ||a|| <= 1/2: the remainder is below 1e-24
        term = term @ a / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def _complex(doc) -> np.ndarray:
    arr = np.asarray(doc, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]
