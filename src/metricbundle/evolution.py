"""Coupled integration of state, metric, propagators, and vielbein.

Five channels share one time grid and one Hamiltonian sample per RK4 stage:

    d/dt psi = -i H(t) psi
    d/dt U_R = -i H(t) U_R          (right propagator, evolves kets)
    d/dt U_L = +i U_L H(t)          (left propagator, evolves duals; U_L = inv(U_R))
    d/dt G   =  i (G H(t) - adj(H(t)) G)
    d/dt E   =  i E H(t)            (vielbein in the zero-generator gauge)

The metric channel is integrated directly AND recoverable in closed form as
adj(U_L) G0 U_L, giving two independent numerical paths whose disagreement is
a direct measure of integrator error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import NonFiniteError, StepLimitExceededError
from .matops import DEFAULT_TOL, Tolerance, cholesky_upper
from .model import Scenario, resolve_initial_metric

__all__ = [
    "EvolutionBundle",
    "rhs_vielbein",
    "integrate",
    "closed_form_metric",
    "bundle_to_json_dict",
    "bundle_from_json_dict",
]

BLOWUP_LIMIT = 1e12

# Stacked right-multiplied channels: index into the (3, dim, dim) block.
_UL, _G, _E = 0, 1, 2


def rhs_vielbein(h, e):
    """Right-multiplied flow i E H; broadcasts over leading axes of e."""
    return 1j * (e @ h)


@dataclass(frozen=True)
class EvolutionBundle:
    """Time-gridded record of one integration run; immutable once produced."""

    ts: np.ndarray  # (n,)
    psi: np.ndarray  # (n, dim)
    u_r: np.ndarray  # (n, dim, dim)
    u_l: np.ndarray  # (n, dim, dim)
    g: np.ndarray  # (n, dim, dim)
    e: np.ndarray  # (n, dim, dim)
    g0: np.ndarray  # (dim, dim)
    step: float
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.ts.shape[0]

    @property
    def dim(self) -> int:
        return self.psi.shape[1]

    def index_of_time(self, t: float) -> int:
        """Grid node nearest to t; t must lie on the grid within half a step."""
        idx = int(round((t - self.ts[0]) / self.step))
        if idx < 0 or idx >= self.n_nodes or abs(self.ts[idx] - t) > 0.5 * self.step:
            raise IndexError(f"time {t} is not on the grid")
        return idx


def _rhs(h, psi, u_r, rge):
    """All channel derivatives from one shared Hamiltonian sample."""
    dpsi = -1j * (h @ psi)
    du_r = -1j * (h @ u_r)
    drge = rhs_vielbein(h, rge)  # right-multiplied channels U_L, G, E
    drge[_G] -= 1j * (h.conj().T @ rge[_G])
    return dpsi, du_r, drge


def _rk4_step(assemble, t, step, psi, u_r, rge):
    h1 = assemble(t)
    h2 = assemble(t + 0.5 * step)
    h4 = assemble(t + step)
    k1 = _rhs(h1, psi, u_r, rge)
    k2 = _rhs(h2, psi + 0.5 * step * k1[0], u_r + 0.5 * step * k1[1], rge + 0.5 * step * k1[2])
    k3 = _rhs(h2, psi + 0.5 * step * k2[0], u_r + 0.5 * step * k2[1], rge + 0.5 * step * k2[2])
    k4 = _rhs(h4, psi + step * k3[0], u_r + step * k3[1], rge + step * k3[2])
    sixth = step / 6.0
    return (
        psi + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        u_r + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        rge + sixth * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
    )


def _check_finite(node: int, psi, u_r, rge):
    for channel, arr in (("psi", psi), ("u_r", u_r), ("u_l", rge[_UL]), ("g", rge[_G]), ("e", rge[_E])):
        a = np.abs(arr)
        if not np.all(np.isfinite(a)) or np.max(a) > BLOWUP_LIMIT:
            raise NonFiniteError("channel left the finite range", node, channel)


def integrate(scenario: Scenario, tol: Tolerance = DEFAULT_TOL) -> EvolutionBundle:
    """Advance all five channels over [t0, t1] on a uniform grid."""
    config = scenario.integrator
    span = scenario.t1 - scenario.t0
    n_steps = max(1, round(span / config.step))
    if n_steps > config.max_steps:
        raise StepLimitExceededError(
            f"{n_steps} steps needed, max_steps is {config.max_steps}"
        )
    # Snap the step so the grid lands exactly on t1.
    step = span / n_steps

    dim = scenario.dim
    g0 = resolve_initial_metric(scenario, tol)
    e0 = cholesky_upper(g0, tol)

    psi = np.array(scenario.psi0, dtype=complex)
    u_r = np.eye(dim, dtype=complex)
    rge = np.stack([np.eye(dim, dtype=complex), g0.astype(complex), e0.astype(complex)])

    ts = scenario.t0 + step * np.arange(n_steps + 1)
    psi_out = np.empty((n_steps + 1, dim), dtype=complex)
    u_r_out = np.empty((n_steps + 1, dim, dim), dtype=complex)
    rge_out = np.empty((n_steps + 1, 3, dim, dim), dtype=complex)
    psi_out[0], u_r_out[0], rge_out[0] = psi, u_r, rge

    assemble = scenario.hamiltonian.assemble
    richardson = config.method == "rk4_richardson"
    max_err_estimate = 0.0

    for k in range(n_steps):
        t = ts[k]
        psi, u_r, rge = _rk4_step(assemble, t, step, psi, u_r, rge)
        if richardson:
            half = 0.5 * step
            fine = _rk4_step(assemble, t, half, psi_out[k], u_r_out[k], rge_out[k])
            fine = _rk4_step(assemble, t + half, half, *fine)
            err = max(
                float(np.max(np.abs(f - c)))
                for f, c in zip(fine, (psi, u_r, rge))
            ) / 15.0
            max_err_estimate = max(max_err_estimate, err)
            # Richardson extrapolation of the fine solution (local order 6).
            psi, u_r, rge = (
                fine[0] + (fine[0] - psi) / 15.0,
                fine[1] + (fine[1] - u_r) / 15.0,
                fine[2] + (fine[2] - rge) / 15.0,
            )
        _check_finite(k + 1, psi, u_r, rge)
        psi_out[k + 1], u_r_out[k + 1], rge_out[k + 1] = psi, u_r, rge

    metadata: dict[str, Any] = {"method": config.method, "n_steps": n_steps}
    if richardson:
        metadata["max_step_error_estimate"] = max_err_estimate

    return EvolutionBundle(
        ts=ts,
        psi=psi_out,
        u_r=u_r_out,
        u_l=rge_out[:, _UL],
        g=rge_out[:, _G],
        e=rge_out[:, _E],
        g0=g0,
        step=step,
        metadata=metadata,
    )


def closed_form_metric(bundle: EvolutionBundle, index) -> np.ndarray:
    """Transported metric adj(U_L) G(t0) U_L, an integration-free cross-check.

    index may be an index array; the result then has a leading node axis.
    """
    u_l = bundle.u_l[index]
    return u_l.conj().swapaxes(-1, -2) @ bundle.g0 @ u_l


def _encode_complex_array(a: np.ndarray) -> list:
    """Nested lists with [re, im] leaves (the scenario-file convention)."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _decode_complex_array(doc) -> np.ndarray:
    arr = np.asarray(doc, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def bundle_to_json_dict(bundle: EvolutionBundle) -> dict[str, Any]:
    return {
        "t": bundle.ts.tolist(),
        "step": bundle.step,
        "psi": _encode_complex_array(bundle.psi),
        "u_r": _encode_complex_array(bundle.u_r),
        "u_l": _encode_complex_array(bundle.u_l),
        "g": _encode_complex_array(bundle.g),
        "e": _encode_complex_array(bundle.e),
        "g0": _encode_complex_array(bundle.g0),
        "metadata": bundle.metadata,
    }


def bundle_from_json_dict(doc: dict[str, Any]) -> EvolutionBundle:
    """Re-ingest an exported trajectory as an explicit bundle."""
    return EvolutionBundle(
        ts=np.asarray(doc["t"], dtype=float),
        psi=_decode_complex_array(doc["psi"]),
        u_r=_decode_complex_array(doc["u_r"]),
        u_l=_decode_complex_array(doc["u_l"]),
        g=_decode_complex_array(doc["g"]),
        e=_decode_complex_array(doc["e"]),
        g0=_decode_complex_array(doc["g0"]),
        step=float(doc["step"]),
        metadata=dict(doc.get("metadata", {})),
    )
