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
# Steps per block in integrate. A block's fixed cost (three assemble_many
# calls and one guard) measured 0.19-0.57 ms at dim 2, a constant and a
# sin(t) Hamiltonian. At 256 steps that is 0.7-2.2 us per step, against about
# 90 us for one RK4 step; 1024 steps saved about 1 us more. The H stacks of a
# block hold 3 matrices per step, fewer than the 4 per node the trajectory
# stores, so they never cost more memory than the trajectory itself.
BLOCK_STEPS = 256

# Stacked right-multiplied channels: index into the (3, dim, dim) block.
_UL, _G, _E = 0, 1, 2
# Guard order: the channel reported at a bad node is the first bad one here.
_CHANNELS = ("psi", "u_r", "u_l", "g", "e")


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


def _rk4_step(h1, h2, h4, step, psi, u_r, rge):
    """One RK4 step from H at the start, middle and end of the step."""
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


def _check_finite(first_node: int, psi, u_r, rge):
    """Raise at the first stored node, and its first channel, out of the finite range."""
    flat = [a.reshape(len(a), -1) for a in (psi, u_r, *rge.swapaxes(0, 1))]
    # not (|x| <= limit) also flags NaN and inf; bad is (nodes, channels).
    bad = np.stack([~np.all(np.abs(a) <= BLOWUP_LIMIT, axis=1) for a in flat], axis=1)
    if bad.any():
        node, channel = np.unravel_index(np.argmax(bad), bad.shape)
        node, channel = first_node + int(node), _CHANNELS[channel]
        raise NonFiniteError("channel left the finite range", node, channel)


def integrate(scenario: Scenario, tol: Tolerance = DEFAULT_TOL) -> EvolutionBundle:
    """Advance all five channels over [t0, t1] on a uniform grid.

    Steps run in blocks of BLOCK_STEPS, with H assembled for a whole block at
    once and the finite-range guard run over the block's stored nodes after it.
    """
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

    assemble_many = scenario.hamiltonian.assemble_many
    for a in range(0, n_steps, BLOCK_STEPS):
        b = min(a + BLOCK_STEPS, n_steps)
        t = ts[a:b]
        # t + step, not ts[a + 1:b + 1]: the two can differ in the last bit.
        stages = zip(assemble_many(t), assemble_many(t + 0.5 * step), assemble_many(t + step))
        with np.errstate(all="ignore"):  # the guard reports a blow-up
            for k, (h1, h2, h4) in enumerate(stages, start=a + 1):
                psi, u_r, rge = _rk4_step(h1, h2, h4, step, psi, u_r, rge)
                psi_out[k], u_r_out[k], rge_out[k] = psi, u_r, rge
        _check_finite(a + 1, psi_out[a + 1:b + 1], u_r_out[a + 1:b + 1], rge_out[a + 1:b + 1])

    return EvolutionBundle(
        ts=ts,
        psi=psi_out,
        u_r=u_r_out,
        u_l=rge_out[:, _UL],
        g=rge_out[:, _G],
        e=rge_out[:, _E],
        g0=g0,
        step=step,
        metadata={"method": config.method, "n_steps": n_steps},
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
