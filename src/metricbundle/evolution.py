"""Coupled integration of propagators and metric; state and vielbein derived.

Three channels share one time grid and one Hamiltonian sample per RK4 stage:

    d/dt U_R = -i H(t) U_R          (right propagator, evolves kets)
    d/dt U_L = +i U_L H(t)          (left propagator, evolves duals; U_L = inv(U_R))
    d/dt G   =  i (G H(t) - adj(H(t)) G)

The state psi = U_R psi0 and the vielbein E = E0 U_L (zero-generator gauge,
d/dt E = i E H) are derived after the run. RK4 is linear in its initial value,
so integrating them as channels of their own would agree up to rounding.

The metric channel is integrated directly AND recoverable in closed form as
adj(U_L) G0 U_L, giving two independent numerical paths whose disagreement is
a direct measure of integrator error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import NonFiniteError, StepLimitExceededError
from .matops import cholesky_upper
from .model import Scenario, complex_pairs, resolve_initial_metric

__all__ = [
    "EvolutionBundle",
    "rhs_vielbein",
    "integrate",
    "closed_form_metric",
    "bundle_to_json_dict",
    "bundle_from_json_dict",
    "to_json_text",
]

BLOWUP_LIMIT = 1e12
# Steps per block in integrate. A block's fixed cost (three assemble_many
# calls and one guard) measured 0.19-0.57 ms at dim 2, a constant and a
# sin(t) Hamiltonian. At 256 steps that is 0.7-2.2 us per step, against about
# 90 us for one RK4 step; 1024 steps saved about 1 us more. The H stacks of a
# block hold 3 matrices per step, fewer than the 4 per node the trajectory
# stores, so they never cost more memory than the trajectory itself.
BLOCK_STEPS = 256

# Channel axis of the stored trajectory, in guard order: the channel reported
# at a bad node is the first bad one here.
_CHANNELS = ("u_r", "u_l", "g")


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


def _rhs(h, u_r, ul_g):
    """All channel derivatives from one shared Hamiltonian sample; ul_g stacks U_L and G."""
    du_r = -1j * (h @ u_r)
    dul_g = rhs_vielbein(h, ul_g)  # the right-multiplied flow of both
    dul_g[1] -= 1j * (h.conj().T @ ul_g[1])
    return du_r, dul_g


def _rk4_step(h1, h2, h4, step, u_r, ul_g):
    """One RK4 step from H at the start, middle and end of the step."""
    k1 = _rhs(h1, u_r, ul_g)
    k2 = _rhs(h2, u_r + 0.5 * step * k1[0], ul_g + 0.5 * step * k1[1])
    k3 = _rhs(h2, u_r + 0.5 * step * k2[0], ul_g + 0.5 * step * k2[1])
    k4 = _rhs(h4, u_r + step * k3[0], ul_g + step * k3[1])
    sixth = step / 6.0
    return (
        u_r + sixth * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        ul_g + sixth * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
    )


def _check_finite(first_node: int, ts, block):
    """Raise at the first node, and its first channel, out of the finite range.

    ts and block hold the times and channels of the nodes from first_node on.
    """
    # not (|x| <= limit) also flags NaN and inf; bad is (nodes, channels).
    bad = ~np.all(np.abs(block) <= BLOWUP_LIMIT, axis=(2, 3))
    if bad.any():
        node, channel = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteError("channel left the finite range", first_node + int(node),
                             float(ts[node]), _CHANNELS[channel])


def integrate(scenario: Scenario) -> EvolutionBundle:
    """Advance U_R, U_L and G over [t0, t1] on a uniform grid, then derive psi and E.

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
    g0 = resolve_initial_metric(scenario)
    e0 = cholesky_upper(g0).astype(complex)

    u_r = np.eye(dim, dtype=complex)
    ul_g = np.stack([u_r, g0.astype(complex)])

    ts = scenario.t0 + step * np.arange(n_steps + 1)
    out = np.empty((n_steps + 1, len(_CHANNELS), dim, dim), dtype=complex)
    out[0, 0], out[0, 1:] = u_r, ul_g

    assemble_many = scenario.hamiltonian.assemble_many
    for a in range(0, n_steps, BLOCK_STEPS):
        b = min(a + BLOCK_STEPS, n_steps)
        t = ts[a:b]
        # t + step, not ts[a + 1:b + 1]: the two can differ in the last bit.
        stages = zip(assemble_many(t), assemble_many(t + 0.5 * step), assemble_many(t + step))
        with np.errstate(all="ignore"):  # the guard reports a blow-up
            for k, (h1, h2, h4) in enumerate(stages, start=a + 1):
                u_r, ul_g = _rk4_step(h1, h2, h4, step, u_r, ul_g)
                out[k, 0], out[k, 1:] = u_r, ul_g
        _check_finite(a + 1, ts[a + 1:b + 1], out[a + 1:b + 1])

    u_r, u_l, g = out.swapaxes(0, 1)
    return EvolutionBundle(
        ts=ts,
        psi=u_r @ np.asarray(scenario.psi0, dtype=complex),
        u_r=u_r,
        u_l=u_l,
        g=g,
        e=e0 @ u_l,
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


def _decode_complex_array(doc) -> np.ndarray:
    """Inverse of complex_pairs, bit for bit (re + 1j * im would drop the
    sign of a zero imaginary part)."""
    return np.array(doc, dtype=np.float64).view(np.complex128)[..., 0]


def bundle_to_json_dict(bundle: EvolutionBundle) -> dict[str, Any]:
    """The trajectory document; its leaves are float64 arrays, complex ones as
    complex_pairs. Write it with to_json_text."""
    return {
        "t": bundle.ts.copy(),
        "step": bundle.step,
        "psi": complex_pairs(bundle.psi),
        "u_r": complex_pairs(bundle.u_r),
        "u_l": complex_pairs(bundle.u_l),
        "g": complex_pairs(bundle.g),
        "e": complex_pairs(bundle.e),
        "g0": complex_pairs(bundle.g0),
        "metadata": bundle.metadata,
    }


# json.dumps's text for the floats whose repr is not JSON.
_NONFINITE_TEXT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_array_text(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) for a float64 array, without the nested lists.

    Each distinct bit pattern is formatted once, then one %s template with
    the array's shape is filled. repr is the cost (1-3 us a float on a 2-vCPU
    VM), and trajectories repeat most values. Keying on bits keeps 0.0 and
    -0.0 apart.
    """
    if a.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {a.dtype}")
    bits, inverse = np.unique(a.reshape(-1).view(np.uint64), return_inverse=True)
    texts = [_NONFINITE_TEXT.get(s, s) for s in map(repr, bits.view(np.float64).tolist())]
    template = "%s"
    for n in reversed(a.shape):
        template = "[" + ", ".join([template] * n) + "]"
    return template % tuple(np.array(texts, dtype=object)[inverse])


def to_json_text(value) -> str:
    """json.dumps(value) byte for byte, where value may hold float64 arrays.

    Dicts (with string keys) may nest; an array stands for its tolist().
    """
    if isinstance(value, np.ndarray):
        return _float_array_text(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(key)}: {to_json_text(item)}" for key, item in value.items())
        return "{" + ", ".join(items) + "}"
    return json.dumps(value)


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
