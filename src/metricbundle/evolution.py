"""Coupled integration of propagators and metric; state and vielbein derived.

Three channels share one time grid and one Hamiltonian sample per RK4 stage:

    d/dt U_R = -i H(t) U_R          (right propagator, evolves kets)
    d/dt U_L = +i U_L H(t)          (left propagator, evolves duals; U_L = inv(U_R))
    d/dt G   =  i (G H(t) - adj(H(t)) G)

A stage is one batched product over a stack of its operands (_stage_rates).

The state psi = U_R psi0 and the vielbein E = E0 U_L (zero-generator gauge,
d/dt E = i E H) are derived at the nodes a reader asks for (psi_at, e_at).
RK4 is linear in its initial value, so integrating them as channels of their
own would agree up to rounding.

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
from .model import Scenario, complex_pairs, resolve_initial_metric, scenario_to_json_dict

__all__ = [
    "EvolutionBundle",
    "rhs_vielbein",
    "integrate",
    "closed_form_metric",
    "bundle_to_json_dict",
    "to_json_text",
    "to_json_parts",
]

BLOWUP_LIMIT = 1e12
# Steps per block in integrate, at most. A block's fixed cost (three
# assemble_many calls and one guard) measured 0.19-0.57 ms at dim 2, a constant
# and a sin(t) Hamiltonian: 0.7-2.2 us a step at 256 steps; 1024 steps saved
# about 1 us more.
BLOCK_STEPS = 256
# Byte budget of a block's stage stacks, 21 matrices a step. From dim 7 on it,
# not BLOCK_STEPS, sets the block length; from dim 80 a block is one step,
# whose stacks exceed the budget past dim 111. Besides them a block holds only
# the H stacks of assemble_many (3 matrices a step, none for a constant H).
BLOCK_BYTES = 4 << 20

# Channel axis of the stored trajectory, and of a stage's input and rates.
_CHANNELS = ("u_r", "g", "u_l")
# The guard's order: the channel reported at a bad node is the first bad one here.
_GUARD_ORDER = ("u_r", "u_l", "g")
_GUARD_INDEX = [_CHANNELS.index(name) for name in _GUARD_ORDER]


def rhs_vielbein(h, e):
    """Right-multiplied flow i E H; broadcasts over leading axes of e."""
    return 1j * (e @ h)


@dataclass(frozen=True, eq=False)
class EvolutionBundle:
    """Time-gridded record of one integration run, immutable once produced: the
    integrated channels and the run's initial data. G(t0) is g[0]."""

    ts: np.ndarray  # (n,)
    u_r: np.ndarray  # (n, dim, dim)
    u_l: np.ndarray  # (n, dim, dim)
    g: np.ndarray  # (n, dim, dim)
    psi0: np.ndarray  # (dim,)
    e0: np.ndarray  # (dim, dim), the upper Cholesky factor of g[0]
    step: float
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.ts.shape[0]

    @property
    def dim(self) -> int:
        return self.psi0.shape[0]

    def psi_at(self, index) -> np.ndarray:
        """The state U_R psi0 at grid node(s) index: an int, an index array or a slice."""
        return self.u_r[index] @ self.psi0

    def e_at(self, index) -> np.ndarray:
        """The vielbein E0 U_L at grid node(s) index: an int, an index array or a slice."""
        return self.e0 @ self.u_l[index]


def _check_finite(first_node: int, ts, block):
    """Raise at the first node, and its first channel, out of the finite range.

    ts and block hold the times and channels of the nodes from first_node on.
    """
    # not (|x| <= limit) also flags NaN and inf; bad is (nodes, channels).
    bad = ~np.all(np.abs(block) <= BLOWUP_LIMIT, axis=(2, 3))[:, _GUARD_INDEX]
    if bad.any():
        node, channel = np.unravel_index(np.argmax(bad), bad.shape)
        raise NonFiniteError("channel left the finite range", first_node + int(node),
                             float(ts[node]), _GUARD_ORDER[channel])


def _steps_per_block(dim: int) -> int:
    """Block length of integrate: BLOCK_STEPS, or fewer to keep within BLOCK_BYTES."""
    # A step has a stack for each of its 3 H samples, of complex128 matrices.
    return max(1, min(BLOCK_STEPS, BLOCK_BYTES // (3 * _SLOTS * 16 * dim * dim)))


# A stage stack holds the operands of one RK4 stage's single batched product:
#   slot   0   1   2    3  4    5  6
#          iH  iH  U_R  G  U_L  H  adj(H)
# stack[3:7] @ stack[0:4] = [G iH, U_L iH, H U_R, adj(H) G]; slots 2-4 take the
# stage input, in _CHANNELS order. The products land in slots 2-5 of a 6-slot
# row; the phases -i and i move H U_R and adj(H) G to slots 1 and 0, and G's
# rate replaces G iH, so row[1:4] holds the rates in _CHANNELS order. This
# gives the bits of -i (H U_R), i (U_L H) and i (G H) - i (adj(H) G): i folded
# into the right factor of a product keeps them, but folded into the left
# factor it does not (OpenBLAS 0.3.31's zgemm rounds (iA) B and i (A B)
# differently unless the dim is a multiple of 4). Stage inputs and the step keep RK4's
# order of operations, y + (h/2) k and y + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
_SLOTS = 7
_LEFT, _RIGHT, _INPUT = slice(3, 7), slice(0, 4), slice(2, 5)  # of a stage stack
_RATES = slice(1, 4)  # of a stage's row
_PHASES = np.array([-1j, 1j])[:, None, None]


def _fill_stage_stacks(stacks, hamiltonians) -> None:
    """Write the H slots of the stacks of a block's first len(H) steps, one H stack a sample."""
    for sample, h in enumerate(hamiltonians):
        slots = stacks[:len(h), sample]
        np.multiply(1j, h[:, None], out=slots[:, 0:2])
        slots[:, 5] = h
        np.conjugate(h.swapaxes(1, 2), out=slots[:, 6])


def _row_views(row):
    """The views of a stage's (6, dim, dim) row that _stage_rates writes."""
    return row[2:6], row[4:6], row[1::-1], row[2], row[0]


def _stage_rates(left, right, views) -> None:
    """A stage's rates into row[_RATES], where views = _row_views(row), from
    its stack's slices left = stack[_LEFT] and right = stack[_RIGHT]."""
    products, left_products, phased, g_rate, adj_term = views
    np.matmul(left, right, out=products)
    np.multiply(_PHASES, left_products, out=phased)
    np.subtract(g_rate, adj_term, out=g_rate)


def integrate(scenario: Scenario) -> EvolutionBundle:
    """Advance U_R, U_L and G over [t0, t1] on a uniform grid.

    Steps run in blocks of _steps_per_block(dim), with H sampled and its
    stage stacks built for a whole block at once, and the finite-range guard
    run over the block's stored nodes after it.
    """
    config = scenario.integrator
    span = scenario.t1 - scenario.t0
    ratio = span / config.step  # inf when the span or the ratio overflows a float
    n_steps = max(1, round(ratio)) if ratio < np.inf else ratio
    if n_steps > config.max_steps:
        raise StepLimitExceededError(
            f"{n_steps} steps needed, max_steps is {config.max_steps}"
        )
    # Snap the step so the grid lands exactly on t1.
    step = span / n_steps
    half, sixth = 0.5 * step, step / 6.0

    dim = scenario.dim
    g0 = resolve_initial_metric(scenario)
    e0 = cholesky_upper(g0).astype(complex)

    try:
        ts = scenario.t0 + step * np.arange(n_steps + 1)
        out = np.empty((n_steps + 1, len(_CHANNELS), dim, dim), dtype=complex)
    except (ValueError, MemoryError) as exc:  # too large for numpy, or for memory
        raise StepLimitExceededError(f"cannot allocate {n_steps} steps: {exc}") from exc
    out[0] = np.eye(dim), g0, np.eye(dim)
    rows = np.empty((4, 6, dim, dim), dtype=complex)  # per RK4 stage
    rates = rows[:, _RATES]  # (stage, channel)
    # Per stage: its H sample, the sample of the next stage, and the multiple
    # of its rate that the next stage input adds to y.
    plan = list(zip(map(_row_views, rows), rates, (0, 1, 1, 2), (1, 1, 2, 0),
                    (half, half, step, None)))

    assemble_many = scenario.hamiltonian.assemble_many
    block = min(_steps_per_block(dim), n_steps)
    stacks = np.empty((block, 3, _SLOTS, dim, dim), dtype=complex)
    lefts, rights, xs = stacks[:, :, _LEFT], stacks[:, :, _RIGHT], stacks[:, :, _INPUT]
    for a in range(0, n_steps, block):
        b = min(a + block, n_steps)
        t = ts[a:b]
        # t + step, not ts[a + 1:b + 1]: the two can differ in the last bit.
        _fill_stage_stacks(stacks, [assemble_many(s) for s in (t, t + half, t + step)])
        with np.errstate(all="ignore"):  # the guard reports a blow-up
            for y, y_next, left, right, x in zip(out[a:b], out[a + 1:b + 1], lefts, rights, xs):
                x[0] = y
                for views, rate, sample, next_sample, by in plan:
                    _stage_rates(left[sample], right[sample], views)
                    if by is not None:
                        scaled = np.multiply(by, rate, out=x[next_sample])
                        np.add(y, scaled, out=scaled)
                rates[1:3] *= 2
                total = np.add.reduce(rates, out=y_next)
                np.add(y, np.multiply(sixth, total, out=total), out=y_next)
        _check_finite(a + 1, ts[a + 1:b + 1], out[a + 1:b + 1])

    u_r, g, u_l = out.swapaxes(0, 1)
    return EvolutionBundle(
        ts=ts,
        u_r=u_r,
        u_l=u_l,
        g=g,
        psi0=scenario.psi0,
        e0=e0,
        step=step,
        metadata={"method": config.method, "n_steps": n_steps},
    )


def closed_form_metric(bundle: EvolutionBundle, index) -> np.ndarray:
    """Transported metric adj(U_L) G(t0) U_L, an integration-free cross-check.

    index may be an index array; the result then has a leading node axis.
    """
    u_l = bundle.u_l[index]
    return u_l.conj().swapaxes(-1, -2) @ bundle.g[0] @ u_l


def bundle_to_json_dict(bundle: EvolutionBundle, scenario: Scenario,
                        expectations: dict[str, np.ndarray]) -> dict[str, Any]:
    """The whole trajectory document of a run of scenario, given one complex column per
    observable in expectations. Its leaves are float64 arrays, complex ones as complex_pairs;
    write it with to_json_text. Its psi, e and g0 are derived here, at every node."""
    return {
        "t": bundle.ts.copy(),
        "step": bundle.step,
        "psi": complex_pairs(bundle.psi_at(slice(None))),
        "u_r": complex_pairs(bundle.u_r),
        "u_l": complex_pairs(bundle.u_l),
        "g": complex_pairs(bundle.g),
        "e": complex_pairs(bundle.e_at(slice(None))),
        "g0": complex_pairs(bundle.g[0]),
        "metadata": bundle.metadata,
        "scenario": scenario_to_json_dict(scenario),
        "expectations": {name: complex_pairs(col) for name, col in expectations.items()},
    }


_SIGN = np.uint64(1 << 63)
_INF = np.uint64(0x7FF0000000000000)  # the magnitude of inf; a larger one is a NaN
_END = np.uint64((1 << 64) - 1)  # above every magnitude: ends the table


class _FloatTexts:
    """The json.dumps text of the float64 arrays of one document.

    repr is the cost (1-3 us a float on a 2-vCPU VM), so each magnitude (the
    bits with the sign cleared) is formatted once per document: one sorted
    table maps the magnitudes met so far to their repr, and -x is "-" and the
    text of x, except for a NaN, whose repr has no sign. Keying on bits keeps
    0.0 and -0.0 apart. An array bit-equal to an earlier one of its shape
    reuses that array's text; with the identity metric, e repeats u_l.
    """

    def __init__(self):
        self.keys = np.array([_END])  # sorted magnitudes, then _END
        self.texts = np.array([None], dtype=object)
        self.arrays = []  # (shape, flat bits, text) of each array encoded

    def array_text(self, a: np.ndarray) -> str:
        """json.dumps(a.tolist()) for a float64 array, without the nested lists."""
        if a.dtype != np.float64:
            raise TypeError(f"expected a float64 array, got {a.dtype}")
        flat = a.reshape(-1).view(np.uint64)
        for shape, bits, text in self.arrays:
            if shape == a.shape and np.array_equal(bits, flat):
                return text
        bits, inverse = np.unique(flat, return_inverse=True)
        mags = bits & ~_SIGN
        texts = self._lookup(mags)
        negative = (bits >= _SIGN) & (mags <= _INF)
        texts[negative] = "-" + texts[negative]
        template = "%s"
        for n in reversed(a.shape):
            template = "[" + ", ".join([template] * n) + "]"
        text = template % tuple(texts[inverse])
        self.arrays.append((a.shape, flat, text))
        return text

    def _lookup(self, mags: np.ndarray) -> np.ndarray:
        """The texts of the magnitudes mags, formatting those not yet in the table."""
        distinct, inverse = np.unique(mags, return_inverse=True)
        new = distinct[self.keys[np.searchsorted(self.keys, distinct)] != distinct]
        if new.size:
            finite = int(np.searchsorted(new, _INF))  # new is sorted: inf and NaNs last
            texts = list(map(repr, new[:finite].view(np.float64).tolist()))
            texts += ["Infinity" if m == _INF else "NaN" for m in new[finite:].tolist()]
            at = np.searchsorted(self.keys, new)
            self.keys = np.insert(self.keys, at, new)
            self.texts = np.insert(self.texts, at, texts)
        return self.texts[np.searchsorted(self.keys, distinct)][inverse]


def to_json_text(value) -> str:
    """json.dumps(value) byte for byte, where value may hold float64 arrays.

    Dicts (with str keys) may nest; an array stands for its tolist().
    """
    return "".join(to_json_parts(value))


def to_json_parts(value) -> list[str]:
    """The pieces of to_json_text(value), in order: a caller that writes them
    to a file never holds the whole text. All arrays of value share one
    _FloatTexts."""
    parts = []
    _json_parts(value, _FloatTexts(), parts)
    return parts


def _json_parts(value, floats: _FloatTexts, parts: list) -> None:
    """Append the text of value to parts."""
    if isinstance(value, np.ndarray):
        parts.append(floats.array_text(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            parts.append(f"{', ' if i else ''}{json.dumps(key)}: ")
            _json_parts(item, floats, parts)
        parts.append("}")
    else:
        parts.append(json.dumps(value))
