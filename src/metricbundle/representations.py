"""Transport of states, duals, and operators between the three pictures.

S  — Schroedinger: states evolve, duals carry the metric, O_S(t) as given.
H  — Heisenberg: states frozen at t0, operators O_H = U_L O_S U_R.
HL — Heisenberg-like: states frozen and premultiplied by the initial
     vielbein, duals are exact conjugates, operators O_HL = E O_S inv(E).

A fourth tag, NAIVE, marks operators transported with the conventional
adj(U) O U rule. It is kept deliberately distinct: for non-Hermitian
dynamics that transport is NOT a similarity transformation and breaks
commutation relations, which is exactly what the diagnostic is for.

Every transport and check takes a grid node index or an index array; with an
array the operators carry a leading node axis and each check returns one
value per node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TagMismatchError
from .evolution import EvolutionBundle
from .matops import adjoint, as_stack, commutator, frobenius, inverse

__all__ = [
    "RepresentationTag",
    "TaggedState",
    "TaggedOperator",
    "expectation_schrodinger",
    "to_heisenberg",
    "to_heisenberg_like",
    "heisenberg_state",
    "heisenberg_like_state",
    "expectation",
    "heisenberg_rhs",
    "hermitized_hamiltonian",
    "commutator_gap",
    "naive_dagger_transport",
]


class RepresentationTag(enum.Enum):
    S = "S"
    H = "H"
    HL = "HL"
    NAIVE = "NAIVE"


@dataclass(frozen=True)
class TaggedState:
    rep: RepresentationTag
    ket: np.ndarray
    dual: np.ndarray  # row covector components


@dataclass(frozen=True)
class TaggedOperator:
    rep: RepresentationTag
    matrix: np.ndarray  # (dim, dim), or (nodes, dim, dim) with one matrix per node

    def __getitem__(self, nodes) -> TaggedOperator:
        """The matrices at some nodes of the leading node axis, with the same tag."""
        return TaggedOperator(self.rep, self.matrix[nodes])


def _require(op: TaggedOperator, tag: RepresentationTag, what: str) -> None:
    if op.rep is not tag:
        raise TagMismatchError(f"{what} requires a {tag.value}-tagged operator, got {op.rep.value}")


def expectation_schrodinger(bundle: EvolutionBundle, index, obs):
    """dual . O . ket at grid node(s), with dual = adj(psi) G(t).

    With an index array, obs is one matrix or one per node, and the result is
    one value per node.
    """
    obs = as_stack(obs, "observable")
    psi = bundle.psi[index]
    if obs.shape[-1] != psi.shape[-1]:
        raise DimensionMismatchError("observable dimension mismatch")
    # Left to right, ((adj(psi) G) O) psi, as row times matrices times column.
    # A value that overflows is infinite, with no numpy warning.
    with np.errstate(all="ignore"):
        values = (psi.conj()[..., None, :] @ bundle.g[index] @ obs @ psi[..., :, None])[..., 0, 0]
    return complex(values) if values.ndim == 0 else values


def to_heisenberg(obs_s: TaggedOperator, bundle: EvolutionBundle, index) -> TaggedOperator:
    """Similarity transport U_L O_S U_R; isospectral with the input."""
    _require(obs_s, RepresentationTag.S, "to_heisenberg")
    return TaggedOperator(
        RepresentationTag.H, bundle.u_l[index] @ obs_s.matrix @ bundle.u_r[index])


def to_heisenberg_like(
    obs_s: TaggedOperator, bundle: EvolutionBundle, index
) -> TaggedOperator:
    """Vielbein transport E O_S inv(E); singular near an exceptional point."""
    _require(obs_s, RepresentationTag.S, "to_heisenberg_like")
    e = bundle.e[index]
    return TaggedOperator(RepresentationTag.HL, e @ obs_s.matrix @ inverse(e))


def heisenberg_state(bundle: EvolutionBundle) -> TaggedState:
    ket = bundle.psi[0]
    return TaggedState(RepresentationTag.H, ket, ket.conj() @ bundle.g0)


def heisenberg_like_state(bundle: EvolutionBundle) -> TaggedState:
    ket = bundle.e[0] @ bundle.psi[0]
    # The HL dual is the exact conjugate of the ket, by construction.
    return TaggedState(RepresentationTag.HL, ket, ket.conj())


def expectation(state: TaggedState, op: TaggedOperator):
    """dual . O . ket of a frozen state, both tagged H or both HL.

    With an operator stack the result is one value per node.
    """
    if state.rep is not op.rep or op.rep not in (RepresentationTag.H, RepresentationTag.HL):
        raise TagMismatchError(
            "expectation requires matching H or HL tags, "
            f"got state={state.rep.value}, operator={op.rep.value}"
        )
    # Row times matrix times column, as for a single node, so that a stack
    # gives per node the same rounding as one node on its own.
    values = (state.dual[None, :] @ op.matrix @ state.ket[:, None])[..., 0, 0]
    return complex(values) if values.ndim == 0 else values


def heisenberg_rhs(
    obs: TaggedOperator, h: TaggedOperator, dt_obs: TaggedOperator
) -> np.ndarray:
    """i [H_P, O_P] + (dO/dt)_P — the one equation of motion of both pictures P = H, HL."""
    tag = RepresentationTag.HL if obs.rep is RepresentationTag.HL else RepresentationTag.H
    for op, what in ((obs, "observable"), (h, "hamiltonian"), (dt_obs, "d/dt observable")):
        _require(op, tag, f"heisenberg_rhs {what}")
    return 1j * commutator(h.matrix, obs.matrix) + dt_obs.matrix


def hermitized_hamiltonian(h_s, e, de_dt) -> np.ndarray:
    """E H_S inv(E) + i (dE/dt) inv(E) — the generator seen by vielbein states.

    In the zero-generator gauge (dE/dt = i E H_S) the two terms cancel and the
    returned norm is a pure numerical residual.
    """
    e_inv = inverse(e)
    return e @ as_stack(h_s) @ e_inv + 1j * as_stack(de_dt) @ e_inv


def commutator_gap(transport, a_s: TaggedOperator, b_s: TaggedOperator,
                   bundle: EvolutionBundle, index):
    """Relative gap between transported commutator and commutator of transports.

    transport is to_heisenberg, to_heisenberg_like or naive_dagger_transport,
    each of which rejects an operator that is not S-tagged.
    """
    comm_s = TaggedOperator(RepresentationTag.S, commutator(a_s.matrix, b_s.matrix))
    a, b, transported = (transport(op, bundle, index).matrix for op in (a_s, b_s, comm_s))
    scale = np.maximum(1.0, frobenius(a) * frobenius(b))
    return frobenius(commutator(a, b) - transported) / scale


def naive_dagger_transport(
    obs_s: TaggedOperator, bundle: EvolutionBundle, index
) -> TaggedOperator:
    """Conventional adj(U) O_S U transport, kept as a diagnostic picture."""
    _require(obs_s, RepresentationTag.S, "naive_dagger_transport")
    u = bundle.u_r[index]
    return TaggedOperator(RepresentationTag.NAIVE, adjoint(u) @ obs_s.matrix @ u)

