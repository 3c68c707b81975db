"""Transport of states, duals, and operators between the three pictures.

S  — Schroedinger: states evolve, duals carry the metric, O_S(t) as given.
H  — Heisenberg: states frozen at t0, operators O_H = U_L O_S U_R.
HL — Heisenberg-like: states frozen and premultiplied by the initial
     vielbein, duals are exact conjugates, operators O_HL = E O_S inv(E).

Operators are plain arrays and states are (ket, dual) pairs; the caller
tracks which picture each one is in. The conventional adj(U) O U transport is
kept as a diagnostic: for non-Hermitian dynamics it is NOT a similarity
transformation and breaks commutation relations, which is exactly what the
diagnostic is for.

Every transport and check takes a grid node index, an index array or a slice
(the HL transport takes E and inv(E) at those nodes); with an array or a slice
the operators carry a leading node axis and each check returns one value per
node.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .evolution import EvolutionBundle
from .matops import adjoint, as_stack, commutator, frobenius

__all__ = [
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


def expectation_schrodinger(bundle: EvolutionBundle, index, obs):
    """dual . O . ket at grid node(s), with dual = adj(psi) G(t).

    With an index array or a slice, obs is one matrix or one per node, and the
    result is one value per node.
    """
    obs = as_stack(obs, "observable")
    psi = bundle.psi_at(index)
    if obs.shape[-1] != psi.shape[-1]:
        raise DimensionMismatchError("observable dimension mismatch")
    # Left to right, ((adj(psi) G) O) psi, as row times matrices times column.
    # A value that overflows is infinite, with no numpy warning.
    with np.errstate(all="ignore"):
        values = (psi.conj()[..., None, :] @ bundle.g[index] @ obs @ psi[..., :, None])[..., 0, 0]
    return complex(values) if values.ndim == 0 else values


def to_heisenberg(o, bundle: EvolutionBundle, index) -> np.ndarray:
    """Similarity transport U_L O_S U_R; isospectral with the input."""
    return bundle.u_l[index] @ o @ bundle.u_r[index]


def to_heisenberg_like(o, e, e_inv) -> np.ndarray:
    """Vielbein transport E O_S inv(E); the caller inverts E, which is singular near an EP."""
    return e @ o @ e_inv


def heisenberg_state(bundle: EvolutionBundle) -> tuple[np.ndarray, np.ndarray]:
    """(ket, dual) frozen at t0: psi(t0) and adj(psi(t0)) G(t0)."""
    ket = bundle.psi_at(0)
    return ket, ket.conj() @ bundle.g[0]


def heisenberg_like_state(bundle: EvolutionBundle) -> tuple[np.ndarray, np.ndarray]:
    """(ket, dual) frozen at t0: E(t0) psi(t0) and, by construction, its exact conjugate."""
    ket = bundle.e_at(0) @ bundle.psi_at(0)
    return ket, ket.conj()


def expectation(state, op):
    """dual . O . ket of a frozen (ket, dual) state and an operator in its picture.

    With an operator stack the result is one value per node.
    """
    ket, dual = state
    # Row times matrix times column, as for a single node, so that a stack
    # gives per node the same rounding as one node on its own.
    values = (dual[None, :] @ op @ ket[:, None])[..., 0, 0]
    return complex(values) if values.ndim == 0 else values


def heisenberg_rhs(obs, h, dt_obs) -> np.ndarray:
    """i [H_P, O_P] + (dO/dt)_P — the one equation of motion of both pictures P = H, HL."""
    return 1j * commutator(h, obs) + dt_obs


def hermitized_hamiltonian(h_s, e, e_inv, de_dt) -> np.ndarray:
    """E H_S inv(E) + i (dE/dt) inv(E) — the generator seen by vielbein states.

    In the zero-generator gauge (dE/dt = i E H_S) the two terms cancel and the
    returned norm is a pure numerical residual.
    """
    return e @ as_stack(h_s) @ e_inv + 1j * as_stack(de_dt) @ e_inv


def commutator_gap(transport, a, b, bundle: EvolutionBundle, index):
    """Relative gap between transported commutator and commutator of transports.

    transport is to_heisenberg or naive_dagger_transport.
    """
    ta, tb, transported = (transport(op, bundle, index) for op in (a, b, commutator(a, b)))
    scale = np.maximum(1.0, frobenius(ta) * frobenius(tb))
    return frobenius(commutator(ta, tb) - transported) / scale


def naive_dagger_transport(o, bundle: EvolutionBundle, index) -> np.ndarray:
    """Conventional adj(U) O_S U transport, kept as a diagnostic picture."""
    u = bundle.u_r[index]
    return adjoint(u) @ o @ u
