"""An exact-answer family: non-Hermitian H(t) with a dynamical metric, solved in closed form.

With a Hermitian h, B = diag((g + iw) j) for j = 0 .. n-1 and S = e^{tB},

    H(t) = S h S^-1 + iB

has, from t0 = 0 and G0 = I, the propagators U_R = S e^{-iht} and
U_L = e^{iht} S^-1 and the metric G = e^{-2gt diag(j)}. Entry (j, k) of
S h S^-1 is h_jk e^{(g + iw)(j - k)t}, so H is 4n - 3 profile terms: one
constant term diag(h_jj + i g j - w j), and for each off-diagonal d = j - k
the term exp(g d t) cos(w d t) on h's d-th diagonal and exp(g d t) sin(w d t)
on i times it. It is the Dyson-map construction of Fring and Moussa
(PRA 93, 042114, 2016); with w = 0 and h a chain's hopping it is a
time-dependent Hatano-Nelson chain.
"""

import numpy as np

from metricbundle.model import (
    IntegratorConfig,
    MetricInit,
    OperatorSpec,
    ProfileTerm,
    Scenario,
    constant_operator,
)

G, W = 0.3, 0.7


def hermitian(n: int) -> np.ndarray:
    """The family's h at dim n, drawn from default_rng(n)."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def scenario(n: int, t1: float = 2.0, step: float = 1e-3, g: float = G, w: float = W) -> Scenario:
    """The family at dim n, with the observable x = diag(j) and psi0 uniform."""
    h = hermitian(n)
    j = np.arange(n)
    terms = [ProfileTerm.parse("1", np.diag(np.diag(h) + 1j * g * j - w * j))]
    for d in [*range(1 - n, 0), *range(1, n)]:
        band = np.diag(np.diag(h, -d), -d)  # the entries with j - k = d
        growth = f"exp({g * d!r} * t)"
        terms.append(ProfileTerm.parse(f"{growth} * cos({w * d!r} * t)", band))
        terms.append(ProfileTerm.parse(f"{growth} * sin({w * d!r} * t)", 1j * band))
    return Scenario(
        hamiltonian=OperatorSpec(terms),
        metric_init=MetricInit("identity"),
        psi0=np.full(n, 1 / np.sqrt(n), dtype=complex),
        observables={"x": constant_operator(np.diag(j).astype(complex))},
        t0=0.0,
        t1=t1,
        integrator=IntegratorConfig(step=step),
        name=f"exact-family-{n}",
        expected_failures=("conventional_dagger_transport",),
    )


def exact(n: int, ts, g: float = G, w: float = W) -> dict[str, np.ndarray]:
    """U_R, U_L, G and <x> of scenario(n, ...) at the times ts, one per time."""
    lam, v = np.linalg.eigh(hermitian(n))
    j = np.arange(n)
    ts = np.asarray(ts, dtype=float)[:, None]
    s = np.exp((g + 1j * w) * j * ts)  # the diagonal of S at each time
    e_iht = v @ (np.exp(1j * lam * ts)[..., None] * v.conj().T)
    u_r = s[:, :, None] * e_iht.conj().swapaxes(-1, -2)
    u_l = e_iht / s[:, None, :]
    metric = np.exp(-2 * g * j * ts)
    psi = u_r @ np.full(n, 1 / np.sqrt(n))
    x = np.einsum("tj,tj,j,tj->t", psi.conj(), metric, j, psi)
    return {"u_r": u_r, "u_l": u_l, "g": metric[:, :, None] * np.eye(n), "x": x}
