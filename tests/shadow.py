"""A truncation-only shadow of integrate: its RK4 recurrence run in np.clongdouble.

The shadow uses integrate's grid, its float64 H samples (assemble_many at t,
t + h/2 and t + h, upcast), its stage formulas and order of operations, and
G(t0) from resolve_initial_metric. So the float64 channels differ from the
shadow's by float64 rounding, and the shadow differs from the exact flow by
RK4's truncation error, up to long double rounding. numpy.linalg takes no
long double, so norms here are written out.
"""

import numpy as np

from metricbundle.model import Scenario, resolve_initial_metric

LONG = np.clongdouble
LONG_EPS = float(np.finfo(np.longdouble).eps)


def run(scenario: Scenario) -> dict[str, np.ndarray]:
    """ts (float64) and the shadow's u_r, g and u_l (clongdouble), stacked over the nodes."""
    n_steps = max(1, round((scenario.t1 - scenario.t0) / scenario.integrator.step))
    step = (scenario.t1 - scenario.t0) / n_steps
    ts = scenario.t0 + step * np.arange(n_steps + 1)
    t = ts[:-1]
    hs = [scenario.hamiltonian.assemble_many(s).astype(LONG) for s in (t, t + 0.5 * step, t + step)]
    ihs = [1j * h for h in hs]
    adjs = [h.conj().swapaxes(1, 2) for h in hs]
    long_step = np.longdouble(step)
    half, sixth = 0.5 * long_step, long_step / 6

    def rates(y, k, sample):
        """The stage rates of y = (U_R, G, U_L) at step k's H sample."""
        u_r, g, u_l = y
        h, ih, adj = hs[sample][k], ihs[sample][k], adjs[sample][k]
        return np.stack([-1j * (h @ u_r), g @ ih - 1j * (adj @ g), u_l @ ih])

    eye = np.eye(scenario.dim)
    out = np.empty((n_steps + 1, 3, scenario.dim, scenario.dim), dtype=LONG)
    out[0] = eye, resolve_initial_metric(scenario), eye
    for k in range(n_steps):
        y = out[k]
        k1 = rates(y, k, 0)
        k2 = rates(y + half * k1, k, 1)
        k3 = rates(y + half * k2, k, 1)
        k4 = rates(y + long_step * k3, k, 2)
        out[k + 1] = y + sixth * (((k1 + 2 * k2) + 2 * k3) + k4)
    u_r, g, u_l = out.swapaxes(0, 1)
    return {"ts": ts, "u_r": u_r, "g": g, "u_l": u_l}


def norms(a) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, in the stack's precision."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
