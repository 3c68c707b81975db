"""A truncation-only shadow of integrate: its RK4 recurrence run in np.clongdouble.

The shadow uses integrate's grid, its float64 H samples (assemble_many at t,
t + h/2 and t + h, upcast), its stage formulas and order of operations, and
G(t0) from resolve_initial_metric. So the float64 channels differ from the
shadow's by float64 rounding, and the shadow differs from the exact flow by
RK4's truncation error, up to long double rounding. numpy.linalg takes no
long double, so norms here are written out.

Run in np.complex128 with no hook, the same loop is integrate bit for bit;
its hooks then plant a defect in one part of the step (see test_mutants.py).
"""

import numpy as np

from metricbundle.model import Scenario, resolve_initial_metric

LONG = np.clongdouble
LONG_EPS = float(np.finfo(np.longdouble).eps)


def stage_rates(h, ih, adj, y):
    """The rates of y = (U_R, G, U_L) at one H sample h, where ih = i h and adj = adj(h)."""
    u_r, g, u_l = y
    return np.stack([-1j * (h @ u_r), g @ ih - 1j * (adj @ g), u_l @ ih])


def rk4_samples(t, step):
    """The four stages' H sample times, for the steps from the times t."""
    return t, t + 0.5 * step, t + 0.5 * step, t + step


def rk4_input(y, ks, step):
    """The next stage's input after the rates ks = [k1, ...] of the stages so far:
    y + (h/2) k1, y + (h/2) k2, then y + h k3."""
    return y + (step if len(ks) == 3 else 0.5 * step) * ks[-1]


def rk4_sum(k1, k2, k3, k4):
    """RK4's weighted sum of the four stage rates, before the factor step/6."""
    return ((k1 + 2 * k2) + 2 * k3) + k4


def run(scenario: Scenario, dtype=LONG, rates=stage_rates, weights=rk4_sum,
        samples=rk4_samples, inputs=rk4_input) -> dict:
    """ts and step (float64) and the loop's u_r, g and u_l (in dtype), stacked over the nodes.

    The hooks replace the stage rates, the weighted sum of the rates, the
    stages' sample times and the stages' inputs.
    """
    n_steps = max(1, round((scenario.t1 - scenario.t0) / scenario.integrator.step))
    step = (scenario.t1 - scenario.t0) / n_steps
    ts = scenario.t0 + step * np.arange(n_steps + 1)
    t = ts[:-1]
    hs = [scenario.hamiltonian.assemble_many(s).astype(dtype) for s in samples(t, step)]
    stages = list(zip(hs, [1j * h for h in hs], [h.conj().swapaxes(1, 2) for h in hs]))
    real_step = np.finfo(dtype).dtype.type(step)
    sixth = real_step / 6

    eye = np.eye(scenario.dim)
    out = np.empty((n_steps + 1, 3, scenario.dim, scenario.dim), dtype=dtype)
    out[0] = eye, resolve_initial_metric(scenario), eye
    for k in range(n_steps):
        y = out[k]
        ks = []
        for stage in stages:
            ks.append(rates(*(a[k] for a in stage), inputs(y, ks, real_step) if ks else y))
        out[k + 1] = y + sixth * weights(*ks)
    u_r, g, u_l = out.swapaxes(0, 1)
    return {"ts": ts, "step": step, "u_r": u_r, "g": g, "u_l": u_l}


def norms(a) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, in the stack's precision."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))
