"""Wrong integrators through verify: shadow.py's loop in float64, with one hook
replaced, plants a defect in one part of the RK4 step. Findings G and H are
pinned here as counts: verify reports no unexpected failure for a mutant that
is off by at least 100x the correct run."""

import functools

import numpy as np
import pytest

import shadow
from metricbundle.evolution import EvolutionBundle, integrate
from metricbundle.matops import frobenius
from metricbundle.model import with_overrides
from metricbundle.verify import run_suite
from metricbundle.zoo import builtin_models, get_demo


def u_l_rate_with_adjoint(h, ih, adj, y):
    """Breaks U_L's rate: i U_L adj(H) in place of i U_L H."""
    u_r, g, u_l = y
    return np.stack([-1j * (h @ u_r), g @ ih - 1j * (adj @ g), u_l @ (1j * adj)])


def u_r_rate_with_adjoint(h, ih, adj, y):
    """Breaks U_R's rate: -i adj(H) U_R in place of -i H U_R."""
    u_r, g, u_l = y
    return np.stack([-1j * (adj @ u_r), g @ ih - 1j * (adj @ g), u_l @ ih])


def g_rate_with_h(h, ih, adj, y):
    """Breaks G's rate: i (G H - H G) in place of i (G H - adj(H) G)."""
    u_r, g, u_l = y
    return np.stack([-1j * (h @ u_r), g @ ih - 1j * (h @ g), u_l @ ih])


def weights_1311(k1, k2, k3, k4):
    """Breaks RK4's weights: (1, 3, 1, 1)/6 in place of (1, 2, 2, 1)/6."""
    return ((k1 + 3 * k2) + k3) + k4


def midpoints_at_t(t, step):
    """Breaks the two midpoint stages' sample time: t in place of t + h/2."""
    return t, t, t, t + step


def end_at_half_step(t, step):
    """Breaks the last stage's sample time: t + h/2 in place of t + h."""
    return t, t + 0.5 * step, t + 0.5 * step, t + 0.5 * step


MUTANTS = {
    "correct": {},
    "u_l_rate_with_adjoint": {"rates": u_l_rate_with_adjoint},
    "u_r_rate_with_adjoint": {"rates": u_r_rate_with_adjoint},
    "g_rate_with_h": {"rates": g_rate_with_h},
    "weights_1311": {"weights": weights_1311},
    "midpoints_at_t": {"samples": midpoints_at_t},
    "end_at_half_step": {"samples": end_at_half_step},
}
T1 = 2.0


def loop_bundle(scenario, **hooks) -> EvolutionBundle:
    """The float64 loop's run of scenario, as a bundle."""
    run = shadow.run(scenario, dtype=np.complex128, **hooks)
    return EvolutionBundle(ts=run["ts"], u_r=run["u_r"], u_l=run["u_l"], g=run["g"],
                           psi0=scenario.psi0, step=run["step"], metadata={})


@functools.cache
def fine_run(demo: str) -> EvolutionBundle:
    """integrate's run of demo at t1 2 and step/8."""
    scenario = get_demo(demo, t1=T1)
    return integrate(with_overrides(scenario, step=scenario.integrator.step / 8))


@functools.cache
def outcome(demo: str, mutant: str):
    """The verify summary of the mutant's run of demo at t1 2, and each channel's error:
    max over nodes of ||X - X_ref||_F / max ||X_ref||_F, where X_ref is the fine run
    read at every 8th node."""
    scenario = get_demo(demo, t1=T1)
    run = loop_bundle(scenario, **MUTANTS[mutant])
    errors = {}
    for channel in ("u_r", "u_l", "g"):
        ref = getattr(fine_run(demo), channel)[::8]
        errors[channel] = float(np.max(frobenius(getattr(run, channel) - ref))
                                / np.max(frobenius(ref)))
    return run_suite(run, scenario).summary, errors


@pytest.mark.parametrize("name", sorted(builtin_models()))
def test_float64_loop_without_a_hook_is_integrate(name):
    scenario = get_demo(name, t1=0.75)
    want = integrate(scenario)
    got = loop_bundle(scenario)
    assert got.step == want.step and np.array_equal(got.ts, want.ts)
    for channel in ("u_r", "u_l", "g"):
        assert np.array_equal(getattr(got, channel), getattr(want, channel)), channel


def test_correct_runs_match_the_fine_run():
    # Measured: pt-dimer-broken 2.8e-14, 2.8e-14, 9.4e-13 (U_R, U_L, G);
    # driven-dimer 1.2e-14, 1.2e-14, 7.7e-14.
    for demo in ("pt-dimer-broken", "driven-dimer"):
        _, errors = outcome(demo, "correct")
        assert max(errors.values()) <= 1e-11, (demo, errors)


@pytest.mark.parametrize("mutant, passed, channel", [
    ("correct", 23, None),
    # Each mutant's own channel is off by 1.4, 1.4 and 0.99; the weights
    # mutant's G by 9.4e-7.
    ("u_l_rate_with_adjoint", 10, "u_l"),
    ("u_r_rate_with_adjoint", 10, "u_r"),
    ("g_rate_with_h", 14, "g"),
    ("weights_1311", 14, "g"),
])
def test_declared_prefixes_hide_a_wrong_integrator(mutant, passed, channel):
    # Finding H, a known miss pinned as counts: pt-dimer-broken declares 12
    # prefixes as expected failures, so a correct run and four wrong ones all
    # report unexpected_failed 0. Not declared; no budget changed.
    summary, errors = outcome("pt-dimer-broken", mutant)
    assert summary == {"total": 30, "passed": passed, "failed": 30 - passed,
                       "unexpected_failed": 0}
    if channel is not None:
        assert errors[channel] >= 100 * outcome("pt-dimer-broken", "correct")[1][channel]


@pytest.mark.parametrize("mutant, off", [
    ("correct", False), ("midpoints_at_t", True), ("end_at_half_step", True)])
def test_wrong_sample_times_pass(mutant, off):
    # Finding G, a known miss pinned as counts: on driven-dimer, where H
    # depends on t, the worse of the U_R and G errors is 7.7e-14 (correct),
    # 1.8e-4 and 4.5e-5, and each run passes 29 of 30 checks, the declared
    # control failing. Not declared; no budget changed.
    summary, errors = outcome("driven-dimer", mutant)
    assert summary == {"total": 30, "passed": 29, "failed": 1, "unexpected_failed": 0}
    if off:
        _, correct = outcome("driven-dimer", "correct")
        assert max(errors["u_r"], errors["g"]) >= 100 * max(correct["u_r"], correct["g"])
