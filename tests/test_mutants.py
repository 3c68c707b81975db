"""Wrong integrators through verify: shadow.py's loop in float64, with one hook
replaced, plants a defect in one part of the RK4 step. Findings G and H are
pinned here as counts: verify reports no unexpected failure for a mutant that
is off by at least 100x the correct run. The mutation matrix pins what verify
catches of each mutant on the six demos and the exact family at n = 2 and 4."""

import functools

import numpy as np
import pytest

import exact_family
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


def kutta_rk3_samples(t, step):
    """Kutta's third-order rule in place of RK4, with the two hooks below: its three stages
    sample t, t + h/2 and t + h; the loop's fourth stage is left unused."""
    return t, t + 0.5 * step, t + step, t + step


def kutta_rk3_inputs(y, ks, step):
    """Kutta's RK3 stage inputs y + (h/2) k1 and y + h (2 k2 - k1) in place of RK4's."""
    if len(ks) == 1:
        return y + 0.5 * step * ks[0]
    return y + step * (2 * ks[1] - ks[0]) if len(ks) == 2 else y


def kutta_rk3_sum(k1, k2, k3, k4):
    """Kutta's RK3 weights (1, 4, 1)/6 in place of RK4's (1, 2, 2, 1)/6."""
    return (k1 + 4 * k2) + k3


def g_held_at_g0(h, ih, adj, y):
    """Breaks G's rate: 0 in place of i (G H - adj(H) G), so G stays G(t0)."""
    u_r, g, u_l = y
    return np.stack([-1j * (h @ u_r), np.zeros_like(g), u_l @ ih])


def g_rate_negated(h, ih, adj, y):
    """Breaks G's rate: -i (G H - adj(H) G) in place of i (G H - adj(H) G)."""
    u_r, g, u_l = y
    return np.stack([-1j * (h @ u_r), 1j * (adj @ g) - g @ ih, u_l @ ih])


MUTANTS = {
    "correct": {},
    "u_l_rate_with_adjoint": {"rates": u_l_rate_with_adjoint},
    "u_r_rate_with_adjoint": {"rates": u_r_rate_with_adjoint},
    "g_rate_with_h": {"rates": g_rate_with_h},
    "weights_1311": {"weights": weights_1311},
    "midpoints_at_t": {"samples": midpoints_at_t},
    "end_at_half_step": {"samples": end_at_half_step},
    "kutta_rk3": {"samples": kutta_rk3_samples, "inputs": kutta_rk3_inputs,
                  "weights": kutta_rk3_sum},
    "g_held_at_g0": {"rates": g_held_at_g0},
    "g_rate_negated": {"rates": g_rate_negated},
}
T1 = 2.0


def loop_bundle(scenario, **hooks) -> EvolutionBundle:
    """The float64 loop's run of scenario, as a bundle."""
    run = shadow.run(scenario, dtype=np.complex128, **hooks)
    return EvolutionBundle(ts=run["ts"], u_r=run["u_r"], u_l=run["u_l"], g=run["g"],
                           psi0=scenario.psi0, step=run["step"], metadata={})


def run_scenario(run: str, t1: float):
    """A demo, or "family-<n>" for the exact family at dim n, at t1."""
    if run.startswith("family-"):
        return exact_family.scenario(int(run.removeprefix("family-")), t1=t1)
    return get_demo(run, t1=t1)


@functools.cache
def fine_run(run: str, t1: float = T1) -> EvolutionBundle:
    """integrate's run at t1 and step/8."""
    scenario = run_scenario(run, t1)
    return integrate(with_overrides(scenario, step=scenario.integrator.step / 8))


@functools.cache
def mutant_report(run: str, mutant: str, t1: float = T1):
    """The verify report of the mutant's run at t1, and each channel's error:
    max over nodes of ||X - X_ref||_F / max ||X_ref||_F, where X_ref is the fine run
    read at every 8th node."""
    scenario = run_scenario(run, t1)
    bundle = loop_bundle(scenario, **MUTANTS[mutant])
    errors = {}
    for channel in ("u_r", "u_l", "g"):
        ref = getattr(fine_run(run, t1), channel)[::8]
        errors[channel] = float(np.max(frobenius(getattr(bundle, channel) - ref))
                                / np.max(frobenius(ref)))
    return run_suite(bundle, scenario), errors


def outcome(demo: str, mutant: str):
    """The verify summary of the mutant's run of demo at t1 2, and each channel's error."""
    report, errors = mutant_report(demo, mutant)
    return report.summary, errors


@pytest.mark.parametrize("name", [*sorted(builtin_models()), "family-16"])
def test_float64_loop_without_a_hook_is_integrate(name):
    # family-16 has 61 terms, a many-term H whose block samples are one assembly.
    scenario = run_scenario(name, 0.75)
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


# The mutation matrix at t1 = MATRIX_T1, where the 80 runs take about 2 s. A cell
# holds the sorted check families (a check's name without its [observable]
# suffix) that fail unexpectedly on the mutant's run and pass on the correct
# run. An empty cell says why instead: the mutant is equivalent on that run, or
# the miss is finding G (the defect stays inside the budget or, for the sample
# times, inside the EOM checks' differencing error) or finding H (the demo
# declares the checks that would fail). Two cells sit within 11% of a budget:
# weights_1311 on driven-dimer (isospectral_h at 0.95 of it) and kutta_rk3 on
# family-4 (norm_conservation at 1.11 of it).
MATRIX_T1 = 0.1
RUNS = (*sorted(builtin_models()), "family-2", "family-4")
MATRIX = {
    "u_l_rate_with_adjoint": {
        **dict.fromkeys((
            "driven-dimer", "pt-dimer-unbroken", "pt-ep", "time-dependent-observable",
        ), (
            "commutator_transport", "expectation_s_vs_h", "expectation_s_vs_hl",
            "heisenberg_eom_fd", "heisenberg_like_eom_fd", "isospectral_h", "metric_closed_form",
            "propagator_inverse_left", "propagator_inverse_right", "vielbein_reconstructs_metric",
        )),
        "hermitian-rabi": "equivalent: H = H†",
        "pt-dimer-broken": "known miss: finding H",
        "family-2": (
            "commutator_transport", "expectation_s_vs_h", "heisenberg_eom_fd",
            "heisenberg_like_eom_fd", "isospectral_h", "metric_closed_form",
            "propagator_inverse_left", "propagator_inverse_right", "vielbein_reconstructs_metric",
        ),
        "family-4": (
            "expectation_s_vs_h", "isospectral_h", "metric_closed_form",
            "propagator_inverse_left", "propagator_inverse_right", "vielbein_reconstructs_metric",
        ),
    },
    "u_r_rate_with_adjoint": {
        **dict.fromkeys((
            "driven-dimer", "pt-dimer-unbroken", "pt-ep", "time-dependent-observable", "family-2",
        ), (
            "commutator_transport", "expectation_s_vs_h", "expectation_s_vs_hl",
            "heisenberg_eom_fd", "isospectral_h", "norm_conservation", "propagator_inverse_left",
            "propagator_inverse_right",
        )),
        "hermitian-rabi": "equivalent: H = H†",
        "pt-dimer-broken": "known miss: finding H",
        "family-4": (
            "expectation_s_vs_h", "expectation_s_vs_hl", "isospectral_h", "norm_conservation",
            "propagator_inverse_left", "propagator_inverse_right",
        ),
    },
    "g_rate_with_h": {
        **dict.fromkeys(("driven-dimer", "pt-ep", "family-2", "family-4"), (
            "expectation_s_vs_h", "expectation_s_vs_hl", "metric_closed_form",
            "norm_conservation", "vielbein_reconstructs_metric",
        )),
        "hermitian-rabi": "equivalent: H = H†",
        "pt-dimer-broken": "known miss: finding H",
        **dict.fromkeys(("pt-dimer-unbroken", "time-dependent-observable"), (
            "expectation_s_vs_h", "expectation_s_vs_hl", "metric_closed_form", "metric_hermitian",
            "metric_positive_definite", "norm_conservation", "vielbein_reconstructs_metric",
        )),
    },
    "weights_1311": {
        "driven-dimer": (
            "commutator_transport", "expectation_s_vs_h", "expectation_s_vs_hl",
            "metric_closed_form", "norm_conservation", "propagator_inverse_left",
            "propagator_inverse_right", "vielbein_reconstructs_metric",
        ),
        **dict.fromkeys((
            "hermitian-rabi", "pt-dimer-unbroken", "time-dependent-observable",
        ), "known miss: finding G"),
        "pt-dimer-broken": "known miss: finding H",
        "pt-ep": "equivalent: H² = 0",
        "family-2": (
            "commutator_transport", "expectation_s_vs_h", "expectation_s_vs_hl", "isospectral_h",
            "metric_closed_form", "norm_conservation", "propagator_inverse_left",
            "propagator_inverse_right", "vielbein_reconstructs_metric",
        ),
        "family-4": (
            "expectation_s_vs_h", "expectation_s_vs_hl", "isospectral_h", "metric_closed_form",
            "norm_conservation", "propagator_inverse_left", "propagator_inverse_right",
            "vielbein_reconstructs_metric",
        ),
    },
    "midpoints_at_t": {
        **dict.fromkeys(("driven-dimer", "family-2", "family-4"), "known miss: finding G"),
        **dict.fromkeys((
            "hermitian-rabi", "pt-dimer-broken", "pt-dimer-unbroken", "pt-ep",
            "time-dependent-observable",
        ), "equivalent: constant H"),
    },
    "end_at_half_step": {
        **dict.fromkeys(("driven-dimer", "family-2", "family-4"), "known miss: finding G"),
        **dict.fromkeys((
            "hermitian-rabi", "pt-dimer-broken", "pt-dimer-unbroken", "pt-ep",
            "time-dependent-observable",
        ), "equivalent: constant H"),
    },
    "kutta_rk3": {
        **dict.fromkeys((
            "driven-dimer", "hermitian-rabi", "pt-dimer-unbroken", "time-dependent-observable",
        ), "known miss: finding G"),
        "pt-dimer-broken": "known miss: finding H",
        "pt-ep": "equivalent: H² = 0",
        "family-2": (
            "commutator_transport", "expectation_s_vs_h", "expectation_s_vs_hl", "isospectral_h",
            "metric_closed_form", "norm_conservation", "propagator_inverse_left",
            "propagator_inverse_right", "vielbein_reconstructs_metric",
        ),
        "family-4": (
            "expectation_s_vs_hl", "isospectral_h", "metric_closed_form", "norm_conservation",
            "propagator_inverse_left", "propagator_inverse_right", "vielbein_reconstructs_metric",
        ),
    },
    "g_held_at_g0": {
        **dict.fromkeys(("driven-dimer", "pt-ep", "family-2", "family-4"), (
            "expectation_s_vs_h", "expectation_s_vs_hl", "metric_closed_form",
            "norm_conservation", "vielbein_reconstructs_metric",
        )),
        **dict.fromkeys((
            "hermitian-rabi", "pt-dimer-unbroken", "time-dependent-observable",
        ), "equivalent: constant G"),
        "pt-dimer-broken": "known miss: finding H",
    },
    "g_rate_negated": {
        **dict.fromkeys(("driven-dimer", "pt-ep", "family-2", "family-4"), (
            "expectation_s_vs_h", "expectation_s_vs_hl", "metric_closed_form",
            "norm_conservation", "vielbein_reconstructs_metric",
        )),
        **dict.fromkeys((
            "hermitian-rabi", "pt-dimer-unbroken", "time-dependent-observable",
        ), "equivalent: constant G"),
        "pt-dimer-broken": "known miss: finding H",
    },
}


def caught(run: str, mutant: str) -> tuple:
    """The sorted check families that fail unexpectedly on the mutant's run and pass on
    the correct run, at MATRIX_T1."""
    correct, _ = mutant_report(run, "correct", MATRIX_T1)
    passed = {c.name for c in correct.checks if c.passed}
    report, _ = mutant_report(run, mutant, MATRIX_T1)
    return tuple(sorted({c.name.split("[")[0] for c in report.unexpected_failures
                         if c.name in passed}))


@pytest.mark.parametrize("mutant, run", [(m, r) for m in MATRIX for r in RUNS])
def test_mutation_matrix(mutant, run):
    cell = MATRIX[mutant][run]
    assert caught(run, mutant) == (() if isinstance(cell, str) else cell)
    error = max(mutant_report(run, mutant, MATRIX_T1)[1].values())
    correct = max(mutant_report(run, "correct", MATRIX_T1)[1].values())
    if isinstance(cell, str) and cell.startswith("equivalent: "):
        assert error <= 2 * correct, (error, correct)  # the same run, up to rounding
    else:
        assert error >= 100 * correct, (error, correct)


def test_matrix_has_a_cell_for_every_mutant_and_run():
    assert list(MATRIX) == [m for m in MUTANTS if m != "correct"]
    labels = {"equivalent: H = H†", "equivalent: constant G", "equivalent: constant H",
              "equivalent: H² = 0", "known miss: finding G", "known miss: finding H"}
    for row in MATRIX.values():
        assert sorted(row) == sorted(RUNS)
        assert {cell for cell in row.values() if isinstance(cell, str)} <= labels
