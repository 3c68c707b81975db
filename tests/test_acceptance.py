"""End-to-end acceptance gate.

Each test prints exactly one pass/fail line (written straight to the real
stdout so it survives pytest's capture). Criterion 11 checks the integrator's
convergence order twice: the propagators U_R and U_L converge to the exact
exponentials at fourth order (16x per step halving), and the
propagator-inverse residual ||U_L U_R - I|| at fifth order (32x), because the
forward and backward one-step RK4 maps are mutually inverse through h^5. See
test_11_convergence_order_of_inverse_residual for the derivation.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import index_of_time
from metricbundle import cli
from metricbundle.errors import NoPositiveDefiniteSolutionError
from metricbundle.evolution import closed_form_metric, integrate, rhs_vielbein
from metricbundle.matops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    frobenius,
    hermitian_deviation,
    inverse,
    min_eig_hermitian,
    sorted_eigenvalues,
)
from metricbundle.model import solve_stationary_metric
from metricbundle.representations import (
    commutator_gap,
    expectation,
    expectation_schrodinger,
    heisenberg_like_state,
    heisenberg_rhs,
    hermitized_hamiltonian,
    naive_dagger_transport,
    schrodinger_state,
    to_heisenberg,
    to_heisenberg_like,
)
from metricbundle.verify import run_suite
from metricbundle.zoo import get_demo


# One line per criterion, echoed after the run by the terminal-summary hook
# in conftest.py (pytest's capture would otherwise swallow them on success).
RECORDED: list[str] = []


def record(index, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[acceptance] {index:02d} {name}: {status}{suffix}"
    RECORDED.append(line)
    print(line)
    assert passed, f"criterion {index} {name}: {detail}"


@pytest.fixture(scope="module")
def pt_unbroken():
    scenario = get_demo("pt-dimer-unbroken")
    return scenario, integrate(scenario)


@pytest.fixture(scope="module")
def driven():
    scenario = get_demo("driven-dimer")
    return scenario, integrate(scenario)


def to_hl(o, bundle, i):
    e = bundle.e_at(i)
    return to_heisenberg_like(o, e, inverse(e))


def test_01_hermitian_reduction():
    scenario = get_demo("hermitian-rabi")
    start = time.perf_counter()
    bundle = integrate(scenario)
    sz = np.array(
        [expectation_schrodinger(bundle, i, SIGMA_Z) for i in range(bundle.n_nodes)]
    )
    elapsed = time.perf_counter() - start
    err_sz = float(np.max(np.abs(sz - np.cos(2 * bundle.ts))))
    err_g = float(np.max(np.abs(bundle.g - np.eye(2))))
    ok = err_sz <= 1e-8 and err_g <= 1e-10 and elapsed < 5.0
    record(1, "hermitian-reduction", ok,
           f"max|<sz>-cos(2t)|={err_sz:.2e}, max|G-I|={err_g:.2e}, {elapsed:.2f}s")


def test_02_propagator_inverse_identity(pt_unbroken, driven):
    worst = 0.0
    bundles = [pt_unbroken[1], driven[1]]
    for name in ("hermitian-rabi", "pt-ep", "time-dependent-observable"):
        bundles.append(integrate(get_demo(name)))
    for bundle in bundles:
        eye = np.eye(bundle.dim)
        for i in range(bundle.n_nodes):
            worst = max(worst,
                        frobenius(bundle.u_l[i] @ bundle.u_r[i] - eye),
                        frobenius(bundle.u_r[i] @ bundle.u_l[i] - eye))
    record(2, "propagator-inverse-identity", worst <= 1e-8, f"max residual {worst:.2e}")


def test_03_metric_preservation(pt_unbroken, driven):
    worst_herm, worst_min_eig, worst_cf = 0.0, np.inf, 0.0
    for _, bundle in (pt_unbroken, driven):
        for i in range(bundle.n_nodes):
            worst_herm = max(worst_herm, hermitian_deviation(bundle.g[i]))
            worst_min_eig = min(worst_min_eig, min_eig_hermitian(bundle.g[i]))
            worst_cf = max(worst_cf,
                           frobenius(bundle.g[i] - closed_form_metric(bundle, i)))
    ok = worst_herm <= 1e-9 and worst_min_eig > 0 and worst_cf <= 1e-8
    record(3, "metric-preservation", ok,
           f"herm {worst_herm:.2e}, min_eig {worst_min_eig:.3f}, closed-form {worst_cf:.2e}")


def _acceptance_observables():
    rng = np.random.default_rng(7)
    random_nh = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return [("sx", SIGMA_X), ("sy", SIGMA_Y), ("sz", SIGMA_Z), ("random", random_nh)]


def test_04_three_picture_expectations(pt_unbroken, driven):
    worst = 0.0
    for _, bundle in (pt_unbroken, driven):
        state_h = schrodinger_state(bundle, 0)
        state_hl = heisenberg_like_state(bundle)
        for i in range(0, bundle.n_nodes, bundle.n_nodes // 20):
            for _, obs in _acceptance_observables():
                val_s = expectation_schrodinger(bundle, i, obs)
                val_h = expectation(state_h, to_heisenberg(obs, bundle, i))
                val_hl = expectation(state_hl, to_hl(obs, bundle, i))
                worst = max(worst, abs(val_s - val_h), abs(val_s - val_hl))
    record(4, "three-picture-expectations", worst <= 1e-8, f"max gap {worst:.2e}")


def test_05_isospectrality(pt_unbroken, driven):
    worst = 0.0
    for _, bundle in (pt_unbroken, driven):
        for i in np.linspace(0, bundle.n_nodes - 1, 10).astype(int):
            for _, obs in _acceptance_observables():
                for transport in (to_heisenberg, to_hl):
                    out = transport(obs, bundle, int(i))
                    gap = np.max(np.abs(sorted_eigenvalues(out) - sorted_eigenvalues(obs)))
                    worst = max(worst, gap)
    record(5, "isospectrality", worst <= 1e-8, f"max spectral gap {worst:.2e}")


def _eom_error(scenario, obs_spec, delta):
    bundle = integrate(scenario)
    d_obs = obs_spec.differentiate()
    dn = int(round(delta / bundle.step))
    assert abs(dn * bundle.step - delta) < 1e-12
    worst = 0.0
    for t in (1.0, 2.0, 3.0):
        i = index_of_time(bundle, t)

        def o_h(j):
            return to_heisenberg(obs_spec.assemble(bundle.ts[j]), bundle, j)

        fd = (o_h(i + dn) - o_h(i - dn)) / (2 * delta)
        h_h = bundle.u_l[i] @ scenario.hamiltonian.assemble(t) @ bundle.u_r[i]
        dt_h = bundle.u_l[i] @ d_obs.assemble(t) @ bundle.u_r[i]
        rhs = heisenberg_rhs(o_h(i), h_h, dt_h)
        worst = max(worst, frobenius(fd - rhs))
    return worst


def test_06_heisenberg_eom_order():
    deltas = np.array([1e-2, 5e-3, 2.5e-3])
    slopes = []
    for demo, obs_name in (("pt-dimer-unbroken", "sigma_z"),
                           ("time-dependent-observable", "rotating")):
        scenario = get_demo(demo, step=1.25e-3)
        errors = np.array(
            [_eom_error(scenario, scenario.observables[obs_name], d) for d in deltas]
        )
        slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
        slopes.append(slope)
    ok = all(abs(s - 2.0) <= 0.1 for s in slopes)
    record(6, "heisenberg-eom-order", ok,
           "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_07_commutator_transport(pt_unbroken):
    _, bundle = pt_unbroken
    rng = np.random.default_rng(11)
    pairs = [(SIGMA_X, SIGMA_Y), (SIGMA_X, SIGMA_Z), (SIGMA_Y, SIGMA_Z)]
    for _ in range(20):
        pairs.append((rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                      rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
    worst = 0.0
    for i in (0, bundle.n_nodes // 2, bundle.n_nodes - 1):
        for a, b in pairs:
            worst = max(worst, commutator_gap(to_heisenberg, a, b, bundle, i))
    record(7, "commutator-transport", worst <= 1e-8, f"max residual {worst:.2e}")


def test_08_zero_gauge_generator(pt_unbroken, driven):
    worst_flat, worst_recon = 0.0, 0.0
    for scenario, bundle in (pt_unbroken, driven):
        for i in range(0, bundle.n_nodes, bundle.n_nodes // 50):
            h = scenario.hamiltonian.assemble(bundle.ts[i])
            e = bundle.e_at(i)
            flat = hermitized_hamiltonian(h, e, inverse(e), rhs_vielbein(h, e))
            worst_flat = max(worst_flat, frobenius(flat))
            worst_recon = max(worst_recon, frobenius(e.conj().T @ e - bundle.g[i]))
    ok = worst_flat <= 1e-8 and worst_recon <= 1e-8
    record(8, "zero-gauge-generator", ok,
           f"max|Hflat| {worst_flat:.2e}, max|adj(E)E-G| {worst_recon:.2e}")


def test_09_naive_transport_negative_control(pt_unbroken):
    _, bundle = pt_unbroken
    i = index_of_time(bundle, 1.0)
    naive = commutator_gap(naive_dagger_transport, SIGMA_X, SIGMA_Y, bundle, i)
    correct = commutator_gap(to_heisenberg, SIGMA_X, SIGMA_Y, bundle, i)
    ratio = naive / max(correct, 1e-300)

    rabi = integrate(get_demo("hermitian-rabi", t1=1.0))
    j = index_of_time(rabi, 1.0)
    gap = 0.0
    for obs in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        u = rabi.u_r[j]
        gap = max(gap, float(np.max(np.abs(
            u.conj().T @ obs @ u - to_heisenberg(obs, rabi, j)))))
    ok = ratio >= 100.0 and gap <= 1e-10
    record(9, "naive-transport-negative-control", ok,
           f"non-hermitian ratio {ratio:.1e}, hermitian gap {gap:.2e}")


def test_10_stationary_metric_solver():
    g = solve_stationary_metric(SIGMA_X + 0.5j * SIGMA_Z)
    h = SIGMA_X + 0.5j * SIGMA_Z
    residual = frobenius(g @ h - h.conj().T @ g)
    ok = residual <= 1e-10 and min_eig_hermitian(g) > 0
    try:
        solve_stationary_metric(SIGMA_X + 1.5j * SIGMA_Z)
        ok = False
        broken = "no error raised"
    except NoPositiveDefiniteSolutionError as exc:
        broken = "degenerate" if exc.degenerate else "non-degenerate"
        ok = ok and not exc.degenerate
    try:
        solve_stationary_metric(SIGMA_X + 1j * SIGMA_Z)
        ok = False
        ep = "no error raised"
    except NoPositiveDefiniteSolutionError as exc:
        ep = "degenerate" if exc.degenerate else "non-degenerate"
        ok = ok and exc.degenerate
    record(10, "stationary-metric-solver", ok,
           f"residual {residual:.2e}, broken: {broken}, ep: {ep}")


def test_11_convergence_order_of_inverse_residual():
    # For constant H the integrator gives U_R = R(-ihH)^n and U_L = R(+ihH)^n,
    # with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4 stability function.
    # (a) Each propagator is fourth-order accurate: its error against the
    #     exact exponential scales as T h^4, so it falls 16x per halving.
    # (b) The two factors commute and R(z) R(-z) = 1 + z^6/72 + z^8/576
    #     exactly (the z^2 and z^4 terms cancel), so
    #     U_L U_R - I ~ n (hH)^6 / 72 = O(T h^5): it falls 32x per halving.
    # The +/- 20% windows [12.8, 19.2] and [25.6, 38.4] do not overlap, so a
    # change of the method's order or the loss of the forward/backward
    # cancellation fails one of them.
    propagator_errors, inverse_residuals = [], []
    for step in (0.04, 0.02, 0.01, 0.005):
        scenario = get_demo("pt-dimer-unbroken", t1=2.0, step=step)
        bundle = integrate(scenario)
        h = scenario.hamiltonian.assemble(0.0)
        elapsed = (bundle.ts - bundle.ts[0])[:, None, None]
        exact_r = expm(-1j * elapsed * h)
        exact_l = expm(1j * elapsed * h)
        eye = np.eye(bundle.dim)
        propagator_errors.append(max(
            max(frobenius(bundle.u_r[i] - exact_r[i]) for i in range(bundle.n_nodes)),
            max(frobenius(bundle.u_l[i] - exact_l[i]) for i in range(bundle.n_nodes)),
        ))
        inverse_residuals.append(max(
            max(frobenius(bundle.u_l[i] @ bundle.u_r[i] - eye) for i in range(bundle.n_nodes)),
            max(frobenius(bundle.u_r[i] @ bundle.u_l[i] - eye) for i in range(bundle.n_nodes)),
        ))

    def halving_ratios(values):
        return [a / b for a, b in zip(values, values[1:])]

    propagator_ratios = halving_ratios(propagator_errors)
    inverse_ratios = halving_ratios(inverse_residuals)
    ok = (all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in propagator_ratios)
          and all(32.0 * 0.8 <= r <= 32.0 * 1.2 for r in inverse_ratios))
    record(11, "convergence-order", ok,
           "propagator ratios " + ", ".join(f"{r:.1f}" for r in propagator_ratios)
           + " (want 16x); inverse-residual ratios "
           + ", ".join(f"{r:.1f}" for r in inverse_ratios) + " (want 32x)")


def test_12_verify_determinism(tmp_path):
    paths = [tmp_path / "report1.json", tmp_path / "report2.json"]
    for path in paths:
        code = cli.main(["verify", "demo:driven-dimer", "--t1", "2.0", "-o", str(path)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    record(12, "verify-determinism", identical,
           f"{len(paths[0].read_bytes())} byte reports identical" if identical
           else "reports differ")
