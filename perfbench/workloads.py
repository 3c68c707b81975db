"""Seeded scenario sets for the three benchmark workloads.

Each workload is a list of Cases. The CLI only ever sees what is generated
here: a `demo:<name>` reference or a scenario file written into the run's
work directory. The seed changes parameter values and order, never the amount
of work (dimensions, spans and steps are fixed), so run-to-run spread across
seeds measures the machine, not the inputs.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# zoo-d2: every built-in two-level demo over a span of ZOO_T1 (750 RK4 steps
# at the demos' default step 1e-3).
ZOO_DEMOS = (
    "hermitian-rabi",
    "pt-dimer-unbroken",
    "pt-dimer-broken",
    "pt-ep",
    "driven-dimer",
    "time-dependent-observable",
)
ZOO_T1 = "0.75"

# pt-chain: (sites, metric mode). The stationary solve is O(n^6) and takes
# about 1.3 s at 32 sites; at 64 sites it would take about 90 s, so the
# largest chain starts from the identity metric.
CHAIN_SIZES = ((16, "stationary"), (32, "stationary"), (64, "identity"))
CHAIN_T1 = 0.03  # 31 nodes at step 1e-3; the 64-site JSON trajectory is ~15 MB
CHAIN_HOPPING = 1.0
# Gain/loss gamma at the end sites of an open chain breaks PT symmetry at
# gamma = hopping; draws stay well inside the unbroken phase.
CHAIN_GAMMA_RANGE = (0.2, 0.6)

# ep-sweep: dimers H = s sigma_x + i gamma sigma_z on both sides of the
# exceptional point gamma/s = 1, each integrated over a short span.
EP_T1 = "0.2"
EP_S_RANGE = (0.8, 1.25)
EP_UNBROKEN_RATIOS = (0.2, 0.9)
EP_BROKEN_RATIOS = (1.1, 2.0)
EP_UNBROKEN_COUNT = 3
EP_BROKEN_COUNT = 2
# The designed blow-up: gamma = 3, s = 1 leaves the finite range at node 4869
# of 15000 (exit 3, "error[numeric]:"). Fixed so every seed does the same work.
EP_BLOWUP = ("--s", "1.0", "--gamma", "3.0", "--t1", "15.0")

WORKLOADS = ("zoo-d2", "pt-chain", "ep-sweep")


@dataclass(frozen=True)
class Case:
    """One scenario, run as `evolve` (CSV), `evolve --format json` and `verify`."""

    name: str
    ref: str  # scenario file path or demo:<name>
    args: tuple[str, ...] = ()  # extra CLI flags, identical for all three commands
    expect_rc: int = 0  # 0, or 3 for the designed blow-up


def make_cases(workload: str, seed: int, workdir: Path, cli_cmd: list[str], env: dict) -> list[Case]:
    rng = np.random.default_rng(seed)
    if workload == "zoo-d2":
        order = rng.permutation(len(ZOO_DEMOS))
        return [Case(ZOO_DEMOS[i], f"demo:{ZOO_DEMOS[i]}", ("--t1", ZOO_T1)) for i in order]
    if workload == "pt-chain":
        return _pt_chain(rng, workdir)
    if workload == "ep-sweep":
        return _ep_sweep(rng, workdir, cli_cmd, env)
    raise ValueError(f"unknown workload {workload!r}")


def _pt_chain(rng: np.random.Generator, workdir: Path) -> list[Case]:
    from metricbundle.model import (
        IntegratorConfig,
        MetricInit,
        OperatorSpec,
        ProfileTerm,
        Scenario,
        constant_operator,
        save_scenario,
    )

    cases = []
    for n, mode in CHAIN_SIZES:
        hopping = np.diag(np.ones(n - 1), 1)
        hopping = hopping + hopping.T
        gain_loss = np.zeros((n, n), dtype=complex)
        gain_loss[0, 0], gain_loss[-1, -1] = 1j, -1j
        gamma = float(rng.uniform(*CHAIN_GAMMA_RANGE)) * CHAIN_HOPPING
        spectrum = np.linalg.eigvals(-CHAIN_HOPPING * hopping + gamma * gain_loss)
        if np.max(np.abs(spectrum.imag)) > 1e-9:
            raise RuntimeError(f"{n}-site chain with gamma={gamma} is not in the unbroken phase")
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        position = np.diag(np.arange(n) - (n - 1) / 2)
        scenario = Scenario(
            hamiltonian=OperatorSpec([
                ProfileTerm.parse(repr(-CHAIN_HOPPING), hopping),
                ProfileTerm.parse(repr(gamma), gain_loss),
            ]),
            metric_init=MetricInit(mode),
            psi0=psi0 / np.linalg.norm(psi0),
            observables={
                "position": constant_operator(position),
                "hopping": constant_operator(hopping),
            },
            t0=0.0,
            t1=CHAIN_T1,
            integrator=IntegratorConfig(step=1e-3),
            name=f"pt-chain-{n}",
            expected_failures=("conventional_dagger_transport",),
        )
        path = workdir / f"chain{n}.json"
        save_scenario(scenario, path)
        cases.append(Case(f"chain{n}", str(path)))
    return cases


def _ep_sweep(rng: np.random.Generator, workdir: Path, cli_cmd: list[str], env: dict) -> list[Case]:
    specs = []
    for ratio in np.sort(rng.uniform(*EP_UNBROKEN_RATIOS, EP_UNBROKEN_COUNT)):
        s = rng.uniform(*EP_S_RANGE)
        specs.append((f"unbroken-{ratio:.3f}", "pt-dimer-unbroken", s, ratio * s))
    specs.append(("ep", "pt-ep", rng.uniform(*EP_S_RANGE), None))
    for ratio in np.sort(rng.uniform(*EP_BROKEN_RATIOS, EP_BROKEN_COUNT)):
        s = rng.uniform(*EP_S_RANGE)
        specs.append((f"broken-{ratio:.3f}", "pt-dimer-broken", s, ratio * s))

    cases = []
    for name, demo, s, gamma in specs:
        flags = ["--s", repr(float(s)), "--t1", EP_T1]
        if gamma is not None:
            flags += ["--gamma", repr(float(gamma))]
        cases.append(Case(name, _emit_demo(demo, flags, workdir / f"{name}.json", cli_cmd, env)))
    blowup = _emit_demo("pt-dimer-broken", list(EP_BLOWUP), workdir / "blowup.json", cli_cmd, env)
    cases.append(Case("blowup", blowup, expect_rc=3))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def _emit_demo(demo: str, flags: list[str], path: Path, cli_cmd: list[str], env: dict) -> str:
    proc = subprocess.run(
        [*cli_cmd, "demo", demo, *flags, "-o", str(path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        raise RuntimeError(f"`metricbundle demo {demo}` exited {proc.returncode}")
    return str(path)
