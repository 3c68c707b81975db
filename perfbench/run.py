"""metricbundle benchmark: the real CLI over three seeded workloads.

    python3 perfbench/run.py --workload zoo-d2 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is taken from `src/`. A closed loop
with one client: each CLI invocation is a subprocess started only after the
previous one ended, with BLAS limited to min(2, available CPUs) threads.

A pass runs the set-up probe (setup_probe.py) for at least SETUP_PROBE_S and
then, for every scenario of the workload, `evolve` (CSV), `evolve --format
json` and `verify -o report.json`, and checks every output (see checks.py).
Passes repeat while another one fits in `--seconds` (at least three). Each
time metric is the time of a typical pass: the sum over invocations of each
one's median over passes. Set-up time is the median probe, peak RSS the median
over passes. Times are scaled by a machine-speed calibration (see
CALIBRATE_CMD).

With `--trace 1` the same invocations run in-process through
`metricbundle.cli.main`, each one untraced and traced back to back, and the
per-layer metrics come from wrappers around the package's public functions
(tracing.py). The tracing overhead is the traced minus the untraced time.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Details (machine record, every pass, failures) go to `.bench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS reads its thread count when numpy is first imported, so this precedes
# every numpy import, here and in the children.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import checks  # noqa: E402
import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
KINDS = ("evolve_csv", "evolve_json", "verify")
CLI_CMD = [sys.executable, "-m", "metricbundle.cli"]
IMPORT_PROBES = 3
SETUP_PROBE_S = 1.0  # each pass repeats the set-up probe until this much time is spent

# A shared machine runs at different speeds from minute to minute (on a
# 2-vCPU VM, 30 s windows differed by up to 40%). Every CALIBRATE_EVERY_S of
# measuring, the harness times a fixed task that does not use the package:
# start an interpreter, import numpy, run a small-matrix loop. End-to-end
# times are scaled by CALIBRATE_REFERENCE_S / (its median in the run), i.e.
# reported in seconds of a machine on which that task takes
# CALIBRATE_REFERENCE_S. Raw walls stay in the result file.
CALIBRATE_EVERY_S = 1.0
CALIBRATE_REFERENCE_S = 0.2
CALIBRATE_CMD = [sys.executable, "-c", (
    "import json, numpy as np\n"
    "a = np.eye(4, dtype=complex) * 0.5\n"
    "b = a.copy()\n"
    "for _ in range(5000):\n"
    "    b = a @ b + a\n"
    "json.dumps(b.real.tolist())\n"
)]


def main() -> int:
    parser = argparse.ArgumentParser(description="metricbundle CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "metricbundle" / "cli.py").is_file():
        print(f"error: {SRC / 'metricbundle'} not found; run from a metricbundle checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ, PYTHONPATH=str(SRC), METRICBUNDLE_LOG="quiet")
    machine = machine_record()
    print("machine: " + json.dumps(machine))

    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cases = make_cases(args.workload, args.seed, workdir, CLI_CMD, env)
        run = Run(cases, workdir, env)
        if args.trace:
            values, detail = run.traced(args.seconds)
            wanted = spec["per_layer"]
        else:
            values, detail = run.untraced(args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "cases": [case.name for case in cases],
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        **detail,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK_ROOT / name).write_text(json.dumps(record, indent=1) + "\n")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


class Run:
    """Passes over one workload's cases, with their checks and counts."""

    def __init__(self, cases, workdir: Path, env: dict):
        self.cases = cases
        self.workdir = workdir
        self.env = env
        self.reports: dict[str, bytes] = {}  # first verify report per case
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []
        self._next_calibration = 0.0
        self.probe_cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
                          *(case.ref for case in cases)]

    # --- one invocation ---------------------------------------------------

    def spawn(self, cmd: list[str]) -> tuple[int, str, float, float]:
        """Run a child to completion: (exit code, stderr, wall s, max RSS MB)."""
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, err_path.read_text(errors="replace"), wall, usage.ru_maxrss / 1024

    def calibrated_spawn(self, cmd: list[str]) -> tuple[int, str, float, float]:
        """`spawn`, then time the calibration task if it is due."""
        result = self.spawn(cmd)
        if time.perf_counter() >= self._next_calibration:
            self.calibrations.append(self.spawn(CALIBRATE_CMD)[2])
            self._next_calibration = time.perf_counter() + CALIBRATE_EVERY_S
        return result

    def _record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")

    # --- one pass ---------------------------------------------------------

    def one_pass(self, invoke) -> dict:
        """Every case through evolve CSV, evolve JSON and verify, checked.

        `invoke(argv)` runs the CLI and returns (exit code, stderr, wall s, max RSS MB).
        """
        times = dict.fromkeys(KINDS, 0.0)
        walls = {}
        peak_rss = 0.0
        json_bytes = 0
        for case in self.cases:
            out = {
                "evolve_csv": self.workdir / f"{case.name}.csv",
                "evolve_json": self.workdir / f"{case.name}.traj.json",
                "verify": self.workdir / f"{case.name}.report.json",
            }
            argv = {
                "evolve_csv": ["evolve", case.ref, *case.args, "-o", str(out["evolve_csv"])],
                "evolve_json": ["evolve", case.ref, *case.args, "-o", str(out["evolve_json"]),
                                "--format", "json"],
                "verify": ["verify", case.ref, *case.args, "-o", str(out["verify"])],
            }
            problems = {}
            for kind in KINDS:
                out[kind].unlink(missing_ok=True)
                rc, stderr, wall, rss = invoke(argv[kind])
                times[kind] += wall
                walls[f"{case.name} {kind}"] = wall
                peak_rss = max(peak_rss, rss)
                problems[kind] = checks.check_exit(kind, rc, stderr, case.expect_rc)
            if case.expect_rc == 0:
                if not problems["verify"]:
                    problems["verify"], raw = checks.check_report(
                        out["verify"], self.reports.get(case.name))
                    if raw is not None:
                        self.reports.setdefault(case.name, raw)
                if not problems["evolve_csv"] and not problems["evolve_json"]:
                    json_bytes += out["evolve_json"].stat().st_size
                    problems.update(checks.check_trajectories(
                        out["evolve_csv"], out["evolve_json"]))
            for kind in KINDS:
                self._record(f"{case.name} {kind}", problems[kind])
        return {
            **{f"{kind}_s": times[kind] for kind in KINDS},
            "cli_s": sum(times.values()),
            "peak_rss_mb": peak_rss,
            "json_mb": json_bytes / 1e6,
            "walls": walls,
        }

    @staticmethod
    def _passes(seconds: float, one, at_least: int):
        """Repeat `one()` at least `at_least` times, then while another fits in `seconds`."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(one())
            elapsed = time.perf_counter() - start
            if len(results) >= at_least and elapsed * (len(results) + 1) / len(results) > seconds:
                return results

    # --- the two modes ----------------------------------------------------

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        """End-to-end metrics from CLI subprocesses."""
        self.spawn(self.probe_cmd)  # warm-up: byte-compiles the package, fills caches

        def one():
            setups = []
            while sum(setups) < SETUP_PROBE_S:
                rc, stderr, wall, _ = self.calibrated_spawn(self.probe_cmd)
                self._record("setup probe", None if rc == 0 else f"exit {rc}: {stderr[-300:]}")
                setups.append(wall)
            return {"setup_s": setups,
                    **self.one_pass(lambda argv: self.calibrated_spawn([*CLI_CMD, *argv]))}

        passes = self._passes(seconds, one, at_least=3)
        calibrations = self.calibrations
        speed = CALIBRATE_REFERENCE_S / statistics.median(calibrations)
        values = {f"{kind}_s": speed * typical_pass(passes, kind) for kind in KINDS}
        values["setup_s"] = speed * statistics.median(t for p in passes for t in p["setup_s"])
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        values["ok_ops_frac"] = 1.0 - self.failed / max(1, self.attempted)
        report_spread("raw pass", passes)
        print(f"calibration: median {statistics.median(calibrations):.4f} s over "
              f"{len(calibrations)} runs; times scaled by {speed:.4f}")
        return values, {"passes": passes, "calibrations": calibrations, "speed_factor": speed}

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Per-layer metrics: each invocation in-process, untraced and traced back to back.

        The two runs of an invocation follow each other, in alternating order,
        so both see the same machine speed and their difference is the
        tracing overhead.
        """
        from metricbundle import cli

        tracer = Tracer()
        traced_main = tracer.wrap_main(cli.main)
        traced_first = itertools.cycle([True, False])
        untraced_walls: list[float] = []

        def run(main, argv):
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except Exception:  # an escaped exception is a failed invocation
                    traceback.print_exc()
                    rc = None
            return rc, err.getvalue(), time.perf_counter() - start, 0.0

        def run_traced(argv):
            tracer.install()
            try:
                return run(traced_main, argv)
            finally:
                tracer.uninstall()

        def invoke(argv):
            if next(traced_first):
                traced, plain = run_traced(argv), run(cli.main, argv)
            else:
                plain, traced = run(cli.main, argv), run_traced(argv)
            untraced_walls.append(plain[2])
            rc = traced[0] if traced[0] == plain[0] else None  # disagreement fails the check
            return rc, traced[1], traced[2], 0.0

        def one():
            tracer.reset()
            untraced_walls.clear()
            result = self.one_pass(invoke)
            del result["peak_rss_mb"]  # no child process to measure
            return {**result, "untraced_s": sum(untraced_walls), "layers": tracer.layer_metrics()}

        self.one_pass(lambda argv: run(cli.main, argv))  # warm-up: one-time first-call costs
        passes = self._passes(seconds, one, at_least=1)
        values = {key: statistics.median(p["layers"][key] for p in passes)
                  for key in passes[0]["layers"]}
        values["evolution.json_mb"] = statistics.median(p["json_mb"] for p in passes)
        values["trace.overhead_s"] = statistics.median(p["cli_s"] - p["untraced_s"] for p in passes)
        values["trace.overhead_pct"] = (100.0 * values["trace.overhead_s"]
                                        / statistics.median(p["untraced_s"] for p in passes))
        values["cli.import_s"] = statistics.median(self.import_time() for _ in range(IMPORT_PROBES))
        report_spread("traced pass", passes)
        print_quartiles("untraced pass cli_s", [p["untraced_s"] for p in passes])
        spans = WORK_ROOT / f"spans-{self.workdir.name.rsplit('-', 1)[0]}.json"
        spans.write_text(json.dumps(tracer.spans_doc()) + "\n")
        return values, {"passes": passes, "spans_file": spans.name}

    def import_time(self) -> float:
        code = ("import time; t = time.perf_counter(); import metricbundle.cli; "
                "print(time.perf_counter() - t)")
        out = subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                             capture_output=True, text=True)
        return float(out.stdout)


def typical_pass(passes: list[dict], kind: str) -> float:
    """Time of the `kind` invocations (e.g. "verify") in one pass over the scenarios.

    The sum over scenarios of each invocation's median over passes: one
    slow invocation, as a busy shared machine produces now and then, does
    not move it.
    """
    keys = [key for key in passes[0]["walls"] if key.endswith(kind)]
    return sum(statistics.median(p["walls"][key] for p in passes) for key in keys)


def report_spread(label: str, passes: list[dict]) -> None:
    """Median, quartiles and sample count of each per-pass timing (unscaled)."""
    for key in ("setup_s", "evolve_csv_s", "evolve_json_s", "verify_s", "cli_s", "peak_rss_mb"):
        if key in passes[0]:
            print_quartiles(f"{label} {key}", [p[key] for p in passes])


def print_quartiles(label: str, values: list) -> None:
    """Median, quartiles and count; list items (several set-up probes) are flattened."""
    values = [v for item in values for v in (item if isinstance(item, list) else [item])]
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    print(f"{label}: median {q[1]:.4f} q1 {q[0]:.4f} q3 {q[2]:.4f} n={len(values)}")


def machine_record() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
    }


if __name__ == "__main__":
    sys.exit(main())
