"""Command-line entry point.

Subcommands:
    evolve SCENARIO -o OUT [--format csv|json]   integrate and export
    verify SCENARIO [-o REPORT] [--node-stride]  run the identity suite
    spectrum SCENARIO --observable NAME --times  eigenvalues at given times
    demo NAME [-o OUT] [overrides]               emit a built-in scenario file

SCENARIO is a JSON file path or "demo:<name>". Exit codes: 0 success,
1 usage error, 2 scenario validation error, 3 numerical failure,
4 unexpected verification failure. Diagnostics go to stderr with an
"error[CODE]:" prefix. Set METRICBUNDLE_LOG to quiet|info|debug.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import representations as rep
from .errors import (
    MetricBundleError,
    NoPositiveDefiniteSolutionError,
    NonFiniteError,
    SchemaError,
    SingularMatrixError,
    StepLimitExceededError,
)
from .evolution import bundle_to_json_dict, integrate
from .matops import DEFAULT_TOL, sorted_eigenvalues
from .model import Scenario, load_scenario, scenario_to_json_dict
from .verify import render_table, run_suite
from .zoo import DEMO_PREFIX, builtin_models, get_demo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

log = logging.getLogger("metricbundle")


def _setup_logging() -> None:
    level = os.environ.get("METRICBUNDLE_LOG", "quiet").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _error(code: str, message: str) -> None:
    print(f"error[{code}]: {message}", file=sys.stderr)


def _resolve_scenario(ref: str, args) -> Scenario:
    if ref.startswith(DEMO_PREFIX):
        scenario = get_demo(ref[len(DEMO_PREFIX):])
    else:
        if not Path(ref).exists():
            raise SchemaError(f"scenario file not found: {ref}", "")
        scenario = load_scenario(ref)
    return _apply_overrides(scenario, args)


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    changes = {key: getattr(args, key) for key in ("t0", "t1")
               if getattr(args, key, None) is not None}
    if getattr(args, "step", None) is not None:
        changes["integrator"] = dataclasses.replace(scenario.integrator, step=args.step)
    return dataclasses.replace(scenario, **changes) if changes else scenario


def _expectations(scenario: Scenario, bundle):
    nodes = np.arange(bundle.n_nodes)
    return {
        name: rep.expectation_schrodinger(bundle, nodes, obs.assemble_many(bundle.ts))
        for name, obs in scenario.observables.items()
    }


def _write_trajectory_csv(path, scenario: Scenario, bundle) -> None:
    values = _expectations(scenario, bundle)
    names = list(values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for name in names:
            header += [f"{name}_re", f"{name}_im"]
        writer.writerow(header)
        for i in range(bundle.n_nodes):
            row = [repr(float(bundle.ts[i]))]
            for name in names:
                z = values[name][i]
                row += [repr(float(z.real)), repr(float(z.imag))]
            writer.writerow(row)


def _write_trajectory_json(path, scenario: Scenario, bundle) -> None:
    doc = bundle_to_json_dict(bundle)
    doc["scenario"] = scenario_to_json_dict(scenario)
    doc["expectations"] = {
        name: [[float(z.real), float(z.imag)] for z in col]
        for name, col in _expectations(scenario, bundle).items()
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def _cmd_evolve(args) -> int:
    scenario = _resolve_scenario(args.scenario, args)
    log.info("integrating %s", scenario.name or args.scenario)
    bundle = integrate(scenario, DEFAULT_TOL)
    if args.format == "csv":
        _write_trajectory_csv(args.output, scenario, bundle)
    else:
        _write_trajectory_json(args.output, scenario, bundle)
    log.info("wrote %s (%d nodes)", args.output, bundle.n_nodes)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 0 < args.tolerance_scale < math.inf:
        _error("usage", f"--tolerance-scale must be finite and > 0, got {args.tolerance_scale}")
        return EXIT_USAGE
    if args.node_stride < 1:
        _error("usage", f"--node-stride must be at least 1, got {args.node_stride}")
        return EXIT_USAGE
    scenario = _resolve_scenario(args.scenario, args)
    bundle = integrate(scenario, DEFAULT_TOL)
    report = run_suite(
        bundle,
        scenario,
        DEFAULT_TOL,
        node_stride=args.node_stride,
        tolerance_scale=args.tolerance_scale,
    )
    print(render_table(report))
    if args.output:
        Path(args.output).write_text(report.to_json())
    if report.unexpected_failures:
        _error("verify", f"{len(report.unexpected_failures)} unexpected check failures")
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    scenario = _resolve_scenario(args.scenario, args)
    if args.observable not in scenario.observables:
        raise SchemaError(
            f"unknown observable {args.observable!r}; "
            f"available: {', '.join(sorted(scenario.observables))}",
            "/observables",
        )
    obs = scenario.observables[args.observable]
    try:
        times = [float(x) for x in args.times.split(",") if x.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad --times value: {exc}", "") from exc
    bad = [t for t in times if not math.isfinite(t)]
    if bad:
        raise SchemaError(f"bad --times value: {bad[0]!r} is not finite", "")
    rows = zip(times, sorted_eigenvalues(obs.assemble_many(times)))
    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            dim = scenario.dim
            header = ["t"]
            for k in range(dim):
                header += [f"ev{k}_re", f"ev{k}_im"]
            writer.writerow(header)
            for t, vals in rows:
                row = [repr(t)]
                for z in vals:
                    row += [repr(float(z.real)), repr(float(z.imag))]
                writer.writerow(row)
    else:
        for t, vals in rows:
            rendered = ", ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in vals)
            print(f"t={t:g}: {rendered}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("s", "gamma", "step", "t0", "t1")
        if getattr(args, key) is not None
    }
    scenario = get_demo(args.name, **overrides)
    doc = json.dumps(scenario_to_json_dict(scenario), indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(doc)
    else:
        print(doc, end="")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricbundle",
        description="Non-Hermitian quantum dynamics with a co-evolved Hilbert-space metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--step", type=float, default=None, help="override integrator step")
        p.add_argument("--t0", type=float, default=None, help="override start time")
        p.add_argument("--t1", type=float, default=None, help="override end time")

    p_evolve = sub.add_parser("evolve", help="integrate a scenario and export the trajectory")
    p_evolve.add_argument("scenario", help="scenario file or demo:<name>")
    p_evolve.add_argument("-o", "--output", required=True)
    p_evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("scenario", help="scenario file or demo:<name>")
    p_verify.add_argument("-o", "--output", default=None, help="write JSON report here")
    p_verify.add_argument("--node-stride", type=int, default=10)
    p_verify.add_argument("--tolerance-scale", type=float, default=1.0)
    add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_spectrum = sub.add_parser("spectrum", help="observable eigenvalues at given times")
    p_spectrum.add_argument("scenario", help="scenario file or demo:<name>")
    p_spectrum.add_argument("--observable", required=True)
    p_spectrum.add_argument("--times", required=True, help="comma-separated times")
    p_spectrum.add_argument("-o", "--output", default=None, help="write CSV here")
    add_common(p_spectrum)
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_demo = sub.add_parser("demo", help="emit a built-in scenario as JSON")
    p_demo.add_argument("name", help=f"one of: {', '.join(sorted(builtin_models()))}")
    p_demo.add_argument("-o", "--output", default=None)
    p_demo.add_argument("--s", type=float, default=None, help="sigma_x coupling")
    p_demo.add_argument("--gamma", type=float, default=None, help="gain/loss rate")
    add_common(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except NoPositiveDefiniteSolutionError as exc:
        hint = "system in broken phase; supply explicit metric or use identity"
        _error("schema", f"{exc} ({hint})")
        return EXIT_SCENARIO
    except SchemaError as exc:
        _error("schema", str(exc))
        return EXIT_SCENARIO
    except (NonFiniteError, SingularMatrixError, StepLimitExceededError) as exc:
        _error("numeric", f"{type(exc).__name__}: {exc}")
        return EXIT_NUMERIC
    except MetricBundleError as exc:
        _error("schema", f"{type(exc).__name__}: {exc}")
        return EXIT_SCENARIO
    except OSError as exc:
        _error("usage", str(exc))
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
