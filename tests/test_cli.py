import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricbundle import errors
from metricbundle import representations as rep
from metricbundle.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SCENARIO,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    report_failure,
)
from metricbundle.errors import (
    EigenConvergenceError,
    EvalError,
    NoPositiveDefiniteSolutionError,
    ProfileSyntaxError,
    SchemaError,
)
from metricbundle.evolution import integrate
from metricbundle.matops import sorted_eigenvalues
from metricbundle.model import (
    IntegratorConfig,
    MetricInit,
    Scenario,
    complex_pairs,
    constant_operator,
    load_scenario,
    resolve_initial_metric,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    scenario_to_json_text,
)
from metricbundle.profile import parse_profile
from metricbundle.verify import run_suite
from metricbundle.zoo import builtin_models, get_demo


def run(*argv):
    return main(list(argv))


def run_fresh(*argv, **env_vars) -> subprocess.CompletedProcess:
    """`python -m metricbundle.cli ARGV` in a new interpreter, as the console script runs."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **env_vars)
    return subprocess.run([sys.executable, "-m", "metricbundle.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def set_at(doc, pointer: str, value) -> None:
    """Replace the value at a JSON pointer (RFC 6901, list indices as digits) in place."""
    *parents, key = [token.replace("~1", "/").replace("~0", "~")
                     for token in pointer.split("/")[1:]]
    for parent in parents:
        doc = doc[int(parent) if isinstance(doc, list) else parent]
    doc[int(key) if isinstance(doc, list) else key] = value


def reference_trajectory_text(scenario: Scenario) -> str:
    """`evolve --format json` as it was first written: nested lists, then json.dumps."""
    bundle = integrate(scenario)
    nodes = np.arange(bundle.n_nodes)

    def pairs(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()

    doc = {
        "t": bundle.ts.tolist(),
        "step": bundle.step,
        "psi": pairs(bundle.psi_at(slice(None))),
        "u_r": pairs(bundle.u_r),
        "u_l": pairs(bundle.u_l),
        "g": pairs(bundle.g),
        "e": pairs(bundle.e_at(slice(None))),
        "g0": pairs(bundle.g[0]),
        "metadata": bundle.metadata,
        "scenario": scenario_to_json_dict(scenario),
        "expectations": {
            name: [
                [float(z.real), float(z.imag)]
                for z in rep.expectation_schrodinger(bundle, nodes, obs.assemble_many(bundle.ts))
            ]
            for name, obs in scenario.observables.items()
        },
    }
    return json.dumps(doc) + "\n"


def reference_csv_text(times, columns: dict) -> str:
    """A CSV export as first written: one csv row per time, each float as its repr."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = ["t"]
    for name in columns:
        header += [f"{name}_re", f"{name}_im"]
    writer.writerow(header)
    for i, t in enumerate(times):
        row = [repr(float(t))]
        for column in columns.values():
            row += [repr(float(column[i].real)), repr(float(column[i].imag))]
        writer.writerow(row)
    return buffer.getvalue()


class TestEvolve:
    def test_csv_matches_rabi_closed_form(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run("evolve", "demo:hermitian-rabi", "-o", str(out), "--t1", "3.0") == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3001
        # <sigma_z>(t) = cos(2t) for H = sigma_x on |0>
        for row in rows[:: len(rows) // 7]:
            t = float(row["t"])
            assert abs(float(row["sigma_z_re"]) - np.cos(2 * t)) <= 1e-9
            assert abs(float(row["sigma_z_im"])) <= 1e-12

    def test_json_format_round_trips_scenario(self, tmp_path):
        out = tmp_path / "traj.json"
        assert (
            run("evolve", "demo:pt-dimer-unbroken", "-o", str(out), "--format", "json",
                "--t1", "1.0")
            == EXIT_OK
        )
        doc = json.loads(out.read_text())
        assert set(doc) >= {"t", "psi", "u_r", "u_l", "g", "e", "scenario", "expectations"}
        restored = scenario_from_json_dict(doc["scenario"])
        assert restored.t1 == 1.0
        assert len(doc["t"]) == len(doc["expectations"]["sigma_x"])

    def test_scenario_file_input(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(get_demo("hermitian-rabi", t1=1.0), path)
        out = tmp_path / "traj.csv"
        assert run("evolve", str(path), "-o", str(out)) == EXIT_OK
        assert out.exists()

    def test_missing_file_is_scenario_error(self, tmp_path, capsys):
        assert run("evolve", "no-such.json", "-o", str(tmp_path / "x.csv")) == EXIT_SCENARIO
        assert capsys.readouterr().err.startswith("error[schema]:")

    def test_blowup_is_numeric_error(self, tmp_path, capsys):
        code = run(
            "evolve", "demo:pt-dimer-broken", "-o", str(tmp_path / "x.csv"), "--t1", "60"
        )
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error[numeric]:")

    def test_blowup_line_names_node_time_and_channel(self, tmp_path, capsys):
        # The ep-sweep blow-up: gamma = 3, s = 1 leaves the finite range at node 4869.
        path = tmp_path / "blowup.json"
        save_scenario(get_demo("pt-dimer-broken", s=1.0, gamma=3.0, t1=15.0), path)
        assert run("evolve", str(path), "-o", str(tmp_path / "x.csv")) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error[numeric]: NonFiniteError: channel left the finite range"
            " (node 4869, t = 4.869, channel g)\n")

    def test_eigen_convergence_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        # pt-dimer-unbroken starts from the stationary metric, solved through eig.
        code = run("evolve", "demo:pt-dimer-unbroken", "-o", str(tmp_path / "x.csv"))
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("error[numeric]: EigenConvergenceError:") and err.count("\n") == 1
        assert "did not converge" in err

    def test_explicit_metric_cholesky_cannot_factor_is_schema_error(self):
        # Smallest eigenvalue 6.8e-16 > 0, yet LAPACK's Cholesky factorization fails.
        metric = np.array([
            [1.5300000000000011, 0.72, 0.8549999999999999],
            [0.72, 5.94, 8.244],
            [0.8549999999999999, 8.244, 11.4561],
        ])
        scenario = Scenario(
            hamiltonian=constant_operator(np.eye(3)),
            metric_init=MetricInit("identity"),
            psi0=np.array([1, 0, 0], dtype=complex),
            observables={},
            t0=0.0,
            t1=0.01,
            integrator=IntegratorConfig(),
        )
        # MetricInit rejects the matrix, so it goes straight into the document.
        doc = scenario_to_json_dict(scenario)
        doc["metric"] = {"mode": "explicit", "matrix": complex_pairs(metric).tolist()}
        outcomes = assert_one_documented_line_each(doc)
        line = outcomes[0][1][0]
        assert outcomes == [(EXIT_SCENARIO, [line])] * 3  # from verify, evolve and spectrum
        assert line.startswith("error[schema]: /metric/matrix:") and "cholesky_upper" in line


class TestCsvExport:
    """evolve and spectrum -o write the CSV of the per-row writer, byte for byte."""

    def test_evolve_matches_reference(self, tmp_path):
        scenario = get_demo("time-dependent-observable", t1=0.05)
        observables = {**scenario.observables, 'a,"b"': scenario.observables["rotating"]}
        path = tmp_path / "s.json"
        save_scenario(dataclasses.replace(scenario, observables=observables), path)
        out = tmp_path / "traj.csv"
        assert run("evolve", str(path), "-o", str(out)) == EXIT_OK
        scenario = load_scenario(path)
        bundle = integrate(scenario)
        nodes = np.arange(bundle.n_nodes)
        columns = {
            name: rep.expectation_schrodinger(bundle, nodes, obs.assemble_many(bundle.ts))
            for name, obs in scenario.observables.items()
        }
        assert out.read_bytes() == reference_csv_text(bundle.ts, columns).encode()
        assert b'"a,""b""_re","a,""b""_im"\r\n' in out.read_bytes()

    def test_spectrum_matches_reference(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "demo:time-dependent-observable", "--observable", "rotating",
                   "--times", "0,-0.0,3", "-o", str(out)) == EXIT_OK
        times = [0.0, -0.0, 3.0]
        obs = get_demo("time-dependent-observable").observables["rotating"]
        values = sorted_eigenvalues(obs.assemble_many(times))
        columns = {f"ev{k}": values[:, k] for k in range(values.shape[1])}
        assert out.read_bytes() == reference_csv_text(times, columns).encode()
        assert b"\r\n-0.0," in out.read_bytes()


class TestTrajectoryJson:
    """The JSON export is byte-identical to the nested-list json.dumps document."""

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_demo_matches_reference(self, tmp_path, name):
        out = tmp_path / "traj.json"
        argv = ("evolve", f"demo:{name}", "--t1", "0.75", "-o", str(out), "--format", "json")
        assert run(*argv) == EXIT_OK
        want = reference_trajectory_text(dataclasses.replace(get_demo(name), t1=0.75))
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_pt_chain_matches_reference(self, tmp_path, perfbench_chain_files, n):
        (path,) = [p for p in perfbench_chain_files if p.name == f"chain{n}.json"]
        out = tmp_path / "traj.json"
        assert run("evolve", str(path), "-o", str(out), "--format", "json") == EXIT_OK
        assert out.read_bytes() == reference_trajectory_text(load_scenario(path)).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_observable_leaves_no_file(self, tmp_path, capsys, fmt):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        doc["observables"]["inverse_time"] = [
            {"coeff": "1 / t", "matrix": doc["observables"]["sigma_z"]}
        ]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"traj.{fmt}"
        assert run("evolve", str(path), "-o", str(out), "--format", fmt) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith("error[schema]: EvalError: division by zero")
        assert err.count("\n") == 1
        assert not out.exists()


class TestScenarioFileErrors:
    FLAGS = {
        "evolve": ("-o", "x.csv"),
        "verify": (),
        "spectrum": ("--observable", "sigma_z", "--times", "0"),
    }

    @pytest.mark.parametrize(
        "raw, message",
        [('{"name": "caf\u00e9"}'.encode("latin-1"), "not UTF-8 text: "),
         (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply: ")],
        ids=["latin-1", "deep"],
    )
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_unreadable_file_is_schema_error(self, tmp_path, monkeypatch, capsys, raw, message,
                                             command):
        # No pointer: the message follows the prefix directly.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_bytes(raw)
        assert run(command, "s.json", *self.FLAGS[command]) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith(f"error[schema]: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("ref", ["nosuch.json", "./nosuch.json", "file.json/x", "loop.json",
                                     "nul\0.json"])
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_path_naming_no_file_is_not_found(self, tmp_path, monkeypatch, capsys, ref,
                                              command):
        # Missing, under a file, a symlink loop, or no valid path: the path as given.
        monkeypatch.chdir(tmp_path)
        Path("file.json").write_text(scenario_to_json_text(get_demo("pt-ep")))
        Path("loop.json").symlink_to("loop.json")
        assert run(command, ref, *self.FLAGS[command]) == EXIT_SCENARIO
        assert capsys.readouterr() == ("", f"error[schema]: scenario file not found: {ref}\n")

    @pytest.mark.parametrize("ref, shown", [
        ("a\nb.json", "a\\u000ab.json"),
        ("a\u2028b.json", "a\\u2028b.json"),
        ("a\r\0.json", "a\\u000d\0.json"),  # no valid path: the other not-found raise
    ], ids=["newline", "line-separator", "return-and-nul"])
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_path_with_a_line_break_is_one_line(self, tmp_path, monkeypatch, capsys, ref, shown,
                                                command):
        # A line break in the path is shown as its JSON escape, as in a pointer.
        monkeypatch.chdir(tmp_path)
        assert run(command, ref, *self.FLAGS[command]) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error[schema]: scenario file not found: {shown}"]

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_directory_is_schema_error(self, tmp_path, monkeypatch, capsys, command):
        # A path that exists but cannot be read exits 2, as a missing one does.
        monkeypatch.chdir(tmp_path)
        Path("d").mkdir()
        with pytest.raises(OSError) as reading:
            Path("d").read_text()
        assert run(command, "d", *self.FLAGS[command]) == EXIT_SCENARIO
        assert capsys.readouterr() == (
            "", f"error[schema]: cannot read scenario file: {reading.value}\n")

    @staticmethod
    def pt_ep_text_with(pointer, value) -> str:
        doc = scenario_to_json_dict(get_demo("pt-ep"))
        set_at(doc, pointer, value)
        return json.dumps(doc)

    @pytest.mark.parametrize("text, line", [
        (pt_ep_text_with("/hamiltonian/0/coeff", 1),
         "/hamiltonian/0/coeff: coeff must be a string"),
        (pt_ep_text_with("/metric", 5), '/metric: metric must be {"mode": ...}'),
        (pt_ep_text_with("/observables", []), "/observables: observables must be an object"),
        (pt_ep_text_with("/integrator", "rk4"), "/integrator: integrator must be an object"),
        (scenario_to_json_text(get_demo("pt-ep"))[:50],
         "invalid JSON: Unterminated string starting at: line 5 column 7 (char 45)"),
    ], ids=["coeff", "metric", "observables", "integrator", "truncated"])
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_malformed_document_gives_its_line(self, tmp_path, monkeypatch, capsys, text, line,
                                               command):
        monkeypatch.chdir(tmp_path)
        Path("s.json").write_text(text)
        assert run(command, "s.json", *self.FLAGS[command]) == EXIT_SCENARIO
        assert capsys.readouterr() == ("", f"error[schema]: {line}\n")

    @pytest.mark.parametrize("name", [["x"], None])
    def test_non_string_name_is_schema_error(self, tmp_path, capsys, name):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        doc["name"] = name
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith("error[schema]: /name:") and err.count("\n") == 1

    @pytest.mark.parametrize("pointer", ["/t0", "/integrator/method", "/metric/mode"])
    @pytest.mark.parametrize("value", [[0] * 100_000, "x" * 100_000, 10**400],
                             ids=["list", "string", "int"])
    def test_huge_value_gives_one_short_line(self, tmp_path, capsys, pointer, value):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        set_at(doc, pointer, value)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith(f"error[schema]: {pointer}:") and err.count("\n") == 1
        assert len(err.encode()) <= 200

    @pytest.mark.parametrize("demo, pointer", [
        ("hermitian-rabi", "/psi0/0"),
        ("hermitian-rabi", "/hamiltonian/0/matrix/0/1"),
        ("hermitian-rabi", "/metric/matrix/1/1"),
        ("hermitian-rabi", "/observables/sigma_z/0/0"),
        ("time-dependent-observable", "/observables/rotating/0/matrix/1/0"),
    ])
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_integer_too_large_for_a_float_is_schema_error(
            self, tmp_path, capsys, demo, pointer, part, command):
        doc = scenario_to_json_dict(get_demo(demo, t1=0.1))
        doc["metric"] = {"mode": "explicit", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        set_at(doc, f"{pointer}/{part}", -10**400)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "out")) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith(f"error[schema]: {pointer}:") and err.count("\n") == 1
        assert len(err.encode()) <= 200

    @pytest.mark.parametrize("pointer, pair", [
        ("/hamiltonian/0/matrix/0/0", [float("nan"), 0]),
        ("/observables/sigma_z/0/0", [float("inf"), 0]),
        ("/psi0/0", [float("nan"), 0]),
    ], ids=["hamiltonian-nan", "observable-inf", "psi0-nan"])
    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_non_finite_entry_is_rejected_at_its_pointer(
            self, tmp_path, capsys, pointer, pair, command):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        set_at(doc, pointer, pair)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "out")) == EXIT_SCENARIO
        assert capsys.readouterr().err == (
            f"error[schema]: {pointer}: complex number part must be finite\n")

    # An exponent folds at parse time, so a fold that fails is a bad coefficient.
    @pytest.mark.parametrize("coeff, message", [
        ("t^1e400", "non-finite value (at offset 2)"),
        ("t^(exp(800))", "non-finite value (at offset 3)"),
        ("t^(1/0)", "division by zero (at offset 4)"),
    ])
    @pytest.mark.parametrize("pointer", ["/hamiltonian/0/coeff", "/observables/rotating/0/coeff"])
    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_exponent_that_cannot_be_evaluated_is_rejected_at_its_pointer(
            self, tmp_path, capsys, coeff, message, pointer, command):
        doc = scenario_to_json_dict(get_demo("time-dependent-observable", t1=0.1))
        set_at(doc, pointer, coeff)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "out")) == EXIT_SCENARIO
        assert capsys.readouterr().err == (
            f"error[schema]: {pointer}: bad coefficient: {message}\n")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def coefficient_file(path, coeff, where) -> str:
        """hermitian-rabi with coeff as the one term of its Hamiltonian or of sigma_z,
        written to path; returns the coefficient's pointer."""
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        if where == "hamiltonian":
            doc["hamiltonian"][0]["coeff"] = coeff
        else:
            doc["observables"]["sigma_z"] = [{"coeff": coeff,
                                              "matrix": doc["observables"]["sigma_z"]}]
        path.write_text(json.dumps(doc))
        return "/hamiltonian/0/coeff" if where == "hamiltonian" else "/observables/sigma_z/0/coeff"

    # A sub-expression without t is evaluated when its coefficient is parsed, so one
    # that cannot be evaluated is a bad coefficient, even where nothing evaluates it.
    @pytest.mark.parametrize("coeff, message", [
        ("1/0", "division by zero (at offset 1)"),
        ("2^(2^62)", "non-finite value (at offset 1)"),
        ("exp(1000)", "non-finite value (at offset 0)"),
        ("1e400", "non-finite value (at offset 0)"),
        ("t*(1/0)", "division by zero (at offset 4)"),
        # Two faults: t/t fails at t = 0 only when evaluated, 1/0 when parsed.
        ("t/t + 1/0", "division by zero (at offset 7)"),
    ])
    @pytest.mark.parametrize("where", ["hamiltonian", "observables"])
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_part_without_t_that_cannot_be_evaluated_is_rejected_at_its_pointer(
            self, tmp_path, monkeypatch, capsys, coeff, message, where, command):
        monkeypatch.chdir(tmp_path)
        pointer = self.coefficient_file(tmp_path / "s.json", coeff, where)
        assert run(command, "s.json", *self.FLAGS[command]) == EXIT_SCENARIO
        assert capsys.readouterr() == (
            "", f"error[schema]: {pointer}: bad coefficient: {message}\n")
        assert not (tmp_path / "x.csv").exists()

    # Chains whose evaluation, and parentheses whose parse, would recurse past Python's
    # limit.
    @pytest.mark.parametrize("coeff, offset", [
        (" + ".join(["t"] * 1000), 402),
        (" + ".join(["t"] * 5000), 402),
        (" + ".join(["1"] * 5000), 402),
        ("(" * 1000 + "t" + ")" * 1000, 100),
    ], ids=["1000-t", "5000-t", "5000-1", "1000-parentheses"])
    @pytest.mark.parametrize("where", ["hamiltonian", "observables"])
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_coefficient_past_the_operator_bound_is_rejected_at_its_pointer(
            self, tmp_path, monkeypatch, capsys, coeff, offset, where, command):
        monkeypatch.chdir(tmp_path)
        pointer = self.coefficient_file(tmp_path / "s.json", coeff, where)
        assert run(command, "s.json", *self.FLAGS[command]) == EXIT_SCENARIO
        assert capsys.readouterr() == ("", (
            f"error[schema]: {pointer}: bad coefficient: "
            f"more than 100 operators and parentheses (at offset {offset})\n"))

    # 100 operators and parentheses, in the shapes whose tree, derivative tree and parse
    # are deepest.
    @pytest.mark.parametrize("coeff", [
        "t" + "/2" * 100,
        "(" * 50 + "t" + "^2)" * 50,
        "tanh(" * 99 + "t/9" + ")" * 99,
        "-" * 100 + "t",
    ], ids=["division", "power", "tanh", "negation"])
    def test_coefficient_at_the_operator_bound_evaluates_and_differentiates(
            self, tmp_path, monkeypatch, capsys, coeff):
        monkeypatch.chdir(tmp_path)
        self.coefficient_file(tmp_path / "s.json", coeff, "observables")
        for command in sorted(self.FLAGS):
            assert run(command, "s.json", *self.FLAGS[command], "-o", "out") == EXIT_OK
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads((tmp_path / "out").read_text())["checks"]}
        for family in ("heisenberg_eom_fd", "heisenberg_like_eom_fd"):
            check = checks[f"{family}[sigma_z]"]
            assert check["pass"] and "error" not in check and check["context"].startswith("node ")

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_dim_too_large_for_a_float_gives_one_short_line(self, tmp_path, capsys, command):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        doc["dim"] = 10**400
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "out")) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith("error[schema]: /hamiltonian/0/matrix:")
        assert err.count("\n") == 1 and len(err.encode()) <= 200

    @pytest.mark.parametrize("pointer", ["/stpe", "/metric/stpe", "/integrator/stpe"])
    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_unknown_key_is_rejected_at_its_pointer(self, tmp_path, capsys, pointer, command):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        set_at(doc, pointer, 0.01)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "out")) == EXIT_SCENARIO
        assert capsys.readouterr().err == f"error[schema]: {pointer}: unknown key\n"

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_metric_matrix_outside_explicit_mode_is_rejected(self, tmp_path, capsys, command):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        doc["metric"] = {"mode": "identity", "matrix": "garbage"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "out")) == EXIT_SCENARIO
        assert capsys.readouterr().err == (
            "error[schema]: /metric/matrix: identity metric takes no matrix\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_does_not_hide_an_error_in_a_known_field(self, tmp_path, capsys):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.1))
        doc["integrator"]["stpe"] = 0.01
        doc["t1"] = -1.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == EXIT_SCENARIO
        assert capsys.readouterr().err == "error[schema]: /t1: t1 must exceed t0\n"


SIGMA_Z_JSON = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
SIGMA_X_JSON = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
# diag(1e10, 1) and 1e10 sigma_x: finite, but 1e300 times either is not.
BIG_DIAGONAL = [[[1e10, 0], [0, 0]], [[0, 0], [1, 0]]]
BIG_SIGMA_X = [[[0, 0], [1e10, 0]], [[1e10, 0], [0, 0]]]


class TestOverflowingOperator:
    """An operator whose assembled matrix overflows is one error line, with no numpy warning."""

    # coefficient -> the error line: 1e300 is a constant operator, rejected when the file
    # is read; 1e300 * t is assembled in the run and overflows from t = 0.018 on.
    CASES = {
        "1e300": "error[schema]: {pointer}: operator is not finite\n",
        "1e300 * t":
            "error[schema]: EvalError: operator is not finite at t = 0.018000000000000002\n",
    }
    POINTERS = {"observables": "/observables/big", "hamiltonian": "/hamiltonian"}

    @staticmethod
    def scenario_file(tmp_path, coeff, where):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken", t1=0.05))
        if where == "hamiltonian":
            doc["hamiltonian"].append({"coeff": coeff, "matrix": BIG_SIGMA_X})
        else:
            doc["observables"]["big"] = [{"coeff": coeff, "matrix": BIG_DIAGONAL}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("where", ["observables", "hamiltonian"])
    @pytest.mark.parametrize("coeff", sorted(CASES))
    def test_evolve_exits_with_one_schema_line(self, tmp_path, capsys, coeff, where, fmt):
        path = self.scenario_file(tmp_path, coeff, where)
        out = tmp_path / f"traj.{fmt}"
        code = run("evolve", path, "-o", str(out), "--format", fmt)
        assert code == EXIT_SCENARIO
        assert capsys.readouterr().err == self.CASES[coeff].format(pointer=self.POINTERS[where])
        assert not out.exists()

    @pytest.mark.parametrize("coeff", sorted(CASES))
    def test_verify_reports_the_error_in_each_check_of_the_observable(
            self, tmp_path, capsys, coeff):
        path = self.scenario_file(tmp_path, coeff, "observables")
        report = tmp_path / "report.json"
        if coeff == "1e300":  # the file is rejected before any check runs
            assert run("verify", path, "-o", str(report)) == EXIT_SCENARIO
            assert capsys.readouterr().err == self.CASES[coeff].format(
                pointer=self.POINTERS["observables"])
            assert not report.exists()
            return
        assert run("verify", path, "-o", str(report)) == EXIT_VERIFY
        assert capsys.readouterr().err == "error[verify]: 6 unexpected check failures\n"
        assert "NaN" not in report.read_text()
        big = {c["name"]: c for c in json.loads(report.read_text())["checks"]
               if c["name"].endswith("[big]")}
        assert sorted(big) == sorted(
            f"{family}[big]" for family in (
                "expectation_s_vs_h", "expectation_s_vs_hl", "isospectral_h",
                "isospectral_hl", "heisenberg_eom_fd", "heisenberg_like_eom_fd"))
        for check in big.values():
            assert not check["pass"] and check["residual"] == float("inf")
            assert check["error"].startswith("EvalError: operator is not finite at ")


class TestOverflowingValue:
    """A finite operator whose expectation, difference or norm overflows: no numpy warning."""

    @staticmethod
    def scenario_file(tmp_path, demo, coeff, **times):
        doc = scenario_to_json_dict(get_demo(demo, **times))
        doc["observables"]["a"] = [{"coeff": coeff, "matrix": SIGMA_Z_JSON}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_verify_eom_difference_and_derivative_overflow(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, "pt-dimer-unbroken", "1e308 * (t + t)", t1=0.05)
        report = tmp_path / "report.json"
        assert run("verify", path, "-o", str(report)) == EXIT_VERIFY
        assert capsys.readouterr().err == "error[verify]: 6 unexpected check failures\n"
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        for name in ("heisenberg_eom_fd[a]", "heisenberg_like_eom_fd[a]"):
            # Offset 6 is the `*` whose derivative's product overflows.
            assert checks[name]["error"] == "EvalError: non-finite value (at offset 6)"

    def test_verify_eom_derivative_of_a_part_without_t_is_zero(self, tmp_path, capsys):
        # (1e-200)^(-1) is folded to 1e200 when parsed, so its derivative is 0, not the
        # power rule's -(1e-200)^(-2) * 0, whose power overflows.
        path = self.scenario_file(tmp_path, "pt-dimer-unbroken", "t + (1e-200)^(-1)", t1=0.05)
        report = tmp_path / "report.json"
        assert run("verify", path, "-o", str(report)) == EXIT_VERIFY
        assert capsys.readouterr().err == "error[verify]: 6 unexpected check failures\n"
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        for name in ("heisenberg_eom_fd[a]", "heisenberg_like_eom_fd[a]"):
            assert "error" not in checks[name] and checks[name]["context"].startswith("node ")

    def test_verify_residual_norm_overflows(self, tmp_path, capsys):
        # The residual's entries pass 1e154, so their squares overflow; its norm does not.
        path = self.scenario_file(tmp_path, "pt-dimer-broken", "1e300", t1=3)
        assert run("verify", path) == EXIT_OK
        out = capsys.readouterr().out
        assert "23/36 passed, 0 unexpected failures" in out
        assert [line.split()[1] for line in out.splitlines() if "_eom_fd[a]" in line] == [
            "1.791e+299", "1.791e+299"]

    def test_evolve_expectation_overflows(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, "pt-dimer-broken", "1e300")
        out = tmp_path / "traj.csv"
        assert run("evolve", path, "-o", str(out)) == EXIT_OK
        assert capsys.readouterr().err == ""
        last = out.read_text().splitlines()[-1].split(",")
        assert (last[0], last[-2:]) == ("10.0", ["-inf", "0.0"])


def _token(key) -> str:
    """key as one JSON-pointer token (RFC 6901): "~" escaped as "~0", "/" as "~1"."""
    return str(key).replace("~", "~0").replace("/", "~1")


def _pointers(doc, prefix=""):
    """JSON pointer of every value in doc, the root ("") included."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, child in children:
        yield from _pointers(child, f"{prefix}/{_token(key)}")


def _fuzz_base(demo: str) -> dict:
    """A demo's scenario, short enough that no single change starts a long run."""
    doc = scenario_to_json_dict(get_demo(demo, t1=0.01))
    doc["integrator"]["max_steps"] = 64
    return doc


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


# About half of them from an alphabet that makes "/" and "~" common, to exercise escaping.
NEW_KEYS = st.text(min_size=1, max_size=6) | st.text("/~01a", min_size=1, max_size=4)


@st.composite
def malformed_scenarios(draw):
    """A demo and one to three (pointer, value) changes to its scenario document."""
    demo = draw(st.sampled_from(sorted(builtin_models())))
    pointers = list(_pointers(_fuzz_base(demo)))
    changes = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.sampled_from(range(4))) == 3:  # a key added at a level whose keys are fixed
            parent = draw(st.sampled_from(["", "/metric", "/integrator"]))
            pointer = f"{parent}/{_token(draw(NEW_KEYS))}"
        else:
            pointer = draw(st.sampled_from(pointers))
        changes.append((pointer, draw(JSON_VALUES)))
    return demo, changes


def assert_one_documented_line_each(doc) -> list[tuple[int, list[str]]]:
    """verify, evolve and spectrum of a scenario file holding doc each exit with a
    documented code, printing one error[CODE] line when it is not 0; returns each code
    and its error lines, in that order."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc))
        for argv in (["verify", str(path)], ["evolve", str(path), "-o", f"{tmp}/x.csv"],
                     ["spectrum", str(path), "--observable", "sigma_z", "--times", "0"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (EXIT_OK, EXIT_SCENARIO, EXIT_NUMERIC, EXIT_VERIFY), argv
            lines = [line for line in err.getvalue().splitlines() if line.startswith("error[")]
            assert len(lines) == (code != EXIT_OK), err.getvalue()
            outcomes.append((code, lines))
    return outcomes


# About one change in four adds a key; the rest change a value.
@settings(max_examples=260, derandomize=True, deadline=None)
@given(case=malformed_scenarios())
@example(case=("hermitian-rabi", [("/psi0/0", [10**400, 0])]))
@example(case=("hermitian-rabi", [("/metric", {"mode": "explicit",
                                               "matrix": [[[1, 0], [2, 0]], [[0, 0], [1, 0]]]})]))
@example(case=("pt-dimer-unbroken",
               [("/observables/big", [{"coeff": "1e300", "matrix": BIG_DIAGONAL}])]))
@example(case=("hermitian-rabi", [("/\r", None)]))  # a key that str.splitlines breaks at
def test_malformed_scenario_exits_with_one_documented_line(case):
    """The file alone decides whether it is valid: evolve, verify and spectrum give
    load_scenario's one error line, and a file that loads has nothing left to reject
    but what needs the run."""
    demo, changes = case
    doc = _fuzz_base(demo)
    replaced = []
    for pointer, value in changes:
        if any(pointer.startswith(f"{earlier}/") for earlier in replaced):
            continue  # an earlier change replaced its parent
        if pointer:
            set_at(doc, pointer, value)
        else:
            doc = value
        replaced.append(pointer)
    outcomes = assert_one_documented_line_each(doc)
    try:
        scenario = scenario_from_json_dict(json.loads(json.dumps(doc)))  # as load_scenario
    except SchemaError as exc:
        assert outcomes == [(EXIT_SCENARIO, [f"error[schema]: {exc}"])] * 3
        return
    try:
        resolve_initial_metric(scenario)
    except (NoPositiveDefiniteSolutionError, EigenConvergenceError):
        pass  # the stationary solve needs H(t0), and --t0 can move t0
    except EvalError:  # an operator in t, assembled at t0
        assert scenario.hamiltonian.constant is None
    for spec in (scenario.hamiltonian, *scenario.observables.values()):
        assert spec.constant is None or np.isfinite(spec.constant).all()


FLAG_TEXT = st.text(max_size=10) | st.floats().map(repr) | st.integers().map(str)
FUZZED_FLAGS = {
    "evolve": ("--t0", "--t1", "--step", "--format"),
    "verify": ("--node-stride",),
}


@st.composite
def fuzzed_flags(draw):
    command = draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    names = draw(st.lists(st.sampled_from(FUZZED_FLAGS[command]), min_size=1, unique=True))
    return command, [f"{name}={draw(FLAG_TEXT)}" for name in names]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=fuzzed_flags())
@example(case=("evolve", ["--t0=-1e308", "--t1=1e308"]))
@example(case=("evolve", ["--format=\n"]))
def test_arbitrary_flag_text_exits_with_one_documented_line(case):
    command, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(_fuzz_base("pt-dimer-unbroken")))
        argv = [command, str(path), *flags]
        if command == "evolve":
            argv += ["-o", f"{tmp}/x.out"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5), argv
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error[") for line in lines) == (code != EXIT_OK), lines
    assert "Traceback" not in err.getvalue()


# Coefficient text at and near the float limits. `^` takes an integer exponent, folded
# at parse time: a fixed one, or an expression that may fail to fold or to evaluate.
EXTREME_LEAVES = [
    "t", "1e308", "1.7976931348623157e308", "1e-308", "5e-324", "exp(709)", "exp(709 * t)",
    "1 / 1e-308", "1e308 * t", "2^1023", "(1e-200)^2",
]


def extreme_expressions(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda p: f"({p[0]}) {p[1]} ({p[2]})"),
            st.tuples(inner, st.sampled_from(["2", "3", "40", "400", "-400", "1025"])
                      | inner.map(lambda e: f"({e})")).map(lambda p: f"({p[0]})^{p[1]}"),
            st.tuples(st.sampled_from(["exp", "sin", "cos", "tanh"]), inner).map(
                lambda p: f"{p[0]}({p[1]})"),
        ),
        max_leaves=4,
    )


EXTREME_COEFFICIENTS = extreme_expressions(EXTREME_LEAVES)
# t times a drawn part without t, which is evaluated when the coefficient is parsed.
WITH_PART_WITHOUT_T = extreme_expressions(
    [leaf for leaf in EXTREME_LEAVES if "t" not in leaf]).map(lambda e: f"t * ({e})")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(demo=st.sampled_from(sorted(builtin_models())),
       where=st.sampled_from(["observables", "hamiltonian"]),
       coeff=EXTREME_COEFFICIENTS | WITH_PART_WITHOUT_T)
@example(demo="pt-dimer-unbroken", where="hamiltonian", coeff="1e308")  # the stationary solve
@example(demo="hermitian-rabi", where="observables", coeff="t * ((1e308) * (1e308))")
def test_coefficient_near_the_float_limits_exits_with_one_documented_line(demo, where, coeff):
    doc = _fuzz_base(demo)
    if where == "hamiltonian":
        pointer = f"/hamiltonian/{len(doc['hamiltonian'])}/coeff"
        doc["hamiltonian"].append({"coeff": coeff, "matrix": SIGMA_X_JSON})
    else:
        pointer = "/observables/a/0/coeff"
        doc["observables"]["a"] = [{"coeff": coeff, "matrix": SIGMA_Z_JSON}]
    outcomes = assert_one_documented_line_each(doc)
    try:
        parse_profile(coeff)
    except (EvalError, ProfileSyntaxError) as exc:  # it fails wherever it is used
        assert outcomes == [
            (EXIT_SCENARIO, [f"error[schema]: {pointer}: bad coefficient: {exc}"])] * 3


# About half the states lie within a dozen decades of the largest float, where psi,
# adj(psi) G and E0 psi overflow; a metric past 1e12 leaves the finite range at once.
@settings(max_examples=40, derandomize=True, deadline=None)
@given(demo=st.sampled_from(sorted(builtin_models())), t1=st.floats(0.002, 0.1),
       k=st.integers(0, 308) | st.integers(296, 308),
       m=st.none() | st.integers(-12, 12) | st.integers(296, 308))
def test_valid_scenario_at_the_float_limits_exits_with_at_most_one_line(demo, t1, k, m):
    """A state scaled by 10^k and an identity or 10^m I metric: evolve (CSV and JSON) and
    verify exit 0, 3 or 4, printing nothing to stderr or one error[CODE] line, and no
    numpy warning (a warning is an error under pytest here)."""
    metric = MetricInit("identity") if m is None else MetricInit("explicit", 10.0**m * np.eye(2))
    scenario = get_demo(demo, t1=t1)
    scenario = dataclasses.replace(scenario, metric_init=metric, psi0=scenario.psi0 * 10.0**k)
    lines = {EXIT_OK: [], EXIT_NUMERIC: ["error[numeric]"], EXIT_VERIFY: ["error[verify]"]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_scenario(scenario, path)
        for argv in (["evolve", str(path), "-o", f"{tmp}/x.csv"],
                     ["evolve", str(path), "--format", "json", "-o", f"{tmp}/x.json"],
                     ["verify", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in lines, (argv, err.getvalue())
            assert [line.split(":")[0] for line in err.getvalue().splitlines()] == lines[code], (
                argv, err.getvalue())


class TestVerify:
    def test_clean_scenario(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run("verify", "demo:pt-dimer-unbroken", "-o", str(report_path), "--t1", "2.0")
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "0 unexpected failures" in table
        doc = json.loads(report_path.read_text())
        assert doc["summary"]["unexpected_failed"] == 0

    def test_undeclared_failure_sets_exit_4(self, tmp_path, capsys):
        # Strip the expected-failure declarations from the broken-phase demo,
        # so its physical failures count as unexpected.
        scenario = get_demo("pt-dimer-broken")
        path = tmp_path / "broken.json"
        save_scenario(scenario, path)
        stripped = json.loads(path.read_text())
        stripped["expected_failures"] = []
        path.write_text(json.dumps(stripped))
        code = run("verify", str(path))
        assert code == EXIT_VERIFY
        assert "error[verify]:" in capsys.readouterr().err

    def test_explicit_metric_file(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scenario(dataclasses.replace(
            get_demo("pt-dimer-unbroken"),
            metric_init=MetricInit("explicit", [[2, 0.5j], [-0.5j, 1]])), path)
        assert run("verify", str(path)) == EXIT_OK
        *rows, summary = capsys.readouterr().out.splitlines()[2:]
        assert summary == "29/30 passed, 0 unexpected failures"
        assert [row.split()[0] for row in rows if not row.endswith(" pass")] == [
            "conventional_dagger_transport"]

    @pytest.mark.parametrize("argv, line", [
        (("--node-stride=0",), "error[usage]: --node-stride must be at least 1, got 0\n"),
        (("--node-stride=-5",), "error[usage]: --node-stride must be at least 1, got -5\n"),
        (("--tolerance-scale", "2"),
         "error[usage]: unrecognized arguments: --tolerance-scale 2\n"),
    ])
    def test_invalid_suite_settings_are_usage_errors(self, capsys, monkeypatch, argv, line):
        def no_integration(*args):
            raise AssertionError("integrated before validating the flags")

        monkeypatch.setattr("metricbundle.cli.integrate", no_integration)
        assert run("verify", "demo:pt-ep", "--t1", "0.1", *argv) == EXIT_USAGE
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1", "5e-324", "1.0", "1e308"])
    def test_no_tolerance_scale_value_reaches_the_suite(self, capsys, monkeypatch, value):
        # Budgets have no outside factor: a loosening value such as 1e308 is
        # refused like an invalid one, before integrating.
        def no_integration(*args):
            raise AssertionError("integrated before validating the flags")

        monkeypatch.setattr("metricbundle.cli.integrate", no_integration)
        argv = ("verify", "demo:pt-ep", "--t1", "0.1", f"--tolerance-scale={value}")
        assert run(*argv) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error[usage]: unrecognized arguments: --tolerance-scale={value}\n")

    @pytest.mark.parametrize("node_stride", ["-1", "0", "1", "2"])
    def test_cli_and_run_suite_accept_the_same_settings(self, capsys, node_stride):
        # The CLI checks --node-stride before integrating, run_suite its argument after.
        scenario = get_demo("hermitian-rabi", t1=0.01)
        try:
            run_suite(integrate(scenario), scenario, node_stride=int(node_stride))
            rejected = False
        except ValueError:
            rejected = True
        code = run("verify", "demo:hermitian-rabi", "--t1", "0.01", f"--node-stride={node_stride}")
        assert (code == EXIT_USAGE) == rejected, capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("demo:pt-ep", "--t1", "0.05", "--node-stride", "100"),
        ("demo:hermitian-rabi", "--t1", "0.001"),
    ])
    def test_eom_checks_that_evaluate_nothing_fail(self, tmp_path, capsys, flags):
        report_path = tmp_path / "report.json"
        assert run("verify", *flags, "-o", str(report_path)) == EXIT_VERIFY
        out, err = capsys.readouterr()
        eom_rows = [line.split() for line in out.splitlines() if "_eom_fd[" in line]
        assert len(eom_rows) == 6
        for name, residual, _, status in eom_rows:
            assert (residual, status) == ("inf", "FAIL"), name
        assert err == "error[verify]: 6 unexpected check failures\n"
        doc = json.loads(report_path.read_text())
        for check in doc["checks"]:
            if "_eom_fd[" in check["name"]:
                assert check["pass"] is False
                assert check["error"].startswith("not evaluated:")

    def test_declared_eom_checks_that_evaluate_nothing_exit_0(self, tmp_path, capsys):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=0.001))
        doc["expected_failures"] = ["heisenberg_eom_fd", "heisenberg_like_eom_fd"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == EXIT_OK
        assert "24/30 passed, 0 unexpected failures" in capsys.readouterr().out

    @pytest.mark.parametrize("expected", [[""], ["norm_conservation", ""]])
    def test_empty_expected_failure_is_schema_error(self, tmp_path, capsys, expected):
        # A huge psi0 fails seven checks; "" is a prefix of every check name,
        # so declaring it would pass them all.
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["psi0"] = [[1, 0], [1e6, 0]]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("verify", str(path), "--t1", "0.05") == EXIT_VERIFY
        assert "23/30 passed, 7 unexpected failures" in capsys.readouterr().out
        doc["expected_failures"] = expected
        path.write_text(json.dumps(doc))
        assert run("verify", str(path), "--t1", "0.05") == EXIT_SCENARIO
        assert capsys.readouterr() == ("", (
            f"error[schema]: /expected_failures/{len(expected) - 1}:"
            " prefix is empty, so it matches every check\n"))

    def test_stationary_metric_on_broken_phase_is_exit_2(self, tmp_path, capsys):
        scenario = get_demo("pt-dimer-unbroken")
        path = tmp_path / "bad.json"
        save_scenario(scenario, path)
        doc = json.loads(path.read_text())
        doc["hamiltonian"][1]["coeff"] = "1.5"  # push gamma past the transition
        path.write_text(json.dumps(doc))
        assert run("verify", str(path)) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert "broken phase" in err and "error[schema]:" in err


class TestMalformedTimes:
    # (field, value, extra flags): a scenario field set to value, or flags alone.
    MALFORMED = [
        ("step", float("nan"), ()),
        ("step", "0.01", ()),
        ("step", float("inf"), ()),
        ("step", True, ()),
        ("max_steps", "10", ()),
        ("max_steps", True, ()),
        ("max_steps", 2.5, ()),
        ("t0", float("-inf"), ()),
        ("t1", float("inf"), ()),
        (None, None, ("--t1", "inf")),
        (None, None, ("--step", "inf")),
        (None, None, ("--t0=-inf",)),
    ]

    @pytest.mark.parametrize("field, value, flags", MALFORMED)
    def test_is_schema_error(self, tmp_path, capsys, field, value, flags):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi", t1=1.0))
        if field in ("step", "max_steps"):
            doc["integrator"][field] = value
        elif field is not None:
            doc[field] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("evolve", str(path), "-o", str(tmp_path / "x.csv"), *flags) == EXIT_SCENARIO
        err = capsys.readouterr().err
        assert err.startswith("error[schema]:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--t0=-1e308", "--t1=1e308"), ("--step=1e-320",)])
    def test_step_count_beyond_float_range_is_numeric_error(self, tmp_path, capsys, flags):
        assert run("evolve", "demo:hermitian-rabi", "-o", str(tmp_path / "x.csv"),
                   *flags) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error[numeric]: StepLimitExceededError: inf steps needed, max_steps is 10000000\n")

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_step_count_too_large_to_allocate_is_numeric_error(self, tmp_path, capsys, command):
        doc = scenario_to_json_dict(get_demo("hermitian-rabi"))
        doc["integrator"]["max_steps"] = 10**40
        doc["t1"] = 1e16  # 1e19 steps: more nodes than numpy can index
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(command, str(path), "-o", str(tmp_path / "x.out")) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error[numeric]: StepLimitExceededError: "
                              "cannot allocate 10000000000000000000 steps: ")

    @pytest.mark.parametrize("command, flags", [
        ("evolve", ("--step", "1e-300")),  # 1e301 steps
        ("verify", ("--t1", "1e300")),  # 1e303 steps
    ])
    def test_step_limit_line_stays_short(self, tmp_path, capsys, command, flags):
        # The step count is cut to 40 digits, as a schema error cuts a value.
        assert run(command, "demo:pt-ep", "-o", str(tmp_path / "x.out"), *flags) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error[numeric]: StepLimitExceededError: ")
        assert len(err.encode()) <= 200

    def test_step_longer_than_span_is_one_step(self, tmp_path):
        out = tmp_path / "x.csv"
        flags = ("--t1", "1", "--step", "5")
        assert run("evolve", "demo:hermitian-rabi", "-o", str(out), *flags) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3  # header and two nodes


class TestSpectrum:
    def test_stdout_lists_requested_times(self, capsys):
        code = run(
            "spectrum", "demo:time-dependent-observable",
            "--observable", "rotating", "--times", "0,1.5707963267948966",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("t=") == 2

    def test_csv_output_values(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run(
            "spectrum", "demo:pt-dimer-unbroken", "--observable", "sigma_z",
            "--times", "0,1", "-o", str(out),
        )
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["ev0_re"]) for r in rows] == [-1.0, -1.0]
        assert [float(r["ev1_re"]) for r in rows] == [1.0, 1.0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("scenario, observable", [
        ("demo:hermitian-rabi", "sigma_z"),
        ("demo:time-dependent-observable", "rotating"),
    ])
    def test_nonfinite_time_is_schema_error(self, capsys, scenario, observable, value):
        code = run("spectrum", scenario, "--observable", observable, "--times", f"0,{value}")
        assert code == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[schema]:") and captured.err.count("\n") == 1
        assert "not finite" in captured.err

    @pytest.mark.parametrize("times", [",", " "])
    def test_no_times_is_schema_error(self, capsys, times):
        code = run("spectrum", "demo:pt-dimer-unbroken", "--observable", "sigma_x",
                   "--times", times)
        assert code == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[schema]:") and captured.err.count("\n") == 1

    def test_unparsable_time_is_schema_error(self, capsys):
        code = run("spectrum", "demo:pt-ep", "--observable", "sigma_z", "--times", "0,abc")
        assert code == EXIT_SCENARIO
        assert capsys.readouterr() == (
            "", "error[schema]: bad --times value: could not convert string to float: 'abc'\n")

    def test_unknown_observable(self, capsys):
        code = run(
            "spectrum", "demo:pt-dimer-unbroken", "--observable", "nope", "--times", "0"
        )
        assert code == EXIT_SCENARIO
        assert "available" in capsys.readouterr().err

    def test_scenario_without_observables(self, tmp_path, capsys):
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken"))
        doc["observables"] = {}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run("spectrum", str(path), "--observable", "x", "--times", "0") == EXIT_SCENARIO
        assert capsys.readouterr() == ("", "error[schema]: /observables: unknown observable "
                                           "'x'; the scenario has no observables\n")


class TestDemo:
    def test_emits_loadable_scenario(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("demo", "pt-dimer-unbroken", "-o", str(out)) == EXIT_OK
        scenario = load_scenario(out)
        assert scenario.name == "pt-dimer-unbroken"

    def test_parameter_overrides(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("demo", "pt-dimer-unbroken", "--gamma", "0.25", "--t1", "2",
                   "-o", str(out)) == EXIT_OK
        scenario = load_scenario(out)
        assert scenario.t1 == 2.0
        h = scenario.hamiltonian.assemble(0.0)
        assert h[0, 0] == 0.25j

    def test_stdout_default(self, capsys):
        assert run("demo", "hermitian-rabi") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["metric"]["mode"] == "identity"

    def test_unknown_demo_name(self, capsys):
        assert run("demo", "no-such-model") == EXIT_SCENARIO
        # No document exists for a pointer to point into.
        err = capsys.readouterr().err
        assert err.startswith("error[schema]: unknown demo model 'no-such-model'; available: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, flag, shown", [
        ("pt-ep", "--s=nan", "nan"),
        ("pt-ep", "--s=inf", "inf"),
        ("pt-ep", "--s=-inf", "-inf"),
        ("pt-ep", "--s=1e400", "inf"),
        ("pt-dimer-unbroken", "--gamma=nan", "nan"),
    ])
    def test_non_finite_parameter_is_schema_error(self, capsys, name, flag, shown):
        assert run("demo", name, flag) == EXIT_SCENARIO
        param = flag[2:flag.index("=")]
        assert capsys.readouterr() == ("", (
            f"error[schema]: demo {name!r} parameter {param!r} must be finite, got {shown}\n"))

    @pytest.mark.parametrize("times", [{"t1": 0.05}, {"t0": 0.5, "t1": 0.6, "step": 0.002}])
    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_demo_routes_agree(self, tmp_path, capsys, name, times):
        # The time flags reach `demo NAME`, get_demo and `evolve demo:NAME` alike.
        flags = [f"--{key}={value!r}" for key, value in times.items()]
        assert run("demo", name, *flags) == EXIT_OK
        emitted = capsys.readouterr().out
        assert emitted == scenario_to_json_text(get_demo(name, **times))
        path = tmp_path / "s.json"
        path.write_text(emitted)
        assert run("evolve", str(path), "-o", str(tmp_path / "file.csv")) == EXIT_OK
        assert run("evolve", f"demo:{name}", *flags, "-o", str(tmp_path / "demo.csv")) == EXIT_OK
        assert (tmp_path / "demo.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    @pytest.mark.parametrize("name", ["hermitian-rabi", "pt-ep"])
    def test_parameter_the_demo_does_not_take(self, capsys, name):
        assert run("demo", name, "--gamma", "1") == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[schema]:") and captured.err.count("\n") == 1
        assert "'gamma'" in captured.err


_BROKEN_PHASE_HINT = "system in broken phase; supply explicit metric or use identity"

# Each MetricBundleError subclass: an instance, its exit code and its stderr
# line, with {} for str(instance).
_FAILURE_LINES = [
    (errors.NumericError("x"), EXIT_NUMERIC, "error[numeric]: NumericError: {}"),
    (errors.NotPositiveDefiniteError("x"), EXIT_NUMERIC,
     "error[numeric]: NotPositiveDefiniteError: {}"),
    (errors.SingularMatrixError("x"), EXIT_NUMERIC, "error[numeric]: SingularMatrixError: {}"),
    (errors.EigenConvergenceError("x"), EXIT_NUMERIC, "error[numeric]: EigenConvergenceError: {}"),
    (errors.NonFiniteError("x", 3, 0.5, "g"), EXIT_NUMERIC, "error[numeric]: NonFiniteError: {}"),
    (errors.StepLimitExceededError("x"), EXIT_NUMERIC,
     "error[numeric]: StepLimitExceededError: {}"),
    (errors.SchemaError("x", "/t1"), EXIT_SCENARIO, "error[schema]: {}"),
    (errors.NoPositiveDefiniteSolutionError("x"), EXIT_SCENARIO,
     f"error[schema]: {{}} ({_BROKEN_PHASE_HINT})"),
    (errors.DimensionMismatchError("x"), EXIT_SCENARIO,
     "error[schema]: DimensionMismatchError: {}"),
    (errors.NotHermitianError("x"), EXIT_SCENARIO, "error[schema]: NotHermitianError: {}"),
    (errors.ProfileSyntaxError("x", 2), EXIT_SCENARIO, "error[schema]: ProfileSyntaxError: {}"),
    (errors.EvalError("x", None), EXIT_SCENARIO, "error[schema]: EvalError: {}"),
]


def _subclasses(cls) -> set:
    return {sub for child in cls.__subclasses__() for sub in (child, *_subclasses(child))}


class TestFailureClasses:
    def test_every_error_class_has_its_exit_code_and_line(self, capsys):
        # A new error class fails here until it is given a row, so it cannot
        # pick up an exit code unnoticed.
        assert {type(exc) for exc, _, _ in _FAILURE_LINES} == _subclasses(errors.MetricBundleError)
        for exc, code, line in _FAILURE_LINES:
            assert report_failure(exc) == code, type(exc)
            assert capsys.readouterr() == ("", line.format(exc) + "\n"), type(exc)
        numeric = {type(exc) for exc, code, _ in _FAILURE_LINES if code == EXIT_NUMERIC}
        assert numeric == {errors.NumericError, *_subclasses(errors.NumericError)}


class TestUsage:
    @staticmethod
    def assert_one_usage_line(capsys, message):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[usage]: {message}")
        assert captured.err.count("\n") == 1

    def test_no_arguments(self, capsys):
        assert run() == EXIT_USAGE
        self.assert_one_usage_line(capsys, "the following arguments are required: command\n")

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == EXIT_USAGE
        self.assert_one_usage_line(capsys, "argument command: invalid choice: 'frobnicate' ")

    def test_bad_flag_value(self, capsys):
        assert run("evolve", "demo:hermitian-rabi", "-o", "x.csv", "--step", "lots") == EXIT_USAGE
        self.assert_one_usage_line(capsys, "argument --step: invalid float value: 'lots'\n")

    @pytest.mark.parametrize("argv, message", [
        (("evolve", "demo:hermitian-rabi"), "the following arguments are required: -o/--output"),
        (("verify", "demo:hermitian-rabi", "--frobnicate"),
         "unrecognized arguments: --frobnicate"),
        # spectrum evaluates operators at its --times and integrates nothing.
        (("spectrum", "demo:pt-ep", "--observable", "sigma_z", "--times", "0", "--t1", "2"),
         "unrecognized arguments: --t1 2"),
        # "-x" is an option, not a value: only "-" and a digit, "-." and a digit,
        # "-inf" or "-nan" is.
        (("evolve", "demo:pt-ep", "-o", "x.csv", "--t1", "-x"),
         "argument --t1: expected one argument"),
    ])
    def test_parser_error_is_one_usage_line(self, capsys, argv, message):
        assert run(*argv) == EXIT_USAGE
        self.assert_one_usage_line(capsys, message + "\n")

    @pytest.mark.parametrize("argv, flag, value, code, err", [
        (("spectrum", "demo:time-dependent-observable", "--observable", "rotating"),
         "--times", "-1,0", EXIT_OK, ""),
        (("evolve", "demo:pt-ep", "--t1", "0.01", "-o", "{out}"), "--t0", "-1e-3", EXIT_OK, ""),
        (("demo", "pt-ep"), "--s", "-1e-1", EXIT_OK, ""),
        (("demo", "pt-ep"), "--s", "-.5", EXIT_OK, ""),
        # A negative non-finite value reaches the check that refuses it.
        (("evolve", "demo:pt-ep", "--t1", "0.01", "-o", "{out}"), "--t0", "-inf",
         EXIT_SCENARIO, "error[schema]: /t0: must be a finite number, got -inf\n"),
        (("evolve", "demo:pt-ep", "--t1", "0.01", "-o", "{out}"), "--t0", "-Infinity",
         EXIT_SCENARIO, "error[schema]: /t0: must be a finite number, got -inf\n"),
        (("spectrum", "demo:pt-ep", "--observable", "sigma_z"), "--times", "-inf",
         EXIT_SCENARIO, "error[schema]: bad --times value: -inf is not finite\n"),
        (("demo", "pt-ep"), "--s", "-nan",
         EXIT_SCENARIO, "error[schema]: demo 'pt-ep' parameter 's' must be finite, got nan\n"),
        (("demo", "pt-ep"), "--s", "-NaN",
         EXIT_SCENARIO, "error[schema]: demo 'pt-ep' parameter 's' must be finite, got nan\n"),
    ])
    def test_negative_value_after_a_flag_is_a_value(
            self, tmp_path, capsys, argv, flag, value, code, err):
        # argparse alone reads "-1e-3", "-1,0" and "-inf" as options; "--flag=value"
        # always worked.
        outputs = []
        for spelling in ((flag, value), (f"{flag}={value}",)):
            out = tmp_path / f"{len(outputs)}.csv"
            assert run(*(a.format(out=out) for a in argv), *spelling) == code
            captured = capsys.readouterr()
            assert captured.err == err
            outputs.append((captured.out, out.read_text() if out.exists() else None))
        assert outputs[0] == outputs[1]

    def test_unwritable_output_is_one_usage_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run("evolve", "demo:pt-ep", "--t1", "0.01", "-o", str(out)) == EXIT_USAGE
        self.assert_one_usage_line(capsys, f"[Errno 2] No such file or directory: '{out}'\n")

    @pytest.mark.parametrize("directory", ["no\ndir", "no\u2028dir"])
    def test_output_path_with_a_line_break_is_one_usage_line(self, tmp_path, capsys, directory):
        # OSError's text shows the file name as its repr, which escapes line breaks.
        out = tmp_path / directory / "x.csv"
        assert run("evolve", "demo:pt-ep", "--t1", "0.01", "-o", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error[usage]: [Errno 2] No such file or directory: {str(out)!r}"]

    def test_help_exits_ok(self, capsys):
        assert run("evolve", "--help") == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: metricbundle evolve") and captured.err == ""

    def test_unknown_demo_reference(self, tmp_path, capsys):
        assert run("evolve", "demo:bogus", "-o", str(tmp_path / "x.csv")) == EXIT_SCENARIO


class TestLogging:
    ARGV = ("evolve", "demo:hermitian-rabi", "--t1", "0.01")

    def lines(self, out):
        return ("INFO metricbundle: integrating hermitian-rabi\n"
                f"INFO metricbundle: wrote {out} (11 nodes)\n")

    @pytest.mark.parametrize("level, shown", [
        ("info", True), ("debug", True), ("quiet", False), ("verbose", False),
    ])
    def test_level_in_a_fresh_process(self, tmp_path, level, shown):
        out = tmp_path / "x.csv"
        proc = run_fresh(*self.ARGV, "-o", str(out), METRICBUNDLE_LOG=level)
        assert proc.returncode == EXIT_OK
        assert (proc.stdout, proc.stderr) == ("", self.lines(out) if shown else "")

    def test_each_call_writes_to_the_stderr_of_its_time(self, tmp_path, monkeypatch):
        monkeypatch.setenv("METRICBUNDLE_LOG", "info")
        out = tmp_path / "x.csv"
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run(*self.ARGV, "-o", str(out)) == EXIT_OK
            assert err.getvalue() == self.lines(out)

    def test_level_is_read_at_each_call(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "x.csv"
        for level, shown in (("quiet", False), ("info", True), ("quiet", False)):
            monkeypatch.setenv("METRICBUNDLE_LOG", level)
            assert run(*self.ARGV, "-o", str(out)) == EXIT_OK
            assert capsys.readouterr().err == (self.lines(out) if shown else "")


class TestExitCodesInAFreshProcess:
    """Each documented exit code through the process entry point, not only `main`'s return."""

    def assert_one_error_line(self, proc, code: int, kind: str) -> str:
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = [line for line in proc.stderr.splitlines() if line.startswith("error[")]
        assert len(lines) == 1 and lines[0].startswith(f"error[{kind}]: "), proc.stderr
        return lines[0]

    def test_usage(self, tmp_path):
        proc = run_fresh("evolve", "demo:pt-ep", "--t1", "abc", "-o", str(tmp_path / "x.csv"))
        self.assert_one_error_line(proc, EXIT_USAGE, "usage")

    def test_scenario(self, tmp_path):
        proc = run_fresh("evolve", "demo:nope", "-o", str(tmp_path / "x.csv"))
        self.assert_one_error_line(proc, EXIT_SCENARIO, "schema")

    def test_numeric_blow_up(self, tmp_path):
        path = tmp_path / "blow.json"
        made = run_fresh("demo", "pt-dimer-broken", "--s", "1", "--gamma", "3", "--t1", "15",
                         "-o", str(path))
        assert (made.returncode, made.stderr) == (EXIT_OK, "")
        proc = run_fresh("evolve", str(path), "-o", str(tmp_path / "x.csv"))
        line = self.assert_one_error_line(proc, EXIT_NUMERIC, "numeric")
        assert line == ("error[numeric]: NonFiniteError: channel left the finite range "
                        "(node 4869, t = 4.869, channel g)")

    def test_unexpected_verify_failures(self, tmp_path):
        path = tmp_path / "broken.json"
        save_scenario(dataclasses.replace(get_demo("pt-dimer-broken", t1=0.75),
                                          expected_failures=()), path)
        proc = run_fresh("verify", str(path))
        self.assert_one_error_line(proc, EXIT_VERIFY, "verify")
        # The report table reaches stdout in full before the process exits.
        assert proc.stdout.endswith("23/30 passed, 7 unexpected failures\n")


class TestFloatLimitsInAFreshProcess:
    """Valid scenarios whose state overflows: no numpy warning reaches stderr."""

    def test_evolve_with_an_overflowing_state_is_silent(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(dataclasses.replace(get_demo("pt-dimer-broken"),
                                          psi0=np.array([1e305, 0], dtype=complex)), path)
        for fmt in ("csv", "json"):
            proc = run_fresh("evolve", str(path), "--format", fmt, "-o", str(tmp_path / f"x.{fmt}"))
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), fmt

    def test_verify_with_an_overflowing_frozen_state_prints_one_line(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(dataclasses.replace(
            get_demo("pt-dimer-unbroken", t1=0.05),
            metric_init=MetricInit("explicit", 1e10 * np.eye(2)),
            psi0=np.array([1e308, 0], dtype=complex)), path)
        proc = run_fresh("verify", str(path))
        assert (proc.returncode, proc.stderr) == (
            EXIT_VERIFY, "error[verify]: 9 unexpected check failures\n")

    @staticmethod
    def metric_file(tmp_path, matrix) -> str:
        """pt-dimer-unbroken to t1 0.05 with the explicit metric matrix, written as given."""
        doc = scenario_to_json_dict(get_demo("pt-dimer-unbroken", t1=0.05))
        doc["metric"] = {"mode": "explicit", "matrix": [[[x, 0.0] for x in row] for row in matrix]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["evolve"], ["verify"], ["spectrum", "--observable", "sigma_x", "--times", "0"]])
    def test_indefinite_metric_near_the_float_limit_is_rejected(self, tmp_path, argv):
        # Smallest eigenvalue -5e307; g + adj(g) overflows, (g + adj(g)) / 2 does not.
        path = self.metric_file(tmp_path, [[1e308, 1.5e308], [1.5e308, 1e308]])
        proc = run_fresh(argv[0], path, *argv[1:], "-o", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr) == (EXIT_SCENARIO, (
            "error[schema]: /metric/matrix: explicit metric is not positive-definite\n"))

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_metric_at_the_float_limit_leaves_the_finite_range_with_one_line(self, tmp_path,
                                                                              command):
        path = self.metric_file(tmp_path, [[1e308, 0.0], [0.0, 1e308]])
        proc = run_fresh(command, path, "-o", str(tmp_path / "out"))
        assert (proc.returncode, proc.stderr) == (EXIT_NUMERIC, (
            "error[numeric]: NonFiniteError: channel left the finite range "
            "(node 1, t = 0.001, channel g)\n"))
