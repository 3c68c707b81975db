import csv
import json

import numpy as np
import pytest

from metricbundle.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SCENARIO,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from metricbundle.model import (
    load_scenario,
    save_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
)
from metricbundle.zoo import get_demo


def run(*argv):
    return main(list(argv))


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

    @pytest.mark.parametrize("flag, value", [
        ("--tolerance-scale", "inf"),
        ("--tolerance-scale", "-inf"),
        ("--tolerance-scale", "nan"),
        ("--tolerance-scale", "0"),
        ("--tolerance-scale", "-1"),
        ("--node-stride", "0"),
        ("--node-stride", "-5"),
    ])
    def test_invalid_suite_settings_are_usage_errors(self, capsys, monkeypatch, flag, value):
        def no_integration(*args):
            raise AssertionError("integrated before validating the flags")

        monkeypatch.setattr("metricbundle.cli.integrate", no_integration)
        assert run("verify", "demo:pt-dimer-unbroken", f"{flag}={value}") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error[usage]:") and err.count("\n") == 1
        assert flag in err

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

    def test_unknown_observable(self, capsys):
        code = run(
            "spectrum", "demo:pt-dimer-unbroken", "--observable", "nope", "--times", "0"
        )
        assert code == EXIT_SCENARIO
        assert "available" in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", ["hermitian-rabi", "pt-ep"])
    def test_parameter_the_demo_does_not_take(self, capsys, name):
        assert run("demo", name, "--gamma", "1") == EXIT_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[schema]:") and captured.err.count("\n") == 1
        assert "'gamma'" in captured.err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run() == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == EXIT_USAGE

    def test_bad_flag_value(self, capsys):
        assert run("evolve", "demo:hermitian-rabi", "-o", "x.csv", "--step", "lots") == EXIT_USAGE

    def test_unknown_demo_reference(self, tmp_path, capsys):
        assert run("evolve", "demo:bogus", "-o", str(tmp_path / "x.csv")) == EXIT_SCENARIO
