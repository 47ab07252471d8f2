import json
import math

import numpy as np
import pytest

import bellbox as bb
from bellbox.cli import main
from conftest import decode_local_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def uniform_file(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(bb.behavior_to_json_dict(bb.uniform_behavior(bb.Scenario()))))
    return str(path)


@pytest.fixture()
def chained_file(tmp_path, chained_target):
    path = tmp_path / "chained.json"
    path.write_text(json.dumps(bb.behavior_to_json_dict(chained_target)))
    return str(path)


class TestQuantum:
    def test_writes_behavior_file(self, tmp_path, capsys, chained_target):
        out = tmp_path / "behavior.json"
        code, stdout, _ = run_cli(
            capsys,
            "quantum",
            "--state", "singlet",
            "--angles-a", "120,0,60",
            "--angles-b", "120,0,60",
            "--out", str(out),
        )
        assert code == 0
        written = bb.behavior_from_json_dict(json.loads(out.read_text()))
        unswapped = bb.relabel_outputs(chained_target, "B", (1, 0))
        np.testing.assert_allclose(written.p, unswapped.p, atol=1e-12)
        echoed = json.loads(stdout)
        assert echoed["settings_a"] == 3

    def test_nan_angle_rejected(self, tmp_path, capsys):
        out = tmp_path / "nan.json"
        code, stdout, err = run_cli(
            capsys,
            "quantum", "--state", "singlet", "--angles-a", "nan,90", "--angles-b", "45,135",
            "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: block") and "nan" in err
        assert not out.exists()

    def test_nan_angle_message(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "quantum", "--state", "singlet", "--angles-a", "nan,90", "--angles-b", "45,135",
            "--out", str(tmp_path / "nan.json"),
        )
        assert (code, err) == (2, "error: block (0, 0) sums to nan (off by nan)\n")

    def test_bad_state_spec(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "quantum", "--state", "bogus", "--angles-a", "0", "--angles-b", "0",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "error:" in err


class TestSimulateEstimate:
    def test_pipeline(self, tmp_path, capsys, uniform_file):
        log_path = tmp_path / "runs.jsonl"
        code, stdout, _ = run_cli(
            capsys,
            "simulate",
            "--behavior", uniform_file,
            "--runs", "5000",
            "--seed", "3",
            "--geometry", "400,1e-6",
            "--out", str(log_path),
        )
        assert code == 0
        assert json.loads(stdout)["runs"] == 5000
        with log_path.open() as lines:
            assert sum(1 for _ in lines) == 5000

        est_path = tmp_path / "est.json"
        code, stdout, _ = run_cli(capsys, "estimate", "--runs", str(log_path), "--out", str(est_path))
        assert code == 0
        document = json.loads(est_path.read_text())
        assert set(document) == {
            "settings_a", "settings_b", "outcomes_a", "outcomes_b", "p", "stderr", "totals",
        }
        assert sum(sum(row) for row in document["totals"]) == 5000

        # The estimate file is loadable wherever a behavior is expected.
        code, stdout, _ = run_cli(capsys, "classify", "--behavior", str(est_path), "--tol", "0.05")
        assert code == 0
        assert json.loads(stdout)["kind"] in {"Local", "WeaklyNonlocal", "Signalling"}

    def test_simulate_deterministic_stdout_and_file(self, tmp_path, capsys, uniform_file):
        argv = [
            "simulate", "--behavior", uniform_file, "--runs", "200", "--seed", "12",
            "--geometry", "400,1e-6",
        ]
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        code1, stdout1, _ = run_cli(capsys, *argv, "--out", str(out1))
        code2, stdout2, _ = run_cli(capsys, *argv, "--out", str(out2))
        assert code1 == code2 == 0
        assert stdout1.replace(str(out1), "") == stdout2.replace(str(out2), "")
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("chunk, runs", [(7, 1), (7, 6), (7, 7), (7, 8), (7, 26), (None, 1), (None, 20_000)])
    def test_simulate_writes_the_library_log(self, tmp_path, capsys, monkeypatch, chained_target, chunk, runs):
        # The CLI streams the log a chunk at a time; the bytes are those of the whole log written at once.
        if chunk is not None:
            monkeypatch.setattr(bb.runs, "_CHUNK_RECORDS", chunk)
        behavior = bb.apply_fair_sampling(chained_target, 0.7, 0.9)
        behavior_path = tmp_path / "behavior.json"
        behavior_path.write_text(json.dumps(bb.behavior_to_json_dict(behavior)))
        code, stdout, _ = run_cli(
            capsys,
            "simulate", "--behavior", str(behavior_path), "--runs", str(runs), "--seed", "11", "--stream", "3",
            "--geometry", "400,1e-6", "--out", str(tmp_path / "cli.jsonl"),
        )
        assert code == 0
        assert json.loads(stdout)["runs"] == runs
        loaded = bb.behavior_from_json_dict(json.loads(behavior_path.read_text()))
        bb.write_run_log(bb.simulate(loaded, runs, 11, bb.Geometry(400.0, 1e-6), stream=3), tmp_path / "lib.jsonl")
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()

    def test_bad_geometry(self, capsys, uniform_file, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate", "--behavior", uniform_file, "--runs", "10", "--seed", "1",
            "--geometry", "400", "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "geometry" in err


class TestClassify:
    def test_uniform_is_local(self, capsys, uniform_file):
        code, stdout, _ = run_cli(capsys, "classify", "--behavior", uniform_file)
        assert code == 0
        document = json.loads(stdout)
        assert document["kind"] == "Local"
        assert document["witness"] is None
        assert document["decomposition"] is not None

    def test_chained_target_weakly_nonlocal(self, capsys, chained_file):
        code, stdout, _ = run_cli(capsys, "classify", "--behavior", chained_file)
        assert code == 0
        document = json.loads(stdout)
        assert document["kind"] == "WeaklyNonlocal"
        witness = document["witness"]
        assert witness["margin"] > 0
        assert witness["value"] < witness["reference_bound"]

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "0.5"])
    def test_tol_outside_range_rejected(self, capsys, chained_file, tol):
        code, stdout, err = run_cli(capsys, "classify", "--behavior", chained_file, "--tol", tol)
        assert code == 2
        assert stdout == ""
        assert "outside (0, 0.1]" in err

    def test_tol_in_range_accepted(self, capsys, chained_file):
        code, stdout, _ = run_cli(capsys, "classify", "--behavior", chained_file, "--tol", "0.05")
        assert code == 0
        assert json.loads(stdout)["kind"] == "WeaklyNonlocal"

    def test_missing_file(self, capsys):
        code, stdout, err = run_cli(capsys, "classify", "--behavior", "missing.json")
        assert code == 2
        assert stdout == ""
        assert err.strip().startswith("error:")

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "classify", "--behavior", str(bad))
        assert code == 2

    def test_unknown_field_in_behavior(self, tmp_path, capsys):
        data = bb.behavior_to_json_dict(bb.uniform_behavior(bb.Scenario()))
        data["extra"] = 1
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "classify", "--behavior", str(bad))
        assert code == 2


class TestInequality:
    def test_literal_on_uniform(self, capsys, uniform_file):
        code, stdout, _ = run_cli(
            capsys, "inequality", "--behavior", uniform_file, "--form", "literal", "--indices", "0"
        )
        assert code == 0
        document = json.loads(stdout)
        assert document["value"] == 0.25
        assert document["local_min"] == -1.0
        assert document["reference_bound"] == 0.0

    def test_chained_on_target(self, capsys, chained_file):
        code, stdout, _ = run_cli(
            capsys, "inequality", "--behavior", chained_file, "--form", "chained", "--indices", "1,2,0"
        )
        assert code == 0
        document = json.loads(stdout)
        assert document["value"] == -0.125
        assert document["local_min"] == -1.0  # general vertices still reach -1

    def test_wrong_index_count(self, capsys, uniform_file):
        code, _, err = run_cli(
            capsys, "inequality", "--behavior", uniform_file, "--form", "chained", "--indices", "1"
        )
        assert code == 2


class TestEfficiency:
    def test_local_target(self, tmp_path, capsys, uniform_file):
        model_out = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys,
            "efficiency", "--target", uniform_file, "--mode", "strict",
            "--model-out", str(model_out),
        )
        assert code == 0
        document = json.loads(stdout)
        assert document["eta_star"] == 1.0
        assert document["mode"] == "strict"
        assert document["trace"] == [[0.0, True], [1.0, True]]
        # At eta = 1 the written model's click-click blocks are the target itself.
        extended = bb.Scenario().with_no_click()
        model = decode_local_model(json.loads(model_out.read_text()), extended)
        coincidences = bb.model_behavior(model, extended).p[:, :, :2, :2]
        np.testing.assert_allclose(coincidences, bb.uniform_behavior(bb.Scenario()).p, rtol=0, atol=1e-9)

    def test_strict_chsh_prints_the_exact_threshold(self, capsys, tmp_path):
        # Garg and Mermin's 2/(1+sqrt 2) = 0.828427124746..., and the
        # certified bracket around it.
        path = tmp_path / "chsh.json"
        assert run_cli(
            capsys, "quantum", "--state", "singlet", "--angles-a", "0,90", "--angles-b", "45,135",
            "--out", str(path),
        )[0] == 0
        code, stdout, _ = run_cli(capsys, "efficiency", "--target", str(path), "--mode", "strict")
        assert code == 0
        assert stdout == (
            '{"eta_star": 0.828427124746, "mode": "strict", "trace": [[0.0, true], [1.0, false], '
            "[0.827927124746, true], [0.828927124746, false]]}\n"
        )

    def test_tol_eta_flag(self, capsys, tmp_path):
        # 2-setting uniform target stays fast even with a fine tolerance.
        path = tmp_path / "u2.json"
        path.write_text(json.dumps(bb.behavior_to_json_dict(bb.uniform_behavior(bb.Scenario(2, 2)))))
        code, stdout, _ = run_cli(
            capsys, "efficiency", "--target", str(path), "--tol-eta", "0.01"
        )
        assert code == 0
        assert json.loads(stdout)["eta_star"] == 1.0

    def test_tol_eta_below_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "u2.json"
        path.write_text(json.dumps(bb.behavior_to_json_dict(bb.uniform_behavior(bb.Scenario(2, 2)))))
        code, stdout, stderr = run_cli(
            capsys, "efficiency", "--target", str(path), "--tol-eta", "1e-10"
        )
        assert (code, stdout) == (2, "")
        assert "tol_eta 1e-10 outside [1e-9, 0.1]" in stderr


class TestAudit:
    def test_audit_output(self, tmp_path, capsys, uniform_file):
        log_path = tmp_path / "runs.jsonl"
        run_cli(
            capsys,
            "simulate", "--behavior", uniform_file, "--runs", "900", "--seed", "4",
            "--geometry", "400,1e-6", "--out", str(log_path),
        )
        code, stdout, _ = run_cli(capsys, "audit", "--runs", str(log_path), "--geometry", "400,1e-6")
        assert code == 0
        document = json.loads(stdout)
        assert document["locality"]["pass"] is True
        assert document["locality"]["margin_meters"] == 100.207542
        assert list(document["randomness"]) == [
            "chi_square_uniformity", "dof_uniformity", "chi_square_independence", "dof_independence"
        ]
        assert document["randomness"]["dof_uniformity"] == 8
        assert document["randomness"]["dof_independence"] == 4

    def test_failing_geometry(self, tmp_path, capsys, uniform_file):
        log_path = tmp_path / "runs.jsonl"
        run_cli(
            capsys,
            "simulate", "--behavior", uniform_file, "--runs", "50", "--seed", "4",
            "--geometry", "400,1e-6", "--out", str(log_path),
        )
        code, stdout, _ = run_cli(capsys, "audit", "--runs", str(log_path), "--geometry", "200,1e-6")
        assert code == 0
        assert json.loads(stdout)["locality"]["pass"] is False

    def test_bad_geometry_exits_2_before_reading_the_log(self, tmp_path, capsys):
        # The flag is checked first, so a bad one costs no pass over a long log.
        missing = tmp_path / "missing.jsonl"
        code, stdout, stderr = run_cli(capsys, "audit", "--runs", str(missing), "--geometry", "400")
        assert code == 2
        assert stdout == ""
        assert "--geometry takes L,T" in stderr
        assert "missing.jsonl" not in stderr


class TestRunLogTimes:
    @pytest.mark.parametrize("command", ["estimate", "audit"])
    def test_time_violation_exits_2_naming_line(self, tmp_path, capsys, uniform_file, command):
        log_path = tmp_path / "runs.jsonl"
        run_cli(
            capsys,
            "simulate", "--behavior", uniform_file, "--runs", "40", "--seed", "4",
            "--geometry", "400,1e-6", "--out", str(log_path),
        )
        lines = log_path.read_text().splitlines()
        record = json.loads(lines[29])
        record["tr"] = -1e-6
        lines[29] = json.dumps(record, separators=(",", ":"))
        log_path.write_text("\n".join(lines) + "\n")
        extra = ["--out", str(tmp_path / "est.json")] if command == "estimate" else ["--geometry", "400,1e-6"]
        code, stdout, err = run_cli(capsys, command, "--runs", str(log_path), *extra)
        assert code == 2
        assert stdout == ""
        assert "runs.jsonl:30: outputs cannot be reported before t=0" in err


    @pytest.mark.parametrize("command", ["estimate", "audit"])
    def test_huge_setting_index_exits_2_before_allocating(self, tmp_path, capsys, command):
        # One record naming alpha 2,000,000 once cost a 289 MB count array.
        log_path = tmp_path / "runs.jsonl"
        log_path.write_text('{"i":0,"alpha":2000000,"beta":0,"a":"+","b":"-","tca":-1e-7,"tcb":-1e-7,"tr":1e-6}\n')
        extra = ["--out", str(tmp_path / "est.json")] if command == "estimate" else ["--geometry", "400,1e-6"]
        code, stdout, err = run_cli(capsys, command, "--runs", str(log_path), *extra)
        assert (code, stdout) == (2, "")
        assert "runs.jsonl:1: 2000001 x 1 settings exceed the cap of 65536 setting pairs" in err


class TestFlagHandling:
    def test_unknown_flag_rejected(self, capsys, uniform_file):
        code, _, _ = run_cli(capsys, "classify", "--behavior", uniform_file, "--frobnicate", "1")
        assert code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quantum", "--state", "singlet", "--angles-a", "x,90", "--angles-b", "0,45", "--out", "{out}"],
             "error: --angles-a must be comma-separated numbers, got 'x,90'"),
            (["quantum", "--state", "amps:nan,0,0,0,0,0,0,0", "--angles-a", "0,90", "--angles-b", "45,135",
              "--out", "{out}"], "error: state norm^2 is nan, expected 1 within 1e-12"),
            (["inequality", "--behavior", "{behavior}", "--form", "literal", "--indices", "1,2"],
             "error: --form literal takes a single index k"),
            (["inequality", "--behavior", "{ternary}", "--form", "chained", "--indices", "1,2,0"],
             "error: this functional requires binary outcomes on both sides"),
            (["simulate", "--behavior", "{behavior}", "--runs", "10", "--seed", "1", "--geometry", "400,inf",
              "--out", "{out}"], "error: L and T must be finite and positive, got 400.0, inf"),
            (["audit", "--runs", "{runs}", "--geometry", "inf,1e-6"],
             "error: L and T must be finite and positive, got inf, 1e-06"),
            (["simulate", "--behavior", "{behavior}", "--runs", "100000", "--seed", "1", "--geometry", "400,1e-320",
              "--out", "{out}"], "error: T must exceed 2.2250738585072014e-308, the least normal double, got 1e-320"),
            (["audit", "--runs", "{runs}", "--geometry", "400,1e-320"],
             "error: T must exceed 2.2250738585072014e-308, the least normal double, got 1e-320"),
            (["simulate", "--behavior", "{behavior}", "--runs", "10", "--seed", "-1", "--geometry", "400,1e-6",
              "--out", "{out}"], "error: seed must be >= 0, got -1"),
            (["simulate", "--behavior", "{behavior}", "--runs", "10", "--seed", "1", "--stream", "-1",
              "--geometry", "400,1e-6", "--out", "{out}"], "error: stream must be >= 0, got -1"),
        ],
        ids=["angles", "nan-amplitudes", "literal-indices", "ternary-inequality", "simulate-infinite-T",
             "audit-infinite-L", "simulate-subnormal-T", "audit-subnormal-T", "negative-seed", "negative-stream"],
    )
    def test_bad_values_exit_2(self, capsys, tmp_path, uniform_file, argv, message):
        runs_path = tmp_path / "runs.jsonl"
        bb.write_run_log(bb.simulate(bb.uniform_behavior(bb.Scenario()), 10, 1, bb.Geometry(400.0, 1e-6)), runs_path)
        ternary_path = tmp_path / "ternary.json"
        ternary_path.write_text(json.dumps(bb.behavior_to_json_dict(bb.uniform_behavior(bb.Scenario().with_no_click()))))
        out = tmp_path / "out.json"
        paths = {"behavior": uniform_file, "ternary": str(ternary_path), "runs": str(runs_path), "out": str(out)}
        code, stdout, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, stdout, err) == (2, "", message + "\n")
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        code, stdout, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_twelve_significant_digits(self, capsys, tmp_path):
        # A value with a long mantissa is rounded to 12 significant digits
        # on stdout while the file keeps full precision.
        out = tmp_path / "b.json"
        code, stdout, _ = run_cli(
            capsys,
            "quantum", "--state", "singlet",
            "--angles-a", "10,20,30", "--angles-b", "0,45,90",
            "--out", str(out),
        )
        assert code == 0
        echoed = json.loads(stdout)["p"][0][0][0][0]
        exact = json.loads(out.read_text())["p"][0][0][0][0]
        assert echoed == float(f"{exact:.12g}")
        significant = f"{echoed}".split("e")[0].replace(".", "").lstrip("-0")
        assert len(significant) <= 12
