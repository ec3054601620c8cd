"""Tests for the command-line interface."""

import json

import pytest

from eulerdd import analysis, group_theory
from eulerdd.cli import build_parser, main
from eulerdd.io import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for name in ("carr-purcell", "pauli", "spin-flip", "symmetric-s3"):
            assert name in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "list", "--json")
        assert code == 0
        doc = json.loads(out)
        assert [d["name"] for d in doc] == ["carr-purcell", "pauli",
                                            "spin-flip", "symmetric-s3"]
        assert [d["cycle_length"] for d in doc] == [2, 8, 8, 12]


class TestVerify:
    def test_carr_purcell_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scenario", "carr-purcell",
                           "--trials", "5")
        assert code == 0
        assert "FAIL" not in out
        assert "[PASS] carr-purcell/symmetrization" in out

    def test_all_builtins_pass(self, capsys):
        for name in ("pauli", "spin-flip", "symmetric-s3"):
            code, out, _ = run(capsys, "verify", "--scenario", name,
                               "--trials", "3")
            assert code == 0, out

    def test_unknown_scenario_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--scenario", "nope")
        assert code == 2
        assert "error:" in err

    def test_json_summary_written(self, capsys, tmp_path):
        out_file = tmp_path / "summary.json"
        code, _, _ = run(capsys, "verify", "--scenario", "carr-purcell",
                         "--trials", "5", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["scenario"] == "carr-purcell"
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "fault-sy-vanishes" in names
        assert "fault-sx-central" in names

    def test_deterministic_summaries(self, capsys, tmp_path):
        files = [tmp_path / "a.json", tmp_path / "b.json"]
        for f in files:
            code, _, _ = run(capsys, "verify", "--scenario", "pauli",
                             "--trials", "5", "--seed", "3", "--out", str(f))
            assert code == 0
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: spin-flip\noverrides:\n  trials: 3\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "linear-noise-suppressed" in out

    def test_spin_flip_n6_verifies_without_d4_arrays(self, capsys, tmp_path):
        # d = 64: one d^2 x d^2 complex array is 256 MiB, eight times the bound
        import tracemalloc
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: spin-flip\noverrides:\n  n_qubits: 6\n")
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "verify", "--config", str(cfg), "--json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert peak < 32 * 2 ** 20

    def test_pauli_n4_passes(self, capsys, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: pauli\noverrides:\n  n_qubits: 4\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["checks"])
        length = next(c for c in doc["checks"] if c["name"] == "cycle-length")
        assert length["value"] == 2048

    def test_pauli_builds_center_and_irreps_once(self, capsys, monkeypatch):
        # robustness_report asks for both once per fault, ten faults in all
        calls = {}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for name in ("_center_basis", "_decompose_irreps"):
            counting(group_theory, name)
        for name in ("center_basis", "decompose_irreps"):
            counting(analysis, name)
        code, _, _ = run(capsys, "verify", "--scenario", "pauli", "--json")
        assert code == 0
        assert calls == {"center_basis": 10, "decompose_irreps": 10,
                         "_center_basis": 1, "_decompose_irreps": 1}

    def test_non_integer_override_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: carr-purcell\noverrides:\n  cycles: abc\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "error: override cycles must be an integer" in err

    def test_inline_scenario_named_pauli_gets_generic_checks(self, capsys, tmp_path):
        # the one-qubit flip group {I, sigma_x}: the qubit error-basis checks
        # of the built-in pauli scenario do not apply to it
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario:\n  name: pauli\n  generators:\n"
                       "    - dim: [2, 2]\n"
                       "      data: [[0, 0], [1, 0], [1, 0], [0, 0]]\n"
                       "  profiles:\n"
                       "    - axis:\n"
                       "        dim: [2, 2]\n"
                       "        data: [[0, 0], [1, 0], [1, 0], [0, 0]]\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "cycle-length", "eulerian-cycle-valid", "symmetrization",
            "projector-idempotent", "qmap-commutant-valued"]

    def test_inline_scenario_without_profiles_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario:\n  generators:\n"
                       "    - dim: [2, 2]\n"
                       "      data: [[0, 0], [1, 0], [1, 0], [0, 0]]\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "no profile" in err


SX_DOC = "{dim: [2, 2], data: [[0, 0], [1, 0], [1, 0], [0, 0]]}"


@pytest.mark.parametrize("body", [
    "  generators: 5\n  profiles: [{axis: %s}]\n" % SX_DOC,
    "  generators: [%s]\n  profiles: 5\n" % SX_DOC,
    "  generators: [%s]\n  profiles: [{axis: %s}]\n  path: 5\n" % (SX_DOC, SX_DOC),
    "  generators: [%s]\n  profiles: [abc]\n" % SX_DOC,
    "  generators: [%s]\n  profiles: [{axis: %s}, {axis: %s}]\n"
    % (SX_DOC, SX_DOC, SX_DOC),
    "  generators: [%s, %s]\n  profiles: [{axis: %s}, {axis: %s}]\n"
    % (SX_DOC, SX_DOC, SX_DOC, SX_DOC),
], ids=["generators-int", "profiles-int", "path-int", "profile-str",
        "extra-profile", "repeated-generator"])
def test_malformed_inline_scenario_exits_2(capsys, tmp_path, body):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario:\n" + body)
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("body,path", [
    ("  n_qubits: abc\n  generators: [%s]\n  profiles: [{axis: %s}]\n"
     % (SX_DOC, SX_DOC), "n_qubits"),
    ("  generators: [%s]\n  profiles: [{segments: [{fraction: 0.5, rate: %s},"
     " {rate: %s}]}]\n" % (SX_DOC, SX_DOC, SX_DOC),
     "profiles[0].segments[1].fraction"),
    ("  generators: [%s]\n  profiles: [{axis: %s}]\n"
     "  noise_generators: [{name: a}]\n" % (SX_DOC, SX_DOC),
     "noise_generators[0].matrix"),
], ids=["n_qubits-str", "segment-without-fraction", "noise-without-matrix"])
def test_inline_error_names_key_path(capsys, tmp_path, body, path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario:\n" + body)
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    line = next(l for l in err.splitlines() if l.startswith("error:"))
    assert path in line
    assert "Traceback" not in err


class TestSweep:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scenario", "carr-purcell",
                           "--delta-t", "0.02,0.01", "--cycles", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta_t,cycle_time,cycles,distance"
        assert len([l for l in lines if not l.startswith("#")]) == 3
        slope_line = next(l for l in lines if l.startswith("# slope:"))
        slope = float(slope_line.split(":")[1])
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_single_delta_t_omits_slope(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scenario", "carr-purcell",
                           "--delta-t", "0.01", "--cycles", "1")
        assert code == 0
        assert "# slope omitted" in out

    def test_missing_delta_t_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--scenario", "carr-purcell")
        assert code == 2
        assert "error:" in err

    def test_negative_delta_t_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--scenario", "carr-purcell",
                           "--delta-t", "-1")
        assert code == 2
        assert "error:" in err

    def test_config_delta_t_list_matches_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: carr-purcell\noverrides:\n"
                       "  delta_t: [0.02, 0.01]\n")
        from_config = run(capsys, "sweep", "--config", str(cfg))
        from_flag = run(capsys, "sweep", "--scenario", "carr-purcell",
                        "--delta-t", "0.02,0.01")
        assert from_config[0] == 0
        assert from_config == from_flag


class TestExportSchedule:
    def test_round_trip_via_files(self, capsys, tmp_path):
        from eulerdd.io import import_schedule
        out_file = tmp_path / "sched.yaml"
        code, _, _ = run(capsys, "export-schedule", "--scenario",
                         "symmetric-s3", "--delta-t", "0.01",
                         "--out", str(out_file))
        assert code == 0
        sched = import_schedule(out_file.read_text())
        assert len(sched.path) == 12

    def test_stdout_is_yaml(self, capsys):
        import yaml
        code, out, _ = run(capsys, "export-schedule", "--scenario",
                           "carr-purcell", "--delta-t", "0.05")
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["kind"] == "eulerian"
        assert doc["delta_t"] == 0.05
        assert len(doc["timeline"]) == 2


def test_config_delta_t_drives_sweep_and_export(capsys, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario: carr-purcell\noverrides:\n  delta_t: 0.005\n")
    for command in ("sweep", "export-schedule"):
        from_config = run(capsys, command, "--config", str(cfg))
        from_flag = run(capsys, command, "--scenario", "carr-purcell",
                        "--delta-t", "0.005")
        assert from_config[0] == 0
        assert from_config == from_flag
    # the exported schedule, not one at the 0.01 default
    assert "delta_t: 0.005" in from_config[1]


def test_export_schedule_takes_one_delta_t():
    args = build_parser().parse_args(["export-schedule", "--scenario",
                                      "carr-purcell", "--delta-t", "0.02,0.01"])
    with pytest.raises(ConfigError, match="delta_t"):
        args.func(args)


@pytest.mark.parametrize("command,flag", [
    ("verify", "--delta-t 0.01"), ("verify", "--cycles 3"),
    ("sweep", "--trials 5"), ("sweep", "--json"),
    ("export-schedule", "--cycles 3"), ("export-schedule", "--trials 5"),
    ("export-schedule", "--json"),
])
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([command, "--scenario", "carr-purcell", *flag.split()])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert f"error: unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("body,message", [
    ("scenario: carr-purcell\noverrides:\n  n_qubits: 5\n", "n_qubits"),
    ("scenario:\n  generators: [%s]\n  profiles: [{axis: %s}]\n"
     % (SX_DOC, "{dim: [2, 2], data: [[0, 0], [1.3, 0], [1, 0], [0, 0]]}"),
     "Hermitian"),
], ids=["carr-purcell-n5", "non-hermitian-axis"])
def test_refused_config_exits_2(capsys, tmp_path, body, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(body)
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    line = next(l for l in err.splitlines() if l.startswith("error:"))
    assert message in line
    assert "Traceback" not in err
