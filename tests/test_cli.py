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

    def test_unknown_scenario_lists_the_known_names(self, capsys):
        code, _, err = run(capsys, "verify", "--scenario", "paulli")
        assert code == 2
        assert err == ("error: unknown scenario 'paulli'; known: carr-purcell, "
                       "pauli, spin-flip, symmetric-s3\n")

    def test_internal_key_error_is_not_a_refusal(self, monkeypatch):
        # a lookup bug inside the package must surface, not exit 2 as if
        # the input had been refused
        def broken(name, n=None):
            return {}[3]

        monkeypatch.setattr(analysis, "get_scenario", broken)
        with pytest.raises(KeyError):
            main(["verify", "--scenario", "pauli"])

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

    @pytest.mark.parametrize("body,center_builds", [
        ("scenario: pauli\n", 0),
        ("scenario: pauli\noverrides:\n  n_qubits: 4\n", 0),
        ("scenario: carr-purcell\n", 1),
    ], ids=["pauli-n2", "pauli-n4", "carr-purcell"])
    def test_center_built_only_for_the_central_fault_check(
            self, capsys, monkeypatch, tmp_path, body, center_builds):
        # the fault checks read residual_error; only carr-purcell's
        # fault-sx-central measures a distance from the center
        cfg = tmp_path / "run.yaml"
        cfg.write_text(body)
        calls = {"_center_basis": 0, "_decompose_irreps": 0}
        for name in calls:
            real = getattr(group_theory, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(group_theory, name, counted)
        code, _, _ = run(capsys, "verify", "--config", str(cfg), "--json")
        assert code == 0
        assert calls == {"_center_basis": center_builds, "_decompose_irreps": 0}

    def test_negative_seed_exits_2_naming_seed(self, capsys):
        assert_refused(capsys, ("verify", "--scenario", "pauli", "--seed", "-1"),
                       "seed must be >= 0")

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

    def test_t_gate_inline_scenario_passes(self, capsys, tmp_path):
        # diag(1, e^{i pi/4}) closes to |G| = 8 with phases off the quarter
        # turns, and its sigma-z axis is a monomial involution
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario:\n  generators:\n"
                       "    - dim: [2, 2]\n"
                       "      data: [[1, 0], [0, 0], [0, 0], "
                       "[0.7071067811865476, 0.7071067811865476]]\n"
                       "  profiles:\n"
                       "    - axis:\n"
                       "        dim: [2, 2]\n"
                       "        data: [[1, 0], [0, 0], [0, 0], [-1, 0]]\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"][0]["value"] == 8

    def test_out_of_algebra_inline_scenario_skips_symmetrization(self, capsys,
                                                                 tmp_path):
        # sigma_x realized as exp(-i pi/2 sigma_y) exp(-i pi/2 sigma_z): the
        # segments leave the algebra of {I, sigma_x}, so q_map = pi_G is not
        # claimed and the row passes as skipped
        pi = 3.141592653589793
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "scenario:\n  generators:\n"
            "    - {dim: [2, 2], data: [[0, 0], [1, 0], [1, 0], [0, 0]]}\n"
            "  profiles:\n    - segments:\n"
            f"        - {{fraction: 0.5, rate: {{dim: [2, 2], data: "
            f"[[{pi}, 0], [0, 0], [0, 0], [{-pi}, 0]]}}}}\n"
            f"        - {{fraction: 0.5, rate: {{dim: [2, 2], data: "
            f"[[0, 0], [0, {-pi}], [0, {pi}], [0, 0]]}}}}\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--json")
        assert code == 0
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == [
            "cycle-length", "eulerian-cycle-valid", "symmetrization",
            "projector-idempotent", "qmap-commutant-valued"]
        assert doc["checks"][2] == {
            "name": "symmetrization", "passed": True, "value": "skipped",
            "tolerance": 1e-7,
            "note": "hypothesis failed: profiles leave the algebra"}
        assert doc["passed"] is True

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
    ("  generators: [%s]\n  profiles: [{segments: [{fraction: 0.5, rate: %s},"
     " {rate: %s}]}]\n" % (SX_DOC, SX_DOC, SX_DOC),
     "profiles[0].segments[1].fraction"),
    ("  generators: [%s]\n  profiles: [{axis: %s}]\n"
     "  noise_generators: [{name: a}]\n" % (SX_DOC, SX_DOC),
     "noise_generators[0].matrix"),
], ids=["segment-without-fraction", "noise-without-matrix"])
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

    @pytest.mark.parametrize("flags,message", [
        (("--delta-t", "1e308,1e307"),
         "delta_t 1e+308 is too large: the propagated time 10 x 2 x delta_t"),
        (("--delta-t", "0.02,0.01", "--cycles", "1000000000"),
         "propagator lost unitarity over 1000000000 cycles"),
        (("--delta-t", "0.02,0.01", "--cycles", str(2 ** 62)),
         f"propagator lost unitarity over {2 ** 62} cycles"),
        (("--delta-t", "0.02,0.01", "--cycles", str(10 ** 23)),
         f"propagator lost unitarity over {10 ** 23} cycles"),
    ], ids=["overflowing-delta-t", "too-many-cycles", "cycles-2^62",
            "cycles-10^23"])
    def test_sweep_refusal_exits_2(self, capsys, flags, message):
        assert_refused(capsys, ("sweep", "--scenario", "carr-purcell", *flags),
                       message)

    def test_repeated_delta_t_exits_2(self, capsys):
        # two equal cycle times leave the slope fit rank-deficient
        assert_refused(capsys, ("sweep", "--scenario", "carr-purcell",
                                "--delta-t", "0.02,0.02"),
                       "delta_t values must be distinct")

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


@pytest.mark.parametrize("command,override", [
    ("verify", "cycles: 3"), ("verify", "env_dim: 5"), ("verify", "delta_t: [0.5]"),
    ("sweep", "trials: 5"),
    ("export-schedule", "cycles: 3"), ("export-schedule", "env_dim: 5"),
    ("export-schedule", "trials: 5"),
], ids=["verify-cycles", "verify-env_dim", "verify-delta_t", "sweep-trials",
        "export-schedule-cycles", "export-schedule-env_dim",
        "export-schedule-trials"])
def test_override_the_command_does_not_read_exits_2(capsys, tmp_path, command,
                                                    override):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"scenario: carr-purcell\noverrides:\n  {override}\n")
    key = override.split(":")[0]
    extra = ("--delta-t", "0.01") if command == "sweep" else ()
    assert_refused(capsys, (command, "--config", str(cfg), *extra),
                   f"override {key} is not read by {command}")


@pytest.mark.parametrize("command", ["verify", "sweep", "export-schedule"])
def test_seed_and_n_qubits_overrides_are_read_by_every_command(capsys, tmp_path,
                                                               command):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario: pauli\noverrides:\n  seed: 3\n  n_qubits: 1\n")
    extra = ("--delta-t", "0.02,0.01") if command == "sweep" else ()
    code, _, err = run(capsys, command, "--config", str(cfg), *extra)
    assert code == 0, err


@pytest.mark.parametrize("case", ["config-missing", "config-is-a-directory",
                                  "out-flag-in-missing-directory",
                                  "out-key-in-missing-directory"])
@pytest.mark.parametrize("command", ["verify", "sweep", "export-schedule"])
def test_file_that_cannot_be_opened_exits_2_naming_its_path(capsys, tmp_path,
                                                            command, case):
    missing = tmp_path / "missing" / "out.txt"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"scenario: carr-purcell\nout: {missing}\n")
    argv, message = {
        "config-missing": (("--config", str(tmp_path / "none.yaml")),
                           f"cannot read config '{tmp_path / 'none.yaml'}': "
                           "No such file or directory"),
        "config-is-a-directory": (("--config", str(tmp_path)),
                                  f"cannot read config '{tmp_path}': Is a directory"),
        "out-flag-in-missing-directory": (
            ("--scenario", "carr-purcell", "--out", str(missing)),
            f"cannot write out '{missing}': No such file or directory"),
        "out-key-in-missing-directory": (
            ("--config", str(cfg)),
            f"cannot write out '{missing}': No such file or directory"),
    }[case]
    extra = ("--delta-t", "0.02,0.01") if command == "sweep" else ()
    assert_refused(capsys, (command, *argv, *extra), message)


@pytest.mark.parametrize("body,message", [
    ("scenario: carr-purcell\noverrides:\n  n_qubits: 5\n", "n_qubits"),
    ("scenario:\n  generators: [%s]\n  profiles: [{axis: %s}]\n"
     % (SX_DOC, "{dim: [2, 2], data: [[0, 0], [1.3, 0], [1, 0], [0, 0]]}"),
     "Hermitian"),
    ("scenario: pauli\noverrides:\n  seed: -3\n", "seed must be >= 0"),
    ("scenario: pauli\noverrides:\n  cycles: 3\n  cycles: 5\n",
     "line 4: key 'cycles' repeats the key 'cycles' of line 3"),
    ("scenario:\n  name:\n  generators: [%s]\n  profiles: [{axis: %s}]\n"
     % (SX_DOC, SX_DOC), "scenario.name must be a string, got None"),
    ("scenario: carr-purcell\noverrides: [",
     "not valid YAML: line 3, column 1: did not find expected node content"),
    ("scenario: carr-purcell\n? [1, 2]\n: 3\n",
     "not valid YAML: line 2, column 3: found unhashable key"),
    ("scenario:\n  generators: [%s]\n  profiles: [{axis: %s}]\n"
     "  noise_generators: [{name: , matrix: %s}]\n" % (SX_DOC, SX_DOC, SX_DOC),
     "noise_generators[0].name must be a string, got None"),
    ("scenario:\n  generators: [%s]\n  profiles: [{axis: %s}]\n"
     "overrides:\n  n_qubits: 7\n" % (SX_DOC, SX_DOC),
     "override n_qubits only sizes a built-in scenario"),
], ids=["carr-purcell-n5", "non-hermitian-axis", "negative-seed",
        "repeated-override", "null-name", "unclosed-list", "unhashable-key",
        "null-noise-name", "inline-n-qubits"])
def test_refused_config_exits_2(capsys, tmp_path, body, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(body)
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    line = next(l for l in err.splitlines() if l.startswith("error:"))
    assert message in line
    assert "Traceback" not in err


def assert_refused(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    line = next(l for l in err.splitlines() if l.startswith("error:"))
    assert message in line
    assert "Traceback" not in err


INLINE_SX = "  generators: [%s]\n  profiles: [{axis: %s}]\n" % (SX_DOC, SX_DOC)


@pytest.mark.parametrize("body,path", [
    ("scenario: carr-purcell\nouts: run.json\n", "outs"),
    ("scenario: carr-purcell\noverrides:\n  cycle: 3\n", "overrides.cycle"),
    ("scenario:\n" + INLINE_SX + "  pathh: [0, 0]\n", "scenario.pathh"),
    # no command reads an inline scenario's n_qubits or description
    ("scenario:\n" + INLINE_SX + "  n_qubits: 7\n", "scenario.n_qubits"),
    ("scenario:\n" + INLINE_SX + "  description: anything\n",
     "scenario.description"),
    ("scenario:\n  generators: [%s]\n  profiles: [{axis: %s, speed: 2}]\n"
     % (SX_DOC, SX_DOC), "profiles[0].speed"),
    ("scenario:\n  generators: [%s]\n  profiles: [{segments: [{fraction: 1.0, "
     "rate: %s, shape: flat}]}]\n" % (SX_DOC, SX_DOC),
     "profiles[0].segments[0].shape"),
    ("scenario:\n" + INLINE_SX + "  noise_generators: [{nmae: a, matrix: %s}]\n"
     % SX_DOC, "noise_generators[0].nmae"),
], ids=["top", "overrides", "inline", "inline-n_qubits", "inline-description",
        "profile", "segment", "noise-generator"])
def test_unknown_config_key_exits_2_naming_its_path(capsys, tmp_path, body, path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(body)
    assert_refused(capsys, ["sweep", "--config", str(cfg), "--delta-t", "0.01"],
                   f"{path} is not a known key")


@pytest.mark.parametrize("profile,path", [
    ("{axis: {dim: [2, 2], data: [[0, 0], [1.3, 0], [1, 0], [0, 0]]}}",
     "profiles[0].axis: axis must be a Hermitian 2 x 2 matrix"),
    ("{segments: [{fraction: 1.0, rate: {dim: [2, 2], data: [[0, 0], [1.3, 0], "
     "[1, 0], [0, 0]]}}]}",
     "profiles[0].segments[0].rate must be a Hermitian 2 x 2 matrix"),
    ("{segments: [{fraction: 1.0, rate: %s}]}" % SX_DOC,
     "profiles[0].segments: profile does not implement generator"),
], ids=["non-hermitian-axis", "non-hermitian-segment", "unrealized-segments"])
def test_profile_builder_error_names_its_key(capsys, tmp_path, profile, path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario:\n  generators: [%s]\n  profiles: [%s]\n"
                   % (SX_DOC, profile))
    assert_refused(capsys, ["verify", "--config", str(cfg)], path)


# sigma_x ⊗ sigma_x: Hermitian, traceless, and 4 x 4 on a 2 x 2 scenario
XX_DOC = ("{dim: [4, 4], data: [[0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], "
          "[1, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [1, 0], [0, 0], "
          "[0, 0], [0, 0]]}")


@pytest.mark.parametrize("command", [["verify"], ["sweep", "--delta-t", "0.02,0.01"]],
                         ids=["verify", "sweep"])
@pytest.mark.parametrize("body,message", [
    ("  generators: [%s]\n  profiles: [{axis: %s}]\n" % (SX_DOC, XX_DOC),
     "profiles[0].axis: axis must be a Hermitian 2 x 2 matrix"),
    ("  generators: [%s]\n  profiles: [{segments: [{fraction: 1.0, rate: %s}]}]\n"
     % (SX_DOC, XX_DOC),
     "profiles[0].segments[0].rate must be a Hermitian 2 x 2 matrix"),
    (INLINE_SX + "  noise_generators: [{matrix: %s}]\n" % XX_DOC,
     "noise_generators[0] must be a Hermitian 2 x 2 matrix"),
], ids=["axis", "segment-rate", "noise-matrix"])
def test_matrix_of_wrong_size_exits_2_naming_its_path(capsys, tmp_path, command,
                                                      body, message):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario:\n" + body)
    assert_refused(capsys, [*command, "--config", str(cfg)], message)


def test_profile_with_axis_and_segments_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("scenario:\n  generators: [%s]\n  profiles: [{axis: %s, "
                   "segments: [{fraction: 1.0, rate: %s}]}]\n"
                   % (SX_DOC, SX_DOC, SX_DOC))
    assert_refused(capsys, ["verify", "--config", str(cfg)],
                   "profiles[0] has both 'axis' and 'segments'")


def test_non_numeric_delta_t_flag_names_the_flag(capsys):
    assert_refused(capsys, ["sweep", "--scenario", "carr-purcell",
                            "--delta-t", "0.02,abc"],
                   "--delta-t must be numbers separated by commas, got '0.02,abc'")
