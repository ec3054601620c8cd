"""Tests for matrix/config/schedule serialization."""

import re
from functools import partial

import numpy as np
import pytest
import yaml

from eulerdd import analysis
from eulerdd import io as eio
from eulerdd.analysis import (SIGMA, builtin_scenarios, carr_purcell_scenario,
                              pauli_scenario, symmetric_s3_scenario)
from eulerdd.group_theory import equal_up_to_phase, in_algebra
from eulerdd.pulses import piecewise_profile
from eulerdd.io import (ConfigError, RunConfig, decode_matrix, encode_matrix,
                        export_schedule, fault_from_doc, import_schedule,
                        load_config, scenario_from_config)

SX, SY, SZ = SIGMA["x"], SIGMA["y"], SIGMA["z"]


class TestMatrixCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_allclose(decode_matrix(encode_matrix(m)), m)

    def test_bad_document(self):
        with pytest.raises(ConfigError):
            decode_matrix({"dim": [2, 2], "data": [[1, 0]]})
        with pytest.raises(ConfigError):
            decode_matrix({"data": [[1, 0]]})


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    @pytest.mark.parametrize("field,value", [
        pytest.param("delta_t", (-0.1,), id="delta_t--0.1"),
        pytest.param("delta_t", (0.0,), id="delta_t-0.0"),
        ("cycles", 0), ("trials", 0), ("env_dim", 0), ("n_qubits", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        cfg = RunConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_load_named_scenario(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("scenario: carr-purcell\n"
                     "overrides:\n  delta_t: 0.02\n  seed: 7\n")
        cfg = load_config(str(p))
        assert cfg.scenario == "carr-purcell"
        assert cfg.delta_t == (0.02,)
        assert cfg.seed == 7

    @pytest.mark.parametrize("override", [
        "cycles: abc", "env_dim: abc", "env_dim: 0", "n_qubits: 0",
        "cycles: 2.5", "seed: true", "delta_t: .nan", "delta_t: '0.01'",
        "delta_t_list: [0.02, x]", "delta_t_list: 0.02",
    ])
    def test_load_rejects_bad_overrides(self, tmp_path, override):
        p = tmp_path / "run.yaml"
        p.write_text(f"scenario: spin-flip\noverrides:\n  {override}\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize("text,values", [
        ("0.02", (0.02,)), ("[0.02, 0.01]", (0.02, 0.01)), ("[1]", (1.0,)),
    ])
    def test_delta_t_override_is_a_number_or_a_list(self, tmp_path, text, values):
        p = tmp_path / "run.yaml"
        p.write_text(f"scenario: pauli\noverrides:\n  delta_t: {text}\n")
        assert load_config(str(p)).delta_t == values

    @pytest.mark.parametrize("override", [
        "delta_t_list: [0.02, 0.01]", "delta_t: []", "delta_t: [0.02, -0.01]",
    ])
    def test_delta_t_refusals_name_delta_t(self, tmp_path, override):
        p = tmp_path / "run.yaml"
        p.write_text(f"scenario: pauli\noverrides:\n  {override}\n")
        with pytest.raises(ConfigError, match="delta_t"):
            load_config(str(p))

    def test_load_rejects_non_mapping_overrides(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("scenario: pauli\noverrides: [1, 2]\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_load_converts_whole_numbers(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("scenario: pauli\n"
                     "overrides:\n  cycles: 3.0\n  delta_t: 1\n  n_qubits: 2\n")
        cfg = load_config(str(p))
        assert (cfg.cycles, cfg.delta_t, cfg.n_qubits) == (3, (1.0,), 2)
        assert isinstance(cfg.cycles, int) and isinstance(cfg.delta_t[0], float)

    def test_old_verbosity_override_is_refused(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("scenario: pauli\noverrides:\n  verbosity: 3\n")
        with pytest.raises(ConfigError, match=r"^overrides\.verbosity is not a known key"):
            load_config(str(p))

    def test_load_rejects_non_mapping(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    @pytest.mark.parametrize("value", ["", " [a, b]"], ids=["null", "list"])
    def test_out_that_is_not_a_path_is_refused(self, tmp_path, value):
        # str() of these would name a file "None" or "['a', 'b']"
        p = tmp_path / "run.yaml"
        p.write_text(f"scenario: pauli\nout:{value}\n")
        with pytest.raises(ConfigError, match=r"^out must be a file path"):
            load_config(str(p))

    def test_scenario_required(self):
        with pytest.raises(ConfigError):
            scenario_from_config(RunConfig())


X = encode_matrix(SX)
AXIS_X = {"axis": X}


class TestInlineScenario:
    def test_z2_inline(self):
        cfg = RunConfig(inline={
            "name": "inline-z2",
            "generators": [encode_matrix(SX)],
            "profiles": [{"axis": encode_matrix(SX)}],
        })
        sc = scenario_from_config(cfg)
        assert sc.name == "inline-z2"
        assert sc.group.order == 2
        assert len(sc.path) == 2
        assert all(in_algebra(sc.rep, rate) for _, rate in sc.profiles[0].segments)

    def test_explicit_path_validated(self):
        cfg = RunConfig(inline={
            "generators": [encode_matrix(SX)],
            "path": [0, 0, 0],
            "profiles": [{"axis": encode_matrix(SX)}],
        })
        with pytest.raises(ConfigError):
            scenario_from_config(cfg)

    def test_generators_required(self):
        with pytest.raises(ConfigError):
            scenario_from_config(RunConfig(inline={"profiles": []}))

    @pytest.mark.parametrize("key,doc", [
        ("generators", {"generators": 5, "profiles": [AXIS_X]}),
        ("profiles", {"generators": [X], "profiles": 5}),
        ("path", {"generators": [X], "profiles": [AXIS_X], "path": 5}),
        ("profiles", {"generators": [X], "profiles": ["abc"]}),
        ("profiles", {"generators": [X], "profiles": [AXIS_X, AXIS_X]}),
        ("generators", {"generators": [X, X], "profiles": [AXIS_X, AXIS_X]}),
        ("generators", {"generators": [encode_matrix(np.eye(2))],
                        "profiles": [AXIS_X]}),
    ], ids=["generators-int", "profiles-int", "path-int", "profile-str",
            "extra-profile", "repeated-generator", "identity-generator"])
    def test_malformed_inline_scenario(self, key, doc):
        with pytest.raises(ConfigError, match=key):
            scenario_from_config(RunConfig(inline=doc))

    def test_profile_units_key_is_refused(self):
        # rates are angle rates h * delta_t: a profile never depends on delta_t
        cfg = RunConfig(delta_t=(0.5,), inline={
            "generators": [encode_matrix(SX)],
            "profiles": [{"units": "absolute",
                          "segments": [{"fraction": 1.0,
                                        "rate": encode_matrix(np.pi * SX)}]}],
        })
        with pytest.raises(ConfigError, match=re.escape("profiles[0].units")):
            scenario_from_config(cfg)

    def test_inline_scenario_reads_no_delta_t(self):
        doc = {"generators": [X],
               "profiles": [{"segments": [{"fraction": 1.0,
                                           "rate": encode_matrix(np.pi / 2 * SX)}]}]}
        rates = [scenario_from_config(RunConfig(delta_t=dt, inline=doc))
                 .profiles[0].segments[0][1] for dt in (None, (0.5,), (0.25, 0.5))]
        for rate in rates:
            np.testing.assert_array_equal(rate, (np.pi / 2) * SX)


class TestFaultDocs:
    def test_fault_from_doc(self):
        sc = carr_purcell_scenario()
        doc = {0: [{"fraction": 1.0, "rate": encode_matrix(0.1 * SX)}]}
        fault = fault_from_doc(doc, sc.rep)
        np.testing.assert_allclose(fault.deltas[0][0][1], 0.1 * SX)

    def test_bad_fault_fractions(self):
        doc = {0: [{"fraction": 0.4, "rate": encode_matrix(SX)}]}
        with pytest.raises(ConfigError):
            fault_from_doc(doc, carr_purcell_scenario().rep)

    @pytest.mark.parametrize("doc,path", [
        ([{"fraction": 1.0, "rate": encode_matrix(SX)}], "faults"),
        ({0: 5}, "faults.0"),
        ({0: ["segment"]}, "faults.0"),
        ({"x": [{"fraction": 1.0, "rate": encode_matrix(SX)}]}, "faults key"),
        ({0: [{"rate": encode_matrix(SX)}]}, "faults.0[0].fraction"),
        ({0: [{"fraction": "half", "rate": encode_matrix(SX)}]},
         "faults.0[0].fraction"),
        ({0: [{"fraction": 1.0}]}, "faults.0[0].rate"),
        ({0: [{"fraction": -0.5, "rate": encode_matrix(SX)},
              {"fraction": 1.5, "rate": encode_matrix(SX)}]},
         "faults.0[0].fraction"),
        ({0: [{"fraction": 1.0, "rate": encode_matrix(SX @ SZ)}]},
         "faults.0[0].rate"),
        ({0: [{"fraction": 1.0, "rate": encode_matrix(np.kron(SX, SX))}]},
         "faults.0[0].rate"),
        ({0: [{"fraction": 0.4, "rate": encode_matrix(SX)}]},
         "faults.0[0].fraction"),
        ({0: [{"fraction": 1.0, "rate": encode_matrix(SX), "colour": 0}]},
         "faults.0[0].colour"),
    ], ids=["list", "color-to-int", "segment-not-mapping", "text-color",
            "no-fraction", "text-fraction", "no-rate", "negative-fraction",
            "non-hermitian-rate", "rate-of-wrong-dimension", "fractions-sum",
            "unknown-segment-key"])
    def test_malformed_fault_docs_name_their_key_path(self, doc, path):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}\b"):
            fault_from_doc(doc, carr_purcell_scenario().rep)

    def test_faults_key_is_refused_by_load_config(self, tmp_path):
        # no command reads faults from a run configuration yet
        path = tmp_path / "run.yaml"
        path.write_text("scenario: carr-purcell\nfaults: {0: 5}\n")
        with pytest.raises(ConfigError, match=r"^faults is not a known key"):
            load_config(str(path))


class TestScheduleExport:
    def test_round_trip_endpoints(self):
        for sc in (carr_purcell_scenario(), symmetric_s3_scenario()):
            text = export_schedule(sc, 0.01)
            sched = import_schedule(text)
            orig = sc.schedule(0.01)
            assert sched.cycle_time == pytest.approx(orig.cycle_time)
            a = orig.stroboscopic_frames()
            b = sched.stroboscopic_frames()
            for fa, fb in zip(a, b):
                assert equal_up_to_phase(fa, fb, 1e-12)

    def test_rejects_wrong_kind(self):
        with pytest.raises(ConfigError):
            import_schedule("kind: bangbang\n")

    @pytest.mark.parametrize("text,message", [
        ("- 1\n", "mapping"), ("kind: eulerian\n", "delta_t"),
    ])
    def test_rejects_malformed_documents(self, text, message):
        with pytest.raises(ConfigError, match=message):
            import_schedule(text)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(hamiltonians=5), "hamiltonians must be a mapping"),
        (lambda doc: doc["timeline"][1].pop("sub_interval"),
         "timeline[1].sub_interval is missing"),
        (lambda doc: doc["timeline"][1].pop("color"), "timeline[1].color is missing"),
        (lambda doc: doc["timeline"][1].pop("duration"),
         "timeline[1].duration is missing"),
        (lambda doc: doc["timeline"][1].pop("amplitude"),
         "timeline[1].amplitude is missing"),
        (lambda doc: doc["timeline"][1].pop("hamiltonian"),
         "timeline[1].hamiltonian is missing"),
        (lambda doc: doc["timeline"][1].update(hamiltonian="h9"),
         "timeline[1].hamiltonian names no entry of hamiltonians: 'h9'"),
        (lambda doc: doc["timeline"][1].update(duration="abc"),
         "timeline[1].duration must be a number"),
        (lambda doc: doc.update(delta_t="abc"), "delta_t must be a number"),
    ], ids=["hamiltonians-int", "no-sub_interval", "no-color", "no-duration",
            "no-amplitude", "no-hamiltonian", "unknown-hamiltonian",
            "duration-str", "delta_t-str"])
    def test_malformed_body_names_the_key(self, edit, message):
        doc = yaml.safe_load(export_schedule(pauli_scenario(1), 0.01))
        edit(doc)
        with pytest.raises(ConfigError) as info:
            import_schedule(yaml.safe_dump(doc))
        assert message in str(info.value)

    def test_near_parallel_directions_keep_their_own_ids(self):
        # n2 is n1 with sigma_y scaled by 1 + 4e-6: the directions differ by
        # about 2e-6, well above the 1e-14 id tolerance
        n1 = (SY + SZ) / np.sqrt(2)
        n2 = (1 + 4e-6) * SY + SZ
        n2 = n2 / np.linalg.norm(n2) * np.linalg.norm(n1)
        a = 0.05
        segs = [(0.2, r) for r in (a * n1, a * n2, -a * n1, -a * n2,
                                    (5 * np.pi / 2) * SX)]
        sc = analysis.scenario_from_generators(
            "near", "near-parallel segments", 1, [SX],
            [partial(piecewise_profile, segments=segs)])
        text = export_schedule(sc, 0.01)
        rows = yaml.safe_load(text)["timeline"]
        assert [r["hamiltonian"] for r in rows[:5]] == ["h0", "h1", "h2", "h3", "h4"]
        back = import_schedule(text).steps[0].profile.segments
        for (frac, rate), (frac2, rate2) in zip(segs, back):
            assert frac2 == pytest.approx(frac, abs=1e-15)
            assert np.abs(rate2 - rate).max() <= 1e-14

    def test_timeline_is_contiguous(self):
        import yaml
        sc = symmetric_s3_scenario()
        doc = yaml.safe_load(export_schedule(sc, 0.01))
        t = 0.0
        for row in doc["timeline"]:
            assert row["start"] == pytest.approx(t, abs=1e-12)
            t += row["duration"]
        assert t == pytest.approx(len(sc.path) * 0.01)


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"),
                    reason="PyYAML built without libyaml")
class TestLibyaml:
    """The C (libyaml) dumper and loader give the same text and documents as
    the pure-Python SafeDumper and SafeLoader."""

    def test_io_uses_the_c_classes(self):
        assert (eio._LOADER, eio._DUMPER) == (yaml.CSafeLoader, yaml.CSafeDumper)

    @pytest.mark.parametrize("sc", builtin_scenarios(), ids=lambda sc: sc.name)
    def test_export_text_and_docs_identical(self, sc, monkeypatch):
        texts = []
        for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
            monkeypatch.setattr(eio, "_DUMPER", dumper)
            texts.append(export_schedule(sc, 0.01))
        assert texts[0] == texts[1]
        docs = [yaml.load(texts[0], Loader=loader)
                for loader in (yaml.SafeLoader, yaml.CSafeLoader)]
        assert docs[0] == docs[1]


def test_reused_edge_has_one_diagnostic():
    """The inline path and an imported schedule go through one path
    validation and report a reused edge alike."""
    colors = [0, 0, 0, 0, 1, 1, 1, 1]   # back at vertex 0 after two steps
    diagnostic = "invalid Eulerian path: edge (0, color 0) reused at step 2"
    sc = pauli_scenario(1)
    gens = [encode_matrix(sc.rep.matrices[g]) for g in sc.group.generators]
    cfg = RunConfig(inline={"generators": gens, "path": colors,
                            "profiles": [{"axis": g} for g in gens]})
    doc = yaml.safe_load(export_schedule(sc, 0.01))
    doc["path"] = colors
    for reject in (lambda: scenario_from_config(cfg),
                   lambda: import_schedule(yaml.safe_dump(doc))):
        with pytest.raises(ValueError) as info:
            reject()
        assert str(info.value).endswith(diagnostic)


def _triple_last_color_1_amplitude(doc):
    row = [r for r in doc["timeline"] if r["color"] == 1][-1]
    row["amplitude"] *= 3


def _flip_color_of_sub_interval(doc, ell):
    for row in doc["timeline"]:
        if row["sub_interval"] == ell:
            row["color"] = 1 - row["color"]


def _drop_sub_interval(doc, ell):
    doc["timeline"] = [r for r in doc["timeline"] if r["sub_interval"] != ell]


@pytest.mark.parametrize("edit,message", [
    (_triple_last_color_1_amplitude,
     "timeline[17] does not repeat the rows of color 1 from timeline[2]"),
    (lambda doc: _flip_color_of_sub_interval(doc, 5),
     "timeline[6].color is 0, but path[5] is 1"),
    (lambda doc: _drop_sub_interval(doc, 7),
     "timeline[9].sub_interval is 8; rows must run through sub-intervals 0..11"),
    (lambda doc: _drop_sub_interval(doc, 11), "timeline[16] is missing"),
    (lambda doc: doc["timeline"][0].update(sub_interval=12),
     "timeline[0].sub_interval is 12"),
    (lambda doc: doc["timeline"].insert(8, dict(doc["timeline"][7])),
     "timeline[8] does not repeat the rows of color 1 from timeline[2]"),
    (lambda doc: doc["timeline"][0].update(duration=0.009),
     "schedule file: timeline[0]: color 0 segment [0].fraction: the fractions "
     "sum to "),
    (lambda doc: doc["timeline"][2].update(duration=0.004),
     "schedule file: timeline[3]: color 1 segment [1].fraction: the fractions "
     "sum to "),
    (lambda doc: doc["timeline"][2].update(
        amplitude=1.5 * doc["timeline"][2]["amplitude"]),
     "schedule file: timeline[2]: color 1 profile does not implement "
     "generator: distance "),
], ids=["tripled-amplitude", "flipped-color", "missing-sub-interval",
        "missing-last-sub-interval", "sub-interval-past-path", "extra-row",
        "short-color-0-duration", "short-color-1-duration",
        "unrealized-color-1"])
def test_timeline_disagreeing_with_path_is_refused(edit, message):
    # the S3 export: path (0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1), one row per
    # color-0 sub-interval and two per color-1 sub-interval (rows 2 and 3
    # first); a color's durations must sum to delta_t, and a sum off it is
    # refused at the color's last row
    doc = yaml.safe_load(export_schedule(symmetric_s3_scenario(), 0.01))
    assert doc["path"] == [0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1]
    edit(doc)
    with pytest.raises(ConfigError) as info:
        import_schedule(yaml.safe_dump(doc))
    assert message in str(info.value)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["timeline"][3].update(start=99.0),
     "timeline[3].start is 99.0, but the durations before it sum to"),
    (lambda doc: doc["timeline"][4].update(colour=1),
     "timeline[4].colour is not a known key"),
    (lambda doc: doc.update(extra=1), "extra is not a known key"),
    (lambda doc: doc["timeline"][3].pop("start"), "timeline[3].start is missing"),
], ids=["shifted-start", "unknown-row-key", "unknown-top-level-key", "no-start"])
def test_unknown_schedule_keys_and_shifted_starts_are_refused(edit, message):
    doc = yaml.safe_load(export_schedule(symmetric_s3_scenario(), 0.01))
    edit(doc)
    with pytest.raises(ConfigError) as info:
        import_schedule(yaml.safe_dump(doc))
    assert str(info.value).startswith(message)


def test_start_within_rounding_of_the_durations_imports():
    # T_c = 0.12: a start moved by 1e-14 is inside 1e-12 * T_c, one moved
    # by 1e-12 is not
    doc = yaml.safe_load(export_schedule(symmetric_s3_scenario(), 0.01))
    doc["timeline"][3]["start"] += 1e-14
    import_schedule(yaml.safe_dump(doc))
    doc["timeline"][3]["start"] += 1e-12
    with pytest.raises(ConfigError, match=r"^timeline\[3\]\.start"):
        import_schedule(yaml.safe_dump(doc))
