"""Command-line front end.

Commands: list | verify | sweep | export-schedule.
Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, io
from .analysis import (check_result, max_norm, random_hermitian,
                       scaling_study, verify_theorem)
from .cayley import validate_path
from .dynamics import q_map
from .group_theory import pi_G
from .io import ConfigError, RunConfig


def scenario_checks(scenario, cfg: RunConfig) -> list:
    """Named verification checks for one scenario: the generic ones (cycle,
    theorem, projector properties), then the scenario's own checks."""
    rng = np.random.default_rng(cfg.seed)
    rep = scenario.rep
    d = rep.dimension
    checks = []

    expected = scenario.expected_cycle_length
    checks.append(check_result("cycle-length", len(scenario.path) == expected,
                               len(scenario.path), expected))
    ok, diag = validate_path(scenario.graph, scenario.path.colors)
    checks.append(check_result("eulerian-cycle-valid", ok, diag, "ok"))
    if scenario.reference_path is not None:
        ok, diag = validate_path(scenario.graph, scenario.reference_path)
        checks.append(check_result("reference-path-valid", ok, diag, "ok"))

    rep_report = verify_theorem(scenario, trials=cfg.trials, tol=1e-7,
                                seed=cfg.seed)
    if rep_report.skipped:
        checks.append(check_result("symmetrization", True, "skipped", 1e-7,
                                   "hypothesis failed: profiles leave the algebra"))
    else:
        checks.append(check_result("symmetrization", rep_report.passed,
                                   rep_report.max_deviation, rep_report.tolerance))

    mats = rep.stacked()[0]
    worst_idem, worst_comm = 0.0, 0.0
    for _ in range(10):
        X = random_hermitian(d, rng)
        p = pi_G(rep, X)
        worst_idem = max(worst_idem, float(np.linalg.norm(pi_G(rep, p) - p)))
        q = q_map(rep, scenario.profiles, X)
        worst_comm = max(worst_comm, max_norm(q @ mats - mats @ q))
    checks.append(check_result("projector-idempotent", worst_idem <= 1e-10,
                               worst_idem, 1e-10))
    checks.append(check_result("qmap-commutant-valued", worst_comm <= 1e-9,
                               worst_comm, 1e-9))

    for check in scenario.checks:
        checks.extend(check(scenario, rng, cfg.seed))
    return checks


def _summary_json(scenario_name, cfg: RunConfig, checks) -> str:
    doc = {
        "scenario": scenario_name,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_list(args) -> int:
    scenarios = analysis.builtin_scenarios()
    if args.json:
        doc = [{"name": s.name, "description": s.description,
                "cycle_length": s.expected_cycle_length,
                "qubits": s.n_qubits} for s in scenarios]
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for s in scenarios:
            print(f"{s.name:14s} L={s.expected_cycle_length:<4d} {s.description}")
    return 0


def _resolve(args) -> tuple:
    if args.config:
        cfg = io.load_config(args.config)
    else:
        cfg = RunConfig()
    if args.scenario:
        cfg.scenario = args.scenario
        cfg.inline = None
    for key in ("cycles", "seed", "trials"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "delta_t", None):
        vals = [float(tok) for tok in args.delta_t.split(",") if tok.strip()]
        if not vals:
            raise ConfigError("empty delta_t list")
        cfg.delta_t = vals[0]
        cfg.delta_t_list = vals
    if getattr(args, "out", None):
        cfg.out = args.out
    cfg.as_json = bool(getattr(args, "json", False))
    cfg.validate()
    scenario = io.scenario_from_config(cfg)
    return scenario, cfg


def cmd_verify(args) -> int:
    scenario, cfg = _resolve(args)
    checks = scenario_checks(scenario, cfg)
    summary = _summary_json(scenario.name, cfg, checks)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(summary)
    if cfg.as_json:
        sys.stdout.write(summary)
    else:
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            note = f"  ({c['note']})" if c["note"] else ""
            print(f"[{status}] {scenario.name}/{c['name']}: "
                  f"value={c['value']} tol={c['tolerance']}{note}")
    return 0 if all(c["passed"] for c in checks) else 1


def cmd_sweep(args) -> int:
    scenario, cfg = _resolve(args)
    if not cfg.delta_t_list:
        raise ConfigError("sweep needs --delta-t with one or more values")
    study = scaling_study(scenario, cfg.delta_t_list, cycles=cfg.cycles,
                          env_dim=cfg.env_dim, seed=cfg.seed)
    lines = ["delta_t,cycle_time,cycles,distance"]
    for r in study.rows:
        lines.append(f"{r.delta_t!r},{r.cycle_time!r},{r.cycles},{r.distance!r}")
    if len(study.rows) >= 2 and np.isfinite(study.slope):
        lines.append(f"# slope: {study.slope:.6f}")
    else:
        lines.append("# slope omitted: need at least two delta_t values")
    if study.notice:
        lines.append(f"# notice: {study.notice}")
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_export_schedule(args) -> int:
    scenario, cfg = _resolve(args)
    text = io.export_schedule(scenario, cfg.delta_t)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerdd",
        description="Eulerian dynamical decoupling: schedule compilation, "
                    "simulation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalog of built-in scenarios")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    def common(p):
        p.add_argument("--scenario", help="built-in scenario name")
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--delta-t", dest="delta_t",
                       help="sub-interval length(s), comma separated")
        p.add_argument("--cycles", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
        p.add_argument("--out", help="output file path")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p_verify = sub.add_parser("verify", help="run a scenario's checks")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="error-scaling sweep over delta_t")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("export-schedule",
                           help="emit the segment timeline of a schedule")
    common(p_exp)
    p_exp.set_defaults(func=cmd_export_schedule)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
