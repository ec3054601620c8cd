"""Command-line front end.

Commands: list | verify | sweep | export-schedule.
Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import analysis, io
from .analysis import scaling_study, verify_checks
from .io import ConfigError, RunConfig


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
    cfg = (io.load_config(args.config, args.command) if args.config
           else RunConfig())
    if args.scenario:
        cfg.scenario = args.scenario
        cfg.inline = None
    for key in ("cycles", "seed", "trials", "out"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "delta_t", None) is not None:
        try:
            cfg.delta_t = tuple(float(tok) for tok in args.delta_t.split(",")
                                if tok.strip())
        except ValueError:
            raise ConfigError(f"--delta-t must be numbers separated by commas, "
                              f"got {args.delta_t!r}") from None
    cfg.validate()
    return io.scenario_from_config(cfg), cfg


def _write(text: str, out: str) -> None:
    """``text`` into the file ``out``, or to standard output without one;
    a file that cannot be written is a ConfigError naming the path."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write out {out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    scenario, cfg = _resolve(args)
    checks = verify_checks(scenario, cfg.trials, cfg.seed)
    summary = _summary_json(scenario.name, cfg, checks)
    if cfg.out:
        _write(summary, cfg.out)
    if args.json:
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
    if cfg.delta_t is None:
        raise ConfigError("sweep needs --delta-t with one or more values")
    study = scaling_study(scenario, cfg.delta_t, cycles=cfg.cycles,
                          env_dim=cfg.env_dim, seed=cfg.seed)
    lines = ["delta_t,cycle_time,cycles,distance"]
    for r in study.rows:
        lines.append(f"{r.delta_t!r},{r.cycle_time!r},{r.cycles},{r.distance!r}")
    if len(study.rows) >= 2 and math.isfinite(study.slope):
        lines.append(f"# slope: {study.slope:.6f}")
    else:
        lines.append("# slope omitted: need at least two delta_t values")
    if study.notice:
        lines.append(f"# notice: {study.notice}")
    _write("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_export_schedule(args) -> int:
    scenario, cfg = _resolve(args)
    delta_t = cfg.delta_t or (0.01,)
    if len(delta_t) != 1:
        raise ConfigError(f"export-schedule takes one delta_t, got {len(delta_t)}")
    _write(io.export_schedule(scenario, delta_t[0]), cfg.out)
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

    def command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", help="built-in scenario name")
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--out", help="output file path")
        # export-schedule writes the same schedule for every seed; it takes
        # --seed because perfbench/run.py passes it to every command
        p.add_argument("--seed", type=int)
        p.set_defaults(func=func)
        return p

    p_verify = command("verify", "run a scenario's checks", cmd_verify)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_sweep = command("sweep", "error-scaling sweep over delta_t", cmd_sweep)
    p_sweep.add_argument("--delta-t", help="sub-interval lengths, comma separated")
    p_sweep.add_argument("--cycles", type=int)
    p_export = command("export-schedule",
                       "emit the segment timeline of a schedule",
                       cmd_export_schedule)
    p_export.add_argument("--delta-t", help="sub-interval length")
    return parser


# one parser per process: parse_args leaves no state on it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # ConfigError and every typed refusal
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
