"""Layered benchmark of eulerdd.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's operations through the real CLI entry point
(``eulerdd.cli.main``) in this process, passing ``--seed N`` to each, and
gates every output for physical correctness.  Operations run in passes
for about S seconds; each CLI call rebuilds its scenario, as a user's
invocation does.  Cold set-ups, each in a fresh interpreter, are timed
between the passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1``, the per-layer metrics of
traced passes, each paired with an untraced pass so that the tracing
overhead shows.  The lines before it give the run environment and the
outcome of every operation.  A JSON record of the run (and, when traced,
every span and the sizes of each operation) is written to perfbench/out/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads.  Two OpenBLAS threads (capped at the cores this
# process may use) gave the steadier times on a 2-core machine; the count
# is recorded with every result.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io as textio  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import SWEEP_DELTA_T, WORKLOADS  # noqa: E402

# Cold set-ups, each in a fresh interpreter, are interleaved with the passes
# so that they sample the whole run: the machine's speed drifts over tens of
# seconds, and probes made back to back catch a single phase.  After each
# pass, probes run until they have taken SETUP_SHARE of the elapsed time, and
# at least SETUP_MIN_PROBES run in all; setup_s is their median.
SETUP_MIN_PROBES, SETUP_SHARE = 3, 0.1
# Untraced runs stop before the operation that would end more than half its
# own length past --seconds (taking as long as it did last time), once every
# operation has run MIN_SAMPLES times; traced runs stop the same way between
# pairs of passes.
MIN_SAMPLES = 3
PROBE_TIMEOUT_S = 120


class Terminated(BaseException):
    """SIGTERM, raised past the per-operation error handling so that the run
    unwinds: subprocess.run kills a running set-up probe and the work
    directory is removed."""


def _terminate(signum, frame):
    raise Terminated(signum)


class SetupProbe:
    """Times cold set-ups of one workload in fresh interpreters."""

    def __init__(self, configs: list):
        self.configs = configs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.times = []

    def run(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *self.configs],
            env=self.env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def catch_up(self, elapsed: float) -> None:
        """Probe until the probes have taken their share of ``elapsed``."""
        while sum(self.times) < SETUP_SHARE * elapsed:
            self.run()


class Runner:
    """Runs one workload's operations and gates their outputs."""

    def __init__(self, workload, configs: dict, seed: int, tracer=None):
        import gates
        from eulerdd import cli, io
        self.gates, self.cli, self.io = gates, cli, io
        self.workload, self.configs, self.seed = workload, configs, seed
        self.tracer = tracer
        self.failures = {op.label: [] for op in workload.runnable}
        self.attempts = {op.label: 0 for op in workload.runnable}
        self.sizes = {}                 # op label -> sizes seen by the tracer
        self._size = None               # sizes of the op now running
        if tracer is not None:
            self._observe_sizes()

    def _argv(self, op) -> list:
        argv = [op.command, "--config", self.configs[op.scenario.key],
                "--seed", str(self.seed)]
        if op.command == "verify":
            argv.append("--json")
        elif op.command == "sweep":
            argv += ["--delta-t", ",".join(repr(dt) for dt in SWEEP_DELTA_T)]
        return argv

    def _call(self, fn, *args):
        """Run one operation; returns (seconds, result, error)."""
        if self.tracer is not None:
            self.tracer.recording = True
        start = perf_counter()
        try:
            result, error = fn(*args), None
        except SystemExit as exc:       # argparse rejects its input this way
            result, error = None, f"exit {exc.code}"
        except Exception as exc:  # noqa: BLE001 - any raise is an operation failure
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if self.tracer is not None:
            self.tracer.recording = False
        return elapsed, result, error

    def _cli(self, argv):
        out, err = textio.StringIO(), textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run_op(self, index: int, op, ctx: dict) -> tuple:
        """Returns (seconds, failure reason or None)."""
        if self.tracer is not None:
            self.tracer.op = index
            self._size = self.sizes.setdefault(op.label, {"env_dim": 1})
        if op.command == "import-schedule":
            exported = ctx.get("export-schedule")
            if exported is None:
                return 0.0, "no exported schedule to import"
            elapsed, sched, error = self._call(self.io.import_schedule, exported)
            return elapsed, error or self.gates.check_import(exported, sched)
        elapsed, result, error = self._call(self._cli, self._argv(op))
        if error:
            return elapsed, error
        rc, stdout, stderr = result
        reason = self.gates.CLI_GATES[op.command](op, rc, stdout)
        if reason is None:
            ctx[op.command] = stdout
        elif stderr.strip():
            reason += f" ({stderr.strip().splitlines()[-1]})"
        return elapsed, reason

    def cycle(self):
        """Runs the operation list in passes without end, yielding
        (op index, seconds) after each operation; the caller stops it."""
        while True:
            gc.collect()
            ctx = {}
            for index, op in enumerate(self.workload.runnable):
                elapsed, reason = self.run_op(index, op, ctx)
                self.attempts[op.label] += 1
                if reason is not None:
                    self.failures[op.label].append(reason)
                yield index, elapsed

    def run_pass(self) -> list:
        """One pass over the operation list; returns each op's seconds."""
        ops = self.cycle()
        return [next(ops)[1] for _ in self.workload.runnable]

    def _observe_sizes(self) -> None:
        """Record |G|, L, d, d_E and pulse segments per cycle of each op."""
        def from_parts(group, path, rep, profiles):
            self._size.update(group_order=group.order, cycle_length=len(path),
                        dim=rep.dimension,
                        segments=sum(len(profiles[c].segments) for c in path.colors))

        def scenario(args, sc):
            from_parts(sc.group, sc.path, sc.rep, sc.profiles)

        def schedule(args, sched):
            from_parts(sched.rep.group, sched.path, sched.rep, sched.profiles)

        def drift(args, result):
            self._size["env_dim"] = max(self._size["env_dim"], args[0].env_dim)

        self.tracer.observers.update({
            "io.scenario_from_config": scenario,
            "io.import_schedule": schedule,
            "dynamics.simulate_cycles": drift,
        })


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_runtime() -> dict:
    """OpenBLAS build string and thread count, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                return {"threads": int(get_threads()),
                        "config": get_config().decode()}
    return {"threads": None, "config": None}


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS, **{f"blas_{k}": v for k, v in blas_runtime().items()},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "seed": seed, "commit": git_commit(),
    }


def measure(runner, probe, seconds: float) -> list:
    """Untraced run: each operation's seconds, one list per operation.
    Set-up probes run after each pass until they have their share."""
    samples = [[] for _ in runner.workload.runnable]
    start = perf_counter()
    for index, elapsed in runner.cycle():
        samples[index].append(elapsed)
        following = (index + 1) % len(samples)
        if following == 0:
            probe.catch_up(perf_counter() - start)
        expected = samples[following][-1] if samples[following] else 0.0
        if (min(len(s) for s in samples) >= MIN_SAMPLES
                and perf_counter() - start + expected / 2 >= seconds):
            break
    while len(probe.times) < SETUP_MIN_PROBES:
        probe.run()
    return samples


def measure_traced(runner, tracer, seconds: float) -> tuple:
    """Traced run: traced passes, each paired with an untraced one.
    Returns (untraced passes, traced passes, spans of each traced pass)."""
    passes, traced, span_sets = [], [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        # pairs alternate which side runs first, so a slow first pass
        # does not land on one side of the tracing overhead
        if len(traced) % 2 == 0:
            passes.append(runner.run_pass())
        first = len(tracer.spans)
        with tracer.installed():
            traced.append(runner.run_pass())
        span_sets.append(tracer.spans[first:])
        if len(traced) % 2 == 0:
            passes.append(runner.run_pass())
        now = perf_counter()
        if now - start + (now - began) / 2 >= seconds:
            return passes, traced, span_sets


def end_to_end(samples: list, setup: list, attempted: int, failed: int) -> dict:
    """``pass_s`` sums, and ``op_max_s`` takes the largest of, each
    operation's median seconds."""
    op_s = [statistics.median(s) for s in samples]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(op_s), "s"),
        "op_max_s": (max(op_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "success_rate": ((attempted - failed) / attempted, "fraction"),
    }


def per_layer(workload, runner, traced: list, untraced: list, span_sets: list) -> dict:
    from tracer import summarize
    per_pass = [summarize(spans, workload.focus) for spans in span_sets]
    metrics = {}
    for key in per_pass[0]:
        if key == "focus_s":
            continue
        if key.endswith(".calls"):      # the same in every pass
            metrics[key] = (statistics.median_low(p[key] for p in per_pass), "count")
        else:
            metrics[key] = (statistics.median(p[key] for p in per_pass), "s")
    traced_s = statistics.median(sum(p) for p in traced)
    metrics["traced.pass_s"] = (traced_s, "s")
    metrics["tracing_overhead_s"] = (traced_s - statistics.median(sum(p) for p in untraced), "s")
    metrics["focus.share"] = (statistics.median(
        p["focus_s"] / sum(t) for p, t in zip(per_pass, traced)), "fraction")
    for key in ("group_order", "cycle_length", "dim", "env_dim", "segments"):
        metrics[f"size.{key}"] = (max(s.get(key, 0) for s in runner.sizes.values()), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "eulerdd" / "__init__.py").is_file():
        print(f"error: no eulerdd sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        configs = {}
        for sc in workload.scenarios:
            path = work / f"{sc.key}.yaml"
            path.write_text(sc.config_yaml())
            configs[sc.key] = str(path)

        sys.path.insert(0, str(SRC))
        import eulerdd.cli  # noqa: F401  (imported before any clock starts)
        if Path(eulerdd.__file__).resolve().parent != SRC / "eulerdd":
            print(f"error: eulerdd imported from {eulerdd.__file__}", file=sys.stderr)
            return 2
        env = environment(args.seed)
        print("env " + json.dumps(env, sort_keys=True))

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        runner = Runner(workload, configs, args.seed, tracer)
        samples, passes, traced, span_sets, setup = [], [], [], [], []
        start = perf_counter()
        if tracer is None:
            probe = SetupProbe(list(configs.values()))
            try:
                samples = measure(runner, probe, args.seconds)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            setup = probe.times
        else:
            passes, traced, span_sets = measure_traced(runner, tracer, args.seconds)

        attempted = sum(runner.attempts.values())
        failed = sum(len(r) for r in runner.failures.values())
        if tracer is None:
            metrics = end_to_end(samples, setup, attempted, failed)
        else:
            metrics = per_layer(workload, runner, traced, passes, span_sets)

        record = {"workload": workload.name, "env": env, "setup_s": setup,
                  "op_samples_s": samples, "passes_s": passes,
                  "traced_passes_s": traced, "ops": []}
        for op in workload.ops:
            if op.skipped:
                status = op.skipped
            elif runner.failures[op.label]:
                status = (f"failed in {len(runner.failures[op.label])} of "
                          f"{runner.attempts[op.label]} runs: {runner.failures[op.label][0]}")
            else:
                status = "ok"
            record["ops"].append({"op": op.label, "status": status,
                                  "sizes": runner.sizes.get(op.label)})
            print(f"op {op.label}: {status}")
        print(f"runs per op {[runner.attempts[op.label] for op in workload.runnable]} "
              f"({len(traced)} passes traced); "
              f"error_rate {failed / attempted:.6g} ({failed} of {attempted})")
        if tracer is not None:
            record["bindings"] = tracer.bindings
            record["spans"] = [s[:3] + [s[3] - start, s[4] - start, s[5]]
                               for s in tracer.spans]
        record["metrics"] = metrics
        name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record) + "\n")
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    except Terminated as exc:
        print(f"error: terminated by signal {exc.args[0]}", file=sys.stderr)
        return 128 + exc.args[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
