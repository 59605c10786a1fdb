"""Layered benchmark of genus2pencils.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see bench/README.md):
verify-catalog, class-enum, type-search, cli.  Each runs one closed-loop
client: the next operation starts when the previous one has finished.

With --trace 0 the run times whole rounds of operations for about S
seconds (at least MIN_OPS operations), gates every output, and reports the
end-to-end metrics, scaled to a nominal host speed (calibrate.py).  With
--trace 1 it repeats a fixed, seed-drawn operation list with and without
span tracing and reports the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import json
import itertools
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import gates
import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SRC = os.path.join(os.getcwd(), "src")
WORKLOADS = ("verify-catalog", "class-enum", "type-search", "cli")

MIN_OPS = 100  # so that the p90 latency has at least ten samples beyond it
# set-up-only workers after each round, so that every run has a dozen or
# more set-up samples spread over it (each verify-catalog pass is a fresh
# worker already)
SETUP_AFTER_ROUND = {"verify-catalog": 0, "class-enum": 4, "type-search": 4, "cli": 4}
# sweeps per timed run: each operation is timed this many times, spread
# over the run, and the median of its times counts
SWEEPS = {"verify-catalog": 3, "class-enum": 3, "type-search": 3, "cli": 1}
TRACE_PASSES = 3
RUN_LIMIT_S = 170.0
# counts that must repeat exactly between traced passes of one op list
COUNTS = ("curves.enum_calls", "curves.enum_hits", "curves.classes", "numerics.rows",
          "numerics.ceiling_warnings", "sharp.contractions", "intmat.hnf_calls",
          "catalog.checks") + tuple(f"{layer}.calls" for layer in tracing.LAYERS)


class RunFailure(Exception):
    """The benchmark itself could not run (not an operation failure)."""


class Clock:
    """Time left before the run must give up (each run ends within 180 s)."""

    def __init__(self) -> None:
        self.start = time.monotonic()

    def left(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.start)
        if left <= 1:
            raise RunFailure(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(job: dict, env: dict, clock: Clock) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env, timeout=clock.left(),
    )
    if proc.returncode != 0:
        raise RunFailure(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_child(cmd: list[str], env: dict, clock: Clock) -> dict:
    """Run one subprocess; wall ms from spawn to reap, and its own CPU and RSS."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    killer = threading.Timer(clock.left(), proc.kill)
    killer.start()
    try:
        output = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    t1 = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"ms": (t1 - t0) / 1e6, "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1e3,
            "rss_mb": usage.ru_maxrss / 1024, "code": proc.returncode,
            "output": output.decode("utf-8", "replace")}


def cli_command(argv: list[str], spans_path: str | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "genus2pencils.cli", *argv]
    return [sys.executable, os.path.join(HERE, "clitrace.py"), spans_path, *argv]


def run_cli_ops(ops: list[dict], expected: dict, env: dict, clock: Clock, traced: bool):
    """Run CLI operations one after another; records and, traced, the spans
    of all processes merged."""
    records, spans, rss = [], [], 0.0
    spans_path = os.path.join(OUT, "cli-spans.json") if traced else None
    sampled = calibrate.process_sample(env)
    for op in ops:
        done = run_child(cli_command(op["argv"], spans_path), env, clock)
        fresh = calibrate.process_sample(env)
        error = gates.cli_gate(done["code"], done["output"], op, expected)
        scale = calibrate.factor(sampled, fresh, calibrate.NOMINAL_PROCESS_S)
        records.append([done["ms"], done["cpu_ms"], error, scale])
        sampled = fresh
        rss = max(rss, done["rss_mb"])
        if traced:
            with open(spans_path, encoding="utf-8") as handle:
                child = json.load(handle)
            offset = len(spans)
            for span in child:
                if span[3] is not None:
                    span[3] += offset
            spans.extend(child)
    return records, spans, rss


def write_models() -> dict[str, str]:
    """Model files for dual-graph FILE, written with serialize(from_fibration(...))."""
    sys.path.insert(0, SRC)
    from genus2pencils import catalog
    from genus2pencils.modelfile import from_fibration, serialize

    folder = os.path.join(OUT, "models")
    os.makedirs(folder, exist_ok=True)
    paths = {}
    for tag in wl.TAGS:
        entry = catalog.get(tag)
        path = os.path.relpath(os.path.join(folder, f"{tag}.model"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize(from_fibration(entry.fibration, entry.effective)))
        paths[tag] = path
    return paths


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_ops(workload: str, ops: list[dict], expected: dict, env: dict, clock: Clock,
            traced: bool = False) -> dict:
    """Run one operation list: CLI operations one process each, in-process
    operations in one fresh worker (whose set-up time is a sample)."""
    if workload == "cli":
        records, spans, rss = run_cli_ops(ops, expected, env, clock, traced)
        metrics = tracing.layer_metrics(spans, "bench.op") if traced else None
        return {"ops": records, "rss_mb": rss, "spans": spans, "metrics": metrics, "setup_s": []}
    job = {"kind": "ops", "workload": workload, "ops": ops, "trace": traced}
    done = run_worker(job, env, clock)
    done["setup_s"] = [done["setup_s"]]
    return done


def timed_run(workload: str, seed: int, seconds: float, expected: dict, models: dict,
              env: dict, clock: Clock) -> tuple[dict, list]:
    """SWEEPS[workload] sweeps over the same rounds, spread over the run.

    The first sweep draws rounds until its share of the time is used and
    MIN_OPS operations are done; later sweeps repeat those rounds.  An
    operation's latency and CPU time are its medians over the sweeps.
    """
    source = wl.rounds(workload, seed, expected, models)
    reorder = random.Random(seed)
    sweeps = SWEEPS[workload]
    rounds: list[list[list[dict]]] = []
    # per sweep: operation identity -> record; an operation is known by its
    # round, its worker within the round, its content and its occurrence
    executions: list[dict[tuple, list]] = []
    setup: list[float] = []
    rss = 0.0
    for sweep in range(sweeps):
        start = time.monotonic()
        got: dict[tuple, list] = {}
        seen: collections.Counter = collections.Counter()
        last = 0.0
        for i in itertools.count():
            if sweep == 0:
                # start no round that would end after this sweep's share of
                # the time, once the sweep has MIN_OPS operations
                if time.monotonic() - start + last > seconds / sweeps and len(got) >= MIN_OPS:
                    break
                rounds.append(next(source))
                jobs = rounds[i]
            elif i == len(rounds):
                break
            else:
                jobs = wl.replay(workload, rounds[i], reorder)
            began = time.monotonic()
            for j, ops in enumerate(jobs):
                done = run_ops(workload, ops, expected, env, clock)
                setup.extend(done["setup_s"])
                rss = max(rss, done["rss_mb"])
                for op, record in zip(ops, done["ops"]):
                    key = (i, j, json.dumps(op, sort_keys=True))
                    got[key + (seen[key],)] = record
                    seen[key] += 1
            last = time.monotonic() - began
            setup.extend(run_worker({"kind": "setup"}, env, clock)["setup_s"]
                         for _ in range(SETUP_AFTER_ROUND[workload]))
        executions.append(got)

    best = []
    for key in executions[0]:
        tries = [got[key] for got in executions]
        best.append([statistics.median(t[0] * t[3] for t in tries),
                     statistics.median(t[1] * t[3] for t in tries),
                     statistics.median(t[0] for t in tries)])
    wall = [b[0] for b in best]
    n = len(best)
    raw = f"unscaled {statistics.median(b[2] for b in best):.4g} ms"
    records = [r for got in executions for r in got.values()]
    metrics = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh workers"),
        "ops_per_s": (n / (sum(wall) / 1e3), f"{n} ops in {sum(wall) / 1e3:.2f} s timed"),
        "latency_p50_ms": (statistics.median(wall), f"n={n}, median of {sweeps}, {raw}"),
        "latency_p90_ms": (p90(wall), f"n={n}, {n - math.ceil(0.9 * n)} beyond, median of {sweeps}"),
        "cpu_ms_per_op": (statistics.median(b[1] for b in best), f"median, n={n}"),
        "peak_rss_mb": (rss, "max over workers" if workload != "cli" else "max over CLI processes"),
    }
    return metrics, records


def traced_run(workload: str, seed: int, expected: dict, models: dict,
               env: dict, clock: Clock) -> tuple[dict, list, list[str], str]:
    """Per-layer metrics: the seed's trace list, untraced and traced in
    turn TRACE_PASSES times, then the probes every workload reports."""
    ops = wl.trace_ops(workload, seed, expected, models)
    cli_probe = wl.trace_ops("cli", seed, expected, models)
    records: list = []
    problems: list[str] = []
    plain_ms, traced_ms, passes, cli_plain = [], [], [], []
    for _ in range(TRACE_PASSES):
        for traced in (False, True):
            done = run_ops(workload, ops, expected, env, clock, traced)
            records.extend(done["ops"])
            (traced_ms if traced else plain_ms).append(sum(r[0] * r[3] for r in done["ops"]))
            if traced:
                passes.append(done["metrics"])
                if len(passes) == 1:
                    spans = done["spans"]
        cli_plain.append(run_ops("cli", cli_probe, expected, env, clock)["ops"])
        records.extend(cli_plain[-1])

    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    for key in COUNTS:
        seen = {p[key] for p in passes}
        if len(seen) > 1:
            problems.append(f"count {key} differs between traced passes: {sorted(seen)}")
    for p in passes:
        if abs(p["self_sum_ms"] - p["op_ms"]) > 1e-6 * max(1.0, p["op_ms"]):
            problems.append(f"span self times sum to {p['self_sum_ms']} ms, op time {p['op_ms']} ms")
    metrics["trace_overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)

    probe = run_worker({"kind": "probe", "seed": seed}, env, clock)
    metrics.update(probe["metrics"])
    problems.extend(probe["failures"])
    for i, op in enumerate(cli_probe):
        metrics[f"cli.{op['sub']}_ms"] = statistics.median(p[i][0] for p in cli_plain)
    bare = [run_child([sys.executable, "-c", "pass"], env, clock)["ms"] for _ in range(5)]
    metrics["cli.python_ms"] = statistics.median(bare)
    timer = ("import time; t = time.perf_counter(); import genus2pencils.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    imports = [float(run_child([sys.executable, "-c", timer], env, clock)["output"]) for _ in range(5)]
    metrics["cli.import_ms"] = statistics.median(imports)

    with open(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"], "spans": spans}, handle)
    info = (f"{len(ops)} ops x {TRACE_PASSES} traced passes; span self times sum to "
            f"{passes[0]['self_sum_ms']:.3f} ms, traced op time {passes[0]['op_ms']:.3f} ms; "
            f"overhead {metrics['trace_overhead_ratio']:.3f}")
    return metrics, records, problems, info


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "genus2pencils", "__init__.py")):
        print("bench/run.py: src/genus2pencils not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    expected = wl.load_expected()
    os.makedirs(OUT, exist_ok=True)
    clock = Clock()
    env = child_env()
    # one core for the benchmark and every process it starts, so that the
    # calibration samples measure the core the operations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    broken = gates.self_test(expected)
    for label in broken:
        print(f"gate self-test did not trip: {label}", file=sys.stderr)
    models = write_models()
    # compile the package once so that no measured process pays for it
    run_child([sys.executable, "-c", "import genus2pencils.cli"], env, clock)
    try:
        if args.trace:
            raw, records, problems, info = traced_run(args.workload, args.seed, expected,
                                                      models, env, clock)
            measured = {k: (v, "traced run") for k, v in raw.items()}
            print(info)
        else:
            measured, records = timed_run(args.workload, args.seed, args.seconds, expected,
                                          models, env, clock)
            problems = []
    except (RunFailure, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1

    for problem in problems:
        print(f"problem: {problem}")
    errors = [r[2] for r in records if r[2] is not None]
    for reason in errors[:10]:
        print(f"failed operation: {reason}", file=sys.stderr)
    attempted, failed = len(records), len(errors)
    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f}), gate self-test "
          f"{'ok' if not broken else 'BROKEN'}")
    metrics = {}
    for item in wanted:
        value, note = measured[item["name"]]
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"  {item['name']:<28} {value:>14.6g} {item['unit']:<6} {note}")
    correct = failed == 0 and not broken and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
