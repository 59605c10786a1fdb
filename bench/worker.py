"""Benchmark worker: one fresh process that runs in-process operations.

It reads one JSON job on stdin and prints one JSON result line on stdout.
Jobs:

- ``setup``: import the package and build every catalog entry; report the
  seconds that took, scaled to the nominal host (see calibrate.py).
- ``ops``: set up, then run a list of verify-catalog, class-enum or
  type-search operations in a closed loop, one at a time.  Each operation
  is timed (wall and process CPU) and its output gated afterwards, outside
  the timed region; calibration samples between operations give each
  record its host-speed factor (see calibrate.py).  With ``trace`` the
  package's functions are wrapped in spans first.
- ``probe``: pairing and class-construction microbenchmarks on P2(12),
  and a serialize/parse/to_fibration round trip of every catalog model.

Run by bench/run.py with the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
import warnings

import calibrate
import gates
import tracer as tracing

ROOT_SPAN = "bench.op"


def _setup(tr: tracing.Tracer | None) -> tuple[float, float]:
    """Import the package and build every catalog entry: (seconds, the
    calibration sample taken after it), with the seconds already scaled."""
    before = calibrate.sample(3)
    start = time.perf_counter()
    from genus2pencils import catalog

    def build() -> list:
        return [catalog.get(tag) for tag in catalog.tags()]

    if tr is None:
        build()
    else:
        tr.install()
        tr.span("bench.build", build)
    spent = time.perf_counter() - start
    after = calibrate.sample(3)
    return spent * calibrate.factor(before, after), after


def _op_runner(workload: str):
    """(call, gate) for one operation: call runs the timed work and returns
    its output; gate(op, output) returns a failure reason or None."""
    if workload == "verify-catalog":
        from genus2pencils import catalog

        def call(op):
            report = catalog.verify(op["tag"])
            return {"passed": report.passed, "checks": [(c.name, c.passed) for c in report.checks]}

        def gate(op, summary):
            return gates.report_gate(summary, op)

        return call, gate
    if workload == "class-enum":
        from genus2pencils import curves
        from genus2pencils.lattice import hirzebruch_blowup, plane_blowup

        def call(op):
            kind, index, n = op["surface"]
            surface = plane_blowup(n) if kind == "plane" else hirzebruch_blowup(index, n)
            return curves.enum_classes(surface, curves.ClassQuery(*op["query"], op["cap"]))

        def gate(op, classes):
            return gates.classes_gate([c.coords for c in classes], op)

        return call, gate
    if workload == "type-search":
        from genus2pencils import numerics

        def call(op):
            fn = numerics.search_general if op["kind"] == "general" else numerics.search_special
            return fn(op["genus"], op["lo"], op["hi"], prune=op["prune"])

        def gate(op, rows):
            return gates.rows_gate(len(rows), op)

        return call, gate
    raise ValueError(f"unknown in-process workload {workload!r}")


def _run_ops(job: dict) -> dict:
    tr = tracing.Tracer() if job["trace"] else None
    setup_s, sampled = _setup(tr)
    call, gate = _op_runner(job["workload"])
    timed = (lambda op: tr.span(ROOT_SPAN, call, op)) if tr is not None else call
    records = []
    paired: dict[int, dict[bool, tuple]] = {}
    pending, since = [], time.perf_counter()
    for index, op in enumerate(job["ops"]):
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            out = timed(op)
            error = None
        except Exception as exc:  # a raising operation counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        cpu1 = time.process_time_ns()
        if error is None:
            error = gate(op, out)
        if "pair" in op and out is not None:
            paired.setdefault(op["pair"], {})[op["prune"]] = (len(records), list(out))
        records.append([(t1 - t0) / 1e6, (cpu1 - cpu0) / 1e6, error])
        del out
        pending.append(records[-1])
        if time.perf_counter() - since >= calibrate.EVERY_S or index == len(job["ops"]) - 1:
            fresh = calibrate.sample()
            for record in pending:
                record.append(calibrate.factor(sampled, fresh))
            pending, sampled, since = [], fresh, time.perf_counter()
    for sides in paired.values():
        if len(sides) == 2 and records[sides[False][0]][2] is None:
            records[sides[False][0]][2] = gates.pair_gate(sides[True][1], sides[False][1])
    result = {"setup_s": setup_s, "ops": records,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tr is not None:
        result["metrics"] = tracing.layer_metrics(tr.spans, ROOT_SPAN)
        result["spans"] = tr.spans
    return result


def _median_ns(fn, items, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(items)
        samples.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(samples)


def _model_data(model) -> tuple:
    """What the model-file format carries: surface, classes, effective list,
    and fibre components by name, class and multiplicity (declared
    self-intersections and genera are not part of the format)."""
    fibres = tuple((d.name, tuple((c.name, c.divisor, c.multiplicity) for c in d.components))
                   for d in model.fibres)
    return model.surface, model.classes, model.effective, fibres


def _probe(job: dict) -> dict:
    from genus2pencils import catalog
    from genus2pencils.lattice import DivisorClass, plane_blowup
    from genus2pencils.modelfile import from_fibration, parse, serialize, to_fibration

    rng = random.Random(job["seed"])
    surface = plane_blowup(12)
    coords = [tuple(rng.randint(-4, 4) for _ in range(13)) for _ in range(20_000)]
    classes = [DivisorClass(surface, c) for c in coords[:400]]
    pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(20_000)]

    def pair_all(items):
        for a, b in items:
            a * b

    def build_all(items):
        for c in items:
            DivisorClass(surface, c)

    metrics = {"lattice.pair_ns": _median_ns(pair_all, pairs),
               "lattice.class_new_ns": _median_ns(build_all, coords)}
    failures = []
    totals: dict[str, list[float]] = {"serialize": [], "parse": [], "to_fibration": []}
    for _ in range(5):
        spent = dict.fromkeys(totals, 0.0)
        for tag in catalog.tags():
            entry = catalog.get(tag)
            model = from_fibration(entry.fibration, entry.effective)
            t0 = time.perf_counter()
            text = serialize(model)
            t1 = time.perf_counter()
            again = parse(text)
            t2 = time.perf_counter()
            fib = to_fibration(again)
            t3 = time.perf_counter()
            spent["serialize"] += t1 - t0
            spent["parse"] += t2 - t1
            spent["to_fibration"] += t3 - t2
            if _model_data(again) != _model_data(model) or serialize(again) != text \
                    or fib.fibre_class != entry.fibration.fibre_class:
                failures.append(f"model file round trip of {tag} is not exact")
        for key, value in spent.items():
            totals[key].append(value * 1e3)
    for key, values in totals.items():
        metrics[f"modelfile.{key}_ms"] = statistics.median(values)
    return {"metrics": metrics, "failures": failures}


def main() -> int:
    job = json.loads(sys.stdin.read())
    warnings.simplefilter("ignore")
    if job["kind"] == "setup":
        result = {"setup_s": _setup(None)[0]}
    elif job["kind"] == "ops":
        result = _run_ops(job)
    else:
        result = _probe(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
