"""In-memory spans around the package's public functions.

install() replaces each function listed in WRAPPED, in its defining module
and in every package module that imported it by name (catalog imports most
of them), with a wrapper that records a span: name, start, end and parent.
Nothing in the package is edited; the wrappers live only in a traced
worker.  layer_metrics() turns the spans into per-layer counts, busy time
and self time.
"""

from __future__ import annotations

import functools
import importlib
import warnings
from time import perf_counter_ns

LAYERS = ("lattice", "curves", "numerics", "sharp", "fibres", "intmat", "catalog", "modelfile", "cli")

# (module, function) pairs wrapped in a traced worker; the span name is
# "<module>.<function>"
WRAPPED = (
    ("lattice", "adjoint_square"),
    ("lattice", "picard_number"),
    ("lattice", "cremona"),
    ("lattice", "blow_down"),
    ("curves", "enum_classes"),
    ("curves", "minus_one_section_exists"),
    ("curves", "fibre_intersection_identity"),
    ("numerics", "search_general"),
    ("numerics", "search_special"),
    ("sharp", "sharp_minimal_pipeline"),
    ("sharp", "reduction"),
    ("sharp", "greedy_sharp_minimal"),
    ("sharp", "canonical_p2_model"),
    ("fibres", "validate_fibre"),
    ("fibres", "dual_graph"),
    ("fibres", "ade_classify"),
    ("fibres", "shioda_rank"),
    ("fibres", "orthogonal_decomposition_check"),
    ("fibres", "complement_lattice"),
    ("intmat", "hermite_with_transform"),
    ("intmat", "hermite_normal_form"),
    ("intmat", "kernel_basis"),
    ("intmat", "bareiss_determinant"),
    ("intmat", "rational_rank"),
    ("intmat", "is_negative_semidefinite"),
    ("catalog", "get"),
    ("catalog", "verify"),
    ("modelfile", "parse"),
    ("modelfile", "serialize"),
    ("modelfile", "to_fibration"),
    ("modelfile", "from_fibration"),
    ("cli", "main"),
)

PACKAGE = "genus2pencils"


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index, attrs] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._enum_seen: dict = {}
        self._pending_warnings = 0

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else None, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            result = self.span(name, fn, *args, **kwargs)
            if describe is not None:
                self.spans[index][4] = describe(args, kwargs, result)
            return result

        return traced

    def _describe_enum(self, args, kwargs, result):
        from genus2pencils.curves import DEFAULT_BUDGET

        budget = args[2] if len(args) > 2 else kwargs.get("budget", DEFAULT_BUDGET)
        key = (args[0], args[1], budget)
        hit = self._enum_seen.get(key) is result
        self._enum_seen[key] = result
        return {"hit": hit, "classes": len(result)}

    def _describe_search(self, fn):
        # ceiling warnings are counted and not re-emitted: workers ignore
        # them anyway, and a traced CLI process only loses a stderr line
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = fn(*args, **kwargs)
            self._pending_warnings = len(caught)
            return rows

        def describe(args, kwargs, rows):
            return {"prune": kwargs.get("prune", True), "rows": len(rows),
                    "warnings": self._pending_warnings}

        return counted, describe

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever the package binds it."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        modules[""] = importlib.import_module(PACKAGE)
        for module_name, attr in WRAPPED:
            original = getattr(modules[module_name], attr)
            fn, describe = original, None
            if attr == "enum_classes":
                describe = self._describe_enum
            elif attr.startswith("search_"):
                fn, describe = self._describe_search(original)
            elif attr == "sharp_minimal_pipeline":
                describe = _describe_pipeline
            elif attr == "verify":
                describe = _describe_verify
            traced = self.wrap(f"{module_name}.{attr}", fn, describe)
            for module in modules.values():
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, traced)
        fibration = modules["lattice"].Fibration
        fibration.validate = self.wrap("lattice.validate", fibration.validate)


def _describe_pipeline(args, kwargs, result):
    return {"contractions": len(result.reduced.trace.steps) + len(result.model.trace.steps)}


def _describe_verify(args, kwargs, report):
    return {"tag": report.tag, "checks": len(report.checks)}


def _self_times(spans: list[list]) -> list[int]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _outermost(spans: list[list], index: int, prefix: str) -> bool:
    """No ancestor of the span carries the same name prefix."""
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0].startswith(prefix):
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(spans: list[list], root: str) -> dict[str, float]:
    """Per-layer counts and times (ms) over the spans under ``root``.

    ``root`` names the benchmark's own span around each operation, so the
    self times of the spans under the roots add up to the roots' total
    duration.  catalog.build_ms is the set-up span "bench.build" instead.
    """
    own = _self_times(spans)
    under = [i for i in range(len(spans)) if _has_root(spans, i, root)]
    ms = 1e-6
    out: dict[str, float] = {}

    def total(name: str, where=lambda a: True) -> tuple[int, float]:
        picked = [i for i in under
                  if spans[i][0] == name and where(spans[i][4] or {}) and _outermost(spans, i, name)]
        return len(picked), sum(spans[i][2] - spans[i][1] for i in picked) * ms

    def attrs(name: str) -> list[dict]:
        return [spans[i][4] for i in under if spans[i][0] == name]

    for layer in LAYERS:
        prefix = layer + "."
        mine = [i for i in under if spans[i][0].startswith(prefix)]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.busy_ms"] = sum(
            spans[i][2] - spans[i][1] for i in mine if _outermost(spans, i, prefix)
        ) * ms
        out[f"{layer}.self_ms"] = sum(own[i] for i in mine) * ms

    enum = attrs("curves.enum_classes")
    hits = sum(1 for a in enum if a["hit"])
    out["curves.enum_calls"] = len(enum)
    out["curves.enum_hits"] = hits
    out["curves.enum_hit_ratio"] = hits / len(enum) if enum else 0.0
    out["curves.enum_ms"] = total("curves.enum_classes")[1]
    out["curves.classes"] = sum(a["classes"] for a in enum if not a["hit"])
    miss_ms = total("curves.enum_classes", lambda a: not a["hit"])[1]
    out["curves.classes_per_s"] = out["curves.classes"] / (miss_ms / 1e3) if miss_ms else 0.0
    out["curves.section_ms"] = total("curves.minus_one_section_exists")[1]
    out["curves.identity_ms"] = total("curves.fibre_intersection_identity")[1]

    searches = attrs("numerics.search_general") + attrs("numerics.search_special")
    for prune, label in ((True, "pruned"), (False, "unpruned")):
        out[f"numerics.search_ms.{label}"] = sum(
            total(name, lambda a: a["prune"] == prune)[1]
            for name in ("numerics.search_general", "numerics.search_special")
        )
    out["numerics.rows"] = sum(a["rows"] for a in searches)
    out["numerics.ceiling_warnings"] = sum(a["warnings"] for a in searches)

    out["sharp.pipeline_ms"] = total("sharp.sharp_minimal_pipeline")[1]
    out["sharp.contractions"] = sum(a["contractions"] for a in attrs("sharp.sharp_minimal_pipeline"))
    for metric, name in (("validate_ms", "validate_fibre"), ("ade_ms", "ade_classify"),
                         ("decomp_ms", "orthogonal_decomposition_check"),
                         ("complement_ms", "complement_lattice")):
        out[f"fibres.{metric}"] = total(f"fibres.{name}")[1]
    out["intmat.hnf_calls"], out["intmat.hnf_ms"] = total("intmat.hermite_with_transform")

    verifies = [(spans[i][4], spans[i][2] - spans[i][1]) for i in under
                if spans[i][0] == "catalog.verify"]
    out["catalog.checks"] = sum(a["checks"] for a, _ in verifies)
    for tag in ("A", "B1", "B2", "C", "Ex4_3", "Ex4_4", "Ex4_5", "Ex4_6"):
        out[f"catalog.verify_ms.{tag}"] = sum(d for a, d in verifies if a["tag"] == tag) * ms
    out["catalog.build_ms"] = sum(s[2] - s[1] for s in spans if s[0] == "bench.build") * ms

    out["op_ms"] = sum(s[2] - s[1] for s in spans if s[0] == root) * ms
    out["self_sum_ms"] = sum(own[i] for i in under) * ms
    return out


def _has_root(spans: list[list], index: int | None, root: str) -> bool:
    while index is not None:
        if spans[index][0] == root:
            return True
        index = spans[index][3]
    return False
