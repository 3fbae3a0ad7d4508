"""Per-layer tracing from outside the program.

The tracer wraps public functions of the six sdident modules and
replaces every module binding that holds them (``sdident.parse``,
``ident.constitutive``, ``oracle.analyze``, ``cli.verify_local`` ...),
so calls between layers pass through the wrappers and spans nest.  A
span's self time is its duration minus that of the spans it encloses;
time in a function that is not wrapped counts toward the nearest
wrapped caller.  The hottest methods are only counted, so their time
stays with their caller and the tracing cost stays small.  Calls made
between requests (the benchmark building its next input) are not traced.

Spans stay in memory (request, id, parent, name, start, end) and are
written out when the run ends.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time

LAYERS = ("network", "nettypes", "opalg", "ident", "oracle", "cli")

# functions timed as spans, per layer; "Class.method" names a method
SPANS = {
    "network": ("parse", "flatten", "render", "params", "leaves"),
    "nettypes": ("type_trace", "classify", "format_tables"),
    "opalg": ("constitutive", "coefficient_map", "equation_to_json"),
    "ident": ("analyze", "exact_rank", "exact_det", "constructible_one_at_a_time"),
    "oracle": (
        "verify_local", "jacobian_rank", "jacobian_matrix", "sample_point",
        "fiber_solutions", "sibling_groups", "CompiledMap.__init__", "CompiledMap.value_exact",
    ),
    "cli": ("main", "build_report"),
}

# methods called tens of thousands of times per request: counted only
COUNTED = {"oracle": ("CompiledMap.value", "CompiledMap.jacobian")}

FIBER_METHODS = ("base", "permutation", "root-exchange", "multistart")


def _equation_terms(eq) -> int:
    """Monomials in a derived equation: sum of len(poly.terms)."""
    return sum(len(p.terms) for op in (eq.eps, eq.sig) for p in op.coeffs)


def _after_constitutive(tracer: "Tracer", args, result) -> None:
    tracer.peak("opalg.eq_terms", _equation_terms(result))


def _after_exact_rank(tracer: "Tracer", args, result) -> None:
    matrix = args[0]
    tracer.add("ident.exact_rank.cells", len(matrix) * (len(matrix[0]) if matrix else 0))


def _after_fiber(tracer: "Tracer", args, report) -> None:
    tracer.add("oracle.fiber.solutions", len(report.solutions))
    for sol in report.solutions:
        tracer.add(f"oracle.fiber.by_method.{sol.method}", 1)
    tracer.add("oracle.fiber.starts", report.multistarts)


HOOKS = {
    "opalg.constitutive": _after_constitutive,
    "ident.exact_rank": _after_exact_rank,
    "oracle.fiber_solutions": _after_fiber,
}


class Tracer:
    """Spans and counters of one process, aggregated per request."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, errors]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.requests = 0
        self.request_s = 0.0
        self.open = False  # inside a request
        self._stack: list[list] = []  # [child time, span id] of open spans
        self._ids = itertools.count(1)
        self._peaks: dict[str, float] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Patch every binding of the traced functions; returns the names
        that no longer exist in the program."""
        missing = []
        for layer in LAYERS:
            importlib.import_module(f"sdident.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "sdident" or n.startswith("sdident.")]
        for layer in LAYERS:
            module = sys.modules[f"sdident.{layer}"]
            for name in SPANS.get(layer, ()) + COUNTED.get(layer, ()):
                key = f"{layer}.{name}"
                counted = name in COUNTED.get(layer, ())
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name, None)
                    original = vars(cls).get(attr) if cls is not None else None
                    if original is None:
                        missing.append(key)
                        continue
                    setattr(cls, attr, self._wrap(key, original, counted))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    missing.append(key)
                    continue
                wrapper = self._wrap(key, original, counted)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        return missing

    def _wrap(self, key: str, fn, counted: bool):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        tracer = self
        if counted:

            def counter(*args, **kwargs):
                if not tracer.open:
                    return fn(*args, **kwargs)
                stat[0] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat[3] += 1
                    raise

            return counter

        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        hook = HOOKS.get(key)

        def span(*args, **kwargs):
            if not tracer.open:
                return fn(*args, **kwargs)
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                total = end - start
                stat[0] += 1
                stat[1] += total - frame[0]
                stat[2] += total
                if stack:
                    stack[-1][0] += total
                spans.append((tracer.requests, frame[1], parent, key, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return span

    # -- counters ------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        """Per-request maximum, summed over requests when each ends."""
        self._peaks[name] = max(self._peaks.get(name, 0), value)

    def begin_request(self) -> None:
        self.requests += 1
        self._peaks = {}
        self.open = True

    def end_request(self, seconds: float) -> None:
        self.open = False
        self.request_s += seconds
        for name, value in self._peaks.items():
            self.add(name, value)
        self._peaks = {}

    # -- a traced CLI child --------------------------------------------------

    def child_summary(self) -> dict:
        """What a traced CLI process sends back: its totals and the time
        covered by its outermost spans."""
        for name, value in self._peaks.items():
            self.add(name, value)
        top = sum(end - start for _, _, parent, _, start, end in self.spans if parent == 0)
        return {"stats": self.stats, "counters": self.counters, "top_s": top}

    def merge_child(self, summary: dict, wall: float, imports: dict) -> None:
        """Fold a CLI child's totals into this request.  The process span
        keeps what its traced calls do not cover: interpreter start,
        imports and exit."""
        for key, (calls, self_s, total_s, errors) in summary["stats"].items():
            stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
            stat[0] += calls
            stat[1] += self_s
            stat[2] += total_s
            stat[3] += errors
        for name, value in summary["counters"].items():
            self.add(name, value)
        process = self.stats.setdefault("cli.process", [0, 0.0, 0.0, 0])
        process[0] += 1
        process[1] += wall - summary["top_s"]
        process[2] += wall
        self.add("cli.import_s", imports.get("sdident", 0.0))
        self.add("cli.import_numpy_s", imports.get("numpy", 0.0))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-request means of the per-layer metrics."""
        n = max(self.requests, 1)
        stats, counters = self.stats, self.counters

        def self_s(key):
            return stats.get(key, [0, 0.0, 0.0, 0])[1] / n

        def calls(key):
            return stats.get(key, [0, 0.0, 0.0, 0])[0] / n

        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in stats if k.split(".")[0] == layer]
            out[f"{layer}.self_s"] = sum(stats[k][1] for k in keys) / n
            out[f"{layer}.errors"] = sum(stats[k][3] for k in keys) / n
        out["network.parse.self_s"] = self_s("network.parse")
        out["network.parse.calls"] = calls("network.parse")
        out["nettypes.type_trace.self_s"] = self_s("nettypes.type_trace")
        out["nettypes.type_trace.calls"] = calls("nettypes.type_trace")
        out["opalg.constitutive.self_s"] = self_s("opalg.constitutive")
        out["opalg.constitutive.calls"] = calls("opalg.constitutive")
        out["opalg.coefficient_map.self_s"] = self_s("opalg.coefficient_map")
        out["opalg.equation_to_json.self_s"] = self_s("opalg.equation_to_json")
        out["opalg.eq_terms"] = counters.get("opalg.eq_terms", 0) / n
        out["ident.analyze.self_s"] = self_s("ident.analyze")
        out["ident.analyze.calls"] = calls("ident.analyze")
        out["ident.exact_rank.self_s"] = self_s("ident.exact_rank")
        out["ident.exact_rank.calls"] = calls("ident.exact_rank")
        out["ident.exact_rank.cells"] = counters.get("ident.exact_rank.cells", 0) / n
        out["oracle.jacobian_matrix.self_s"] = self_s("oracle.jacobian_matrix")
        out["oracle.jacobian_matrix.calls"] = calls("oracle.jacobian_matrix")
        out["oracle.verify_local.self_s"] = self_s("oracle.verify_local")
        out["oracle.CompiledMap.init_s"] = self_s("oracle.CompiledMap.__init__")
        out["oracle.CompiledMap.value.calls"] = calls("oracle.CompiledMap.value")
        out["oracle.CompiledMap.jacobian.calls"] = calls("oracle.CompiledMap.jacobian")
        out["oracle.fiber_solutions.self_s"] = self_s("oracle.fiber_solutions")
        out["oracle.fiber.solutions"] = counters.get("oracle.fiber.solutions", 0) / n
        for method in FIBER_METHODS:
            out[f"oracle.fiber.by_method.{method}"] = (
                counters.get(f"oracle.fiber.by_method.{method}", 0) / n
            )
        starts = counters.get("oracle.fiber.starts", 0)
        found = counters.get("oracle.fiber.by_method.multistart", 0)
        out["oracle.fiber.multistart_yield"] = found / starts if starts else 0.0
        out["cli.process_s"] = stats.get("cli.process", [0, 0.0, 0.0, 0])[2] / n
        out["cli.import_s"] = counters.get("cli.import_s", 0) / n
        out["cli.import_numpy_s"] = counters.get("cli.import_numpy_s", 0) / n
        out["cli.main.self_s"] = self_s("cli.main")
        self_sum = sum(s[1] for s in stats.values()) / n
        request_s = self.request_s / n
        out["trace.request_s"] = request_s
        out["trace.self_sum_s"] = self_sum
        out["trace.coverage"] = self_sum / request_s if request_s else 0.0
        out["trace.requests"] = float(self.requests)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for request, span_id, parent, key, start, end in self.spans:
                out.write(json.dumps([request, span_id, parent, key, start, end]) + "\n")
