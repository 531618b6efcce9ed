"""Span tracing from the benchmark's own files, for the traced runs.

:func:`install` rebinds the public functions each layer exposes — at the
names ``repro.__main__``, ``repro.driver``, the campaign and the checker
actually call — to wrappers that record one span per call: name, start,
end and the enclosing span.  Nothing inside ``src/`` changes.  Span names
reuse the ``repro.obs`` names where ``repro.obs`` already has a span at
the same boundary.  Spans stay in memory; :meth:`Recorder.summary` folds
them into per-name totals and self times once, at the end of a process.

A module the traced code imports lazily (``repro.asm.codegen``, the
recursion inference, …) is patched by an import hook the moment it is
first imported, so tracing does not change what gets imported when.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from collections import Counter

#: The package's layers, as named in the benchmark's map.
LAYER_NAMES = ("cli", "c", "clight", "cminor", "rtl", "linear", "mach",
               "asm", "analyzer", "logic", "testing")

#: The entry points a traced process calls.  Their own time (the glue
#: between the layers' functions) belongs to no layer: it is the
#: untraced residual, so work moving into a function no wrapper sees
#: lowers ``trace.layer_share``.
ROOT_SPANS = ("cli.main", "testing.campaign")

#: Span name -> layer.
LAYER_OF = {
    "cli.startup": "cli", "cli.import": "cli", "cli.argparse": "cli",
    "cli.exit": "cli",
    "compile.parse": "c", "compile.typecheck": "c",
    "compile.clight": "clight", "exec.clight": "clight",
    "analyzer.values.resolve": "analyzer", "analyze.auto": "analyzer",
    "analyzer.recursion.infer": "analyzer",
    "compile.cminor": "cminor",
    "compile.rtl": "rtl", "compile.rtl.constprop": "rtl",
    "compile.rtl.cse": "rtl", "compile.rtl.tailcall": "rtl",
    "compile.rtl.deadcode": "rtl",
    "compile.linear": "linear",
    "compile.mach": "mach",
    "compile.asm": "asm", "codegen.asm": "asm", "exec.asm": "asm",
    "analyze.check": "logic", "logic.bound_le": "logic",
    "testing.generate": "testing", "testing.oracle": "testing",
}

#: (module, attribute, span name); a dotted attribute patches a class.
TARGETS = [
    ("repro.__main__", "_build_parser", "cli.argparse"),
    ("repro.driver", "parse", "compile.parse"),
    ("repro.driver", "typecheck", "compile.typecheck"),
    ("repro.driver", "clight_of_program", "compile.clight"),
    ("repro.clight.from_c", "resolve_function_pointers",
     "analyzer.values.resolve"),
    ("repro.driver", "cminor_of_clight", "compile.cminor"),
    ("repro.driver", "rtl_of_cminor", "compile.rtl"),
    ("repro.driver", "constprop_program", "compile.rtl.constprop"),
    ("repro.driver", "cse_program", "compile.rtl.cse"),
    ("repro.driver", "tailcall_program", "compile.rtl.tailcall"),
    ("repro.driver", "deadcode_program", "compile.rtl.deadcode"),
    ("repro.driver", "linear_of_rtl", "compile.linear"),
    ("repro.driver", "mach_of_linear", "compile.mach"),
    ("repro.driver", "asm_of_mach", "compile.asm"),
    ("repro.driver", "run_asm", "exec.asm"),
    ("repro.asm.codegen", "codegen_program", "codegen.asm"),
    ("repro.analyzer.auto", "StackAnalyzer.analyze", "analyze.auto"),
    ("repro.analyzer.recursion", "infer_recursive_spec",
     "analyzer.recursion.infer"),
    ("repro.analyzer.auto", "AnalysisResult.check", "analyze.check"),
    ("repro.logic.bexpr", "bound_le", "logic.bound_le"),
    ("repro.logic.checker", "bound_le", "logic.bound_le"),
    ("repro.logic.recursion", "bound_le", "logic.bound_le"),
    ("repro.testing.oracles", "stream_clight", "exec.clight"),
    ("repro.testing.campaign", "generate_program", "testing.generate"),
    ("repro.testing.campaign", "check_seed", "testing.oracle"),
]


def _count_asm_steps(counts: Counter, result) -> None:
    _behavior, machine = result
    counts["asm.steps"] += machine.steps


def _count_clight_steps(counts: Counter, result) -> None:
    counts["clight.steps"] += result.steps


def _count_checker_nodes(counts: Counter, result) -> None:
    counts["logic.checker_nodes"] += result.nodes


def _count_bound_le(counts: Counter, _result) -> None:
    counts["logic.bound_le_count"] += 1


#: Exact counts taken from a traced call's result.
COUNTERS = {"exec.asm": _count_asm_steps,
            "exec.clight": _count_clight_steps,
            "analyze.check": _count_checker_nodes,
            "logic.bound_le": _count_bound_le}


class Recorder:
    """The spans and counts of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []    #: [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. process start-up)."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])

    def wrap(self, name: str, fn, after=None):
        """``fn`` with one span recorded per call."""
        spans, opened, now = self.spans, self._open, time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, now(), 0.0, opened[-1] if opened else -1]
            spans.append(record)
            opened.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                opened.pop()
                record[2] = now()
            if after is not None:
                after(counts, result)
            return result

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds, plus counts."""
        from repro.logic.bexpr import nf_cache_stats

        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, list] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[index]
        nf = nf_cache_stats()
        counts = dict(self.counts)
        counts["logic.nf_hits"] = nf["hits"]
        counts["logic.nf_misses"] = nf["misses"]
        return {"names": names, "counts": counts}


def _patch(recorder: Recorder, attribute: str, name: str, module) -> None:
    owner = module
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, leaf)
    if name == "codegen.asm":
        traced = recorder.wrap(name, original)

        def codegen_program(program):
            # A cache hit hands back the already compiled program; only
            # a generation is a span and counts toward asm.codegen_count.
            if module.cached_program(program) is not None:
                return original(program)
            recorder.counts["asm.codegen_count"] += 1
            return traced(program)

        setattr(owner, leaf, functools.update_wrapper(codegen_program,
                                                      original))
        return
    setattr(owner, leaf, recorder.wrap(name, original, COUNTERS.get(name)))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies pending patches right after a module's first import."""

    def __init__(self, pending: dict[str, list]) -> None:
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        patches = self.pending.pop(fullname, None)
        if patches is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def patched(module):
            exec_module(module)
            for patch in patches:
                patch(module)

        spec.loader.exec_module = patched
        return spec


def install(recorder: Recorder) -> None:
    """Wrap every target now, or at the first import of its module."""
    pending: dict[str, list] = {}
    for module_name, attribute, name in TARGETS:
        patch = functools.partial(_patch, recorder, attribute, name)
        module = sys.modules.get(module_name)
        if module is None:
            pending.setdefault(module_name, []).append(patch)
        else:
            patch(module)
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(pending))


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries; keeps each process's value per name."""
    names: dict[str, list] = {}
    counts: Counter = Counter()
    per_process: dict[str, list[float]] = {}
    for summary in summaries:
        for name, (calls, inclusive, own) in summary["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += inclusive
            entry[2] += own
            per_process.setdefault(name, []).append(inclusive)
        counts.update(summary["counts"])
    return {"names": names, "counts": dict(counts),
            "per_process": per_process}


def layer_self_seconds(merged: dict) -> dict[str, float]:
    """Self seconds per layer (root spans and unnamed spans left out)."""
    totals = dict.fromkeys(LAYER_NAMES, 0.0)
    for name, (_calls, _inclusive, own) in merged["names"].items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            totals[layer] += own
    return totals


def layer_metrics(merged: dict, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of a traced in-process run (ms unless named).

    A pass timing is the inclusive time of its function; ``asm.exec_ms``
    and ``testing.oracle_ms`` are self times (``run_program`` minus its
    codegen child, ``check_seed`` minus every traced call under it).
    """
    names, counts = merged["names"], merged["counts"]

    def inclusive(name: str) -> float:
        return names[name][1] * 1000.0 if name in names else 0.0

    def own(name: str) -> float:
        return names[name][2] * 1000.0 if name in names else 0.0

    def rate(steps: int, ms: float) -> float:
        return steps / (ms / 1000.0) if ms else 0.0

    nf_total = counts.get("logic.nf_hits", 0) + counts.get("logic.nf_misses",
                                                           0)
    metrics = {
        "c.parse_ms": inclusive("compile.parse"),
        "c.typecheck_ms": inclusive("compile.typecheck"),
        "clight.lower_ms": inclusive("compile.clight"),
        "analyzer.values_ms": inclusive("analyzer.values.resolve"),
        "cminor.lower_ms": inclusive("compile.cminor"),
        "rtl.lower_ms": inclusive("compile.rtl"),
        "rtl.constprop_ms": inclusive("compile.rtl.constprop"),
        "rtl.cse_ms": inclusive("compile.rtl.cse"),
        "rtl.tailcall_ms": inclusive("compile.rtl.tailcall"),
        "rtl.deadcode_ms": inclusive("compile.rtl.deadcode"),
        "linear.lower_ms": inclusive("compile.linear"),
        "mach.lower_ms": inclusive("compile.mach"),
        "asm.lower_ms": inclusive("compile.asm"),
        "asm.codegen_ms": inclusive("codegen.asm"),
        "asm.codegen_count": counts.get("asm.codegen_count", 0),
        "asm.exec_ms": own("exec.asm"),
        "asm.steps": counts.get("asm.steps", 0),
        "asm.exec_steps_per_s": rate(counts.get("asm.steps", 0),
                                     own("exec.asm")),
        "clight.exec_steps_per_s": rate(counts.get("clight.steps", 0),
                                        inclusive("exec.clight")),
        "analyzer.analyze_ms": inclusive("analyze.auto"),
        "analyzer.recursion_ms": inclusive("analyzer.recursion.infer"),
        "logic.check_ms": inclusive("analyze.check"),
        "logic.bound_le_ms": inclusive("logic.bound_le"),
        "logic.bound_le_count": counts.get("logic.bound_le_count", 0),
        "logic.checker_nodes": counts.get("logic.checker_nodes", 0),
        "logic.nf_hit_rate": (counts.get("logic.nf_hits", 0) / nf_total
                              if nf_total else 0.0),
        "testing.generate_ms": inclusive("testing.generate"),
        "testing.oracle_ms": own("testing.oracle"),
    }
    layers = layer_self_seconds(merged)
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_ms"] = seconds * 1000.0
    metrics["trace.residual_ms"] = sum(own(name) for name in ROOT_SPANS)
    metrics["trace.layer_share"] = (sum(layers.values()) / traced_wall_s
                                    if traced_wall_s else 0.0)
    return metrics
