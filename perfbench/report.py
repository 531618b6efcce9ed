"""The result of one benchmark run: outcomes, named metrics, the JSON line."""

from __future__ import annotations

import json

#: Most failure diagnostics printed per run (the count is always exact).
MAX_PROBLEMS = 20


class Report:
    """Ops attempted and failed plus every metric a workload measured."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: (name, value, unit, sample count) under the names of MAP.md.
        self.named: list[tuple[str, float, str, int]] = []
        #: BENCHMARK.json ``end_to_end`` name -> value (tracing off).
        self.end_to_end: dict[str, float] = {}
        #: BENCHMARK.json ``per_layer`` name -> value (traced run).
        self.per_layer: dict[str, float] = {}
        #: Traced ops (CLI processes, campaign seeds) behind per-layer data.
        self.trace_samples = 0
        self.settings: dict = {}

    def outcome(self, label: str, problems: list[str]) -> bool:
        """Count one op; returns True when it answered correctly."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return False

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.named.append((name, value, unit, samples))

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def lines(self) -> list[str]:
        """The human-readable part of the output."""
        out = [f"# settings: {json.dumps(self.settings, sort_keys=True)}",
               f"# {'metric':34s} {'value':>14s} {'unit':8s} samples"]
        rows = self.named + [("failed_ratio", self.failed_ratio, "ratio",
                              self.attempted)]
        for name, value, unit, samples in rows:
            out.append(f"  {name:34s} {value:14.4f} {unit:8s} {samples}")
        for problem in self.problems:
            out.append(f"# FAILED {problem}")
        return out

    def result_line(self, spec: dict, trace: bool) -> str:
        """The final JSON line; metric names and units from BENCHMARK.json."""
        section = spec["per_layer"] if trace else spec["end_to_end"]
        values = self.per_layer if trace else self.end_to_end
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing:
            raise RuntimeError(f"{self.workload}: no value for "
                               f"{', '.join(missing)}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in section}
        return json.dumps({"correct": self.failed == 0 and self.attempted > 0,
                           "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": metrics})
