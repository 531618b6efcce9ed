"""Expected answers that the code under test did not produce, and the checks.

* ``bounds --check``: the golden snapshots under ``tests/golden``, read in
  place — ``table1_bounds.json`` for Table 1 and ``inferred_bounds.json``
  for the recursive and function-pointer programs.
* ``run``: the program's exit code and printed output from the Clight
  interpreter (the source-level semantics, not the compiled ASMsz code
  the CLI executes), computed during set-up.  The stack high-water mark
  must be exactly the golden bound minus 4 (main's return-address slot).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from perfbench.sandbox import ROOT

GOLDEN_DIR = ROOT / "tests" / "golden"


@dataclass
class BoundsGolden:
    """What ``bounds`` must print for one program."""

    functions: dict[str, str]          #: function -> printed bound column
    stack_requirement: int


@dataclass
class RunReference:
    """What ``run`` must produce for one program."""

    output: list[str]
    return_code: int


def load_goldens(golden_dir: Path = GOLDEN_DIR) -> dict[str, BoundsGolden]:
    """Golden bounds of every Table 1, recursive and function-pointer file.

    A parametric bound prints symbolically (its text contains a ``$``
    parameter); every other bound prints as bytes.
    """
    with open(golden_dir / "table1_bounds.json") as handle:
        table1 = json.load(handle)
    with open(golden_dir / "inferred_bounds.json") as handle:
        inferred = json.load(handle)
    goldens: dict[str, BoundsGolden] = {}
    for path, entry in table1.items():
        goldens[path] = BoundsGolden(
            {name: str(value) for name, value in entry["functions"].items()},
            entry["stack_requirement"])
    for path, entry in inferred.items():
        functions = {}
        for name, symbolic in entry["symbolic"].items():
            functions[name] = (symbolic if "$" in symbolic
                               else str(entry["bytes_at_100"][name]))
        goldens[path] = BoundsGolden(functions, entry["stack_requirement"])
    return goldens


def clight_reference(path: str) -> RunReference:
    """Run ``path`` on the decoded Clight interpreter (no frontend cache)."""
    from repro.clight.from_c import clight_of_program
    from repro.c.parser import parse
    from repro.c.typecheck import typecheck
    from repro.clight.semantics import run_program
    from repro.events.trace import Converges
    from repro.programs import load_source

    program = parse(load_source(path), path, None)
    clight = clight_of_program(program, typecheck(program))
    output: list = []
    behavior = run_program(clight, output=output, engine="decoded")
    if not isinstance(behavior, Converges):
        raise RuntimeError(f"reference run of {path} did not converge: "
                           f"{type(behavior).__name__}")
    return RunReference([str(item) for item in output],
                        behavior.return_code)


def check_bounds(code: int, stdout: str, golden: BoundsGolden) -> list[str]:
    """Problems with one ``bounds --check`` answer (empty when correct)."""
    problems = []
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# derivations re-checked:"):
        problems.append("no derivation re-check line")
    printed: dict[str, str] = {}
    stack = None
    in_table = False
    for line in lines:
        if line.startswith("function "):
            in_table = True
            continue
        if in_table and not line.strip():
            in_table = False
            continue
        if in_table:
            parts = line.split(None, 3)
            if len(parts) < 4:
                return problems + [f"malformed bounds row {line!r}"]
            printed[parts[0]] = parts[3].strip()
        elif line.startswith("stack requirement for "):
            stack = int(line.split(": ", 1)[1].split()[0])
    if printed != golden.functions:
        wrong = sorted(name for name in set(printed) | set(golden.functions)
                       if printed.get(name) != golden.functions.get(name))
        problems.append(f"bounds differ from golden for {', '.join(wrong)}")
    if stack != golden.stack_requirement:
        problems.append(f"stack requirement {stack}, golden "
                        f"{golden.stack_requirement}")
    return problems


def check_run(code: int, stdout: str, golden: BoundsGolden,
              reference: RunReference) -> list[str]:
    """Problems with one ``run`` answer at the verified bound."""
    bound = golden.stack_requirement
    lines = stdout.splitlines()
    if len(lines) < 3:
        return [f"exit code {code}, truncated output"]
    problems = []
    if lines[0] != f"# using the verified bound as stack size: {bound} bytes":
        problems.append(f"stack size line {lines[0]!r}")
    if lines[-2] != f"# Converges, exit code {reference.return_code}":
        problems.append(f"behavior line {lines[-2]!r}")
    if lines[-1] != (f"# measured stack usage: {bound - 4} bytes "
                     f"(of {bound} available)"):
        problems.append(f"watermark line {lines[-1]!r}")
    if lines[1:-2] != reference.output:
        problems.append("printed output differs from the Clight reference")
    if code != reference.return_code & 0xFF:
        problems.append(f"exit code {code}")
    return problems
