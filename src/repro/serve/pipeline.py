"""The staged verify pipeline behind ``repro serve``.

``run_pipeline`` is ``driver.verify_stack_bounds`` re-expressed with a
:class:`~repro.serve.store.ResultStore` consulted at every stage
boundary:

========  =======================================  =====================
stage     computes                                 keyed by
========  =======================================  =====================
frontend  parse + typecheck + Clight lowering      sha256(source, macros)
backend   Cminor → … → Mach metric ``M(f)``        source × options.key()
analyze   automatic analyzer → proof certificate   sha256(source, macros)
check     ``load_certificate`` derivation re-run   sha256(source, macros)
========  =======================================  =====================

A repeat request hits the store at all four stages; a near-repeat (same
source, different backend flags) misses only ``backend``.  The analyze
stage stores the *certificate* — the paper's independently re-checkable
artifact — and the check stage is literally ``load_certificate`` run
against the (possibly cached) Clight program, so the trust root of a
served bound is the same checker that guards the CLI and the campaign.

The response document is schema'd (:data:`RESPONSE_SCHEMA`) and
:func:`validate_response` is its executable definition, used by the
serving fault operators and the smoke gate.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import OrderedDict
from typing import Any, Optional

from repro import obs
from repro.driver import (CompilerOptions, analyze_clight, compile_clight,
                          compile_frontend)
from repro.errors import AnalysisError
from repro.logic.bexpr import INFINITY, evaluate
from repro.logic.certificate import (bexpr_from_json, export_certificate,
                                     load_certificate)
from repro.serve.store import (ResultStore, ServeError, options_digest,
                               source_digest, stage_key)

#: The stage boundaries, in pipeline order.
STAGES = ("frontend", "backend", "analyze", "check")

#: Response document schema identifier (bump on incompatible changes).
RESPONSE_SCHEMA = "repro.serve.response/1"


class ServeRequest:
    """One verify request: a translation unit plus compiler options."""

    def __init__(self, source: str, filename: str = "<request>",
                 macros: Optional[dict[str, str]] = None,
                 options: Optional[CompilerOptions] = None,
                 probe: bool = False) -> None:
        self.source = source
        self.filename = filename
        self.macros = macros
        self.options = options or CompilerOptions()
        #: Execute the program at its verified bound on the codegen tier
        #: and attach the observed watermark to the response.
        self.probe = probe

    def keys(self) -> dict[str, str]:
        """The store key of every stage boundary for this request."""
        src = source_digest(self.source, self.macros)
        opt = options_digest(self.options)
        return {"frontend": stage_key("frontend", src),
                "backend": stage_key("backend", src, opt),
                "analyze": stage_key("analyze", src),
                "check": stage_key("check", src)}


def options_from_json(data: Optional[dict]) -> CompilerOptions:
    """Build ``CompilerOptions`` from a request's ``options`` object.

    Field names are validated against ``CompilerOptions.__init__`` (the
    same audited surface ``tests/unit/test_compiler_options.py`` locks),
    so a typo'd flag is a diagnosed 400, never a silently-default cache
    key.
    """
    data = data or {}
    if not isinstance(data, dict):
        raise ServeError("options must be a JSON object of booleans")
    valid = set(inspect.signature(CompilerOptions).parameters)
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ServeError(
            f"unknown compiler option(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(valid))}")
    for name, value in data.items():
        if not isinstance(value, bool):
            raise ServeError(f"compiler option {name!r} must be a boolean")
    return CompilerOptions(**data)


#: Compiled programs kept warm across requests, keyed by the backend
#: stage key (source x options).  Holding the ``AsmProgram`` alive keeps
#: its generated code object alive too — the codegen tier caches per
#: program in a ``WeakKeyDictionary`` — so a warm probe skips re-codegen
#: entirely.  Small and LRU-bounded: entries are whole programs.
_warm_programs: "OrderedDict[str, Any]" = OrderedDict()
_WARM_CAP = 32

#: Probe executions are demonstrations, not campaigns: cap the fuel.
PROBE_FUEL = 50_000_000


def _warm_put(key: str, asm_program: Any) -> None:
    _warm_programs[key] = asm_program
    _warm_programs.move_to_end(key)
    while len(_warm_programs) > _WARM_CAP:
        _warm_programs.popitem(last=False)


def _warm_get(key: str) -> Optional[Any]:
    asm_program = _warm_programs.get(key)
    if asm_program is not None:
        _warm_programs.move_to_end(key)
        obs.add("serve.codegen.warm_hits")
    else:
        obs.add("serve.codegen.warm_misses")
    return asm_program


def _run_probe(request: ServeRequest, keys: dict[str, str], clight,
               stack_bytes: int, warm: bool) -> dict:
    """Execute at the verified bound on the codegen tier.

    The probe is the serving-path version of the Theorem 1 experiment:
    a stack block of exactly the served ``stack_requirement`` bytes must
    run the program to completion, and the measured high-water mark is
    returned next to the bound it must stay under.
    """
    from repro.asm.codegen import cached_program
    from repro.asm.machine import run_program
    from repro.events.trace import Converges

    asm_program = _warm_get(keys["backend"])
    if asm_program is None:
        asm_program = compile_clight(clight, request.options).asm
        _warm_put(keys["backend"], asm_program)
    codegen_origin = ("warm" if cached_program(asm_program) is not None
                      else "generated")
    output: list = []
    behavior, machine = run_program(asm_program, stack_bytes=stack_bytes,
                                    output=output, fuel=PROBE_FUEL,
                                    engine="codegen")
    converged = isinstance(behavior, Converges)
    probe = {"engine": "codegen", "warm": warm,
             "codegen": codegen_origin,
             "stack_bytes": stack_bytes, "converged": converged,
             "measured_bytes": machine.measured_stack_usage,
             "steps": machine.steps}
    if converged:
        probe["return_code"] = behavior.return_code
    else:
        probe["reason"] = getattr(behavior, "reason",
                                  type(behavior).__name__)
    return probe


def run_pipeline(request: ServeRequest, store: ResultStore) -> dict:
    """Run (or replay) the full verify pipeline for one request.

    Returns the response payload (see ``docs/SERVING.md``); raises
    :class:`~repro.errors.ReproError` subclasses for programs the
    pipeline rejects (parse errors, recursion, …) — the server maps
    those to 422 responses.
    """
    started = time.perf_counter()
    keys = request.keys()
    # Warmness is a property of the *request boundary*: was the compiled
    # program already resident when this request arrived?  (The backend
    # stage itself populates the cache, so probing after the stages
    # would always look warm.)
    probe_was_warm = keys["backend"] in _warm_programs
    stages: dict[str, str] = {}
    with store.pinned(*keys.values()):
        with obs.span("serve.pipeline", filename=request.filename):
            # frontend: parse + typecheck + lower to Clight
            clight = store.get(keys["frontend"], codec="pickle")
            if clight is None:
                stages["frontend"] = "miss"
                clight = compile_frontend(request.source, request.filename,
                                          request.macros)
                store.put(keys["frontend"], clight, codec="pickle")
            else:
                stages["frontend"] = "hit"

            # backend: everything later stages need from the compiler —
            # the Mach SF map and the metric M(f) = SF(f) + 4.
            backend = store.get(keys["backend"])
            if backend is None:
                stages["backend"] = "miss"
                compilation = compile_clight(clight, request.options)
                backend = {"frame_sizes": compilation.frame_sizes,
                           "metric": compilation.metric.as_dict(),
                           "main": compilation.asm.main}
                store.put(keys["backend"], backend)
                _warm_put(keys["backend"], compilation.asm)
            else:
                stages["backend"] = "hit"

            # analyze: the self-certifying analyzer; what we store is the
            # certificate, the independently re-checkable artifact.
            analyze = store.get(keys["analyze"])
            if analyze is None:
                stages["analyze"] = "miss"
                analysis = analyze_clight(clight)
                analyze = {"certificate": export_certificate(analysis)}
                store.put(keys["analyze"], analyze)
            else:
                stages["analyze"] = "hit"
            certificate_text = analyze["certificate"]

            # check: re-run every derivation through the logic checker.
            check = store.get(keys["check"])
            if check is None:
                stages["check"] = "miss"
                _gamma, _bounds, report = load_certificate(
                    certificate_text, clight)
                check = {"ok": True, "nodes": report.nodes,
                         "exact": report.fully_exact}
                store.put(keys["check"], check)
            else:
                stages["check"] = "hit"

    response = _assemble(request, backend, certificate_text, check, stages)
    if request.probe:
        with obs.span("serve.probe", filename=request.filename):
            response["probe"] = _run_probe(
                request, keys, clight,
                response["bounds"]["stack_requirement"], probe_was_warm)
    elapsed = time.perf_counter() - started
    response["elapsed_s"] = round(elapsed, 6)
    obs.observe("serve.pipeline_seconds", elapsed)
    return validate_response(response)


def _assemble(request: ServeRequest, backend: dict, certificate_text: str,
              check: dict, stages: dict) -> dict:
    """The response document: concrete bounds under the compiled metric."""
    certificate = json.loads(certificate_text)
    metric = backend["metric"]
    functions: dict[str, int] = {}
    parametric: list[str] = []
    for name, entry in certificate["functions"].items():
        if entry.get("spec", {}).get("params"):
            # A recursive (or recursion-reaching) function: its bound
            # depends on its arguments, so there is no single byte figure
            # — the symbolic bound lives in the certificate, and callers
            # with concrete arguments (main included) still get concrete
            # bounds below.
            parametric.append(name)
            continue
        value = evaluate(bexpr_from_json(entry["total_bound"]), metric)
        if value == INFINITY:
            raise AnalysisError(f"bound of {name} is unbounded")
        functions[name] = int(value)
    main = backend["main"]
    if main not in functions:
        raise AnalysisError("program has no analyzed main function"
                            if main not in parametric else
                            "main has a parametric bound; cannot size "
                            "the stack block")
    bounds = {"functions": functions, "main": main,
              "stack_requirement": functions[main]}
    if parametric:
        bounds["parametric"] = sorted(parametric)
    return {
        "schema": RESPONSE_SCHEMA,
        "verdict": "verified",
        "bounds": bounds,
        "frame_sizes": backend["frame_sizes"],
        "certificate": certificate,
        "check": {"nodes": check["nodes"], "exact": check["exact"]},
        "options": dict(request.options.key()),
        "stages": stages,
    }


def error_response(error: Exception) -> dict:
    """The 4xx/5xx response body for one diagnosed failure."""
    return {"schema": RESPONSE_SCHEMA, "verdict": "error",
            "kind": type(error).__name__,
            "error": str(error) or type(error).__name__}


# ---------------------------------------------------------------------------
# Response schema validation (the executable format definition)
# ---------------------------------------------------------------------------


def _fail(message: str) -> None:
    raise ValueError(f"serve response: {message}")


def validate_response(data: Any) -> dict:
    """Validate one response document; raises ``ValueError`` on drift.

    The server validates its own documents before sending them, and the
    ``response-truncate`` fault operator plus the smoke client validate
    what arrives — a malformed or truncated response is always a
    diagnosed failure, never silently consumed.
    """
    if not isinstance(data, dict):
        _fail("document is not an object")
    if data.get("schema") != RESPONSE_SCHEMA:
        _fail(f"unknown schema {data.get('schema')!r}")
    if "collapsed" in data and data["collapsed"] is not True:
        # Single-flight followers carry the marker; leaders omit it.
        _fail("collapsed, when present, must be true")
    verdict = data.get("verdict")
    if verdict == "error":
        if not isinstance(data.get("error"), str) or not data["error"]:
            _fail("error verdict without a diagnostic")
        if not isinstance(data.get("kind"), str):
            _fail("error verdict without an error kind")
        return data
    if verdict != "verified":
        _fail(f"unknown verdict {verdict!r}")
    bounds = data.get("bounds")
    if not isinstance(bounds, dict):
        _fail("missing bounds object")
    functions = bounds.get("functions")
    if not isinstance(functions, dict) or not functions:
        _fail("bounds.functions must be a non-empty object")
    for name, value in functions.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            _fail(f"bound of {name!r} must be a non-negative integer")
    main = bounds.get("main")
    if main not in functions:
        _fail(f"bounds.main {main!r} has no bound")
    if bounds.get("stack_requirement") != functions[main]:
        _fail("stack_requirement does not match the bound of main")
    parametric = bounds.get("parametric", [])
    if not isinstance(parametric, list) or not all(
            isinstance(name, str) for name in parametric):
        _fail("bounds.parametric must be a list of function names")
    if set(parametric) & set(functions):
        _fail("a function cannot be both concretely bounded and parametric")
    certificate = data.get("certificate")
    if not isinstance(certificate, dict) \
            or "functions" not in certificate:
        _fail("missing certificate")
    if set(certificate["functions"]) != set(functions) | set(parametric):
        _fail("certificate and bounds cover different functions")
    stages = data.get("stages")
    if not isinstance(stages, dict) or set(stages) != set(STAGES):
        _fail("stages must report every pipeline stage")
    for stage, status in stages.items():
        if status not in ("hit", "miss"):
            _fail(f"stage {stage}: unknown status {status!r}")
    probe = data.get("probe")
    if probe is not None:
        if not isinstance(probe, dict):
            _fail("probe must be an object")
        if probe.get("engine") not in ("legacy", "decoded", "codegen"):
            _fail(f"probe.engine unknown: {probe.get('engine')!r}")
        # "store" is still valid response/1, from older daemons.
        if probe.get("codegen") not in ("warm", "store", "generated"):
            _fail(f"probe.codegen unknown: {probe.get('codegen')!r}")
        for field in ("warm", "converged"):
            if not isinstance(probe.get(field), bool):
                _fail(f"probe.{field} must be a boolean")
        for field in ("stack_bytes", "measured_bytes", "steps"):
            value = probe.get(field)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                _fail(f"probe.{field} must be a non-negative integer")
        if probe["converged"]:
            if not isinstance(probe.get("return_code"), int):
                _fail("converged probe without a return code")
            if probe["measured_bytes"] > probe["stack_bytes"]:
                _fail("probe watermark exceeds its stack block")
        elif not isinstance(probe.get("reason"), str):
            _fail("non-converged probe without a reason")
    return data


def validate_response_text(text: str) -> dict:
    """Parse + validate a response body as received over the wire."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"serve response: not valid JSON: {error}") \
            from error
    return validate_response(data)
