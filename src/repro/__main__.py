"""Command-line driver: Quantitative CompCert as a tool.

    python -m repro bounds  prog.c          # verified per-function bounds
    python -m repro run     prog.c          # execute on ASMsz + measure
    python -m repro dump    prog.c --level asm
    python -m repro trace   prog.c          # event trace of the execution
    python -m repro fuzz --seeds 200 --jobs 4   # differential campaign
    python -m repro serve --port 8642       # certified-bounds HTTP daemon

Common flags: ``-D NAME=VALUE`` feeds the preprocessor, ``--no-constprop``
/ ``--no-deadcode`` / ``--cse`` / ``--tailcall`` / ``--spill-all`` toggle
passes, ``--stack BYTES`` sets the preallocated ASMsz stack.

Observability: ``--trace-out FILE`` writes the span trace of the run
(``.jsonl`` = span records, anything else = a Chrome ``chrome://tracing``
document) and ``--metrics-out FILE`` writes the metrics snapshot; both
enable instrumentation for the whole command (``docs/OBSERVABILITY.md``).

Exit codes: 0 success, 1 a check failed (failing campaign seeds,
surviving mutation operators), 2 diagnosed errors (bad input, I/O),
70 an internal error (a bug: the tail of its traceback, then one
``internal error:`` line), 125 a ``run`` that did not converge, 141 an
op whose reader closed its output pipe early (``... | head``; nothing
is printed, as for a tool that SIGPIPE killed).  A
``run`` that converges exits with the program's own return code (its
low 8 bits), as the compiled program would.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NoReturn, Optional

from repro import obs
from repro.analyzer import StackAnalyzer
from repro.driver import CompilerOptions, compile_c
from repro.errors import ReproError
from repro.events.trace import Converges


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="End-to-end verified stack bounds for C programs "
                    "(PLDI 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="C source file")
        p.add_argument("-D", dest="defines", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="preprocessor definition (repeatable)")
        p.add_argument("--no-constprop", action="store_true")
        p.add_argument("--no-deadcode", action="store_true")
        p.add_argument("--cse", action="store_true",
                       help="enable common-subexpression elimination")
        p.add_argument("--tailcall", action="store_true",
                       help="enable self-tail-call recognition")
        p.add_argument("--spill-all", action="store_true",
                       help="disable register allocation (ablation)")
        add_backend(p)
        add_obs(p)
        return p

    def add_backend(p):
        p.add_argument("--bounds-backend", default=None,
                       choices=("fm", "z3", "cross"),
                       help="decision backend for bound comparisons: the "
                            "Fourier-Motzkin procedure (fm, default), the "
                            "z3 SMT translation (z3), or both agree-or-"
                            "fail (cross)")
        return p

    def add_obs(p):
        p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="enable span tracing; write the spans here "
                            "(.jsonl = records, else Chrome trace JSON)")
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="enable metrics; write the snapshot here (JSON)")
        return p

    bounds = add_common(sub.add_parser(
        "bounds", help="derive and print verified stack bounds"))
    bounds.add_argument("--check", action="store_true",
                        help="re-check the emitted logic derivations")

    run = add_common(sub.add_parser(
        "run", help="execute on the finite-stack ASMsz machine"))
    run.add_argument("--stack", type=_COUNT, default=None, metavar="BYTES",
                     help="stack size sz (default: the verified bound)")
    run.add_argument("--fuel", type=_COUNT, default=200_000_000)
    run.add_argument("--engine", default=None,
                     choices=["legacy", "decoded", "codegen"],
                     help="force an execution tier (default: start on "
                          "decoded, switch to codegen once a long run has "
                          "paid for compiling it; legacy and decoded stay "
                          "as oracles)")

    dump = add_common(sub.add_parser(
        "dump", help="print an intermediate representation"))
    dump.add_argument("--level", default="asm",
                      choices=["clight", "rtl", "linear", "mach", "asm"])
    dump.add_argument("--function", default=None,
                      help="restrict the dump to one function")

    trace = add_common(sub.add_parser(
        "trace", help="print the event trace of one execution"))
    trace.add_argument("--fuel", type=_COUNT, default=5_000_000)
    trace.add_argument("--limit", type=_COUNT, default=200,
                       help="maximum number of events to print")

    profile = add_common(sub.add_parser(
        "profile", help="print per-stage timings (frontend, backend, "
                        "analysis, execution)"))
    profile.add_argument("--fuel", type=_COUNT, default=200_000_000)

    certify = add_common(sub.add_parser(
        "certify", help="emit a re-checkable proof certificate (JSON)"))
    certify.add_argument("-o", "--output", default=None,
                         help="write the certificate here (default stdout)")

    check = add_common(sub.add_parser(
        "check-cert", help="re-check a certificate against a program"))
    check.add_argument("certificate", help="certificate JSON file")

    fuzz = sub.add_parser(
        "fuzz", help="run the differential-testing campaign on generated "
                     "programs (see docs/TESTING.md)")
    fuzz.add_argument("--seeds", type=_COUNT, default=50,
                      help="number of generated programs to check")
    fuzz.add_argument("--start", type=int, default=0,
                      help="first seed of the campaign")
    fuzz.add_argument("--jobs", type=_COUNT, default=1, metavar="J",
                      help="worker processes (1 = run in-process)")
    fuzz.add_argument("--metric", default="compiler",
                      choices=["compiler", "uniform", "zero"],
                      help="stack metric for the weight/bound oracles")
    fuzz.add_argument("--smoke", action="store_true",
                      help="small time-boxed CI campaign (overrides --seeds)")
    fuzz.add_argument("--deep", action="store_true",
                      help="also interpret the RTL and Mach levels")
    fuzz.add_argument("--recursion", action="store_true",
                      help="generate (bounded) recursive programs too")
    fuzz.add_argument("--funcptr", action="store_true",
                      help="generate function-pointer dispatch programs too")
    fuzz.add_argument("--no-probes", action="store_true",
                      help="skip the bound-tightness stack probes")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="do not minimize failing seeds")
    fuzz.add_argument("--plant", default=None, type=_plant_name,
                      metavar="NAME",
                      help="inject a known metric bug (campaign self-test): "
                           "a metric fault operator of the registry")
    fuzz.add_argument("--mutation-matrix", action="store_true",
                      help="run the fault-injection matrix instead of a "
                           "campaign: apply every registered mutation "
                           "operator and report which checker catches it")
    fuzz.add_argument("--matrix-report", default=None, metavar="FILE",
                      help="write the per-operator detection report (JSON) "
                           "here (with --mutation-matrix)")
    fuzz.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="corpus cache directory (default "
                           ".repro-cache/corpus)")
    fuzz.add_argument("--no-cache", action="store_true",
                      help="disable the corpus cache")
    fuzz.add_argument("--report", default=None, metavar="FILE",
                      help="write a JSONL campaign report here")
    fuzz.add_argument("--repro-dir", default=None, metavar="DIR",
                      help="write minimized .c reproducers here "
                           "(default: repro-failures/ when a seed fails)")
    fuzz.add_argument("--time-budget", type=_SECONDS, default=None,
                      metavar="SECONDS", help="stop after this much wall "
                                              "clock")
    fuzz.add_argument("--status-interval", type=_SECONDS, default=10.0,
                      metavar="SECONDS",
                      help="period of the progress line (ETA, verdict "
                           "counts); 0 disables it")
    add_backend(fuzz)
    add_obs(fuzz)

    serve = sub.add_parser(
        "serve", help="run the certified-bounds HTTP daemon "
                      "(docs/SERVING.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_PORT, default=8642,
                       help="listen port (0 = pick an ephemeral port)")
    serve.add_argument("--jobs", type=_COUNT, default=2, metavar="J",
                       help="worker processes (0 = run in-process)")
    serve.add_argument("--queue", type=int, default=16, metavar="N",
                       help="max in-flight requests before 503 backpressure")
    serve.add_argument("--timeout", type=_SECONDS, default=60.0,
                       metavar="SECONDS", help="per-request budget")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="content-addressed result store directory "
                            "(default .repro-cache/serve)")
    serve.add_argument("--no-store", action="store_true",
                       help="keep the result store in memory only")
    serve.add_argument("--store-max-mb", type=_COUNT, default=256,
                       metavar="MB", help="result-store size cap")
    add_obs(serve)
    return parser


def _in_range(kind: type, name: str, high: float = math.inf):
    """An argparse ``type=``: a ``kind`` (int or float) in ``[0, high]``.

    A value out of range, NaN included, fails like a malformed one, so
    argparse prints its own ``invalid <name> value: '-1'`` and exits 2.
    """
    def parse(text: str):
        value = kind(text)
        if not 0 <= value <= high:
            raise ValueError(text)
        return value

    parse.__name__ = name
    return parse


_COUNT = _in_range(int, "non-negative int")
_SECONDS = _in_range(float, "non-negative float")
_PORT = _in_range(int, "port (0-65535)", 65535)


def _plant_name(name: str) -> str:
    """``--plant``'s type: a metric fault operator of the registry.

    Checked when the flag is given rather than through ``choices``, so
    that building the parser does not import the campaign stack (and
    multiprocessing) on every op.  The message is argparse's own for a
    bad choice.
    """
    from repro.testing.faults import metric_fault_names

    names = metric_fault_names()
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} "
            f"(choose from {', '.join(map(repr, names))})")
    return name


def _options(args) -> CompilerOptions:
    return CompilerOptions(
        constprop=not args.no_constprop,
        deadcode=not args.no_deadcode,
        cse=args.cse,
        tailcall=args.tailcall,
        spill_everything=args.spill_all)


def _macros(args) -> dict[str, str]:
    macros = {}
    for item in args.defines:
        name, _, value = item.partition("=")
        macros[name] = value or "1"
    return macros


def _compile(args):
    with open(args.file) as handle:
        source = handle.read()
    return compile_c(source, filename=args.file, macros=_macros(args),
                     options=_options(args))


def cmd_bounds(args) -> int:
    compilation = _compile(args)
    analysis = StackAnalyzer(compilation.clight).analyze()
    if args.check:
        report = analysis.check()
        status = "exact" if report.fully_exact else "sampled"
        print(f"# derivations re-checked: {report.nodes} nodes, "
              f"{report.exact_conditions} side conditions ({status})")
    from repro.logic.bexpr import param_names

    metric = compilation.metric
    print(f"{'function':24s} {'SF':>6s} {'M(f)':>6s} {'bound':>8s}")
    for name in sorted(analysis.functions):
        expr = analysis.bound_expr(name)
        if param_names(expr):
            # A recursive function's bound depends on its arguments;
            # print it symbolically (callers with concrete arguments —
            # main included — still get byte figures below).
            bound = repr(expr)
        else:
            bound = f"{analysis.bound_bytes(name, metric):8d}"
        print(f"{name:24s} {compilation.frame_sizes[name]:6d} "
              f"{metric.cost(name):6d} {bound}")
    main_bound = analysis.bound_bytes(compilation.asm.main, metric)
    print(f"\nstack requirement for {compilation.asm.main}: "
          f"{main_bound} bytes (run with --stack {main_bound})")
    return 0


def cmd_run(args) -> int:
    compilation = _compile(args)
    if args.stack is None:
        analysis = StackAnalyzer(compilation.clight).analyze()
        sz = analysis.bound_bytes(compilation.asm.main, compilation.metric)
        print(f"# using the verified bound as stack size: {sz} bytes")
    else:
        sz = args.stack
    # --stack N preallocates exactly N bytes; the hint printed by
    # `repro bounds` is then exactly sufficient (N works, N-4 overflows,
    # the 4 being main's return-address slot of the paper's metric).
    output: list = []
    behavior, machine = compilation.run(stack_bytes=sz, output=output,
                                        fuel=args.fuel, engine=args.engine)
    for item in output:
        print(item)
    print(f"# {type(behavior).__name__}"
          + (f", exit code {behavior.return_code}"
             if isinstance(behavior, Converges) else
             f": {getattr(behavior, 'reason', '')}"))
    print(f"# measured stack usage: {machine.measured_stack_usage} bytes "
          f"(of {sz} available)")
    if isinstance(behavior, Converges):
        return behavior.return_code & 0xFF
    return 125


def cmd_dump(args) -> int:
    compilation = _compile(args)
    if args.level == "clight":
        program = compilation.clight
        names = [args.function] if args.function else program.functions
        for name in names:
            function = program.function(name)
            print(f"{name}(params={function.params}, "
                  f"stackvars={function.stackvars})")
            print(f"    {function.body!r}")
        return 0
    level = {"rtl": compilation.rtl, "linear": compilation.linear,
             "mach": compilation.mach, "asm": compilation.asm}[args.level]
    names = [args.function] if args.function else list(level.functions)
    for name in names:
        print(level.functions[name].pretty())
        print()
    return 0


def cmd_trace(args) -> int:
    """Stream one Clight execution's events to stdout.

    ``--limit`` only truncates the *printing*: the verdict and the
    weight fold always cover the full event stream, so the reported
    weight is ``W_M`` of the whole run, not of the printed prefix.
    """
    from repro.clight.semantics import run_streamed
    from repro.events.stream import Tee
    from repro.events.trace import WeightFold

    compilation = _compile(args)
    fold = WeightFold(compilation.metric)
    printed = 0

    def printer(event):
        nonlocal printed
        if printed < args.limit:
            print(repr(event))
        printed += 1

    outcome = run_streamed(compilation.clight, Tee(printer, fold),
                           fuel=args.fuel)
    if outcome.events > args.limit:
        print(f"... +{outcome.events - args.limit} more events")
    kind = {"converges": "Converges", "diverges": "Diverges",
            "goes-wrong": "GoesWrong"}[outcome.kind]
    print(f"# {kind}; {outcome.events} events; "
          f"weight under the compiled metric: {fold.peak} bytes")
    return 0


def _span_note(record: dict) -> str:
    """Human note for one span row: its attrs plus a derived steps/s."""
    attrs = dict(record.get("attrs") or {})
    parts = [f"{key}={value}" for key, value in sorted(attrs.items())]
    steps = attrs.get("steps")
    if steps and record["dur"]:
        parts.append(f"{steps / record['dur']:,.0f} steps/s")
    return ", ".join(parts)


def _print_span_tree(records: list[dict]) -> None:
    """Pretty-print finished span records as an indented timing tree.

    Runs of same-named siblings (one ``checker.function`` span per
    function, say) collapse into one aggregate ``×N`` line.
    """
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for record in records:
        parent = record["parent"]
        if parent is None:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)

    def emit(record: dict, depth: int) -> None:
        label = "  " * depth + record["name"]
        note = _span_note(record)
        print(f"{label:32s} {record['dur'] * 1000:10.2f} ms"
              + (f"  ({note})" if note else ""))
        by_name: dict[str, list[dict]] = {}
        for kid in children.get(record["id"], []):
            by_name.setdefault(kid["name"], []).append(kid)
        for name, group in by_name.items():
            if len(group) == 1:
                emit(group[0], depth + 1)
            else:
                total = sum(r["dur"] for r in group)
                label = "  " * (depth + 1) + name
                print(f"{label:32s} {total * 1000:10.2f} ms  "
                      f"(×{len(group)})")

    for record in roots:
        emit(record, 0)
    total = sum(record["dur"] for record in roots)
    print(f"{'total':32s} {total * 1000:10.2f} ms")


def cmd_profile(args) -> int:
    """Per-stage timing report rendered from the span layer.

    There is no second timing path: ``profile`` enables observability,
    runs the pipeline once, and prints the span tree the instrumented
    layers recorded (compile passes, analysis, checking, one ASMsz
    execution per engine, plus the per-language streamed interpreters
    the deep campaign mode uses, on each of their two engines).
    """
    # The decoded engines import their modules lazily, inside the first
    # run's exec span; import them here so no rate pays for it.
    import repro.asm.decode  # noqa: F401
    import repro.clight.decode  # noqa: F401
    import repro.mach.decode  # noqa: F401
    import repro.rtl.decode  # noqa: F401
    from repro.clight import semantics as clight_sem
    from repro.engines import ASM_ENGINES, SEMANTICS_ENGINES
    from repro.events.stream import null_sink
    from repro.mach import semantics as mach_sem
    from repro.rtl import semantics as rtl_sem

    obs.enable()
    mark = len(obs.span_records())

    compilation = _compile(args)
    analysis = StackAnalyzer(compilation.clight).analyze()
    sz = analysis.bound_bytes(compilation.asm.main, compilation.metric)
    analysis.check()

    for engine in ASM_ENGINES:
        compilation.run(stack_bytes=sz + 4, fuel=args.fuel, engine=engine)

    # Per-language interpreter throughput: the same tower levels the
    # deep campaign mode executes, on their streaming entry points.
    levels = [("clight", clight_sem, compilation.clight),
              ("rtl", rtl_sem, compilation.rtl),
              ("mach", mach_sem, compilation.mach)]
    for _level, sem, program in levels:
        for engine in SEMANTICS_ENGINES:
            sem.run_streamed(program, null_sink, fuel=args.fuel,
                             engine=engine)

    print(f"# stack bound for {compilation.asm.main}: {sz} bytes")
    records = obs.span_records()[mark:]
    _print_span_tree(records)
    derived = obs.derive_rates(obs.snapshot())
    _print_tier_table(records, derived.get("interp.codegen.steps_per_s"))
    return 0


def _print_tier_table(records: list[dict],
                      warm_codegen: Optional[float]) -> None:
    """Per-language throughput of each engine, from the span tree.

    Every ``exec.*`` span carries ``engine`` and ``steps`` attrs; the
    table is a pure rendering of those records and of the metrics
    registry — there is no second timing path.  The ASMsz codegen cell
    is ``warm_codegen`` (``interp.codegen.steps_per_s``: steps over the
    time spent in generated code), since its ``exec.asm`` span also
    holds ``compile()``.  Only ASMsz has a codegen engine, so the other
    rows show ``—`` in that column.
    """
    rates: dict[str, dict[str, float]] = {}
    for record in records:
        name = record["name"]
        if not name.startswith("exec."):
            continue
        attrs = dict(record.get("attrs") or {})
        engine, steps = attrs.get("engine"), attrs.get("steps")
        if engine is None or not steps or not record["dur"]:
            continue
        rates.setdefault(name.split(".", 1)[1], {})[engine] = \
            steps / record["dur"]
    if not rates:
        return
    if warm_codegen and "codegen" in rates.get("asm", {}):
        rates["asm"]["codegen"] = warm_codegen
    print()
    print(f"{'level':10s} {'legacy':>14s} {'decoded':>14s} "
          f"{'codegen':>14s}   speedup vs legacy")
    for level in ("clight", "rtl", "mach", "asm"):
        row = rates.get(level)
        if not row:
            continue
        cells = [f"{row[e]:>14,.0f}" if e in row else f"{'—':>14s}"
                 for e in ("legacy", "decoded", "codegen")]
        legacy = row.get("legacy")
        ratios = "  ".join(
            f"{e}×{row[e] / legacy:.1f}"
            for e in ("decoded", "codegen") if e in row and legacy)
        print(f"{level:10s} {' '.join(cells)}   {ratios}")


def cmd_certify(args) -> int:
    from repro.logic.certificate import export_certificate

    compilation = _compile(args)
    analysis = StackAnalyzer(compilation.clight).analyze()
    text = export_certificate(analysis)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"# certificate for {len(analysis.functions)} functions "
              f"written to {args.output}")
    else:
        print(text)
    return 0


def cmd_check_cert(args) -> int:
    from repro.logic.bexpr import INFINITY, evaluate, param_names
    from repro.logic.certificate import load_certificate

    compilation = _compile(args)
    with open(args.certificate) as handle:
        text = handle.read()
    _gamma, bounds, report = load_certificate(text, compilation.clight)
    status = "exact" if report.fully_exact else "sampled"
    print(f"# certificate OK: {report.nodes} rule applications re-checked "
          f"({status})")
    metric = compilation.metric.as_dict()
    for name in sorted(bounds):
        expr = bounds[name]
        # A recursive function's bound depends on its arguments: print
        # it symbolically, as `bounds` does.
        if param_names(expr):
            print(f"{name:24s} {expr!r}")
            continue
        value = evaluate(expr, metric)
        bound = "∞" if value == INFINITY else int(value)
        print(f"{name:24s} {bound:>8} bytes")
    return 0


def cmd_mutation_matrix(args) -> int:
    import json

    from repro.testing.faults import run_mutation_matrix

    def progress(outcome):
        mark = "ok " if outcome.detected else "GAP"
        caught = outcome.caught_by or "-"
        print(f"{mark} {outcome.operator:20s} {outcome.layer:12s} "
              f"caught-by={caught:24s} tries={outcome.attempts}  "
              f"{outcome.diagnostic[:60]}")

    report = run_mutation_matrix(progress=progress)
    print(f"# {len(report.outcomes)} operators against {len(report.corpus)} "
          f"corpus programs in {report.elapsed:.1f}s")
    if args.matrix_report:
        with open(args.matrix_report, "w") as handle:
            json.dump(report.as_json(), handle, indent=1)
        print(f"# detection report written to {args.matrix_report}")
    if report.undetected:
        for outcome in report.undetected:
            print(f"# UNDETECTED {outcome.operator}: {outcome.diagnostic}")
        print(f"# {len(report.undetected)} operator(s) survive: each is a "
              "soundness gap in a checker or oracle")
        return 1
    print("# all operators detected")
    return 0


def cmd_fuzz(args) -> int:
    from repro.testing.campaign import (DEFAULT_CACHE_DIR, CampaignConfig,
                                        run_campaign, run_smoke_campaign)

    if args.mutation_matrix:
        return cmd_mutation_matrix(args)
    if args.smoke:
        report = run_smoke_campaign()
    else:
        cache_dir = None if args.no_cache else (args.cache_dir
                                                or DEFAULT_CACHE_DIR)
        repro_dir = args.repro_dir or "repro-failures"
        gen_kwargs = {}
        if args.recursion:
            gen_kwargs["recursion"] = True
        if args.funcptr:
            gen_kwargs["funcptr"] = True
        config = CampaignConfig(
            seeds=args.seeds, start=args.start, jobs=args.jobs,
            metric=args.metric, plant=args.plant, gen_kwargs=gen_kwargs,
            probes=not args.no_probes, deep=args.deep,
            shrink=not args.no_shrink, cache_dir=cache_dir,
            report_path=args.report, repro_dir=repro_dir,
            time_budget=args.time_budget,
            obs=bool(args.metrics_out or args.trace_out),
            status_interval=args.status_interval or None,
            bounds_backend=args.bounds_backend)

        def progress(verdict):
            if not verdict.ok:
                print(f"FAIL seed {verdict.seed}: [{verdict.oracle}"
                      f"@{verdict.ablation}] {verdict.detail}")

        report = run_campaign(config, progress=progress, status=print)

    summary = report.summary()
    print(f"# checked {summary['seeds']} seeds "
          f"({summary['cache_hits']} cached) in {summary['elapsed_s']}s "
          f"({summary['seeds_per_s']} seeds/s)")
    stages = ", ".join(f"{k} {v}s"
                       for k, v in summary["stage_seconds"].items())
    if stages:
        print(f"# worker time by stage: {stages}")
    for verdict in report.failures:
        repro = report.repro_files.get(verdict.seed)
        shrunk = report.shrunk.get(verdict.seed)
        note = (f" (minimized to {shrunk.gen_kwargs}"
                f" in {shrunk.attempts} attempts)" if shrunk else "")
        print(f"# seed {verdict.seed}: [{verdict.oracle}@{verdict.ablation}]"
              + (f" repro: {repro}" if repro else "") + note)
    if report.failures:
        print(f"# {len(report.failures)} failing seed(s)")
        return 1
    print("# all oracles held")
    return 0


def cmd_serve(args) -> int:
    from repro.serve import DEFAULT_STORE_DIR, ServeConfig, run_server

    store_root = None if args.no_store else (args.store_dir
                                             or DEFAULT_STORE_DIR)
    config = ServeConfig(host=args.host, port=args.port, jobs=args.jobs,
                         queue_depth=args.queue, timeout_s=args.timeout,
                         store_root=store_root,
                         store_max_bytes=args.store_max_mb << 20)
    return run_server(config)


def _export_obs(args) -> None:
    """Write the requested span/metrics exports for a finished command."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out:
        obs.write_trace(trace_out, obs.span_records())
        print(f"# {len(obs.span_records())} spans written to {trace_out}",
              file=sys.stderr)
    if metrics_out:
        obs.write_metrics_json(metrics_out, obs.snapshot())
        print(f"# metrics written to {metrics_out}", file=sys.stderr)


def main(argv=None) -> int:
    return _dispatch(_build_parser().parse_args(argv))


def _dispatch(args) -> int:
    handler = {"bounds": cmd_bounds, "run": cmd_run, "dump": cmd_dump,
               "trace": cmd_trace, "profile": cmd_profile,
               "certify": cmd_certify, "check-cert": cmd_check_cert,
               "fuzz": cmd_fuzz, "serve": cmd_serve}[args.command]
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        obs.enable()
    if getattr(args, "bounds_backend", None):
        from repro.logic.bexpr import set_default_backend
        set_default_backend(args.bounds_backend)
    # One uniform error policy for every subcommand: the ReproError
    # hierarchy (parse/type/analysis/derivation/runtime errors) and I/O
    # failures (missing files, unwritable outputs) print a one-line
    # diagnostic and exit 2 — never a raw traceback.  Any other
    # exception is a bug: its traceback's tail and one line naming it,
    # then exit 70 (EX_SOFTWARE), a code no verdict uses.  Exports still
    # run on failure: a partial trace is exactly what debugging wants.
    try:
        try:
            return handler(args)
        finally:
            _export_obs(args)
    except BrokenPipeError:
        return _broken_pipe()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        traceback.print_exc(limit=-8)
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 70


def _broken_pipe() -> int:
    """Stop writing to a stdout whose reader has gone (``... | head``).

    Points fd 1 at the null device, so that no later flush, finalization
    included, can raise again, and returns 141: what a shell reports for
    a tool that SIGPIPE killed (128 + 13).  Nothing is printed.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    return 141


def _end_process(command: str, code: int) -> NoReturn:
    """End the process once ``command`` has returned ``code``.

    A one-shot op skips interpreter finalization: freeing every AST, IR
    and bound object one by one takes about a tenth of a ``bounds`` op,
    and no module outside ``repro.testing`` and ``repro.serve`` registers
    an atexit hook, a thread or a finalizer that would need it.  ``fuzz``
    and ``serve`` own worker pools, which multiprocessing's atexit hooks
    reap, so they exit normally.  An op whose reader closed the pipe
    exits 141 in silence; one whose output cannot be flushed for another
    reason (a full disk) exits normally too, and finalization reports it
    exactly as it would have without the shortcut.
    """
    if command not in ("fuzz", "serve"):
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except BrokenPipeError:
            os._exit(_broken_pipe())
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    arguments = _build_parser().parse_args()
    _end_process(arguments.command, _dispatch(arguments))
