"""``compile_backends``: one backend prefix per source, shared by its
option sets, with the same output as one ``compile_clight`` per set.

The campaign compiles every seed at all five ablation points in one call
(``check_seed``), so what is checked here is what every campaign verdict
rests on: the shared compile emits exactly what compiling each option set
alone emits, shares RTL only between option sets that agree on every RTL
pass, and keeps today's ``compile`` verdict when a pass fails.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import driver, obs
from repro.driver import compile_backends, compile_clight, compile_frontend
from repro.errors import LoweringError, ReproError
from repro.programs.catalog import ALL_RUNNABLE
from repro.programs.loader import load_source
from repro.testing.oracles import ABLATIONS, check_seed
from repro.testing.progen import generate_program

OPTIONS = list(ABLATIONS.values())

SOURCES = ([(path, lambda path=path: load_source(path))
            for path in ALL_RUNNABLE]
           + [(f"plain{seed}", lambda seed=seed: generate_program(seed))
              for seed in range(8)]
           + [(f"recfp{seed}",
               lambda seed=seed: generate_program(seed, recursion=True,
                                                  funcptr=True))
              for seed in range(8)])


def _functions(program) -> str:
    return "\n\n".join(function.pretty()
                       for function in program.functions.values())


def _output(compilation) -> tuple:
    return (_functions(compilation.rtl), _functions(compilation.linear),
            _functions(compilation.mach), compilation.asm.pretty(),
            compilation.frame_sizes)


@pytest.mark.parametrize("name,source", SOURCES,
                         ids=[name for name, _ in SOURCES])
def test_shared_compile_matches_each_option_set_alone(name, source):
    clight = compile_frontend(source(), filename=name)
    shared = compile_backends(clight, OPTIONS)
    assert [compilation.options for compilation in shared] == OPTIONS
    for ablation, options, compilation in zip(ABLATIONS, OPTIONS, shared):
        alone = compile_clight(clight, options)
        assert _output(compilation) == _output(alone), ablation


@pytest.fixture
def paper_example():
    """Every RTL pass rewrites something in this program."""
    return compile_frontend(load_source("paper_example.c"))


class TestSharing:
    def test_rtl_shared_exactly_where_the_rtl_passes_agree(
            self, paper_example):
        results = dict(zip(ABLATIONS,
                           compile_backends(paper_example, OPTIONS)))
        assert results["default"].rtl is results["spill"].rtl
        assert all(result.clight is paper_example
                   and result.cminor is results["default"].cminor
                   for result in results.values())
        distinct = {id(result.rtl): result.rtl
                    for result in results.values()}
        assert len(distinct) == 4
        graphs = [id(function.graph) for program in distinct.values()
                  for function in program.functions.values()]
        assert len(graphs) == len(set(graphs))

    def test_the_skipping_side_keeps_an_untouched_program(
            self, paper_example):
        results = dict(zip(ABLATIONS,
                           compile_backends(paper_example, OPTIONS)))
        fresh = compile_clight(paper_example, ABLATIONS["O0"])
        assert _functions(results["O0"].rtl) == _functions(fresh.rtl)
        assert _functions(results["default"].rtl) != _functions(fresh.rtl)


def _spans(compile_) -> list[dict]:
    """The span records of one call of ``compile_`` with obs on."""
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        compile_()
        return list(obs.span_records())
    finally:
        obs.disable()
        obs.reset()


class TestSpans:
    def test_five_ablations_share_the_prefix(self, paper_example):
        records = _spans(lambda: compile_backends(paper_example, OPTIONS))
        assert Counter(record["name"] for record in records) == {
            "compile.backend": 1, "compile.cminor": 1, "compile.rtl": 1,
            "compile.rtl.constprop": 1, "compile.rtl.cse": 1,
            "compile.rtl.tailcall": 1, "compile.rtl.deadcode": 3,
            "compile.linear": 5, "compile.mach": 5, "compile.asm": 5}

    def test_one_option_set_emits_the_sequential_spans(self,
                                                       paper_example):
        options = ABLATIONS["cse"]
        records = _spans(lambda: compile_clight(paper_example, options))
        assert [record["name"] for record in records] == [
            "compile.cminor", "compile.rtl", "compile.rtl.constprop",
            "compile.rtl.cse", "compile.rtl.deadcode", "compile.linear",
            "compile.mach", "compile.asm", "compile.backend"]
        assert records[-1]["attrs"]["options"] == repr(options.key())


def _sequential_verdict(seed: int) -> tuple:
    """The ``compile`` verdict of compiling each ablation alone, in
    check order (what ``check_seed`` reported before sharing)."""
    clight = compile_frontend(generate_program(seed),
                              filename=f"seed{seed}.c")
    for name, options in ABLATIONS.items():
        try:
            compile_clight(clight, options)
        except ReproError as error:
            return ("compile", name, f"{type(error).__name__}: {error}")
    return None


def _raising(message: str):
    def fail(*_args, **_kwargs):
        raise LoweringError(message)
    return fail


class TestCompileErrors:
    """A failed shared compile is attributed as the sequential loop did."""

    def _check(self, ablation: str) -> None:
        verdict = check_seed(0)
        assert (verdict.ok, verdict.oracle, verdict.ablation) == (
            False, "compile", ablation)
        assert ((verdict.oracle, verdict.ablation, verdict.detail)
                == _sequential_verdict(0))

    def test_failing_cse_is_reported_at_cse(self, monkeypatch):
        monkeypatch.setattr(driver, "cse_program", _raising("cse broke"))
        self._check("cse")

    def test_failing_constprop_is_reported_at_the_first_ablation(
            self, monkeypatch):
        monkeypatch.setattr(driver, "constprop_program",
                            _raising("constprop broke"))
        self._check("default")

    def test_failing_spill_allocation_is_reported_at_spill(
            self, monkeypatch):
        real = driver.linear_of_rtl

        def linear_of_rtl(rtl, spill_everything=False):
            if spill_everything:
                raise LoweringError("no spill slots left")
            return real(rtl, spill_everything=spill_everything)

        monkeypatch.setattr(driver, "linear_of_rtl", linear_of_rtl)
        self._check("spill")
