"""What the benchmark under ``perfbench/`` resolves in ``repro``.

The benchmark calls and patches ``repro`` functions by name, so a
renamed or moved entry point would otherwise show only when the
benchmark runs.  These tests read ``perfbench`` and change nothing
under it.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from perfbench import reference, tracer
from repro.testing.campaign import CampaignConfig

PERFBENCH = Path(tracer.__file__).resolve().parent


@pytest.mark.parametrize("module, attribute, name", tracer.TARGETS,
                         ids=[f"{module}:{attribute}" for module, attribute, _
                              in tracer.TARGETS])
def test_tracer_target_resolves(module, attribute, name):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_reference_run_converges():
    """``clight_reference`` calls ``repro.clight.semantics.run_program(
    clight, output=[], engine="decoded")`` and raises unless that
    returns a ``Converges``."""
    run = reference.clight_reference("mibench/crc32.c")
    assert run.output and isinstance(run.return_code, int)


def test_campaign_reference_run_has_steps():
    """The traced campaign counts ``clight.steps`` from what
    ``oracles.stream_clight`` returns."""
    from repro.driver import compile_c
    from repro.events.stream import null_sink
    from repro.programs import load_source
    from repro.testing.oracles import stream_clight

    compilation = compile_c(load_source("mibench/crc32.c"))
    outcome = stream_clight(compilation.clight, null_sink, output=[])
    assert outcome.steps > 0


def test_campaign_child_config_is_accepted():
    """``CampaignConfig`` takes every keyword ``campaign_child.py``
    passes it (literal values as written, the rest at their defaults)."""
    tree = ast.parse((PERFBENCH / "campaign_child.py").read_text())
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "CampaignConfig"]
    assert calls
    fields = {field.name for field in dataclasses.fields(CampaignConfig)}
    defaults = CampaignConfig()
    for call in calls:
        kwargs = {}
        for keyword in call.keywords:
            assert keyword.arg in fields, keyword.arg
            try:
                kwargs[keyword.arg] = ast.literal_eval(keyword.value)
            except ValueError:
                kwargs[keyword.arg] = getattr(defaults, keyword.arg)
        CampaignConfig(**kwargs)
