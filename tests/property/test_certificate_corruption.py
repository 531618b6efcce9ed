"""Property: a corrupted certificate is diagnosed, never a crash.

Any one reference, bound row, statement number or ``post`` list of a
real certificate is replaced by an arbitrary JSON value: a negative,
boolean, float or string, a reference out of range or pointing forward,
a made-up row.  ``load_certificate`` must either accept the result (the
edit may be harmless, e.g. a duplicate row) or raise
``DerivationError``; an ``IndexError``, ``TypeError``, ``KeyError`` or
``RecursionError`` escaping it is a loader bug.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer import StackAnalyzer
from repro.driver import compile_frontend
from repro.errors import DerivationError
from repro.logic.certificate import export_certificate, load_certificate
from repro.programs.loader import load_source

KINDS = ["const", "metric", "param", "add", "max", "scale", "framediff",
         "mul", "log2", "half", "pdiff"]

scalars = (st.none() | st.booleans() | st.integers(-3, 120)
           | st.integers() | st.floats() | st.text(max_size=4)
           | st.sampled_from(KINDS + ["inf"]))

#: Arbitrary JSON values, and row-shaped lists among them.
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)
                   | st.builds(lambda kind, args: [kind, *args],
                               st.sampled_from(KINDS),
                               st.lists(inner, max_size=3))),
    max_leaves=8)

PROGRAMS = {
    "loops-and-calls": (
        "int leaf(int x) { int a[4]; a[x & 3] = x; return a[0]; }\n"
        "int mid(int n) { int s = 0; for (int i = 0; i < n; i++) {"
        " if (i & 1) continue; s += leaf(i); } return s; }\n"
        "int main(void) { print_int(mid(5)); return 0; }\n"),
    "recursive/bsearch.c": load_source("recursive/bsearch.c"),
}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def certified(request):
    program = compile_frontend(PROGRAMS[request.param],
                               filename=request.param)
    return program, export_certificate(StackAnalyzer(program).analyze())


def _sites(data: dict) -> list[tuple]:
    """``(container, key)`` of every row, reference, statement number
    and ``post`` list of a certificate document."""
    sites = []
    for number, row in enumerate(data["bounds"]):
        sites.append((data["bounds"], number))
        first = 2 if row[0] in ("scale", "half") else 1
        if row[0] not in ("const", "metric", "param"):
            sites.extend((row, index) for index in range(first, len(row)))
    for entry in data["functions"].values():
        sites += [(entry, "total_bound"), (entry["spec"], "pre"),
                  (entry["spec"], "post")]
        stack = [entry["derivation"]]
        while stack:
            node = stack.pop()
            sites += [(node, "stmt"), (node, "pre"), (node, "post")]
            sites += [(node["post"], slot) for slot in range(4)]
            if "frame" in node:
                sites.append((node, "frame"))
            sites += [(node["spec_args"], name)
                      for name in node.get("spec_args", ())]
            stack.extend(node.get("children", ()))
    return sites


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_diagnoses_or_accepts(certified, data):
    program, text = certified
    document = json.loads(text)
    sites = _sites(document)
    container, key = sites[data.draw(st.integers(0, len(sites) - 1),
                                     label="site")]
    container[key] = data.draw(values, label="replacement")
    try:
        load_certificate(json.dumps(document), program)
    except DerivationError:
        pass
