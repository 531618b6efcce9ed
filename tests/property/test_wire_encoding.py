"""Property-based tests of the serve wire encoding.

A response body is ``json.dumps(document, sort_keys=True)``, but the
daemon never encodes the certificate inside it: ``splice_json`` writes
the certificate's stored bytes in that member's place.  That must
produce exactly the encoder's bytes, whatever the members around the
spliced one hold and however they sort.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.serve.pipeline import splice_json
from repro.serve.store import encode_json

#: JSON values: nested objects and arrays, non-ASCII text, any float.
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)

objects = st.dictionaries(st.text(max_size=6), values, max_size=6)


@st.composite
def around(draw):
    """``(before, key, value, after)``: members sorting before and after
    ``key``."""
    key = draw(st.text(min_size=1, max_size=6))
    before = draw(st.dictionaries(
        st.text(max_size=6).filter(lambda name: name < key), values,
        min_size=1, max_size=4))
    after = draw(st.dictionaries(
        st.text(max_size=6).filter(lambda name: name > key), values,
        min_size=1, max_size=4))
    return before, key, draw(values), after


@given(around())
def test_splice_equals_the_encoder(members):
    before, key, value, after = members
    document = {**before, key: value, **after}
    assert splice_json(document, key, encode_json(value)) \
        == json.dumps(document, sort_keys=True).encode()


@given(objects, st.text(max_size=6), values)
def test_splice_adds_a_member_the_document_lacks(document, key, value):
    rest = {name: item for name, item in document.items() if name != key}
    assert splice_json(rest, key, encode_json(value)) \
        == json.dumps({**rest, key: value}, sort_keys=True).encode()

