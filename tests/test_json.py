"""Every JSON reader refuses malformed input with a typed error."""
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from famop import trees
from famop.errors import ParseError, PreconditionError
from famop.linear import FamilyBilinear
from famop.omega import Magma, OmegaStructure, Presentation
from famop.operads import element_from_json

# Each reader with the keys and key-like strings of its own format.
READERS = {
    "omega": (OmegaStructure.from_json, ("size", "left", "right", "ltri", "rtri")),
    "magma": (Magma.from_json, ("size", "table")),
    "tree": (trees.from_json, ("dec", "lt", "rt", "left", "right", "x0", "1:0")),
    "family": (FamilyBilinear.from_json, ("dim", "omega_size", "ops", "prec", "(0,0)", "(0,1)")),
    "presentation": (Presentation.from_json, ("generators", "mode", "relations", "planar",
                                              "labeled", "f", "(f 1 2)", "-(f 2 1)")),
    **{f"{which} element": (partial(element_from_json, which),
                            ("A", "v", "unit", "root", "branches", "order"))
       for which in ("pairs", "corollas", "perm", "orders")},
}


def _json(keys):
    """Nested JSON values over small scalars and ``keys``, as strings and as object keys."""
    words = st.sampled_from(keys) | st.text(max_size=3)
    scalars = st.integers(-2, 4) | st.floats() | st.booleans() | st.none() | words
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3) |
                          st.dictionaries(words, inner, max_size=3), max_leaves=8)
    return values | st.fixed_dictionaries({key: values for key in keys})


VALUES = {reader: _json(keys) for reader, (_, keys) in READERS.items()}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_json_reader_raises_only_typed_errors(reader, data):
    value = data.draw(VALUES[reader])
    try:
        READERS[reader][0](value)
    except (ParseError, PreconditionError):
        pass
