"""The one JSON codec (:mod:`repro.util.codec`).

Every artefact spells a non-finite float one way, ``{"__float__": ...}``;
here, the round trip, the canonical text, and that no other module
spells a tag of its own.
"""

import json
import math
import re
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.experiments.persistence import load_json, save_json, series_to_json
from repro.experiments.results import Series
from repro.util import codec

SRC = Path(repro.__file__).resolve().parent


def test_no_other_module_spells_a_float_tag():
    token = re.compile(r"__float__|[\"']float:")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "analysis"
        and path != SRC / "util" / "codec.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if token.search(line)
    ]
    assert offenders == []


def _strict(text):
    """Parse ``text`` as JSON proper: no ``NaN``/``Infinity`` literals."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def _same(a, b):
    """``a`` read back equals ``b``: NaN equals NaN, and -0.0, a bool
    and an int keep their identity."""
    if isinstance(a, float) and isinstance(b, float):
        if a != a or b != b:
            return a != a and b != b
        return a == b and math.copysign(1, a) == math.copysign(1, b)
    if isinstance(b, tuple):  # JSON reads a tuple back as a list
        b = list(b)
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


_leaves = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=20,
)


@given(_trees)
def test_round_trip(value):
    text = codec.dumps(value)
    _strict(text)
    assert _same(codec.loads(text), value)
    assert _same(codec.loads(codec.dumps(value, indent=2)), value)


def test_tags_and_canonical_text():
    assert codec.encode([math.nan, math.inf, -math.inf, 1.5, 2, True]) == [
        {"__float__": "nan"},
        {"__float__": "inf"},
        {"__float__": "-inf"},
        1.5,
        2,
        True,
    ]
    assert codec.dumps({"b": -math.inf, "a": (1, 0.5)}) == (
        '{"a":[1,0.5],"b":{"__float__":"-inf"}}'
    )
    assert codec.dumps({"a": 1}, indent=2) == '{\n  "a": 1\n}'


def test_transport_marks_plain_values():
    assert codec.transport({"x": [1.0, 2]}) == ({"x": [1.0, 2]}, True)
    assert codec.transport([math.nan]) == ([{"__float__": "nan"}], False)


def test_save_json_tags_an_infinite_series(tmp_path):
    path = tmp_path / "series.json"
    save_json(path, series_to_json(Series("s", [1.0, 2.0], [math.inf, math.nan])))
    assert _strict(path.read_text())["y"][0] == {"__float__": "inf"}
    restored = load_json(path)
    assert restored["y"][0] == math.inf
    assert math.isnan(restored["y"][1])
