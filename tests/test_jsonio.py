"""The canonical writer against the `json.dumps` call it replaced.

`canonical_dumps` walks core JSON values itself and writes a table of
equal-width exact-int rows with one format call (`_int_table`); anything
else goes to `json.dumps`.  Every case here must give the oracle's bytes,
or raise the oracle's exception with the oracle's message.
"""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbp.jsonio import _int_table, canonical_dumps
from qbp.product import complex_to_json


def oracle_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def outcome(dump, obj):
    try:
        return "ok", dump(obj)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def assert_same(obj):
    assert outcome(canonical_dumps, obj) == outcome(oracle_dumps, obj)


ints = st.one_of(st.integers(-3, 40), st.integers(), st.integers(-10 ** 40, 10 ** 40))
floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16]))
texts = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é∂ ", "\ud800"]))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
# Int rows, the bulk of a complex file, with the odd bool, None or float inside.
int_rows = st.lists(st.one_of(st.lists(ints, max_size=5), st.tuples(ints, ints)), max_size=8)
odd_rows = st.lists(st.lists(st.one_of(ints, st.booleans(), st.none(), floats), max_size=4),
                    max_size=5)
json_values = st.recursive(
    st.one_of(scalars, int_rows, odd_rows, st.lists(ints, max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=30,
)
# Keys outside str, values outside JSON's core types, and subclasses.
odd_keys = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.just(("t",)))
unserializable = st.sampled_from([{1, 2}, b"bytes", 1j, object(), frozenset()])


class IntTag(int):
    pass


class StrTag(str):
    pass


# Tables of one width, 1 to 4, as a complex file's reps, edges and faces
# are: the one-call path.  The same with one cell that is not an exact int,
# or one row of another width: its fall-backs.
table_ints = st.one_of(st.integers(-3, 40), st.integers(-10 ** 40, 10 ** 40))


@st.composite
def int_tables(draw):
    width = draw(st.integers(1, 4))
    row = st.lists(table_ints, min_size=width, max_size=width)
    return draw(st.lists(st.one_of(row, row.map(tuple)), min_size=1, max_size=60))


@st.composite
def odd_cell_tables(draw):
    rows = draw(int_tables())
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    odd = draw(st.one_of(st.booleans(), st.none(), floats, table_ints.map(IntTag)))
    rows[i] = type(rows[i])(odd if k == j else v for k, v in enumerate(rows[i]))
    return rows


@st.composite
def ragged_tables(draw):
    rows = draw(int_tables())
    assume(len(rows) >= 2)
    i = draw(st.integers(0, len(rows) - 1))
    width = len(rows[i])
    size = draw(st.integers(0, width + 2).filter(lambda size: size != width))
    rows[i] = (list(rows[i]) + draw(st.lists(table_ints, min_size=2, max_size=2)))[:size]
    return rows


def nested(table, depth):
    """The table `depth` levels down, alternating dict and list, so that it
    is written at every indent up to that depth."""
    for level in range(depth):
        table = {"k": table} if level % 2 else [table, 0]
    return table


class TestWriterMatchesJsonDumps:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_core_values(self, obj):
        assert_same(obj)

    @settings(max_examples=120, deadline=None)
    @given(st.dictionaries(st.one_of(texts, odd_keys), json_values, max_size=4))
    def test_non_str_keys(self, obj):
        assert_same(obj)
        assert_same([[1, 2], obj])
        assert_same({"k": obj})

    @settings(max_examples=100, deadline=None)
    @given(json_values, unserializable, st.integers(0, 2))
    def test_unserializable_values(self, obj, bad, where):
        wrapped = [[[1, 2], bad], {"k": [obj, bad]}, [1, 2, bad]][where]
        assert_same(wrapped)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [[], []], [[1, 2], []], [[]] * 3, [[1], 2], [1, [2]], [[1, [2]]],
        [[[1]]], [[1], [[2]]], [[1], 2, [[3]]], [[1, 2], [3], 4], [(1, 2), [3, 4]], ((1, 2),), [-0, -1, 10 ** 30],
        [[True, 1]], [[1, None]], [[1.0, 2]], [[math.nan]], [math.inf, -math.inf],
        {"a": {"b": {"c": []}}}, {"": 0, " ": [[0]]}, "é\n\"\\", None, True, 7, 2.5,
        [10 ** 5000], [[10 ** 5000]], {1: 2, "1": 3}, {1: 2, 2: 3}, {None: 1, True: 2},
        [IntTag(3), IntTag(4)], [[IntTag(3)]], {"k": IntTag(5)}, {StrTag("k"): 1},
        [StrTag("s")], {(1, 2): 3},
    ])
    def test_edge_cases(self, obj):
        assert_same(obj)

    def test_cycles_raise_as_json_does(self):
        loop = []
        loop.append(loop)
        nested = {"a": [[1]]}
        nested["a"][0].append(nested)
        for obj in (loop, nested, [[1], loop]):
            kind, message = outcome(canonical_dumps, obj)
            assert (kind, message) == outcome(oracle_dumps, obj)
            assert kind is ValueError and "Circular reference" in message

    @settings(max_examples=200, deadline=None)
    @given(int_tables(), st.integers(0, 3))
    def test_int_tables_take_one_format_call(self, table, depth):
        assert _int_table(table, "\n") is not None
        assert_same(nested(table, depth))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(odd_cell_tables(), ragged_tables()), st.integers(0, 3))
    def test_other_tables_fall_back(self, table, depth):
        assert _int_table(table, "\n") is None
        assert_same(nested(table, depth))

    @pytest.mark.parametrize("family", ["toric2", "toric3", "match8", "star12", "incstar13"])
    def test_complex_files(self, family, request):
        obj = complex_to_json(request.getfixturevalue(family))
        assert canonical_dumps(obj) == oracle_dumps(obj)
