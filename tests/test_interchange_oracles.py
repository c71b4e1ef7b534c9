"""The complex file's writer and loader against the paths they replaced.

`complex_to_json` hands out the tuples the complex holds, which both JSON
writers write as arrays; the oracle `complex_to_json_by_lists` copied every
row into a new list, and the two must write the same bytes.  The loader
sorts each edge class's rows once, and that list both checks the endpoints
and seeds the subgraphs (`product._subgraphs_from_rows`).  The oracle path
is the same loader with that helper replaced by `subgraphs_by_oracle`: min
and max passes over the edge sets, then per-vertex sorted lists.  Every
file, shuffled, corrupted or with bad endpoints in several classes, must
load as the same complex on both paths or be refused by both with the same
message.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbp import product
from qbp.errors import ValidationError
from qbp.jsonio import canonical_dumps
from qbp.product import SUBGRAPHS, complex_from_json, complex_to_json

from fixtures import family_files, hypergraph_product_files
from oracles import complex_to_json_by_lists, subgraphs_by_oracle, transposed
from test_build_oracles import FAMILIES as CONFTEST_FAMILIES, MORE_FAMILIES
from test_proof_oracles import CORRUPTIONS, corrupt

CELLS = ("v00", "v10", "v01", "v11")


def loaded(obj):
    """The loaded complex's data and subgraph lists, or the refusal's type
    and message."""
    try:
        cpx = complex_from_json(copy.deepcopy(obj))
    except ValidationError as exc:
        return type(exc), str(exc)
    lists = [(cpx.subgraph(which).adj0, cpx.subgraph(which).adj1) for which in SUBGRAPHS]
    return complex_to_json(cpx), lists


def assert_loaded_as_the_oracle_path_loads(obj):
    got = loaded(obj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(product, "_subgraphs_from_rows", subgraphs_by_oracle)
        want = loaded(obj)
    assert got == want
    return got


class TestWriter:
    @pytest.mark.parametrize("name", CONFTEST_FAMILIES + sorted(MORE_FAMILIES))
    def test_bytes_match_the_list_writer(self, name, request):
        base = (request.getfixturevalue(name) if name in CONFTEST_FAMILIES
                else MORE_FAMILIES[name]())
        for cpx in (base, transposed(base)):
            want = canonical_dumps(complex_to_json_by_lists(cpx))
            obj = complex_to_json(cpx)
            assert canonical_dumps(obj) == want
            assert json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == want

    def test_rows_are_the_complex_own_tuples(self, star12):
        obj = complex_to_json(star12)
        for cell in CELLS:
            reps = getattr(star12, f"reps_{cell}")
            assert len(obj[f"reps_{cell}"]) == len(reps)
            assert all(row is rep for row, rep in zip(obj[f"reps_{cell}"], reps))
        for field in [f"edges_{which}" for which in SUBGRAPHS] + ["faces"]:
            held = {row: row for row in getattr(star12, field)}
            assert len(obj[field]) == len(held)
            assert all(type(row) is tuple and row is held[row] for row in obj[field]), field


@st.composite
def bad_endpoints(draw):
    """A shuffled file with negative or past-class endpoints written into
    some rows of each class, possibly none."""
    obj = copy.deepcopy(draw(family_files()))
    for which in SUBGRAPHS:
        rows = obj[f"edges_{which}"]
        sizes = [obj[cell] for cell in which.split("_")]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(rows) - 1))
            end = draw(st.integers(0, 1))
            past = draw(st.integers(0, 3))
            rows[i][end] = draw(st.sampled_from([sizes[end] + past, -1 - past]))
    return obj


class TestLoaderAgainstTheOraclePath:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(family_files(), hypergraph_product_files()))
    def test_shuffled_files_load_as_the_oracle_path_loads_them(self, obj):
        assert isinstance(assert_loaded_as_the_oracle_path_loads(obj)[0], dict)

    @settings(max_examples=200, deadline=None)
    @given(obj=family_files(), kind=st.sampled_from(CORRUPTIONS), data=st.data())
    def test_corrupted_files(self, obj, kind, data):
        obj = copy.deepcopy(obj)
        corrupt(obj, kind, data)
        assert_loaded_as_the_oracle_path_loads(obj)

    @settings(max_examples=100, deadline=None)
    @given(bad_endpoints())
    def test_bad_endpoints_in_each_class(self, obj):
        assert_loaded_as_the_oracle_path_loads(obj)
