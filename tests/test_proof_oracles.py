"""Verdicts by proof against the validating paths they skip.

The balanced product and the complex loader preset the chain-condition
verdict instead of multiplying the boundary maps, and any other complex runs
the loader's checks, so it is accepted or refused as a file of it is.
`cyclic_group` and `dihedral_group` write their tables by formula with no
group test, and the translations on copies of a group (the star leaves, the incidence edge
instances, the random families' blocks) are built with no range check, law
check or freeness scan.  Each is compared here with the path it skips, kept
as the oracle: `verify_chain_condition`, `FiniteGroup.from_table`,
`GroupAction.from_table` with `_first_fixed_point`, and a loader that
multiplies the maps before checking degrees and faces.  That loader decides
which files are accepted; the loader itself refuses the rest by its own
checks, naming the first one that fails.  The oracle loader checks faces
by one scan over them (`oracle_check_faces`), which the loader's set
algebra must agree with, message for message.  Complexes perturbed field
by field are read off by `extract_code` exactly as their files load.
"""

import copy
import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qbp
from qbp import gf2, groups, product
from qbp.css import extract_code
from qbp.errors import ValidationError
from qbp.graphs import BipartiteGraph
from qbp.groups import FiniteGroup, GroupAction, cyclic_group, dihedral_group
from qbp.instances import (
    doubled_complete_incidence,
    incidence_star_product,
    left_right_cayley,
    random_free_action_graph,
    star_graph,
    star_product,
    toric_complex,
)
from qbp.jsonio import _int_rows, _int_value
from qbp.product import (
    BalancedProductComplex,
    DegreeProfile,
    balanced_product,
    complex_from_json,
    complex_to_json,
    hypergraph_product,
)
from fixtures import complex_file, random_bipartite
from oracles import transposed, verify_chain_condition
from test_construction_oracles import GROUPS, invariant_graph, random_factor
from test_local_oracles import FAMILIES, family, table_groups

_VERDICT = BalancedProductComplex.chain_check.attrname


# -- oracles: the validating paths ------------------------------------------------


def oracle_check_faces(cpx, faces):
    """The face check as one scan over the faces, in file order: the first
    face off the edges or repeating an earlier face's path is named, then
    the first path on no face."""
    e10, e01 = cpx.edges_v00_v10, cpx.edges_v00_v01
    f10, f01 = cpx.edges_v10_v11, cpx.edges_v01_v11
    via10 = set()
    via01 = set()
    for face in faces:
        z00, z10, z01, z11 = face
        if not ((z00, z10) in e10 and (z00, z01) in e01
                and (z10, z11) in f10 and (z01, z11) in f01):
            raise ValidationError(f"face {list(face)} does not lie on four edges of the complex")
        if (z00, z10, z11) in via10 or (z00, z01, z11) in via01:
            raise ValidationError(f"face {list(face)} repeats a two-edge path of an earlier face")
        via10.add((z00, z10, z11))
        via01.add((z00, z01, z11))
    for cell, via, down, up in (("V10", via10, "v00_v10", "v10_v11"),
                                ("V01", via01, "v00_v01", "v01_v11")):
        ends = tuple(zip(cpx.subgraph(down).adj1, cpx.subgraph(up).adj0))
        if sum(len(a) * len(b) for a, b in ends) != len(via):
            z00, z, z11 = next((z00, z, z11) for z, (a, b) in enumerate(ends)
                               for z00 in a for z11 in b if (z00, z, z11) not in via)
            raise ValidationError(
                f"no face holds the path V00 {z00} -> {cell} {z} -> V11 {z11}")


def oracle_complex_from_json(obj):
    """The acceptance oracle: a repeated edge by one scan per class, the
    endpoints by one test per edge, in the classes' order in the maps, the
    chain condition by multiplying the maps, then degrees, then faces."""
    rows = {name: _int_rows(obj[name], name, 2) for name in product._PAIR_FIELDS}
    faces = _int_rows(obj["faces"], "faces", 4)
    for name in product._PAIR_FIELDS[4:]:
        seen = set()
        for i, edge in enumerate(rows[name]):
            if edge in seen:
                raise ValidationError(f"{name}[{i}] repeats the edge {list(edge)}")
            seen.add(edge)
    deg = obj.get("degrees")
    degrees = None if deg is None else DegreeProfile(
        *(_int_value(deg[name], f"degree {name}") for name in ("down", "up", "right", "left")))
    cpx = BalancedProductComplex(
        reps_v00=rows["reps_v00"], reps_v10=rows["reps_v10"],
        reps_v01=rows["reps_v01"], reps_v11=rows["reps_v11"],
        edges_v00_v10=frozenset(rows["edges_v00_v10"]),
        edges_v01_v11=frozenset(rows["edges_v01_v11"]),
        edges_v00_v01=frozenset(rows["edges_v00_v01"]),
        edges_v10_v11=frozenset(rows["edges_v10_v11"]),
        faces=frozenset(faces), degrees=degrees,
        group_order=_int_value(obj.get("group_order", 1), "group_order"),
        provenance=str(obj.get("provenance", "")),
    )
    for which, size0, size1 in (("v10_v11", cpx.v10_size, cpx.v11_size),
                                ("v01_v11", cpx.v01_size, cpx.v11_size),
                                ("v00_v10", cpx.v00_size, cpx.v10_size),
                                ("v00_v01", cpx.v00_size, cpx.v01_size)):
        bad = [e for e in getattr(cpx, f"edges_{which}")
               if not (0 <= e[0] < size0 and 0 <= e[1] < size1)]
        if bad:
            raise ValidationError(
                f"edge {min(bad)} in edges_{which} has an endpoint outside its "
                f"class (sizes {size0} and {size1})")
    check = verify_chain_condition(cpx)
    if not check.ok:
        raise ValidationError(
            f"complex JSON violates the chain condition at V00 column {check.witness_column}")
    if cpx.degrees is not None:
        product._check_degrees(cpx)
    oracle_check_faces(cpx, faces)
    return cpx


def outcome(load, obj):
    """The loaded complex's JSON, or the refusal's type and message."""
    try:
        cpx = load(copy.deepcopy(obj))
    except ValidationError as exc:
        return type(exc), str(exc)
    return complex_to_json(cpx)


def assert_verdict_by_proof(cpx):
    """The verdict was preset, not checked, and the product agrees."""
    assert cpx.__dict__.get(_VERDICT) is True
    assert verify_chain_condition(cpx).ok


# -- strategies ---------------------------------------------------------------------


@st.composite
def products(draw):
    """A product as the construction strategies draw them: free-action
    factors over the small groups (random blocks or Cayley graphs), random
    hypergraph products, and the named families at drawn sizes."""
    kind = draw(st.sampled_from(["balanced", "hypergraph", "family"]))
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    if kind == "balanced":
        group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]()
        make = random_factor if draw(st.booleans()) else invariant_graph
        x, ax = make(group, rng)
        y, ay = make(group, rng)
        try:
            return balanced_product(x, ax, y, ay)
        except ValidationError:
            assume(False)
    if kind == "hypergraph":
        a0, a1, b0, b1 = (draw(st.integers(1, 4)) for _ in range(4))
        x = random_bipartite(a0, a1, draw(st.integers(0, a0 * a1)), rng)
        y = random_bipartite(b0, b1, draw(st.integers(0, b0 * b1)), rng)
        return hypergraph_product(x, y)
    m = draw(st.integers(1, 12))
    odd = 2 * draw(st.integers(2, 6)) + 1
    builders = [
        lambda: toric_complex(m + 1),
        lambda: star_product(m, draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        lambda: left_right_cayley(cyclic_group(m + 2), [1], [1, 2]),
        lambda: left_right_cayley(dihedral_group(m), [1], [1]),
        lambda: incidence_star_product(odd, 2),
        lambda: balanced_product(*star_graph(odd, 2), *doubled_complete_incidence(odd)),
    ]
    return draw(st.sampled_from(builders))()


# -- chain verdicts -------------------------------------------------------------------


class TestChainVerdictByProof:
    @settings(max_examples=120, deadline=None)
    @given(cpx=products())
    def test_the_preset_verdict_is_the_multiplied_one(self, cpx):
        assert_verdict_by_proof(cpx)
        loaded = complex_from_json(complex_to_json(cpx))
        assert_verdict_by_proof(loaded)
        # The transpose builds its own verdict, by the loader's checks.
        t = transposed(cpx)
        assert _VERDICT not in t.__dict__
        assert t.chain_check is True and verify_chain_condition(t).ok

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_building_and_loading_build_no_boundary_map(self, name):
        cpx = FAMILIES[name]()
        loaded = complex_from_json(complex_to_json(cpx))
        assert "boundary_1" not in cpx.__dict__ and "boundary_1" not in loaded.__dict__
        assert_verdict_by_proof(cpx)
        assert_verdict_by_proof(loaded)

    def test_the_package_has_no_matrix_product(self):
        # The product and the multiplied verdict are the tests' oracles.
        for module in (qbp, gf2, product):
            for name in ("mat_mul", "verify_chain_condition", "ChainCheck"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(gf2.F2Matrix, "is_zero")


CORRUPTIONS = ("move_edge", "past_class", "drop_edge", "add_edge", "repeat_edge", "drop_face",
               "move_face", "repeat_face", "degree")
_CLASS_SIZES = {"v00_v10": ("v00", "v10"), "v01_v11": ("v01", "v11"),
                "v00_v01": ("v00", "v01"), "v10_v11": ("v10", "v11")}


def corrupt(obj, kind, data):
    """One drawn corruption of a complex file, in place."""
    if kind == "degree":
        assume(obj["degrees"] is not None)
        name = data.draw(st.sampled_from(["down", "up", "right", "left"]), label="degree")
        obj["degrees"][name] += data.draw(st.sampled_from([-1, 1]), label="by")
        return
    if kind in ("drop_face", "move_face", "repeat_face"):
        assume(obj["faces"])
        i = data.draw(st.integers(0, len(obj["faces"]) - 1), label="face")
        if kind == "drop_face":
            del obj["faces"][i]
            return
        if kind == "repeat_face":
            j = data.draw(st.integers(0, len(obj["faces"]) - 1), label="copy")
            obj["faces"][i] = list(obj["faces"][j])
            return
        corner = data.draw(st.integers(0, 3), label="corner")
        size = obj[("v00", "v10", "v01", "v11")[corner]]
        obj["faces"][i][corner] = data.draw(st.integers(0, max(size - 1, 0)), label="value")
        return
    which = data.draw(st.sampled_from(sorted(_CLASS_SIZES)), label="class")
    edges = obj[f"edges_{which}"]
    if kind == "add_edge":
        size0, size1 = (obj[name] for name in _CLASS_SIZES[which])
        assume(size0 and size1)
        edges.append([data.draw(st.integers(0, size0 - 1), label="end0"),
                      data.draw(st.integers(0, size1 - 1), label="end1")])
        return
    assume(edges)
    i = data.draw(st.integers(0, len(edges) - 1), label="edge")
    if kind == "drop_edge":
        del edges[i]
        return
    if kind == "repeat_edge":
        edges.insert(data.draw(st.integers(0, len(edges)), label="at"), list(edges[i]))
        return
    end = data.draw(st.integers(0, 1), label="end")
    size = obj[_CLASS_SIZES[which][end]]
    if kind == "move_edge":
        edges[i][end] = data.draw(st.integers(0, max(size - 1, 0)), label="value")
    else:
        past = data.draw(st.integers(0, 3), label="past")
        edges[i][end] = data.draw(st.sampled_from([size + past, -1 - past]), label="value")


_CHAIN_MESSAGE = "complex JSON violates the chain condition"


def assert_loaded_as_the_oracle_loads(obj):
    """The loader accepts exactly the files the oracle accepts, as the same
    complex, and refuses the rest with a ValidationError.  The message is
    the oracle's unless the oracle names a chain-condition column, which
    the loader never multiplies out: it names the check that failed."""
    want = outcome(oracle_complex_from_json, obj)
    got = outcome(complex_from_json, obj)
    if isinstance(want, dict):
        assert got == want
        assert_verdict_by_proof(complex_from_json(obj))
        return False
    assert isinstance(got, tuple) and got[0] is ValidationError
    if not want[1].startswith(_CHAIN_MESSAGE):
        assert got == want
    return True


def _forbidden(*args, **kwargs):
    pytest.fail("a refusal built or multiplied a boundary map")


def _cayley_z8():
    return complex_to_json(left_right_cayley(cyclic_group(8), [1, 2], [1, 4]))


def _repeated_path():
    # V00 0 reaches V11 0 once through V10 and twice through V01, so the
    # chain condition fails; two faces cover all three paths, repeating the
    # V10 one.  Only the one-to-one check stands between this file and a
    # verdict preset by proof.
    return {"reps_v00": [[0, 0]], "reps_v10": [[0, 0]],
            "reps_v01": [[0, 0], [0, 1]], "reps_v11": [[0, 0]],
            "edges_v00_v10": [[0, 0]], "edges_v10_v11": [[0, 0]],
            "edges_v00_v01": [[0, 0], [0, 1]], "edges_v01_v11": [[0, 0], [1, 0]],
            "faces": [[0, 0, 0, 0], [0, 0, 1, 0]], "degrees": None, "group_order": 1}


def _repeated_v01_path():
    # The mirror image: two paths through V10 and one through V01, which
    # both faces hold.  Both faces lie on four edges and their V10 paths
    # differ, so only the count of distinct V01 paths refuses the file.
    return {"reps_v00": [[0, 0]], "reps_v10": [[0, 0], [0, 1]],
            "reps_v01": [[0, 0]], "reps_v11": [[0, 0]],
            "edges_v00_v10": [[0, 0], [0, 1]], "edges_v10_v11": [[0, 0], [1, 0]],
            "edges_v00_v01": [[0, 0]], "edges_v01_v11": [[0, 0]],
            "faces": [[0, 0, 0, 0], [0, 1, 0, 0]], "degrees": None, "group_order": 1}


def _without_first(obj, field):
    return dict(obj, **{field: obj[field][1:]})


def _first_face_moved(obj):
    z00, z10, z01, z11 = obj["faces"][0]
    return dict(obj, faces=[[z00, z10, z01, (z11 + 1) % obj["v11"]]] + obj["faces"][1:])


# Refused files, with the oracle's message and the loader's.  They differ
# only where the edges break the chain condition: the oracle names the first
# nonzero column of the product, the loader the first of its checks that fails.
_PINNED = {
    "repeated_path": (_repeated_path, "complex JSON violates the chain condition at V00 column 0",
                      "face [0, 0, 1, 0] repeats a two-edge path of an earlier face"),
    "repeated_v01_path": (_repeated_v01_path,
                          "complex JSON violates the chain condition at V00 column 0",
                          "face [0, 1, 0, 0] repeats a two-edge path of an earlier face"),
    "z8_no_edge": (lambda: _without_first(_cayley_z8(), "edges_v10_v11"),
                   "complex JSON violates the chain condition at V00 column 6",
                   "degrees say right = 2, but V10 vertex 0 has 1 edges in v10_v11"),
    "z8_no_face": (lambda: _without_first(_cayley_z8(), "faces"),
                   "no face holds the path V00 0 -> V10 1 -> V11 2",
                   "no face holds the path V00 0 -> V10 1 -> V11 2"),
    "z8_moved_face": (lambda: _first_face_moved(_cayley_z8()),
                      "face [0, 1, 1, 3] does not lie on four edges of the complex",
                      "face [0, 1, 1, 3] does not lie on four edges of the complex"),
    "toric2_no_face": (lambda: _without_first(complex_to_json(toric_complex(2)), "faces"),
                       "no face holds the path V00 0 -> V10 0 -> V11 0",
                       "no face holds the path V00 0 -> V10 0 -> V11 0"),
}


class TestLoaderRefusals:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), kind=st.sampled_from(CORRUPTIONS),
           data=st.data())
    def test_corrupted_files_are_loaded_as_the_oracle_loads_them(self, name, kind, data):
        obj = complex_file(family(name))
        corrupt(obj, kind, data)
        assert_loaded_as_the_oracle_loads(obj)

    @pytest.mark.parametrize("case", sorted(_PINNED))
    def test_refusal_messages(self, case):
        make, old, new = _PINNED[case]
        obj = make()
        assert outcome(oracle_complex_from_json, obj) == (ValidationError, old)
        assert outcome(complex_from_json, obj) == (ValidationError, new)

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), data=st.data())
    def test_refusals_build_and_multiply_no_boundary_map(self, kind, name, data):
        obj = complex_file(family(name))
        corrupt(obj, kind, data)
        assume(not isinstance(outcome(oracle_complex_from_json, obj), dict))
        with pytest.MonkeyPatch.context() as patch:
            for packer in ("masks0", "masks1"):
                patch.setattr(BipartiteGraph, packer, property(_forbidden))
            patch.setattr(BalancedProductComplex, "boundary_1", property(_forbidden))
            with pytest.raises(ValidationError):
                complex_from_json(obj)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_each_edge_and_face_dropped(self, name):
        # Every single drop, not a sample, is refused or loaded as the
        # oracle does (an edge on no face, as the irregular families have,
        # may go unnoticed).
        obj = complex_to_json(family(name))
        refused = 0
        for field in ("edges_v00_v10", "edges_v01_v11", "edges_v00_v01", "edges_v10_v11",
                      "faces"):
            for i in range(len(obj[field])):
                dropped = dict(obj, **{field: obj[field][:i] + obj[field][i + 1:]})
                refused += assert_loaded_as_the_oracle_loads(dropped)
        assert refused >= len(obj["faces"])

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_face_check_agrees_with_the_face_scan(self, name):
        # Every face replaced by a copy of the next, and every corner of
        # every face moved by one within its class: the set algebra accepts
        # or refuses each face list as the scan does, message for message.
        cpx = family(name)
        faces = tuple(sorted(cpx.faces))
        sizes = (cpx.v00_size, cpx.v10_size, cpx.v01_size, cpx.v11_size)
        variants = [faces]
        for i, face in enumerate(faces):
            variants.append(faces[:i] + faces[(i + 1) % len(faces):][:1] + faces[i + 1:])
            for corner, size in enumerate(sizes):
                moved = list(face)
                moved[corner] = (moved[corner] + 1) % size
                variants.append(faces[:i] + (tuple(moved),) + faces[i + 1:])

        def checked(check, faces):
            try:
                check(cpx, faces)
            except ValidationError as exc:
                return str(exc)
            return None

        got = [checked(product._check_faces, v) for v in variants]
        assert got == [checked(oracle_check_faces, v) for v in variants]
        assert got[0] is None and any(got)


PERTURBATIONS = ("drop_edge", "endpoint_out", "move_corner", "drop_face", "add_face",
                 "repeat_rep", "group_order")


def perturb(cpx, kind, data):
    """A complex with one field changed by `dataclasses.replace`: an edge
    dropped or moved out of its class, a face dropped, added or moved at
    one corner within its class, one orbit representative written over by
    another of its class, or the group order replaced."""
    sizes = (cpx.v00_size, cpx.v10_size, cpx.v01_size, cpx.v11_size)
    if kind == "repeat_rep":
        cell = data.draw(st.sampled_from(["v00", "v10", "v01", "v11"]), label="cell")
        reps = list(getattr(cpx, f"reps_{cell}"))
        assume(len(reps) >= 2)
        i, j = data.draw(st.lists(st.integers(0, len(reps) - 1), min_size=2, max_size=2,
                                  unique=True), label="from, to")
        reps[j] = reps[i]
        return dataclasses.replace(cpx, **{f"reps_{cell}": tuple(reps)})
    if kind == "group_order":
        return dataclasses.replace(cpx, group_order=data.draw(st.integers(-2, 3), label="order"))
    if kind in ("drop_edge", "endpoint_out"):
        which = data.draw(st.sampled_from(sorted(_CLASS_SIZES)), label="class")
        edges = getattr(cpx, f"edges_{which}")
        assume(edges)
        edge = data.draw(st.sampled_from(sorted(edges)), label="edge")
        rest = edges - {edge}
        if kind == "endpoint_out":
            end = data.draw(st.integers(0, 1), label="end")
            size = getattr(cpx, f"{_CLASS_SIZES[which][end]}_size")
            past = data.draw(st.integers(0, 3), label="past")
            moved = list(edge)
            moved[end] = data.draw(st.sampled_from([size + past, -1 - past]), label="value")
            rest |= {tuple(moved)}
        return dataclasses.replace(cpx, **{f"edges_{which}": rest})
    if kind == "add_face":
        assume(all(sizes))
        face = tuple(data.draw(st.integers(0, size - 1), label="corner") for size in sizes)
        return dataclasses.replace(cpx, faces=cpx.faces | {face})
    assume(cpx.faces)
    face = data.draw(st.sampled_from(sorted(cpx.faces)), label="face")
    rest = cpx.faces - {face}
    if kind == "move_corner":
        corner = data.draw(st.integers(0, 3), label="corner")
        moved = list(face)
        moved[corner] = data.draw(st.integers(0, sizes[corner] - 1), label="value")
        rest |= {tuple(moved)}
    return dataclasses.replace(cpx, faces=rest)


class TestHandBuiltComplexes:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), kind=st.sampled_from(PERTURBATIONS),
           data=st.data())
    def test_extract_code_refuses_as_the_loader_does(self, name, kind, data):
        # Extraction accepts exactly the complexes whose files load, and
        # refuses the others with the loader's message; wherever it accepts,
        # the multiplied verdict finds that the maps cancel.
        cpx = perturb(family(name), kind, data)
        want = outcome(complex_from_json, complex_to_json(cpx))
        try:
            code = extract_code(cpx)
        except ValidationError as exc:
            assert (type(exc), str(exc)) == want
            return
        assert want == complex_to_json(cpx)
        assert verify_chain_condition(cpx).ok
        assert code.cpx is cpx and cpx.chain_check is True

    def test_a_repeated_orbit_representative_is_refused(self):
        cpx = toric_complex(3)
        reps = cpx.reps_v00
        broken = dataclasses.replace(cpx, reps_v00=(reps[0],) + reps[:-1])
        message = "reps_v00[1] repeats the orbit representative [0, 0]"
        assert outcome(complex_from_json, complex_to_json(broken)) == (ValidationError, message)
        with pytest.raises(ValidationError) as refused:
            extract_code(broken)
        assert str(refused.value) == message

    @pytest.mark.parametrize("order", [0, -3])
    def test_a_group_order_below_one_is_refused(self, order):
        broken = dataclasses.replace(toric_complex(3), group_order=order)
        message = f"group_order must be positive, got {order}"
        assert outcome(complex_from_json, complex_to_json(broken)) == (ValidationError, message)
        with pytest.raises(ValidationError) as refused:
            extract_code(broken)
        assert str(refused.value) == message

    def test_a_provenance_that_is_not_a_string_is_refused(self):
        broken = dataclasses.replace(toric_complex(3), provenance=None)
        message = "complex provenance must be a string, got None"
        assert outcome(complex_from_json, complex_to_json(broken)) == (ValidationError, message)
        with pytest.raises(ValidationError) as refused:
            extract_code(broken)
        assert str(refused.value) == message

    def test_the_loader_order_holds_for_a_hand_built_complex(self):
        # A repeated representative is named before a bad group order, and
        # both before an edge check, as in a file.
        cpx = toric_complex(3)
        broken = dataclasses.replace(
            cpx, reps_v11=cpx.reps_v11[:1] * 2 + cpx.reps_v11[2:], group_order=0,
            edges_v10_v11=cpx.edges_v10_v11 - {min(cpx.edges_v10_v11)})
        want = outcome(complex_from_json, complex_to_json(broken))
        assert want == (ValidationError, "reps_v11[1] repeats the orbit representative [0, 0]")
        with pytest.raises(ValidationError) as refused:
            extract_code(broken)
        assert (ValidationError, str(refused.value)) == want
        broken = dataclasses.replace(broken, reps_v11=cpx.reps_v11)
        with pytest.raises(ValidationError, match="group_order must be positive, got 0"):
            extract_code(broken)


# -- groups by formula ------------------------------------------------------------------


class TestGroupsByFormula:
    @pytest.mark.parametrize("make", [cyclic_group, dihedral_group], ids=["cyclic", "dihedral"])
    def test_every_field_matches_the_validating_path(self, make, monkeypatch):
        for n in range(1, 65):
            monkeypatch.setattr(groups, "_check_associativity",
                                lambda *a: pytest.fail("Light's test ran"))
            group = make(n)
            assert "generators" in group.__dict__
            monkeypatch.undo()
            oracle = FiniteGroup.from_table([list(r) for r in group.mul], label=group.label)
            assert dataclasses.astuple(group) == dataclasses.astuple(oracle)
            assert group == oracle
            assert group.generators == oracle.generators

    @pytest.mark.parametrize("make, order", [(cyclic_group, 1), (dihedral_group, 2)])
    def test_nonpositive_parameters_are_refused(self, make, order):
        for n in (0, -1):
            with pytest.raises(ValidationError, match="must be positive"):
                make(n)
        assert make(1).order == order


# -- translations on copies ---------------------------------------------------------------


def assert_action_by_proof(action):
    """No scan was run for the preset verdict, and the validating path and
    the scan accept the table."""
    assert action.__dict__.get(GroupAction.fixed_point.attrname, "unset") is None
    table = [list(row) for row in action.table]
    assert GroupAction.from_table(action.group, table) == action
    assert groups._first_fixed_point(action) is None


class TestTranslationsOnCopies:
    @settings(max_examples=60, deadline=None)
    @given(group=table_groups(), m=st.integers(1, 12), degree=st.integers(1, 4),
           blocks0=st.integers(1, 3), blocks1=st.integers(1, 3), seed=st.integers(0, 10 ** 6))
    def test_each_table_passes_the_validating_path(self, group, m, degree, blocks0, blocks1,
                                                   seed):
        checked = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_check_range", "_check_action_law", "_first_fixed_point"):
                patch.setattr(groups, name, lambda *a, name=name: checked.append(name))
            _, star = star_graph(m, degree)
            _, incidence = doubled_complete_incidence(2 * (m // 2) + 5)
            orbits = min(3, blocks0 * blocks1 * group.order)
            _, blocks = random_free_action_graph(group, blocks0, blocks1, orbits,
                                                 random.Random(seed))
            actions = (star.v0, star.v1, incidence.v0, incidence.v1, blocks.v0, blocks.v1)
            for action in actions:
                assert action.__dict__.get(GroupAction.fixed_point.attrname, "unset") is None
        assert checked == []
        for action in actions:
            assert_action_by_proof(action)
        # The tables the families wrote from their definitions before.
        n = group.order
        assert star.v1.table == tuple(
            tuple(((i + g) % m) * degree + j for i in range(m) for j in range(degree))
            for g in range(m))
        assert blocks.v0.table == tuple(
            tuple(b * n + group.op(g, h) for b in range(blocks0) for h in range(n))
            for g in range(n))
        assert blocks.v1.set_size == blocks1 * n

    def test_incidence_instances_move_by_translation(self):
        for m in (5, 7, 9, 11):
            graph, action = doubled_complete_incidence(m)
            half = (m - 1) // 2
            instances = [(s, tag, i) for s in range(1, half + 1)
                         for tag in ((0, 1) if s == 1 else (0,)) for i in range(m)]
            index = {inst: k for k, inst in enumerate(instances)}
            assert action.v1.table == tuple(
                tuple(index[(s, tag, (i + g) % m)] for (s, tag, i) in instances)
                for g in range(m))
            assert action.v1.set_size == graph.v1_size
            assert_action_by_proof(action.v1)
