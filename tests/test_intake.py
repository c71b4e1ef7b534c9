"""Strict intake: every loader admits only ints and refuses with qbp errors.

Each loader reads its integer fields through `jsonio._int_rows` /
`jsonio._int_value`, which admit values whose type is exactly `int`: a float
is not truncated, and a bool or a numeric string does not stand in for an
int.  The regression tests below load inputs that earlier loaders accepted
by coercion.  The fuzz tests feed arbitrary JSON values (wrong top-level
types, missing keys, nested junk, huge and negative ints, floats, bools and
strings) to every loader and require that only `qbp.errors` types escape,
and that the command line reports every refusal as an `error:` line with
exit code 1 or 2.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qbp import cli, errors
from qbp.cli import cli_dispatch
from qbp.errors import ValidationError
from qbp.graphs import cayley_bipartite, graph_from_json
from qbp.groups import GroupAction, cyclic_group, dihedral_group, group_from_json
from qbp.instances import bipartite_cycle, star_graph, toric_complex
from qbp.jsonio import MAX_DECLARED_SIZE
from qbp.product import balanced_product, complex_from_json, complex_to_json

from fixtures import complex_file, graph_to_json, group_to_json
from oracles import from_alist

QBP_ERRORS = tuple(v for v in vars(errors).values()
                   if isinstance(v, type) and issubclass(v, Exception))


# -- regressions: entries that are not ints ------------------------------------------


class TestOnlyInts:
    def test_group_table_float_is_refused(self):
        with pytest.raises(ValidationError, match="group table holds 1.9"):
            group_from_json({"mul": [[0, 1.9], [1, 0]]})

    def test_action_table_bool_and_float_are_refused(self):
        with pytest.raises(ValidationError, match="action table holds True"):
            GroupAction.from_table(cyclic_group(2), [[0, 1], [True, 0.2]])

    @pytest.mark.parametrize("field", ["edges_v00_v10", "edges_v10_v11", "reps_v01", "faces"])
    def test_complex_float_entry_is_refused(self, field):
        obj = complex_file(toric_complex(3))
        first = obj[field][0]
        obj[field][0] = [first[0] + 0.5] + first[1:]
        with pytest.raises(ValidationError, match=f"{field} holds {first[0] + 0.5}"):
            complex_from_json(obj)

    @pytest.mark.parametrize("degree", [2.0, True, "2"], ids=["float", "bool", "str"])
    def test_complex_degree_must_be_an_int(self, degree):
        obj = complex_to_json(toric_complex(3))
        obj["degrees"]["down"] = degree
        with pytest.raises(ValidationError, match="degree down must be an int"):
            complex_from_json(obj)

    @pytest.mark.parametrize("order", [1.0, True, "1", 0],
                             ids=["float", "bool", "str", "zero"])
    def test_complex_group_order_must_be_a_positive_int(self, order):
        obj = dict(complex_to_json(toric_complex(3)), group_order=order)
        with pytest.raises(ValidationError, match="group_order must be"):
            complex_from_json(obj)

    @pytest.mark.parametrize("provenance", [None, [1, 2], 3, True, {"by": "x"}],
                             ids=["null", "list", "int", "bool", "object"])
    def test_complex_provenance_must_be_a_string(self, provenance):
        # Read with str(), null would load as "None" and be written back so.
        obj = dict(complex_file(toric_complex(3)), provenance=provenance)
        with pytest.raises(ValidationError, match=re.escape(
                f"complex provenance must be a string, got {provenance!r}")):
            complex_from_json(obj)

    def test_complex_provenance_loads_as_written(self):
        obj = complex_file(toric_complex(3))
        assert complex_to_json(complex_from_json(obj))["provenance"] == obj["provenance"]
        del obj["provenance"]
        assert complex_from_json(obj).provenance == ""

    def test_complex_face_must_have_four_corners(self):
        obj = complex_file(toric_complex(3))
        obj["faces"][0] = obj["faces"][0][:3]
        with pytest.raises(ValidationError, match="faces entry .* does not have 4 values"):
            complex_from_json(obj)

    @pytest.mark.parametrize("change", [{"v0": 4.0}, {"v1": True},
                                        {"edges": [[0, 0], [1.5, 1]]}],
                             ids=["v0_float", "v1_bool", "edge_float"])
    def test_graph_entries_must_be_ints(self, change):
        obj = dict(graph_to_json(bipartite_cycle(4)), **change)
        with pytest.raises(ValidationError, match="must be an int|holds 1.5"):
            graph_from_json(obj)

    def test_graph_endpoint_outside_its_side_is_a_validation_error(self):
        obj = dict(graph_to_json(bipartite_cycle(4)), edges=[[0, 4]])
        with pytest.raises(ValidationError, match="edge endpoint 4 outside V1"):
            graph_from_json(obj)

    @pytest.mark.parametrize("vector", [{"length": 18.0, "support": [1]},
                                        {"length": 18, "support": [True]},
                                        {"length": 18, "support": [1.5]},
                                        {"length": 18, "support": "1"}],
                             ids=["length_float", "support_bool", "support_float",
                                  "support_str"])
    def test_vector_entries_must_be_ints(self, tmp_path, vector):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(vector))
        with pytest.raises(ValidationError, match="vector"):
            cli._load_vector(str(path))

    def test_table_values_must_be_below_the_size(self):
        with pytest.raises(ValidationError, match="table value 2 outside 0..1"):
            group_from_json({"mul": [[0, 2], [1, 0]]})
        with pytest.raises(ValidationError, match="action value 3 outside 0..2"):
            GroupAction.from_table(cyclic_group(2), [[0, 1, 2], [1, 2, 3]])

    def test_complex_vertex_without_edges_breaks_its_degree(self):
        # V11 cell 2 has no V10 neighbor while the other cells have one.
        obj = {"reps_v00": [], "reps_v10": [[0, 0], [1, 0]], "reps_v01": [],
               "reps_v11": [[0, 0], [1, 0], [2, 0]], "edges_v00_v10": [],
               "edges_v01_v11": [], "edges_v00_v01": [], "edges_v10_v11": [[0, 0], [1, 1]],
               "faces": [], "degrees": {"down": 0, "up": 0, "right": 1, "left": 1}}
        with pytest.raises(ValidationError, match="left = 1, but V11 vertex 2 has 0"):
            complex_from_json(obj)

    def test_complex_file_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text("[1, 2]")
        rc = cli_dispatch(["distance", "--complex", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: complex JSON must be an object, got list")

    def test_complex_file_that_is_not_an_object_from_the_shell(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("[1, 2]")
        proc = subprocess.run([sys.executable, "-m", "qbp.cli", "distance", "--complex",
                               str(path)], capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": str(Path(__file__).parent.parent / "src")})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_valid_files_still_load(self):
        cpx = toric_complex(3)
        obj = json.loads(json.dumps(complex_to_json(cpx)))
        assert complex_from_json(obj).faces == cpx.faces
        # The declared class sizes may be left out.
        sizeless = {k: v for k, v in obj.items() if k not in ("v00", "v10", "v01", "v11")}
        assert complex_from_json(sizeless).faces == cpx.faces
        g = cyclic_group(5)
        assert group_from_json(json.loads(json.dumps(group_to_json(g)))).mul == g.mul
        _, action = star_graph(4, 2)
        table = json.loads(json.dumps([list(r) for r in action.v1.table]))
        assert GroupAction.from_table(action.group, table).table == action.v1.table


class TestDeclaredSizes:
    """A declared size is bounded by `jsonio.MAX_DECLARED_SIZE` before anything
    is allocated from it; each probe here loads, without allocating, when
    sizes are unbounded."""

    def test_graph_side_over_the_budget_is_refused(self):
        with pytest.raises(ValidationError, match="graph v0 = 1000000000000 exceeds the declared"):
            graph_from_json({"v0": 10**12, "v1": 1, "edges": [[0, 0]]})
        with pytest.raises(ValidationError, match="graph v1 = 1048577 exceeds the declared"):
            graph_from_json({"v0": 1, "v1": MAX_DECLARED_SIZE + 1, "edges": [[0, 0]]})

    def test_vector_length_over_the_budget_is_refused(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"length": 2**40, "support": []}))
        with pytest.raises(ValidationError, match="vector length = 1099511627776 exceeds"):
            cli._load_vector(str(path))

    def test_sizes_at_the_budget_load(self):
        assert MAX_DECLARED_SIZE == 1 << 20
        graph = graph_from_json({"v0": MAX_DECLARED_SIZE, "v1": 1, "edges": [[0, 0]]})
        assert graph.v0_size == MAX_DECLARED_SIZE

    @pytest.mark.parametrize("change, message", [
        ({"v10": 5, "v00": 999}, "complex v00 must be 9, the length of reps_v00, got 999"),
        ({"v10": 5}, "complex v10 must be 9, the length of reps_v10, got 5"),
        ({"v11": 9.0}, "complex v11 must be 9, the length of reps_v11, got 9.0"),
        ({"v01": True}, "complex v01 must be 9, the length of reps_v01, got True"),
        ({"v00": -1}, "complex v00 must be 9, the length of reps_v00, got -1"),
        ({"v10": "9"}, "complex v10 must be 9, the length of reps_v10, got '9'"),
        ({"v11": None}, "complex v11 must be 9, the length of reps_v11, got None"),
        ({"v01": 10}, "complex v01 must be 9, the length of reps_v01, got 10"),
    ], ids=["v00", "v10", "v11_float", "v01_bool", "v00_negative", "v10_str", "v11_null",
            "v01_one_over"])
    def test_complex_class_size_must_be_its_reps_length(self, change, message):
        obj = dict(complex_to_json(toric_complex(3)), **change)
        with pytest.raises(ValidationError, match=re.escape(message)):
            complex_from_json(obj)

    @pytest.mark.parametrize("cell", ["v00", "v10", "v01", "v11"])
    def test_complex_reps_must_be_distinct(self, cell):
        # Orbits are disjoint, so two cells of a class cannot share one.
        obj = complex_file(toric_complex(3))
        reps = obj[f"reps_{cell}"]
        reps[4] = reps[2]
        with pytest.raises(ValidationError, match=re.escape(
                f"reps_{cell}[4] repeats the orbit representative {reps[2]}")):
            complex_from_json(obj)

    @pytest.mark.parametrize("recorded", [True, False], ids=["degrees", "no_degrees"])
    @pytest.mark.parametrize("which", ["v00_v10", "v01_v11", "v00_v01", "v10_v11"])
    def test_complex_edges_must_not_repeat(self, which, recorded):
        # A set would drop the repeat silently, and with no degrees recorded
        # nothing else would notice it.
        obj = complex_file(toric_complex(3))
        if not recorded:
            obj["degrees"] = None
        edges = obj[f"edges_{which}"]
        edges.insert(5, edges[2])
        edges.append(edges[0])
        with pytest.raises(ValidationError, match=re.escape(
                f"edges_{which}[5] repeats the edge {edges[2]}")):
            complex_from_json(obj)

    @pytest.mark.parametrize("command", [
        ["code"],
        ["distance"],
        ["decode", "--syndrome", "{v}", "--epsilon", "0"],
        ["simulate", "--error-weight", "1", "--sweep", "--epsilon", "0"],
        ["diagnose", "--error", "{v}", "--epsilon", "0"],
    ], ids=lambda argv: argv[0])
    def test_every_command_refuses_a_wrong_class_size(self, tmp_path, command):
        obj = complex_to_json(toric_complex(3))
        obj["v10"] += 1
        path = tmp_path / "declared_size.json"
        path.write_text(json.dumps(obj))
        vector = tmp_path / "v.json"
        vector.write_text(json.dumps({"length": 18, "support": [0]}))
        argv = [command[0], "--complex", path] + [vector if a == "{v}" else a
                                                 for a in command[1:]]
        assert run_cli(argv) == (
            1, "error: complex v10 must be 9, the length of reps_v10, got 10\n")

    def test_construct_reports_the_field(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"v0": 10**12, "v1": 1, "edges": [[0, 0]]}))
        rc, err = run_cli(["construct", "--left", big, "--right", big,
                           "--out", tmp_path / "c.json"])
        assert rc == 1
        assert err.startswith("error: graph v0 = 1000000000000 exceeds the declared-size budget")
        assert not (tmp_path / "c.json").exists()


# -- translation tables load as the group's own action objects ---------------------------


def write_factor_files(work, group, gens_a, gens_b, actions):
    """Factor graphs, group and actions written with plain lists, as a user
    would: edges (g, a g) on both factors when the actions are right
    translations, and (g, g a^{-1}), (g, g b) when they are left ones."""
    mul, inv, m = group.mul, group.inv, group.order
    if actions == "right":
        left = sorted([g, mul[a][g]] for g in range(m) for a in gens_a)
        right = sorted([g, mul[b][g]] for g in range(m) for b in gens_b)
        table = [[mul[x][inv[g]] for x in range(m)] for g in range(m)]
    else:
        left = sorted([g, mul[g][inv[a]]] for g in range(m) for a in gens_a)
        right = sorted([g, mul[g][b]] for g in range(m) for b in gens_b)
        table = [[mul[g][x] for x in range(m)] for g in range(m)]
    files = {
        "left": {"v0": m, "v1": m, "edges": left},
        "right": {"v0": m, "v1": m, "edges": right},
        "group": group_to_json(group),
        "actions": {"left_v0": table, "left_v1": table, "right_v0": table, "right_v1": table},
    }
    for name, obj in files.items():
        (work / f"{name}.json").write_text(json.dumps(obj))
    return ["construct"] + [a for name in files for a in (f"--{name}", work / f"{name}.json")]


class TestTranslationIntake:
    @staticmethod
    def construct(monkeypatch, argv, out):
        """Run `qbp construct` and return the GraphActions it built with."""
        seen = []
        build = cli.product.balanced_product

        def recording(x, ax, y, ay, **kwargs):
            seen.extend((ax, ay))
            return build(x, ax, y, ay, **kwargs)

        monkeypatch.setattr(cli.product, "balanced_product", recording)
        rc, err = run_cli(argv + ["--out", out])
        assert (rc, err) == (0, "")
        return seen

    @pytest.mark.parametrize("m", [8, 32])
    def test_cyclic_files_load_as_the_left_translation(self, tmp_path, monkeypatch, m):
        argv = write_factor_files(tmp_path, cyclic_group(m), (1, 2), (1, 4), "left")
        ax, ay = self.construct(monkeypatch, argv, tmp_path / "c.json")
        group = ax.group
        assert ay.group is group
        for action in (ax.v0, ax.v1, ay.v0, ay.v1):
            assert action is group.left_translation
            assert action.table is group.mul

    def test_dihedral_files_load_as_the_right_translation(self, tmp_path, monkeypatch):
        group = dihedral_group(4)
        argv = write_factor_files(tmp_path, group, (1, 2), (1, 2), "right")
        ax, ay = self.construct(monkeypatch, argv, tmp_path / "c.json")
        for action in (ax.v0, ax.v1, ay.v0, ay.v1):
            assert action.table == group.right_translation.table
        x = cayley_bipartite(group, (1, 2), "left")
        y = cayley_bipartite(group, (1, 2), "left")
        built = balanced_product(x.graph, x.action, y.graph, y.action)
        written = complex_from_json(json.loads((tmp_path / "c.json").read_text()))
        assert written.faces == built.faces

    def test_one_changed_entry_is_refused(self, tmp_path):
        argv = write_factor_files(tmp_path, cyclic_group(8), (1, 2), (1, 4), "left")
        acts = json.loads((tmp_path / "actions.json").read_text())
        acts["right_v1"] = [row[:] for row in acts["right_v1"]]
        acts["right_v1"][3][5] = acts["right_v1"][3][6]
        (tmp_path / "actions.json").write_text(json.dumps(acts))
        rc, err = run_cli(argv + ["--out", tmp_path / "c.json"])
        assert rc == 1
        assert err == "error: action not compatible at g=2, h=1, x=5\n"
        assert not (tmp_path / "c.json").exists()


# -- fuzz ----------------------------------------------------------------------------------

# Huge ints are beyond any index (>= 2^63), so no loader can allocate for them.
HUGE = st.sampled_from([2**63, 2**64 + 1, 10**30, -(2**63), -(10**30)])
INTS = st.integers(-3, 12) | HUGE
KEYS = ["v0", "v1", "edges", "mul", "order", "label", "act", "length", "support",
        "reps_v00", "reps_v10", "reps_v01", "reps_v11", "edges_v00_v10", "edges_v01_v11",
        "edges_v00_v01", "edges_v10_v11", "faces", "degrees", "group_order", "v00", "v10",
        "v01", "v11", "down", "up", "right", "left"]
LEAVES = (st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=3))
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=20,
)
ROWS = st.lists(st.lists(INTS | LEAVES, max_size=5), max_size=5) | JSON


def shaped(fields, valid):
    """Objects with a loader's own keys, each holding rows, ints or junk, and
    sometimes a key missing; or a valid object with one field replaced by
    junk, or with one entry of one field replaced."""
    values = st.one_of(ROWS, INTS, JSON)
    objects = st.fixed_dictionaries({}, optional={key: values for key in fields})

    @st.composite
    def mutated(draw):
        obj = json.loads(json.dumps(valid))
        key = draw(st.sampled_from(sorted(obj)))
        field = obj[key]
        if isinstance(field, list) and field and draw(st.booleans()):
            i = draw(st.integers(0, len(field) - 1))
            if isinstance(field[i], list) and field[i]:
                j = draw(st.integers(0, len(field[i]) - 1))
                field[i][j] = draw(LEAVES)
            else:
                field[i] = draw(LEAVES)
        elif draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(values)
        return obj

    return objects | mutated()


LOADERS = {
    "graph": (graph_from_json, shaped(["v0", "v1", "edges"], graph_to_json(bipartite_cycle(3)))),
    "group": (group_from_json, shaped(["mul", "order", "label"], group_to_json(cyclic_group(3)))),
    # One table of an actions file; None stands for a missing table.
    "action": (lambda table: GroupAction.from_table(cyclic_group(3), table),
               shaped(["act"], {"act": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
               .map(lambda obj: obj.get("act"))),
    "complex": (complex_from_json, shaped(KEYS[9:24], complex_to_json(toric_complex(2)))),
}


def load_vector(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.json"
        path.write_text(json.dumps(obj))
        return cli._load_vector(str(path))


LOADERS["vector"] = (load_vector, shaped(["length", "support"], {"length": 4, "support": [1, 3]}))

ALIST_TEXT = (st.lists(st.lists(INTS.map(str) | st.text(max_size=3), max_size=6), max_size=8)
              .map(lambda lines: "\n".join(" ".join(line) for line in lines))
              | st.text(max_size=40))


def loads(load, value):
    """Whether a loader accepts value; anything it raises must be a qbp error."""
    try:
        load(value)
    except QBP_ERRORS:
        return False
    return True


class TestLoaderFuzz:
    @pytest.mark.parametrize("name", sorted(LOADERS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_only_qbp_errors_escape(self, name, data):
        load, objects = LOADERS[name]
        loads(load, data.draw(JSON | objects))

    @settings(max_examples=200, deadline=None)
    @given(text=ALIST_TEXT | JSON)
    def test_alist_only_qbp_errors_escape(self, text):
        loads(from_alist, text)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_dispatch([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def cli_files():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "cycle.json").write_text(json.dumps(graph_to_json(bipartite_cycle(3))))
        (work / "toric.json").write_text(json.dumps(complex_to_json(toric_complex(2))))
        (work / "z4.json").write_text(json.dumps(group_to_json(cyclic_group(4))))
        yield work


CLI_CASES = {
    # name: (loader that must refuse, argv with {f} for the fuzzed file)
    "complex": (complex_from_json, ["distance", "--complex", "{f}"]),
    "graph": (graph_from_json, ["certify", "--graph", "{f}", "--c", "1", "--epsilon", "0"]),
    "group": (group_from_json, ["construct", "--left", "{cycle}", "--right", "{cycle}",
                                "--group", "{f}", "--actions", "{f}", "--out", "{out}"]),
    "vector": (load_vector, ["decode", "--complex", "{toric}", "--syndrome", "{f}",
                             "--epsilon", "0"]),
}


class TestCliFuzz:
    @pytest.mark.parametrize("name", sorted(CLI_CASES))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_refusals_exit_with_an_error_line(self, cli_files, name, data):
        load, argv = CLI_CASES[name]
        value = data.draw(JSON | LOADERS[name][1])
        assume(not loads(load, value))
        path = cli_files / "fuzz.json"
        path.write_text(json.dumps(value))
        files = {"f": path, "cycle": cli_files / "cycle.json",
                 "toric": cli_files / "toric.json", "out": cli_files / "out.json"}
        rc, err = run_cli([a.format(**files) for a in argv])
        assert rc in (1, 2)
        assert err.startswith("error:") or err.startswith("i/o error:")
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=JSON)
    def test_actions_refusals_exit_with_an_error_line(self, cli_files, value):
        path = cli_files / "acts.json"
        path.write_text(json.dumps(value))
        rc, err = run_cli(["construct", "--left", cli_files / "cycle.json",
                           "--right", cli_files / "cycle.json", "--group",
                           cli_files / "z4.json", "--actions", path,
                           "--out", cli_files / "out.json"])
        assert rc in (1, 2)
        assert err.startswith("error:")
        assert "Traceback" not in err
