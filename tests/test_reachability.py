"""Every public function, class and method of `qbp` is reached from a command
or the benchmark, or is listed in KEEP with the role that keeps it.

The walk is name-level and reads identifiers from the AST, never from
docstrings.  Its roots are every definition in `cli.py` and every name that
`perfbench/*.py` mentions, as an identifier, an attribute or a dotted string
(the tracer wraps functions it names in strings).  A reached definition
reaches every definition, in any module, that carries a name its body uses;
a reached class also reaches its bases, its decorators, its class-level
statements and its dunder methods.  A module-level assignment is a
definition of its target names.  Imports reach nothing, so `qbp.__init__`'s
re-exports do not count.

Being name-level, the walk counts a public method as reached whenever a
namesake is; every public method that shares its short name with another
public definition is therefore listed in SHARED with the command or bench
function that calls it.  The test checks only that this function reaches
the class and the name; that the call is made on an instance of that
class is audited by hand when a method is listed.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qbp"
BENCH = ROOT / "perfbench"

# Public names that no command and no bench op reaches, and why they stay: a
# lemma states a bound or a guarantee of the paper.  Reference implementations
# and fixtures that only tests use live in tests/oracles.py and
# tests/fixtures.py instead.
KEEP = {
    "css.CssCode.split_support": "lemma",
    "css.normalized_syndrome_weight": "lemma",
    "css.normalized_weight": "lemma",
    "decoder.DecoderConfig.guaranteed_progress": "lemma",
    "decoder.SizeGates": "lemma",
    "decoder.guaranteed_correctable_weight": "lemma",
    "decoder.size_gates": "lemma",
    "expansion.EdgeCountBounds": "lemma",
    "expansion.ExpansionCertificate.authoritative": "lemma",
    "expansion.UniqueExpansionCheck": "lemma",
    "expansion.check_unique_expander_bound": "lemma",
    "expansion.edge_count_bounds": "lemma",
    "expansion.unique_neighbors": "lemma",
    "product.SubgraphCopy": "lemma",
    "product.copies_decomposition": "lemma",
    "product.inherit_certificates": "lemma",
}
ROLES = {"lemma"}

# Public methods whose short name another public definition also carries,
# each with the command or bench function that calls it: that function must
# reach both the method's class and its name.  A new collision fails until
# it is listed, and listing it is a hand audit: a namesake's call passes the
# check as well.
SHARED = {
    "css.CssCode.weight": "cli.py:_cmd_code",
    "decoder.DecodeResult.to_json": "cli.py:_cmd_decode",
    "decoder.TraceStep.to_json": "cli.py:_cmd_decode",
    "expansion.ExpansionCertificate.to_json": "cli.py:_cmd_certify",
    "gf2.F2Vector.weight": "cli.py:_cmd_simulate",
    "graphs.NonRegularReport.is_regular": "cli.py:_cmd_certify",
    "graphs.RegularityProfile.is_regular": "cli.py:_cmd_certify",
    "groups.FiniteGroup.from_table": "cli.py:_cmd_construct",
    "groups.GroupAction.from_table": "cli.py:_cmd_construct",
    "harness.ExperimentResult.to_json": "cli.py:_cmd_simulate",
    "harness.TrialRecord.to_json": "cli.py:_cmd_simulate",
}


def body_names(node):
    """Identifiers and attribute names used under node; a docstring is a
    constant, so it adds none."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def definitions():
    """qualified name -> (short name, names its definition uses, public)."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = (node.name, body_names(node),
                                                 not node.name.startswith("_"))
            elif isinstance(node, ast.ClassDef):
                # A method other than a dunder is reached by its own name.
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("__")]
                uses = set().union(*map(body_names, node.bases + node.decorator_list), *(
                    body_names(item) for item in node.body if item not in methods))
                public = not node.name.startswith("_")
                defs[f"{module}.{node.name}"] = (node.name, uses, public)
                for item in methods:
                    defs[f"{module}.{node.name}.{item.name}"] = (
                        item.name, body_names(item), public and not item.name.startswith("_"))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in set().union(*map(body_names, targets)):
                    defs[f"{module}.{name}"] = (name, body_names(node), False)
    return defs


def bench_names():
    """Identifiers, attributes and dotted-name strings of perfbench, docstrings aside."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        names |= body_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
                names.update(node.value.split("."))
    return names


def reached(defs):
    """The qualified names reached from the roots."""
    roots = {qual for qual in defs if qual.startswith("cli.")}
    return roots | closure(defs, bench_names().union(*(defs[qual][1] for qual in roots)))


def closure(defs, names):
    """The qualified names that the identifiers `names` reach."""
    by_name = {}
    for qual, (name, _, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    seen, todo, done = set(), list(names), set()
    while todo:
        name = todo.pop()
        if name not in done:
            done.add(name)
            for qual in by_name.get(name, ()):
                seen.add(qual)
                todo.extend(defs[qual][1])
    return seen


def site_names(site):
    """The names used by the body of `site`, "file:function" for a function
    of cli.py or a perfbench/ file."""
    path, _, function = site.partition(":")
    tree = ast.parse((SRC / path if path == "cli.py" else ROOT / path).read_text())
    return body_names(next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == function))


def test_every_public_name_is_reached_or_kept():
    defs = definitions()
    public = {qual for qual, (_, _, is_public) in defs.items() if is_public}
    unaccounted = sorted(public - reached(defs) - set(KEEP))
    assert not unaccounted, f"public names no command or bench op reaches: {unaccounted}"


def test_keep_lists_only_unreached_names():
    defs = definitions()
    seen = reached(defs)
    assert [name for name in KEEP if name not in defs] == [], "KEEP names that no longer exist"
    assert [name for name in KEEP if name in seen] == [], "KEEP names that are now reached"
    assert set(KEEP.values()) <= ROLES


def test_shared_names_are_listed_with_a_site_that_reaches_them():
    defs = definitions()
    public = {qual: name for qual, (name, _, is_public) in defs.items() if is_public}
    uses = Counter(public.values())
    shared = sorted(qual for qual, name in public.items()
                    if qual.count(".") == 2 and uses[name] > 1)
    assert shared == sorted(SHARED), "public methods that share a name: list them in SHARED"
    for qual, site in SHARED.items():
        assert site.split(":")[0] == "cli.py" or site.startswith("perfbench/"), site
        seen = closure(defs, site_names(site))
        module, cls, _ = qual.split(".")
        assert qual in seen and f"{module}.{cls}" in seen, (qual, site)


def test_walk_reaches_what_the_commands_run():
    # Each command's core is reached.
    seen = reached(definitions())
    assert {"product.balanced_product", "product.complex_from_json", "css.extract_code",
            "css.code_params", "decoder.decode", "decoder.decode_x", "harness.run_simulation",
            "expansion.certify_expansion", "expansion.tree_partition"} <= seen


def test_the_package_defines_no_test_oracle():
    # The reference implementations live only in the tests, so no command or
    # bench op can run one.
    assert oracles.__all__
    defined = {name for name, _, _ in definitions().values()}
    assert sorted(defined & set(oracles.__all__)) == []
