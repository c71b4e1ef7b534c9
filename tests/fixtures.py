"""Test instance builders that no command or bench op uses: seeded random
bipartite graphs, the symmetric groups and the conjugation action."""

import itertools
import random

from qbp.errors import ValidationError
from qbp.graphs import BipartiteGraph, build_bipartite
from qbp.groups import FiniteGroup, GroupAction


def random_bipartite(v0: int, v1: int, n_edges: int, rng: random.Random) -> BipartiteGraph:
    """A uniform simple bipartite graph with exactly n_edges edges."""
    if n_edges > v0 * v1:
        raise ValidationError(f"cannot place {n_edges} edges in a {v0}x{v1} grid")
    cells = [(a, b) for a in range(v0) for b in range(v1)]
    return build_bipartite(v0, v1, rng.sample(cells, n_edges))


def random_biregular(v0: int, v1: int, w0: int, rng: random.Random, attempts: int = 200) -> BipartiteGraph:
    """A random (w0, w1)-biregular simple graph; w1 = w0*v0/v1 must be integral.

    Built as a union of w0 random perfect assignments of V0-stubs to V1,
    resampled on duplicate edges.
    """
    if (w0 * v0) % v1 != 0:
        raise ValidationError(f"w0*v0 = {w0 * v0} not divisible by v1 = {v1}")
    w1 = w0 * v0 // v1
    if w0 > v1 or w1 > v0:
        raise ValidationError("degrees exceed opposite side size; no simple graph exists")
    for _ in range(attempts):
        stubs = [x1 for x1 in range(v1) for _ in range(w1)]
        rng.shuffle(stubs)
        left = [x0 for x0 in range(v0) for _ in range(w0)]
        edges = set()
        ok = True
        for x0, x1 in zip(left, stubs):
            if (x0, x1) in edges:
                ok = False
                break
            edges.add((x0, x1))
        if ok:
            return build_bipartite(v0, v1, edges)
    raise ValidationError(
        f"could not sample a simple ({w0},{w1})-biregular graph on {v0}+{v1} "
        f"vertices in {attempts} attempts"
    )


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order."""
    if not 1 <= n <= 6:
        raise ValidationError("symmetric_group supports 1 <= n <= 6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # Composition (p . q)(x) = p(q(x)).
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup.from_table(table, label=f"S{n}")


def conjugation_action(group: FiniteGroup) -> GroupAction:
    """g . x = g x g^{-1}; not free for any group with a non-central element."""
    table = tuple(
        tuple(group.op(group.op(g, x), group.inv[g]) for x in group.elements())
        for g in group.elements()
    )
    return GroupAction.from_table(group, table)
