"""Reusable graph, action, and complex families.

The families here are the workhorses for experiments and tests:

* bipartite cycles (products of two of them are the toric codes),
* star forests with translation symmetry, which are exact lossless
  expanders (every subset expands by the full degree) and so support the
  decoder's guarantees with epsilon = 0,
* incidence graphs of complete graphs with one doubled distance class, the
  smallest biregular family certifiable at a nonzero epsilon with the pair
  bound epsilon * w0 = 1 (girth 6 except for the doubled class),
* seeded random graphs with a prescribed free action.

Nothing on these build paths re-checks what the construction guarantees.
The groups are written by formula (`cyclic_group`), and every free action
here is a translation, on the group or on copies of it (the star leaves,
the incidence edge instances, the random blocks), so it is built with no
law check or freeness scan (`groups._copies_translation`).  The products
come from `balanced_product`, whose chain-condition verdict is preset by
proof.  A complex has one of two verdict sources (see `product`): by
proof for a built complex, or from the loader's checks for any other.
"""

from __future__ import annotations

import random
from typing import Iterable

from .errors import ValidationError
from .graphs import BipartiteGraph, GraphAction, build_bipartite, cayley_bipartite, invert_gens
from .groups import FiniteGroup, _copies_translation, cyclic_group
from .product import BalancedProductComplex, balanced_product, hypergraph_product


def bipartite_cycle(length: int) -> BipartiteGraph:
    """The (2,2)-regular cycle on length+length vertices: edges (i,i), (i,i+1)."""
    if length < 2:
        raise ValidationError("cycle needs length >= 2")
    edges = [(i, i) for i in range(length)] + [(i, (i + 1) % length) for i in range(length)]
    return build_bipartite(length, length, edges)


def toric_complex(length: int) -> BalancedProductComplex:
    """Hypergraph product of two bipartite cycles: the [[2L^2, 2, L]] code."""
    cyc = bipartite_cycle(length)
    return hypergraph_product(cyc, cyc)


def star_graph(m: int, degree: int) -> tuple[BipartiteGraph, GraphAction]:
    """m disjoint stars with translation symmetry: centers Z_m, leaves Z_m x [degree].

    Every center subset expands by exactly `degree`, so the graph is a
    (c=1, epsilon=0)-lossless expander from centers to leaves.
    """
    if m < 1 or degree < 1:
        raise ValidationError("star family needs m >= 1 and degree >= 1")
    group = cyclic_group(m)
    edges = [(i, i * degree + j) for i in range(m) for j in range(degree)]
    graph = build_bipartite(m, m * degree, edges)
    # Leaf i * degree + j is (i, j) in Z_m x [degree]; g moves it to (g + i, j).
    v1 = _copies_translation(group, degree, interleaved=True)
    return graph, GraphAction(group, group.left_translation, v1)


def left_right_cayley(group: FiniteGroup, gens_a: Iterable[int], gens_b: Iterable[int]) -> BalancedProductComplex:
    """Balanced product of two right Cayley graphs over the same group.

    The first factor uses the inverted generator list, so the vertical edge
    classes read (g, a g) while the horizontal classes read (g, g b); all
    four vertex classes have |G| elements and faces read (g, ag, gb, agb).
    """
    x = cayley_bipartite(group, invert_gens(group, gens_a), "right")
    y = cayley_bipartite(group, list(gens_b), "right")
    return balanced_product(
        x.graph, x.action, y.graph, y.action,
        provenance=f"left-right Cayley over {group.label or 'G'}",
    )


def star_product(m: int, down: int, right: int) -> BalancedProductComplex:
    """Balanced product of two star families over Z_m."""
    gx, ax = star_graph(m, down)
    gy, ay = star_graph(m, right)
    return balanced_product(gx, ax, gy, ay, provenance=f"star product m={m}")


def doubled_complete_incidence(m: int) -> tuple[BipartiteGraph, GraphAction]:
    """Incidence graph of the complete graph on Z_m with distance class 1 doubled.

    Vertices are Z_m; the other side lists one vertex per edge instance
    {i, i+s} (s = 1..(m-1)/2, the s = 1 class twice).  The result is
    (m+1, 2)-biregular with a free translation action; m must be odd so the
    translation acts freely on edge instances.  Pairs {i, i+1} share two
    instances and every other pair shares one, so the graph certifies at
    (c, epsilon) = (3/m, 1/(m+1)) from the vertex side, with
    epsilon * w0 = 1.
    """
    if m < 5 or m % 2 == 0:
        raise ValidationError("doubled complete incidence needs odd m >= 5")
    group = cyclic_group(m)
    half = (m - 1) // 2
    instances: list[tuple[int, int, int]] = []
    for s in range(1, half + 1):
        tags = (0, 1) if s == 1 else (0,)
        for tag in tags:
            for i in range(m):
                instances.append((s, tag, i))
    index = {inst: k for k, inst in enumerate(instances)}
    edges = []
    for (s, tag, i), k in index.items():
        edges.append((i, k))
        edges.append(((i + s) % m, k))
    graph = build_bipartite(m, len(instances), edges)
    # Instance (s, tag, i) is point block * m + i, one block per (s, tag);
    # g moves it to (s, tag, g + i).
    v1 = _copies_translation(group, half + 1, interleaved=False)
    return graph, GraphAction(group, group.left_translation, v1)


def incidence_star_product(m: int, right: int) -> BalancedProductComplex:
    """Balanced product of the doubled incidence family with a star family."""
    gx, ax = doubled_complete_incidence(m)
    gy, ay = star_graph(m, right)
    return balanced_product(gx, ax, gy, ay,
                            provenance=f"doubled-incidence x star, m={m}")


# -- seeded random families ----------------------------------------------------


def random_free_action_graph(
    group: FiniteGroup,
    blocks0: int,
    blocks1: int,
    orbit_edges: int,
    rng: random.Random,
) -> tuple[BipartiteGraph, GraphAction]:
    """A random bipartite graph with a free action: vertex sets are
    blocks x |G| with translation inside each block, edges a union of
    randomly seeded diagonal orbits."""
    n = group.order
    v0, v1 = blocks0 * n, blocks1 * n
    # An orbit is determined by (block0, block1, relative element); sample
    # distinct triples so the orbit union is duplicate-free.
    triples = [(b0, b1, d) for b0 in range(blocks0) for b1 in range(blocks1)
               for d in group.elements()]
    if orbit_edges > len(triples):
        raise ValidationError(f"at most {len(triples)} edge orbits exist")
    chosen = rng.sample(triples, orbit_edges)
    edges = set()
    for b0, b1, d in chosen:
        for g in group.elements():
            edges.add((b0 * n + g, b1 * n + group.op(g, d)))
    graph = build_bipartite(v0, v1, edges)
    act0 = _copies_translation(group, blocks0, interleaved=False)
    act1 = act0 if blocks1 == blocks0 else _copies_translation(group, blocks1, interleaved=False)
    return graph, GraphAction(group, act0, act1)
