"""Instance generators: random, named, and the standard test corpus.

Everything here is deterministic per seed.  Random generators use
rejection sampling against the validators and raise ``GenerationError``
with diagnostics when their budget runs out; callers that iterate (the
fuzzer) count such failures rather than dying.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct

from .cat import (
    FinCategory,
    PartialMonoid,
    bar,
    chain_poset,
    cyclic_monoid,
    monoid_category,
    nerve,
    opposite_category,
    poset_category,
    product_category,
    truncated_free_monoid,
    twisted_arrow,
    validate_partial_monoid,
)
from .errors import GenerationError, InputError
from .sset import TruncatedSSet, tabulate

__all__ = [
    "random_partial_monoid",
    "random_category",
    "coskeletal_from_graph",
    "random_coskeletal_sset",
    "idempotent_monoid",
    "diamond_poset",
    "CorpusInstance",
    "standard_corpus",
]


def idempotent_monoid() -> PartialMonoid:
    """Two elements with a*a = a; total and commutative."""
    product = {("e", "e"): "e", ("e", "a"): "a",
               ("a", "e"): "a", ("a", "a"): "a"}
    return PartialMonoid(("e", "a"), "e", product, name="idem2")


def diamond_poset() -> FinCategory:
    """Bottom, two incomparable middles, top."""
    els = ("b", "l", "r", "t")
    leq = {(x, x) for x in els}
    leq |= {("b", "l"), ("b", "r"), ("b", "t"), ("l", "t"), ("r", "t")}
    return poset_category(els, leq, name="diamond")


def random_partial_monoid(size: int, seed: int,
                          budget: int = 20000) -> PartialMonoid:
    """Rejection-sample a strongly associative partial product table.

    Unit rows are forced; other pairs are left undefined with weight 2
    or sent to a random element.  Sizes up to 5 are practical.
    """
    if not 1 <= size <= 5:
        raise InputError("size must be between 1 and 5")
    rng = random.Random(seed)
    elements = ("e",) + tuple(f"x{i}" for i in range(1, size))
    last = None
    for attempt in range(budget):
        product = {("e", m): m for m in elements}
        product.update({(m, "e"): m for m in elements})
        for a in elements[1:]:
            for b in elements[1:]:
                pick = rng.randrange(size + 2)
                if pick < size:
                    product[(a, b)] = elements[pick]
        M = PartialMonoid(elements, "e", product,
                          name=f"rpm{size}-s{seed}")
        last = validate_partial_monoid(M)
        if not last:
            return M
    raise GenerationError(
        f"no strongly associative table of size {size} within {budget} tries",
        seed=seed, size=size, attempts=budget,
        last_violation=str(last[0]) if last else "")


def _random_poset(rng, max_objects):
    k = rng.randrange(2, max_objects + 1)
    els = tuple(f"p{i}" for i in range(k))
    rel = {(a, a) for a in els}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.5:
                rel.add((els[i], els[j]))
    # transitive closure over the random order data
    changed = True
    while changed:
        changed = False
        for a, b in tuple(rel):
            for c, d in tuple(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return poset_category(els, rel, name=f"rpos{k}")


_MONOID_MAKERS = (
    lambda: cyclic_monoid(2),
    lambda: cyclic_monoid(3),
    lambda: cyclic_monoid(4),
    idempotent_monoid,
)


def random_category(seed: int, max_objects: int = 4,
                    max_morphisms: int = 24) -> FinCategory:
    """A small category drawn from posets, monoids, and their products."""
    rng = random.Random(seed)
    for _ in range(50):
        roll = rng.random()
        if roll < 0.45:
            A = _random_poset(rng, max_objects)
        elif roll < 0.75:
            A = monoid_category(rng.choice(_MONOID_MAKERS)())
        else:
            left = _random_poset(rng, max(2, max_objects - 1))
            right = monoid_category(rng.choice(_MONOID_MAKERS[:2])())
            A = product_category(left, right)
        if len(A.objects) <= max_objects and \
                len(A.morphisms) <= max_morphisms:
            return A
    raise GenerationError("no category within the size bounds", seed=seed)


def coskeletal_from_graph(vertices, edges, truncation,
                          name="", level_cap: int = 20000) -> TruncatedSSet:
    """Complete a reflexive multigraph coskeletally from its edges.

    ``edges`` lists (id, src, tgt); a designated loop is added per
    vertex to serve as its degeneracy.  A level-n cell for n >= 2 is a
    choice of vertices together with one edge per increasing pair, so
    every level is determined by the 1-truncated data and validation
    holds by construction.
    """
    vertices = tuple(vertices)
    if truncation < 1:
        raise InputError("coskeletal completion needs truncation >= 1")
    loop_of = {v: f"{v}~" for v in vertices}
    by_pair = {(u, w): [] for u in vertices for w in vertices}
    for v in vertices:
        by_pair[(v, v)].append(loop_of[v])
    edge_ids = list(loop_of.values())
    for eid, u, w in edges:
        if (u, w) not in by_pair:
            raise InputError(f"edge {eid!r} touches unknown vertices")
        by_pair[(u, w)].append(eid)
        edge_ids.append(eid)
    if len(set(edge_ids)) != len(edge_ids):
        raise InputError("duplicate edge ids")

    def pairs(n):
        return [(p, q) for p in range(n + 1) for q in range(p + 1, n + 1)]

    src = {e: u for (u, w), pool in by_pair.items() for e in pool}
    tgt = {e: w for (u, w), pool in by_pair.items() for e in pool}
    levels = [list(vertices), edge_ids]
    # per level: (vertex tuple, edge tuple) of each cell, in level order
    cell_data = [[((v,), ()) for v in vertices],
                 [((src[e], tgt[e]), (e,)) for e in edge_ids]]
    for n in range(2, truncation + 1):
        data = []
        for vt in iproduct(vertices, repeat=n + 1):
            pools = [by_pair[(vt[p], vt[q])] for p, q in pairs(n)]
            if any(not pool for pool in pools):
                continue
            for et in iproduct(*pools):
                data.append((vt, et))
                if len(data) > level_cap:
                    raise GenerationError(
                        f"level {n} exceeds the cap of {level_cap} cells",
                        level=n, cap=level_cap)
        levels.append([f"c{n}_{i}" for i in range(len(data))])
        cell_data.append(data)
    cell_id = {c: cid
               for ids, data in zip(levels, cell_data)
               for cid, c in zip(ids, data)}

    def face(n, i):
        keep = [p for p in range(n + 1) if p != i]
        prs = pairs(n)
        sel = [prs.index((keep[p], keep[q])) for p, q in pairs(n - 1)]
        return lambda c: (tuple(c[0][p] for p in keep),
                          tuple(c[1][s] for s in sel))

    def degeneracy(n, i):
        # duplicate vertex i; the new adjacent pair takes the loop
        expand = [p if p <= i else p - 1 for p in range(n + 2)]
        prs = pairs(n)
        picks = [None if (p, q) == (i, i + 1)
                 else prs.index((expand[p], expand[q]))
                 for p, q in pairs(n + 1)]
        return lambda c: (tuple(c[0][p] for p in expand),
                          tuple(loop_of[c[0][i]] if s is None else c[1][s]
                                for s in picks))

    return tabulate(cell_data, face, degeneracy, cell_id.__getitem__,
                    label=name or "coskeletal")


def random_coskeletal_sset(num_vertices: int, num_edges: int,
                           truncation: int, seed: int,
                           level_cap: int = 20000,
                           tries: int = 10) -> TruncatedSSet:
    """A coskeletal completion of a random reflexive multigraph.

    ``num_edges`` counts extra edges beyond the designated loops; these
    tend to create parallel pairs, which is what makes the instances
    useful as non-2-Segal controls.  Graphs whose completion overflows
    the level cap are redrawn, up to ``tries`` times.
    """
    if num_vertices < 1:
        raise InputError("need at least one vertex")
    if num_edges < 0:
        raise InputError("need a nonnegative number of extra edges")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(num_vertices))
    for attempt in range(tries):
        edges = []
        for i in range(num_edges):
            u = rng.choice(vertices)
            w = rng.choice(vertices)
            edges.append((f"e{i}", u, w))
        try:
            return coskeletal_from_graph(
                vertices, edges, truncation,
                name=f"cosk(v{num_vertices},e{num_edges},s{seed})",
                level_cap=level_cap)
        except GenerationError:
            continue
    raise GenerationError(
        f"no graph on {num_vertices} vertices with {num_edges} extra "
        f"edges fit the cap in {tries} draws",
        seed=seed, truncation=truncation, cap=level_cap)


@dataclass(frozen=True)
class CorpusInstance:
    """One labeled member of the standard corpus."""

    kind: str            # "nerve" | "bar" | "coskeletal"
    name: str
    sset: TruncatedSSet
    origin: object = None


def standard_corpus():
    """The fixed instance list the acceptance checks sweep over.

    At least twenty nerves, ten bar constructions, and twenty
    coskeletal controls; deterministic, including the random members.
    Nerves are truncated at 5, or at 4 above six morphisms; bars at 5,
    or at 7 for ``tfm1``.
    """
    out = []

    categories = [(A.name, A) for A in
                  [chain_poset(n) for n in range(4)] +
                  [diamond_poset(), opposite_category(diamond_poset()),
                   monoid_category(cyclic_monoid(2)),
                   monoid_category(cyclic_monoid(3)),
                   monoid_category(cyclic_monoid(4)),
                   monoid_category(idempotent_monoid()),
                   product_category(chain_poset(1), chain_poset(1)),
                   twisted_arrow(chain_poset(1)),
                   twisted_arrow(monoid_category(cyclic_monoid(2)))]]
    categories += [(f"{A.name}#s{seed}", A)
                   for seed in range(1, 9)
                   for A in [random_category(seed)]]
    for label, A in categories:
        N = 5 if len(A.morphisms) <= 6 else 4
        out.append(CorpusInstance("nerve", f"nerve({label},N={N})",
                                  nerve(A, N), A))

    monoids = [truncated_free_monoid(1), truncated_free_monoid(2),
               truncated_free_monoid(3), cyclic_monoid(2),
               cyclic_monoid(3), idempotent_monoid(),
               *(random_partial_monoid(3, seed) for seed in (1, 2, 3)),
               *(random_partial_monoid(4, seed) for seed in (5, 8))]
    for M in monoids:
        N = 7 if M.name == "tfm1" else 5
        out.append(CorpusInstance("bar", f"bar({M.name},N={N})",
                                  bar(M, N), M))

    graphs = [
        ("par2", ("a", "b"), [("e0", "a", "b"), ("e1", "a", "b")], 5),
        ("par3", ("a", "b"), [("e0", "a", "b"), ("e1", "a", "b"),
                              ("e2", "a", "b")], 3),
        ("tri", ("a", "b", "c"), [("e0", "a", "b"), ("e1", "b", "c"),
                                  ("e2", "a", "c")], 4),
        ("gap", ("a", "b", "c"), [("e0", "a", "b"), ("e1", "b", "c")], 4),
        ("twoloop", ("a",), [("e0", "a", "a")], 4),
    ]
    for label, vs, es, N in graphs:
        out.append(CorpusInstance(
            "coskeletal", f"cosk({label},N={N})",
            coskeletal_from_graph(vs, es, N, name=f"cosk({label})")))
    specs = [(2, 1, 5), (2, 2, 4), (2, 3, 3), (3, 2, 4), (3, 3, 3),
             (2, 2, 3), (3, 4, 3), (1, 2, 3)]
    seed = 11
    for nv, ne, N in specs:
        for _ in range(2):
            out.append(CorpusInstance(
                "coskeletal", f"cosk(v{nv},e{ne},s{seed},N={N})",
                random_coskeletal_sset(nv, ne, N, seed)))
            seed += 1
    return out
