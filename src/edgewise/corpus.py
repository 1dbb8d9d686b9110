"""Instance generators: random, named, and the standard test corpus.

Everything here is deterministic per seed.  Random generators use
rejection sampling against the validators and raise ``GenerationError``
with diagnostics when their budget runs out; callers that iterate (the
fuzzer) count such failures rather than dying.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, count, repeat, starmap
from itertools import product as iproduct
from math import prod
from operator import add

from .cat import (
    FinCategory,
    PartialMonoid,
    _monoid_violations,
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
)
from .delta import _ints
from .errors import GenerationError, InputError
from .sset import _SHIFT, TruncatedSSet, _gather, _level_index, _tables

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


# draws before a random generator gives up with ``GenerationError``
_MONOID_DRAWS = 20000
_GRAPH_DRAWS = 10


def random_partial_monoid(size: int, seed: int) -> PartialMonoid:
    """Rejection-sample a strongly associative partial product table.

    Unit rows are forced; every other pair, row by row, takes one
    ``rng.randrange(size + 2)``: an element's index, or undefined for
    the last two values.  A draw is decided on a flat table of element
    indices, ``size + 1`` wide, whose extra index ``size`` stands for
    "undefined" and whose extra row and column hold only that index, so
    a product with an undefined factor is undefined and a triple is
    strongly associative exactly when its two bracketings give the same
    index.  Only the (size - 1)^3 triples of non-units are checked: with
    the unit rows forced, a triple (e, b, c) brackets to bc on both
    sides, (a, e, c) to ac and (a, b, e) to ab, defined or not, so no
    triple containing the unit can fail.  The product dict and the
    monoid are built only for the draw that passes; when the draws run
    out, the error names the first violation that
    ``validate_partial_monoid`` finds in the last draw.
    Sizes 1 to 4 give a monoid for every seed from 0 to 99.  Size 5 is
    allowed but rarely succeeds: of seeds 0 to 99 only 0 and 61 give a
    monoid, and every other seed uses up its 20,000 draws and raises
    ``GenerationError``.
    """
    _ints("random_partial_monoid", size)
    if not 1 <= size <= 5:
        raise InputError("size must be between 1 and 5")
    rng = random.Random(seed)
    elements = ("e",) + tuple(f"x{i}" for i in range(1, size))
    width = size + 1
    table = [size] * (width * width)
    for m in range(size):
        table[m] = table[m * width] = m
    entry = tuple(range(size)) + (size, size)      # a draw's table entry
    cells = [a * width + b for a in range(1, size) for b in range(1, size)]
    draw, bound = rng.randrange, size + 2
    for _ in range(_MONOID_DRAWS):
        for cell in cells:
            table[cell] = entry[draw(bound)]
        if _strongly_associative(table, width):
            return PartialMonoid(elements, "e", _product(elements, table),
                                 name=f"rpm{size}-s{seed}")
    last = next(_monoid_violations(elements, "e", _product(
        elements, table))) if _MONOID_DRAWS > 0 else ""
    raise GenerationError(
        f"no strongly associative table of size {size} within "
        f"{_MONOID_DRAWS} tries",
        seed=seed, size=size, attempts=_MONOID_DRAWS,
        last_violation=str(last))


def _strongly_associative(table, width):
    """Whether every triple of non-units brackets to one index in a flat
    table of ``random_partial_monoid``."""
    inner = range(1, width - 1)
    for a in inner:
        ra = a * width
        for b in inner:
            rab, rb = table[ra + b] * width, b * width
            for c in inner:
                if table[rab + c] != table[ra + table[rb + c]]:
                    return False
    return True


def _product(elements, table):
    """The product dict of a flat table of ``random_partial_monoid``:
    the unit rows, then the defined products of non-units row by row."""
    e, size = elements[0], len(elements)
    product = {(e, m): m for m in elements}
    product.update({(m, e): m for m in elements})
    for a in range(1, size):
        for b in range(1, size):
            ab = table[a * (size + 1) + b]
            if ab < size:
                product[elements[a], elements[b]] = elements[ab]
    return product


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
    _ints("random_category", max_objects, max_morphisms)
    for name, size in (("max_objects", max_objects),
                       ("max_morphisms", max_morphisms)):
        if size < 1:
            raise InputError(f"random_category: {name} must be >= 1, "
                             f"got {size}")
    rng = random.Random(seed)
    for _ in range(50):
        roll = rng.random()
        if roll < 0.45:
            if max_objects < 2:
                continue        # posets have two objects or more
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


def _linked_tuples(vertices, by_pair, length):
    """The ``length``-tuples of vertices with an edge from each entry to
    every later one, in ``product(vertices, repeat=length)`` order; a
    prefix grows only by vertices that each of its entries has an edge to.
    """
    def extend(prefix, allowed):
        if len(prefix) + 1 == length:
            for w in allowed:
                yield prefix + (w,)
            return
        for w in allowed:
            yield from extend(prefix + (w,),
                              [x for x in allowed if by_pair[(w, x)]])
    return extend((), vertices)


def _pairs(n):
    """The pairs p < q of [n], in the order a cell lists its edges."""
    return [(p, q) for p in range(n + 1) for q in range(p + 1, n + 1)]


def coskeletal_from_graph(vertices, edges, truncation,
                          name="", level_cap: int = 20000) -> TruncatedSSet:
    """Complete a reflexive multigraph coskeletally from its edges.

    ``edges`` lists (id, src, tgt); a designated loop is added per
    vertex to serve as its degeneracy.  A level-n cell for n >= 2 is a
    choice of vertices together with one edge per increasing pair, so
    every level is determined by the 1-truncated data and validation
    holds by construction.  Cells are listed by vertex tuple in
    ``product(vertices, repeat=n + 1)`` order, then by edge tuple in
    ``product`` order of the pairs' pools.

    Levels 2 and up are counted before any cell is listed: a vertex
    tuple with an edge from each entry to every later one carries the
    product of its pools' sizes in cells.  The first level over
    ``level_cap`` (an ``int`` >= 0) raises ``GenerationError`` naming
    that level and the cap, before anything is built.  Each table is
    built a level at a time, in C, on the level's columns (vertex p of
    every cell, then edge (p, q) of every cell): it picks the columns
    of the image's edges, which fix its vertices (at level 0, of its
    vertex), with the loops of vertex i as one more column for the
    degeneracy s_i, and looks the zipped picks up in the target level.
    """
    _ints("coskeletal_from_graph", truncation, level_cap)
    vertices = tuple(vertices)
    if truncation < 1:
        raise InputError("coskeletal completion needs truncation >= 1")
    if level_cap < 0:
        raise InputError(f"coskeletal_from_graph: level_cap must be >= 0, "
                         f"got {level_cap}")
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

    # per level n >= 2: each linked vertex tuple, its cell count and the
    # pools of its pairs, all counted before any cell is listed
    linked = []
    for n in range(2, truncation + 1):
        level, cells, prs = [], 0, _pairs(n)
        for vt in _linked_tuples(vertices, by_pair, n + 1):
            pools = [by_pair[(vt[p], vt[q])] for p, q in prs]
            size = prod(map(len, pools))
            cells += size
            if cells > level_cap:
                raise GenerationError(
                    f"level {n} exceeds the cap of {level_cap} cells",
                    level=n, cap=level_cap)
            level.append((vt, size, pools))
        linked.append(level)

    src = {e: u for (u, w), pool in by_pair.items() for e in pool}
    tgt = {e: w for (u, w), pool in by_pair.items() for e in pool}
    levels = [list(vertices), edge_ids]
    # per level: each cell's key, its edge tuple (which fixes its
    # vertices) or at level 0 its vertex, and each cell's row, its
    # vertices then its edges
    keys = [list(zip(vertices)), list(zip(edge_ids))]
    rows = [keys[0], list(zip(map(src.get, edge_ids), map(tgt.get, edge_ids),
                              edge_ids))]
    for n, level in enumerate(linked, 2):
        vts, sizes, pools = zip(*level) if level else ((), (), ())
        keys.append(list(chain.from_iterable(starmap(iproduct, pools))))
        rows.append(list(map(add, chain.from_iterable(map(repeat, vts, sizes)),
                             keys[n])))
        levels.append(list(map(f"c{n}_{{}}".format, range(len(keys[n])))))
    index = _level_index(levels)
    where = [dict(zip(lv, count())) for lv in keys]
    columns = [list(zip(*lv)) or [()] * (n + 1 + len(_pairs(n)))
               for n, lv in enumerate(rows)]

    def table(kind, n, i):
        """The positions of (kind, n, i): the columns of the image keys,
        zipped and looked up in the target level."""
        cols = columns[n]
        edge = {pq: n + 1 + k for k, pq in enumerate(_pairs(n))}
        if kind == "face":
            keep = [p for p in range(n + 1) if p != i]
            picks = [edge[keep[p], keep[q]] for p, q in _pairs(n - 1)] or keep
        else:
            # duplicate vertex i; the new adjacent pair takes its loop,
            # read from one column past the level's own
            expand = [p if p <= i else p - 1 for p in range(n + 2)]
            cols = cols + [tuple(map(loop_of.__getitem__, cols[i]))]
            picks = [len(cols) - 1 if (p, q) == (i, i + 1)
                     else edge[expand[p], expand[q]]
                     for p, q in _pairs(n + 1)]
        return _gather(where[n + _SHIFT[kind]], zip(*_gather(cols, picks)))

    return TruncatedSSet._of_tables(truncation, levels, index,
                                    *_tables(truncation, table),
                                    name=name or "coskeletal")


def random_coskeletal_sset(num_vertices: int, num_edges: int,
                           truncation: int, seed: int,
                           level_cap: int = 20000) -> TruncatedSSet:
    """A coskeletal completion of a random reflexive multigraph.

    ``num_edges`` counts extra edges beyond the designated loops; these
    tend to create parallel pairs, which is what makes the instances
    useful as non-2-Segal controls.  Graphs whose completion overflows
    the level cap are redrawn, up to ``_GRAPH_DRAWS`` times; the cap
    must be an ``int`` >= 0.
    """
    _ints("random_coskeletal_sset", num_vertices, num_edges, truncation,
          level_cap)
    if num_vertices < 1:
        raise InputError("need at least one vertex")
    if num_edges < 0:
        raise InputError("need a nonnegative number of extra edges")
    if level_cap < 0:
        raise InputError(f"random_coskeletal_sset: level_cap must be >= 0, "
                         f"got {level_cap}")
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(num_vertices))
    for attempt in range(_GRAPH_DRAWS):
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
        f"edges fit the cap in {_GRAPH_DRAWS} draws",
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
