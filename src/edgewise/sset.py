"""Truncated simplicial sets over explicit finite cell sets.

A ``TruncatedSSet`` keeps, for levels 0..truncation, the cell names
(opaque strings) in level order, and each face and degeneracy map as a
tuple of positions: entry p is the position, in the target level, of
the image of the level's p-th cell.  Positions are the working form:
``act`` composes position tuples and the checkers compare them.  Names
are the interface: the constructor takes tables of names, and ``face``,
``degeneracy``, ``face_map`` and ``degeneracy_map`` read back name
tables, decoded from positions when read.  A table that is not a total
map from its level into the target level does not define a simplicial
set: a name table is kept as it was given, so that ``validate`` can
report it, and ``act`` raises ``InputError`` when it reaches it; a
position tuple that is not such a map, or a table of any other type,
is refused by the constructor.
All simplicial structure is tabulated; nothing is lazy, so validation
and every downstream check are finite enumerations.

``validate`` returns a list of violations instead of raising: invalid
instances are data one can inspect, generate on purpose in tests, and
report on.  Constructors only enforce basic shape.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property

from .delta import (
    SimplexMap,
    all_monotone_maps,
    codegeneracy,
    coface,
    edgewise_on_map,
    epi_mono_factorize,
)
from .errors import InputError

__all__ = [
    "Violation",
    "SimplicialTables",
    "TruncatedSSet",
    "validate",
    "identities",
    "along",
    "tabulate",
    "standard_simplex",
    "act",
    "act_positions",
    "Pullback",
    "strict_pullback",
    "subdivide",
    "edgewise",
    "op_reverse",
    "nondegenerate_cells",
    "SimplicialMap",
    "simplicial_map_violations",
    "iso_check",
    "edgewise_map",
    "IsoSearchResult",
    "iso_search",
]


@dataclass(frozen=True)
class Violation:
    """One failed structural requirement, pinned to its witnesses.

    ``identity`` names the requirement ("dd", "ds", "ss", "totality",
    "naturality-face", ...); ``level`` and ``indices`` locate it; ``cell``
    is the witnessing cell.
    """

    identity: str
    level: int
    indices: tuple
    cell: str
    detail: str = ""

    def __str__(self):
        where = f"level {self.level}, indices {self.indices}, cell {self.cell!r}"
        return f"[{self.identity}] {where}: {self.detail}" if self.detail \
            else f"[{self.identity}] {where}"


class SimplicialTables:
    """Range-checked levels and structure maps, for sets and groupoids.

    Subclasses hold ``truncation`` and ``levels``, and keep the face and
    degeneracy maps keyed by (n, i), as tables or as functors, in the
    stores that ``_store(kind)`` returns.  ``_map`` reads a map in its
    stored form; ``face_map`` and ``degeneracy_map`` give it to callers.
    """

    def level(self, n):
        if not 0 <= n <= self.truncation:
            raise InputError(f"level {n} beyond truncation {self.truncation}")
        return self.levels[n]

    def _store(self, kind):
        return getattr(self, kind)

    def _map(self, kind, n, i):
        low, high = (1, self.truncation) if kind == "face" else \
            (0, self.truncation - 1)
        if not (low <= n <= high and 0 <= i <= n):
            raise InputError(f"{kind} index ({n}, {i}) out of range")
        try:
            return self._store(kind)[(n, i)]
        except KeyError:
            raise InputError(f"{kind} table ({n}, {i}) missing") from None

    def face_map(self, n, i):
        return self._map("face", n, i)

    def degeneracy_map(self, n, i):
        return self._map("degeneracy", n, i)

    def generator_maps(self, m, cofaces, codegens):
        """(stored map, (kind, level, index)) per generator, in the order
        they apply.

        The generators are an epi-mono factorization of a map into [m];
        a generator's map is looked up when the iteration reaches it.
        """
        level = m
        for i in reversed(cofaces):
            yield self._map("face", level, i), ("face", level, i)
            level -= 1
        for j in codegens:
            yield self._map("degeneracy", level, j), ("degeneracy", level, j)
            level += 1


_SHIFT = {"face": -1, "degeneracy": 1}


def _not_a_map(kind, n, i):
    return InputError(
        f"{kind} table ({n}, {i}) is not a map from level {n} into "
        f"level {n + _SHIFT[kind]}; input tables are not simplicial")


class TruncatedSSet(SimplicialTables):
    """Finite simplicial data up to a truncation level.

    ``levels[n]`` is the ordered tuple of cell names at level n.  The
    constructor takes ``face`` keyed by (n, i) with 1 <= n <= truncation,
    0 <= i <= n, each a dict from level-n cells to level-(n-1) cells, and
    ``degeneracy`` keyed by (n, i) with 0 <= n < truncation, each a dict
    from level-n cells to level-(n+1) cells.  It keeps each table as a
    tuple of target positions in level order, and takes such position
    tuples in place of dicts; a tuple must hold one in-range position
    per level-n cell, and any table that is neither such a tuple nor a
    dict raises ``InputError``.  A dict that is not a total map into the
    target level is kept as it is, for ``validate`` to report; ``act``
    and the checks read only position tuples.  ``face`` and
    ``degeneracy`` read the tables back as dicts of names, built on
    each read.
    Treated as immutable after construction; derived objects are always
    newly built.
    """

    def __init__(self, truncation, levels, face, degeneracy, name=""):
        if not isinstance(truncation, int) or isinstance(truncation, bool) \
                or truncation < 0:
            raise InputError(f"bad truncation {truncation!r}")
        levels = tuple(tuple(lv) for lv in levels)
        if len(levels) != truncation + 1:
            raise InputError(
                f"expected {truncation + 1} levels, got {len(levels)}")
        index = []
        for n, lv in enumerate(levels):
            for c in lv:
                if not isinstance(c, str):
                    raise InputError(f"cell id {c!r} at level {n} is not str")
            index.append({c: p for p, c in enumerate(lv)})
            if len(index[n]) != len(lv):
                raise InputError(f"duplicate cell ids at level {n}")
        self.truncation = truncation
        self.levels = levels
        self.name = name
        self._index = tuple(index)
        self._tables = {
            kind: {(n, i): self._as_positions(t, kind, n, i)
                   for (n, i), t in tables.items()}
            for kind, tables in (("face", face), ("degeneracy", degeneracy))}

    def _as_positions(self, table, kind, n, i):
        """A name table as positions in its target level, in level-n
        order; a name table that is not a total map from level n into
        that level is returned as it is.  A position tuple is returned
        as it is when it holds one in-range position per level-n cell;
        any other table raises ``InputError``."""
        target = n + _SHIFT[kind]
        in_range = 0 <= n <= self.truncation and \
            0 <= target <= self.truncation
        if isinstance(table, Mapping):
            if not in_range or len(table) != len(self.levels[n]):
                return table
            try:
                return tuple(map(self._index[target].__getitem__,
                                 map(table.__getitem__, self.levels[n])))
            except (KeyError, TypeError):
                return table
        try:
            if isinstance(table, tuple) and in_range and \
                    len(table) == len(self.levels[n]) and \
                    (not table or (min(table) >= 0 and
                                   max(table) < len(self.levels[target]))):
                return table
        except TypeError:
            pass
        raise _not_a_map(kind, n, i)

    def _as_names(self, table, n, target):
        """A stored table as a dict of names (name tables as they are)."""
        if isinstance(table, Mapping):
            return table
        return dict(zip(self.levels[n],
                        map(self.levels[target].__getitem__, table)))

    def _store(self, kind):
        return self._tables[kind]

    @property
    def face(self):
        return self._name_tables("face")

    @property
    def degeneracy(self):
        return self._name_tables("degeneracy")

    def _name_tables(self, kind):
        return {(n, i): self._as_names(t, n, n + _SHIFT[kind])
                for (n, i), t in self._tables[kind].items()}

    def face_map(self, n, i):
        return self._as_names(self._map("face", n, i), n, n - 1)

    def degeneracy_map(self, n, i):
        return self._as_names(self._map("degeneracy", n, i), n, n + 1)

    def level_set(self, n):
        self.level(n)
        return self._index[n].keys()

    def level_sizes(self):
        return tuple(len(lv) for lv in self.levels)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSSet):
            return NotImplemented
        return (self.truncation == other.truncation
                and self.levels == other.levels
                and self._tables == other._tables)

    def __repr__(self):
        label = self.name or "sset"
        return f"<{label}: levels {self.level_sizes()}>"


def _totality(out, n, indices, table, cells, targets, kind, bad_value):
    """Report each cell that ``table`` leaves unmapped or sends outside
    ``targets``; ``bad_value`` formats the offending value."""
    for c in cells:
        v = table.get(c)
        if v is None:
            out.append(Violation("totality", n, indices, c,
                                 f"{kind} entry missing"))
        elif v not in targets:
            out.append(Violation("totality", n, indices, c,
                                 bad_value.format(v)))


def _through(cells, *tables):
    """Each cell carried through the tables in turn (None once missing)."""
    for table in tables:
        cells = map(table.get, cells)
    return cells


def _disagreements(out, identity, n, indices, cells, lhs, rhs,
                   detail="{!r} != {!r}"):
    """Report the cells where two composites both exist and differ;
    ``detail`` formats the two values."""
    for c, a, b in zip(cells, lhs, rhs):
        if a is not None and b is not None and a != b:
            out.append(Violation(identity, n, indices, c,
                                 detail.format(a, b)))


def identities(N):
    """Every simplicial identity up to truncation N, each stated once.

    Yields (name, level, indices, lhs, rhs): both sides are composites
    of structure maps (kind, level, index) listed in the order they
    apply to the cells of the level, and an empty ``rhs`` is the
    identity.  Order: dd, ss, ds, then level, then indices (i, j) for
    dd and ss and (j, i) for ds.
    """
    d, s = "face", "degeneracy"
    # d_i d_j = d_{j-1} d_i for i < j
    for n in range(2, N + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                yield ("dd", n, (i, j), ((d, n, j), (d, n - 1, i)),
                       ((d, n, i), (d, n - 1, j - 1)))
    # s_i s_j = s_{j+1} s_i for i <= j
    for n in range(N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                yield ("ss", n, (i, j), ((s, n, j), (s, n + 1, i)),
                       ((s, n, i), (s, n + 1, j + 1)))
    # d_i s_j: identity on the diagonal pair, shifted degeneracy otherwise
    for n in range(N):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = ((s, n, j), (d, n + 1, i))
                if i in (j, j + 1):
                    yield "ds", n, (i, j), lhs, ()
                else:
                    k, l = (i, j - 1) if i < j else (i - 1, j)
                    yield "ds", n, (i, j), lhs, ((d, n, k), (s, n - 1, l))


def along(cells, maps, table):
    """Each cell carried along structure maps in turn (None once missing);
    ``table(kind, level, index)`` gives a map's table."""
    return _through(cells, *(table(*m) for m in maps))


def validate(X: TruncatedSSet):
    """All structural violations of X: totality plus simplicial identities.

    Each reported violation names the identity, the level it was checked
    at, the generator indices involved, and the witnessing cell.
    Identities are only evaluated on entries that exist; missing entries
    are themselves reported under "totality".
    """
    out = []
    N = X.truncation
    stores = {"face": X.face, "degeneracy": X.degeneracy}
    for kind, levels, shift in (("face", range(1, N + 1), -1),
                                ("degeneracy", range(N), 1)):
        for n in levels:
            cells, cellset = X.level(n), X.level_set(n)
            targets = X.level_set(n + shift)
            for i in range(n + 1):
                t = stores[kind].get((n, i))
                if t is None:
                    out.append(Violation("totality", n, (i,), "",
                                         f"{kind} table ({n}, {i}) missing"))
                    continue
                _totality(out, n, (i,), t, cells, targets, kind,
                          f"{kind} value {{!r}} not a cell")
                out.extend(Violation("stray-entry", n, (i,), c,
                                     f"{kind} key is not a cell")
                           for c in t if c not in cellset)

    # a missing table was reported above; through it nothing is defined
    def table(kind, n, i):
        return stores[kind].get((n, i), {})

    for identity, n, indices, lhs, rhs in identities(N):
        cells = X.level(n)
        _disagreements(out, identity, n, indices, cells,
                       along(cells, lhs, table), along(cells, rhs, table),
                       "{!r} != {!r}" if rhs else
                       "expected identity, got {!r}")
    return out


def tabulate(cells, face, degeneracy, name, label="") -> TruncatedSSet:
    """A truncated simplicial set from cell data and rules on it.

    ``cells[n]`` lists the hashable data of the level-n cells in level
    order, and ``name(c)`` gives a cell's id.  ``face(n, i)`` and
    ``degeneracy(n, i)`` each return a function carrying a level-n
    cell's data to its image's data; where it returns None the entry is
    left out.  Each id is computed once per cell.  A table whose images
    are all cells comes out as positions in the target level; any other
    table is a dict of names that shares the levels' strings, where an
    image that is not a cell still gets its name, so ``validate``
    reports it.  Face tables are built for each (n, i) in order, then
    the degeneracy tables.
    """
    N = len(cells) - 1
    levels = [list(map(name, lv)) for lv in cells]
    where = [{c: p for p, c in enumerate(lv)} for lv in cells]

    def table(n, rule, target):
        try:
            return tuple(map(where[target].__getitem__, map(rule, cells[n])))
        except KeyError:
            pass
        # an image that is no cell, or none at all: a table of names
        out = {}
        for c, cid in zip(cells[n], levels[n]):
            d = rule(c)
            if d is not None:
                t = where[target].get(d)
                out[cid] = name(d) if t is None else levels[target][t]
        return out

    faces = {(n, i): table(n, face(n, i), n - 1)
             for n in range(1, N + 1) for i in range(n + 1)}
    degeneracies = {(n, i): table(n, degeneracy(n, i), n + 1)
                    for n in range(N) for i in range(n + 1)}
    return TruncatedSSet(N, levels, faces, degeneracies, name=label)


def standard_simplex(k: int, truncation: int) -> TruncatedSSet:
    """The k-simplex: level n holds all monotone maps [n] -> [k]."""
    if k < 0 or truncation < 0:
        raise InputError("standard_simplex needs k >= 0 and truncation >= 0")
    # digit strings up to [9], dot-separated beyond, fixed by k for the
    # whole complex so names cannot collide
    sep = "" if k <= 9 else "."
    return tabulate(
        [[a.values for a in all_monotone_maps(n, k)]
         for n in range(truncation + 1)],
        lambda n, i: lambda c: c[:i] + c[i + 1:],
        lambda n, i: lambda c: c[:i + 1] + c[i:],
        lambda c: sep.join(map(str, c)),
        label=f"standard-simplex-{k}")


def act(alpha: SimplexMap, X: TruncatedSSet) -> dict:
    """The table of X applied to a monotone map, contravariantly.

    For alpha: [n] -> [m] the result maps level-m cells to level-n
    cells, keyed in level order: ``act_positions`` decoded to names.
    """
    return X._as_names(act_positions(alpha, X), alpha.cod_dim, alpha.dom_dim)


def act_positions(alpha: SimplexMap, X: TruncatedSSet) -> tuple:
    """``act`` as a tuple of level-n positions in level-m order.

    Face and degeneracy tables are composed along the epi-mono
    factorization of alpha, from the last generator back: each pass
    maps the position tuple of its generator through the tuple composed
    so far, so the cost is about the sum of the level sizes the
    generators read rather than the number of generators times the size
    of level m.  A table on the way that is not a total map into its
    target level (input that fails ``validate``) raises ``InputError``.
    """
    n, m = alpha.dom_dim, alpha.cod_dim
    if m > X.truncation or n > X.truncation:
        raise InputError(
            f"act needs levels {n} and {m} within truncation {X.truncation}")
    steps = []
    for step, (kind, k, i) in X.generator_maps(m, *epi_mono_factorize(alpha)):
        if not isinstance(step, tuple):
            raise _not_a_map(kind, k, i)
        steps.append(step)
    if not steps:
        return tuple(range(len(X.level(m))))
    table = steps.pop()
    for step in reversed(steps):
        table = tuple(map(table.__getitem__, step))
    return table


class Pullback:
    """A strict pullback of two legs f: A -> C and g: B -> C.

    Its elements are the pairs (a, b) with f[a] == g[b], in the order of
    A and then B.  The legs are kept as tuples of positions in C, one
    per element of A and of B in order, and ``left`` and ``right`` name
    those elements; ``Pullback(f, g)`` numbers the values of two dicts.
    Nothing is enumerated up front: ``positions()`` runs a hash join
    over g bucketed by value and yields the pairs as positions,
    iterating yields them by name, and ``pairs`` keeps that enumeration
    on first use.  ``size()`` multiplies value counts and ``in``
    compares the two legs, so neither enumerates a pair.  Two pullbacks
    are equal when their ``pairs`` are.
    """

    def __init__(self, f: dict, g: dict):
        numbers = {}

        def number(v):
            return numbers.setdefault(v, len(numbers))

        self.f = tuple(map(number, f.values()))
        self.g = tuple(map(number, g.values()))
        self.left, self.right = tuple(f), tuple(g)

    @classmethod
    def of_positions(cls, f, g, left, right) -> Pullback:
        """The pullback of position legs f and g; ``left`` and ``right``
        name the elements of their domains."""
        P = cls.__new__(cls)
        P.f, P.g, P.left, P.right = f, g, left, right
        return P

    def positions(self):
        fibers = {}
        for b, v in enumerate(self.g):
            fibers.setdefault(v, []).append(b)
        for a, v in enumerate(self.f):
            for b in fibers.get(v, ()):
                yield a, b

    def __iter__(self):
        left, right = self.left, self.right
        for a, b in self.positions():
            yield left[a], right[b]

    @cached_property
    def pairs(self) -> tuple:
        return tuple(self)

    def size(self) -> int:
        counts = Counter(self.g)
        return sum(k * counts[v] for v, k in Counter(self.f).items())

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        a, b = pair
        left, right = self.left, self.right
        return a in left and b in right and \
            self.f[left.index(a)] == self.g[right.index(b)]

    def __eq__(self, other):
        if not isinstance(other, Pullback):
            return NotImplemented
        return self.pairs == other.pairs

    __hash__ = None

    def __repr__(self):
        return f"Pullback(pairs={self.pairs!r})"


def strict_pullback(f: dict, g: dict, codomain=None) -> Pullback:
    """Pairs (a, b) with f[a] == g[b], in the insertion order of f and g.

    With ``codomain`` given, both tables must take values inside it.
    """
    if codomain is not None:
        cod = set(codomain)
        for tab, side in ((f, "left"), (g, "right")):
            for v in tab.values():
                if v not in cod:
                    raise InputError(
                        f"{side} table value {v!r} outside the codomain")
    return Pullback(f, g)


def subdivide(X, act):
    """``edgewise`` for a simplicial set or groupoid X, acted by ``act``.

    The result has the type of X.
    """
    if X.truncation < 1:
        raise InputError("edgewise needs truncation >= 1")
    M = (X.truncation - 1) // 2
    levels = tuple(X.level(2 * n + 1) for n in range(M + 1))
    face = {(n, i): act(edgewise_on_map(coface(i, n)), X)
            for n in range(1, M + 1) for i in range(n + 1)}
    degeneracy = {(n, i): act(edgewise_on_map(codegeneracy(i, n)), X)
                  for n in range(M) for i in range(n + 1)}
    return type(X)(M, levels, face, degeneracy,
                   name=f"esd({X.name})" if X.name else "esd")


def edgewise(X: TruncatedSSet) -> TruncatedSSet:
    """The edgewise subdivision: level n is X's level 2n+1.

    The result is truncated at floor((truncation - 1) / 2); structure
    tables are X acted by the subdivided generators, kept as positions
    in X's levels.
    """
    return subdivide(X, act_positions)


def op_reverse(X: TruncatedSSet) -> TruncatedSSet:
    """The reversed simplicial set: structure index i becomes n - i.

    It has X's levels and shares X's tables.
    """
    face = {(n, i): X._map("face", n, n - i)
            for n in range(1, X.truncation + 1) for i in range(n + 1)}
    degeneracy = {(n, i): X._map("degeneracy", n, n - i)
                  for n in range(X.truncation) for i in range(n + 1)}
    return TruncatedSSet(X.truncation, X.levels, face, degeneracy,
                         name=f"rev({X.name})" if X.name else "rev")


def nondegenerate_cells(X: TruncatedSSet, n: int):
    """Level-n cells that are not degeneracy images; all of level 0."""
    if n == 0:
        return X.level(0)
    degenerate = set()
    for i in range(n):
        degenerate.update(X.degeneracy_map(n - 1, i).values())
    return tuple(c for c in X.level(n) if c not in degenerate)


@dataclass
class SimplicialMap:
    """A levelwise cell assignment between equal-truncation sets."""

    source: TruncatedSSet
    target: TruncatedSSet
    components: tuple
    name: str = ""

    def component(self, n):
        return self.components[n]


def simplicial_map_violations(f: SimplicialMap):
    """Totality and naturality failures of f; empty means f is simplicial."""
    out = []
    X, Y = f.source, f.target
    if X.truncation != Y.truncation:
        return [Violation("shape", -1, (), "",
                          f"truncations {X.truncation} != {Y.truncation}")]
    if len(f.components) != X.truncation + 1:
        return [Violation("shape", -1, (), "",
                          f"expected {X.truncation + 1} components")]
    for n, comp in enumerate(f.components):
        _totality(out, n, (), comp, X.level(n), Y.level_set(n), "component",
                  "image {!r} not a cell of the target")
    for n in range(1, X.truncation + 1):
        cells, lo, hi = X.level(n), f.components[n - 1], f.components[n]
        for i in range(n + 1):
            _disagreements(out, "naturality-face", n, (i,), cells,
                           _through(cells, X.face_map(n, i), lo),
                           _through(cells, hi, Y.face_map(n, i)))
    for n in range(X.truncation):
        cells, lo, hi = X.level(n), f.components[n], f.components[n + 1]
        for i in range(n + 1):
            _disagreements(out, "naturality-degeneracy", n, (i,), cells,
                           _through(cells, X.degeneracy_map(n, i), hi),
                           _through(cells, lo, Y.degeneracy_map(n, i)))
    return out


def iso_check(f: SimplicialMap):
    """Problems preventing f from being a simplicial isomorphism.

    Empty result means: simplicial, and a levelwise bijection.  Failures
    carry witnesses (the colliding pair or the uncovered cell).
    """
    out = list(simplicial_map_violations(f))
    if any(v.identity in ("shape", "totality") for v in out):
        return out
    X, Y = f.source, f.target
    for n in range(X.truncation + 1):
        comp = f.components[n]
        seen = {}
        for c in X.level(n):
            v = comp[c]
            if v in seen:
                out.append(Violation("bijectivity", n, (), c,
                                     f"collides with {seen[v]!r} at {v!r}"))
            seen[v] = c
        for y in Y.level(n):
            if y not in seen:
                out.append(Violation("bijectivity", n, (), y,
                                     "uncovered target cell"))
    return out


def edgewise_map(f: SimplicialMap) -> SimplicialMap:
    """Reindex a simplicial map along the subdivision of its ends."""
    src = edgewise(f.source)
    tgt = edgewise(f.target)
    comps = tuple(dict(f.components[2 * n + 1])
                  for n in range(src.truncation + 1))
    return SimplicialMap(src, tgt, comps,
                         name=f"esd({f.name})" if f.name else "")


@dataclass
class IsoSearchResult:
    """Outcome of a bounded isomorphism search.

    ``status`` is "found", "none", or "inconclusive"; the last means the
    node budget ran out before the search space was exhausted, which is
    not evidence either way.
    """

    status: str
    mapping: SimplicialMap | None
    nodes: int


def _vertex_signature(X, v):
    if X.truncation < 1:
        return (0, 0)
    d0 = X.face_map(1, 0)
    d1 = X.face_map(1, 1)
    outs = sum(1 for e in X.level(1) if d1[e] == v)
    ins = sum(1 for e in X.level(1) if d0[e] == v)
    return (outs, ins)


def iso_search(X: TruncatedSSet, Y: TruncatedSSet,
               budget: int = 20000) -> IsoSearchResult:
    """Backtracking search for a simplicial isomorphism X -> Y.

    Candidates are ordered by vertex degree signatures and face
    compatibility; every attempted assignment costs one node of budget.
    """
    nodes = 0
    if X.truncation != Y.truncation or X.level_sizes() != Y.level_sizes():
        return IsoSearchResult("none", None, nodes)
    N = X.truncation

    xsig = {v: _vertex_signature(X, v) for v in X.level(0)}
    ysig = {v: _vertex_signature(Y, v) for v in Y.level(0)}
    if sorted(xsig.values()) != sorted(ysig.values()):
        return IsoSearchResult("none", None, nodes)

    # fixed processing order: level 0 by signature, higher levels as stored
    order = [(0, v) for v in sorted(X.level(0), key=lambda v: (xsig[v], v))]
    for n in range(1, N + 1):
        order += [(n, c) for c in X.level(n)]

    # name tables are built on each read: keep those the search reads
    xface, ydegeneracy = cache(X.face_map), cache(Y.degeneracy_map)

    # target index: face tuple -> candidates, per level
    yface = {}
    for n in range(1, N + 1):
        idx = {}
        maps = [Y.face_map(n, i) for i in range(n + 1)]
        for c in Y.level(n):
            key = tuple(m[c] for m in maps)
            idx.setdefault(key, []).append(c)
        yface[n] = idx

    # forced images: a degenerate cell maps wherever its witness goes
    forced_by = {}
    for n in range(1, N + 1):
        for i in range(n):
            table = X.degeneracy_map(n - 1, i)
            for w in X.level(n - 1):
                forced_by.setdefault(table[w], (i, w))

    assign = {}
    used = [set() for _ in range(N + 1)]

    def candidates(n, c):
        if c in forced_by:
            i, w = forced_by[c]
            if w in assign:
                return [ydegeneracy(n - 1, i)[assign[w]]]
        if n == 0:
            sig = xsig[c]
            return [v for v in sorted(Y.level(0), key=lambda v: (ysig[v], v))
                    if ysig[v] == sig]
        key = tuple(assign[xface(n, i)[c]] for i in range(n + 1))
        return yface[n].get(key, [])

    def extend(pos):
        nonlocal nodes
        if pos == len(order):
            return True
        n, c = order[pos]
        for y in candidates(n, c):
            if y in used[n]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetOut
            assign[c] = y
            used[n].add(y)
            if extend(pos + 1):
                return True
            del assign[c]
            used[n].remove(y)
        return False

    try:
        found = extend(0)
    except _BudgetOut:
        return IsoSearchResult("inconclusive", None, nodes)
    if not found:
        return IsoSearchResult("none", None, nodes)
    comps = tuple({c: assign[c] for c in X.level(n)} for n in range(N + 1))
    mapping = SimplicialMap(X, Y, comps, name="iso-search")
    if iso_check(mapping):
        # the search invariants should prevent this; treat as no result
        return IsoSearchResult("none", None, nodes)
    return IsoSearchResult("found", mapping, nodes)


class _BudgetOut(Exception):
    pass
