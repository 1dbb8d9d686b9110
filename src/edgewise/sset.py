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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement, filterfalse
from operator import itemgetter

from .delta import (
    SimplexMap,
    _ints,
    codegeneracy,
    coface,
    edgewise_on_map,
    epi_mono_factorize,  # bound here too, for tracers that wrap it
    generator_path,
)
from .errors import InputError

__all__ = [
    "Violation",
    "SimplicialTables",
    "TruncatedSSet",
    "validate",
    "structure_maps",
    "identities",
    "along",
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


# the level a structure map of each kind goes to, from level n
_SHIFT = {"face": -1, "degeneracy": 1}


def _in_range(kind, n, i, N):
    """Whether (n, i) indexes a ``kind`` map of an object truncated at
    N: levels n and n + ``_SHIFT[kind]`` are both in 0..N, and
    0 <= i <= n."""
    return 0 <= n <= N and 0 <= n + _SHIFT[kind] <= N and 0 <= i <= n


class SimplicialTables:
    """Range-checked levels and structure maps, for sets and groupoids.

    Subclasses hold ``truncation`` and ``levels``, and keep the face and
    degeneracy maps keyed by (n, i), as tables or as functors, in the
    stores that ``_store(kind)`` returns; both constructors take the
    stores' keys by one rule (``_keyed``).  ``_map`` reads a map in its
    stored form; ``face_map`` and ``degeneracy_map`` give it to callers.
    """

    def level(self, n):
        if not 0 <= n <= self.truncation:
            raise InputError(f"level {n} beyond truncation {self.truncation}")
        return self.levels[n]

    def _store(self, kind):
        return getattr(self, kind)

    def _keyed(self, tables, kind):
        """(n, i, map) for each entry of a store of ``kind`` maps, the
        constructors' key rule: ``InputError`` unless ``tables`` is a
        ``Mapping`` keyed by (n, i) pairs of ``int``s (so no ``bool`` or
        ``float``) in the kind's index range.  It reads no map, and a
        store may lack keys."""
        if not isinstance(tables, Mapping):
            raise InputError(f"{kind} tables must be a mapping keyed by "
                             f"(n, i), not {type(tables).__name__}")
        for key, table in tables.items():
            if not (isinstance(key, tuple) and len(key) == 2 and
                    all(type(k) is int for k in key)):
                raise InputError(f"{kind} index {key!r} is not a pair of "
                                 "ints")
            n, i = key
            if not _in_range(kind, n, i, self.truncation):
                raise InputError(f"{kind} index '{n},{i}' out of range")
            yield n, i, table

    def _map(self, kind, n, i):
        if not _in_range(kind, n, i, self.truncation):
            raise InputError(f"{kind} index ({n}, {i}) out of range")
        try:
            return self._store(kind)[(n, i)]
        except KeyError:
            raise InputError(f"{kind} table ({n}, {i}) missing") from None

    def face_map(self, n, i):
        return self._map("face", n, i)

    def degeneracy_map(self, n, i):
        return self._map("degeneracy", n, i)

    def _on_levels(self, picked, face, degeneracy, name):
        """An object of this type whose level n is this one's level
        ``picked[n]``, with the given face and degeneracy maps."""
        return type(self)(len(picked) - 1, tuple(map(self.level, picked)),
                          face, degeneracy, name=name)

    def generator_maps(self, alpha):
        """(stored map, (kind, level, index)) per generator of alpha, in
        the order they apply.

        alpha's levels must be within the truncation; otherwise the
        iteration raises ``InputError`` before it yields a map.  The
        generators are ``generator_path(alpha)``, which is cached per
        map, so no call factorizes alpha, and their indices are in range
        for their kinds and levels.  So the cost is one store lookup per
        generator, made when the iteration reaches it; a map not in the
        store raises ``InputError``.
        """
        n, m = alpha.dom_dim, alpha.cod_dim
        if m > self.truncation or n > self.truncation:
            raise InputError(f"act needs levels {n} and {m} within "
                             f"truncation {self.truncation}")
        for step in generator_path(alpha):
            kind, n, i = step
            table = self._store(kind).get((n, i))
            if table is None:
                raise InputError(f"{kind} table ({n}, {i}) missing")
            yield table, step


def _expect(X, tier):
    """X, or ``InputError`` unless X is a ``tier``; each tier calls it
    where it first reads an object, so that the other tier's is
    refused."""
    if not isinstance(X, tier):
        raise InputError(f"expected a {tier.__name__}, got a "
                         f"{type(X).__name__}")
    return X


def _not_a_map(kind, n, i):
    return InputError(
        f"{kind} table ({n}, {i}) is not a map from level {n} into "
        f"level {n + _SHIFT[kind]}; input tables are not simplicial")


def _gather(table, positions):
    """``tuple(table[p] for p in positions)``, gathered in C.

    One ``operator.itemgetter`` over all the positions does the lookups
    without a Python-level call per entry.  ``positions`` is any
    iterable; no positions give ``()`` and one gives a 1-tuple, where
    ``itemgetter`` would raise or return the bare entry.  A bad position
    raises what ``table[p]`` raises: ``IndexError`` out of range,
    ``KeyError`` for a missing key, ``TypeError`` for an unhashable one.
    """
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)(table)
    return (table[positions[0]],) if positions else ()


def _stored(table, cells, index):
    """A name table in its stored form: positions in the target level,
    in the order of ``cells``, if its keys are exactly ``cells`` and it
    sends each to a key of ``index``, the target level's
    name-to-position dict; otherwise the table unchanged."""
    if len(table) == len(cells):
        try:
            return _gather(index, _gather(table, cells))
        except (KeyError, TypeError):
            pass
    return table


def _truncation(N):
    """``InputError`` unless N is a natural number."""
    if not isinstance(N, int) or isinstance(N, bool) or N < 0:
        raise InputError(f"bad truncation {N!r}")


def _level_index(levels):
    """Each level's name-to-position dict, built in C; ``InputError``
    unless every level lists distinct strs, checked level by level."""
    index = []
    for n, lv in enumerate(levels):
        for c in filterfalse(str.__instancecheck__, lv):
            raise InputError(f"cell id {c!r} at level {n} is not str")
        index.append(dict(zip(lv, range(len(lv)))))
        if len(index[n]) != len(lv):
            raise InputError(f"duplicate cell ids at level {n}")
    return tuple(index)


def _shape(truncation, levels, level=tuple):
    """``levels`` as a tuple of ``level(lv)``, one per n up to the
    truncation; the shape rule of both tiers' constructors."""
    _truncation(truncation)
    try:
        levels = tuple(map(level, levels))
    except TypeError:
        raise InputError("levels must be a sequence of levels") from None
    if len(levels) != truncation + 1:
        raise InputError(
            f"expected {truncation + 1} levels, got {len(levels)}")
    return levels


class TruncatedSSet(SimplicialTables):
    """Finite simplicial data up to a truncation level.

    ``levels[n]`` is the ordered tuple of cell names at level n.  The
    constructor takes ``face`` keyed by (n, i) with 1 <= n <= truncation,
    0 <= i <= n, each a dict from level-n cells to level-(n-1) cells, and
    ``degeneracy`` keyed by (n, i) with 0 <= n < truncation, each a dict
    from level-n cells to level-(n+1) cells.  It keeps each table as a
    tuple of target positions in level order, and takes such position
    tuples in place of dicts; a tuple must hold one in-range ``int``
    position per level-n cell, and any table that is neither such a
    tuple nor a dict raises ``InputError``, as does a key that is not
    such an (n, i) pair of ``int``s, or a ``face`` or ``degeneracy``
    that is not a ``Mapping``.  A dict that is not a total map into the
    target level is kept as it is, for ``validate`` to report; ``act``
    and the checks read only position tuples.  ``face`` and
    ``degeneracy`` read the tables back as dicts of names, built on
    each read.
    Treated as immutable after construction; derived objects are always
    newly built.
    """

    def __init__(self, truncation, levels, face, degeneracy, name=""):
        levels = _shape(truncation, levels)
        self._take(truncation, levels, _level_index(levels), face,
                   degeneracy, name, self._as_positions)

    @classmethod
    def _of_tables(cls, truncation, levels, index, face, degeneracy,
                   name=""):
        """A set on levels and tables the package built, taken as they
        are: ``levels`` lists distinct strs, ``index`` holds each
        level's name-to-position dict, and each table is in its stored
        form (a position tuple, or a name table that is not a total map
        into its target level), so no cell or table is checked again.
        The truncation, the level count and the table keys are checked
        as the constructor checks them."""
        X = cls.__new__(cls)
        X._take(truncation, _shape(truncation, levels), index, face,
                degeneracy, name, lambda table, kind, n, i: table)
        return X

    def _take(self, truncation, levels, index, face, degeneracy, name,
              stored):
        self.truncation = truncation
        self.levels = levels
        self.name = name
        self._index = index
        self._tables = {kind: {(n, i): stored(table, kind, n, i)
                               for n, i, table in self._keyed(tables, kind)}
                        for kind, tables in (("face", face),
                                             ("degeneracy", degeneracy))}

    def _on_levels(self, picked, face, degeneracy, name):
        """``SimplicialTables._on_levels``, sharing the picked levels'
        index; the tables are taken as they are."""
        return TruncatedSSet._of_tables(
            len(picked) - 1, tuple(map(self.level, picked)),
            _gather(self._index, picked), face, degeneracy,
            name)

    def _as_positions(self, table, kind, n, i):
        """A name table as positions in its target level, in level-n
        order; a name table that is not a total map from level n into
        that level is returned as it is.  A position tuple is returned
        as it is when it holds one in-range position per level-n cell,
        each of type ``int`` exactly (so no ``bool`` or ``float``); any
        other table raises ``InputError``.  The index (n, i) is in
        range."""
        target = n + _SHIFT[kind]
        if isinstance(table, Mapping):
            return _stored(table, self.levels[n], self._index[target])
        if isinstance(table, tuple) and \
                len(table) == len(self.levels[n]) and \
                set(map(type, table)) <= {int} and \
                (not table or (min(table) >= 0 and
                               max(table) < len(self.levels[target]))):
            return table
        raise _not_a_map(kind, n, i)

    def _as_names(self, table, n, target):
        """A stored table as a dict of names (name tables as they are)."""
        if isinstance(table, Mapping):
            return table
        return dict(zip(self.levels[n], _gather(self.levels[target], table)))

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

    def _names(self, kind, n, i):
        return self._as_names(self._map(kind, n, i), n, n + _SHIFT[kind])

    def face_map(self, n, i):
        return self._names("face", n, i)

    def degeneracy_map(self, n, i):
        return self._names("degeneracy", n, i)

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
        elif not _hashable(v) or v not in targets:
            out.append(Violation("totality", n, indices, c,
                                 bad_value.format(v)))


def _hashable(v):
    try:
        hash(v)
    except TypeError:
        return False
    return True


def _through(cells, *tables):
    """Each cell carried through the tables (None once missing or no cell)."""
    for table in tables:
        if not _hashable(tuple(table.values())):    # one pass, in C
            table = {c: v for c, v in table.items() if _hashable(v)}
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


def _position_disagreements(out, identity, n, indices, cells, lhs, rhs,
                            names, detail="{!r} != {!r}"):
    """``_disagreements`` of two position tuples into the level
    ``names``; cells are named only if the tuples differ."""
    if lhs != rhs:
        _disagreements(out, identity, n, indices, cells,
                       map(names.__getitem__, lhs),
                       map(names.__getitem__, rhs), detail)


def _composite(steps, size):
    """Position tables applied in turn, as one position tuple: each
    pass maps the next table through the tuple composed so far, from
    the last table back, as one C gather (``_gather``) whose length is
    that table's.  No tables is the identity on ``size`` cells."""
    if not steps:
        return tuple(range(size))
    table = steps[-1]
    for step in reversed(steps[:-1]):
        table = _gather(table, step)
    return table


def structure_maps(N):
    """Every face and degeneracy map of an object truncated at N, as
    (kind, n, i): the faces d_i: X_n -> X_(n-1), 1 <= n <= N, then the
    degeneracies s_i: X_n -> X_(n+1), 0 <= n < N, each by level and
    then index."""
    for kind in _SHIFT:
        for n in range(N + 1):
            for i in range(n + 1):
                if _in_range(kind, n, i, N):
                    yield kind, n, i


def _tables(N, rule):
    """The face and degeneracy stores of an object truncated at N: each
    (kind, n, i) of ``structure_maps(N)`` keyed by (n, i), in that
    order, with ``rule(kind, n, i)`` as its map."""
    stores = {kind: {} for kind in _SHIFT}
    for kind, n, i in structure_maps(N):
        stores[kind][n, i] = rule(kind, n, i)
    return stores["face"], stores["degeneracy"]


def _comap(kind, n, i):
    """The map of Δ whose action is the structure map (kind, n, i)."""
    return (coface if kind == "face" else codegeneracy)(i, n)


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
    are themselves reported under "totality".  A position tuple is a
    total map into its target level (the constructor refuses any other),
    so only name tables are checked for totality and stray entries.  An
    identity whose tables are all position tuples is checked by
    composing them, and cells are named only where the two sides
    differ; any other identity is checked on name tables.
    """
    _expect(X, TruncatedSSet)
    out = []
    N = X.truncation
    stored = X._store
    for kind, n, i in structure_maps(N):
        t = stored(kind).get((n, i))
        if t is None:
            out.append(Violation("totality", n, (i,), "",
                                 f"{kind} table ({n}, {i}) missing"))
        elif not isinstance(t, tuple):
            _totality(out, n, (i,), t, X.level(n),
                      X.level_set(n + _SHIFT[kind]), kind,
                      f"{kind} value {{!r}} not a cell")
            cellset = X.level_set(n)
            out.extend(Violation("stray-entry", n, (i,), c,
                                 f"{kind} key is not a cell")
                       for c in t if c not in cellset)

    # a missing table was reported above; through it nothing is defined
    @cache
    def table(kind, n, i):
        return X._as_names(stored(kind).get((n, i), {}), n, n + _SHIFT[kind])

    for identity, n, indices, lhs, rhs in identities(N):
        cells = X.level(n)
        detail = "{!r} != {!r}" if rhs else "expected identity, got {!r}"
        sides = [[stored(kind).get((k, i)) for kind, k, i in side]
                 for side in (lhs, rhs)]
        if all(isinstance(t, tuple) for side in sides for t in side):
            kind, k, _ = lhs[-1]
            _position_disagreements(out, identity, n, indices, cells,
                                    *(_composite(side, len(cells))
                                      for side in sides),
                                    X.level(k + _SHIFT[kind]), detail)
        else:
            _disagreements(out, identity, n, indices, cells,
                           along(cells, lhs, table),
                           along(cells, rhs, table), detail)
    return out


def standard_simplex(k: int, truncation: int) -> TruncatedSSet:
    """The k-simplex: level n holds all monotone maps [n] -> [k].

    A level-n cell is its tuple of n + 1 vertices, non-decreasing, and
    each level lists them in lexicographic (``all_monotone_maps``)
    order.  d_i drops column i and s_i repeats it, so each table is one
    ``_gather`` of the picked columns through the target level's
    tuple-to-position dict.
    """
    _ints("standard_simplex", k, truncation)
    if k < 0 or truncation < 0:
        raise InputError("standard_simplex needs k >= 0 and truncation >= 0")
    cells = [tuple(combinations_with_replacement(range(k + 1), n + 1))
             for n in range(truncation + 1)]
    columns = [tuple(zip(*lv)) for lv in cells]
    where = [dict(zip(lv, range(len(lv)))) for lv in cells]

    def table(kind, n, i):
        picked = (*range(i), *range(i + 1, n + 1)) if kind == "face" \
            else (*range(i + 1), *range(i, n + 1))
        return _gather(where[n + _SHIFT[kind]],
                       zip(*_gather(columns[n], picked)))

    # digit strings up to [9], dot-separated beyond, fixed by k for the
    # whole complex so names cannot collide
    sep = "" if k <= 9 else "."
    levels = tuple(tuple(sep.join(map(str, c)) for c in lv) for lv in cells)
    index = tuple(dict(zip(lv, range(len(lv)))) for lv in levels)
    return TruncatedSSet._of_tables(truncation, levels, index,
                                    *_tables(truncation, table),
                                    name=f"standard-simplex-{k}")


def act(alpha: SimplexMap, X: TruncatedSSet) -> dict:
    """The table of X applied to a monotone map, contravariantly.

    For alpha: [n] -> [m] the result maps level-m cells to level-n
    cells, keyed in level order: ``act_positions`` decoded to names.
    """
    positions = act_positions(alpha, X)     # refuses a groupoid first
    return X._as_names(positions, alpha.cod_dim, alpha.dom_dim)


def act_positions(alpha: SimplexMap, X: TruncatedSSet) -> tuple:
    """``act`` as a tuple of level-n positions in level-m order.

    Face and degeneracy tables are composed along alpha's generator
    path (``generator_maps``), from the last generator back: each pass
    maps the position tuple of its generator through the tuple composed
    so far, as one C gather (``_gather``).  The path is cached per map,
    so the cost is one store lookup per generator and one gather per
    generator but the last, each as long as the level its generator
    starts from: about the sum of the level sizes the generators read,
    with no Python-level call per entry.  A table on the way that is
    not a total map into its target level (input that fails
    ``validate``) raises ``InputError``.
    """
    _expect(X, TruncatedSSet)
    steps = []
    for step, (kind, k, i) in X.generator_maps(alpha):
        if not isinstance(step, tuple):
            raise _not_a_map(kind, k, i)
        steps.append(step)
    return _composite(steps, len(X.level(alpha.cod_dim)))


class Pullback:
    """A strict pullback of two legs f: A -> C and g: B -> C.

    Its elements are the pairs (a, b) with f[a] == g[b], in the order of
    A and then B.  The legs are tuples of positions in C, one per
    element of A and of B in order, and ``left`` and ``right`` name
    those elements; ``strict_pullback`` builds one from two dicts.
    Nothing is enumerated up front: ``positions()``
    runs a hash join over g bucketed by value and yields the pairs as
    positions, iterating yields them by name, and ``pairs`` keeps that
    enumeration on first use.  ``size()`` multiplies value counts, once,
    and ``in`` compares the two legs, so neither enumerates a pair.  Two
    pullbacks are equal when their ``pairs`` are.
    """

    def __init__(self, f, g, left, right):
        self.f, self.g, self.left, self.right = f, g, left, right

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
        return self._size

    @cached_property
    def _size(self) -> int:
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

    The legs number the values of both dicts in order of first
    appearance, f's before g's.  With ``codomain`` given, both tables
    must take values inside it.  Anything but two dicts of hashable
    values, and a codomain that is not an iterable of them, is an
    ``InputError``.
    """
    bad = InputError("strict_pullback needs two dicts of hashable values")
    if not (isinstance(f, Mapping) and isinstance(g, Mapping)):
        raise bad
    try:
        values = dict.fromkeys([*f.values(), *g.values()])
    except TypeError:
        raise bad from None
    if codomain is not None:
        try:
            cod = set(codomain)
        except TypeError:
            raise InputError("the codomain of strict_pullback must be an "
                             "iterable of hashable values") from None
        for tab, side in ((f, "left"), (g, "right")):
            for v in tab.values():
                if v not in cod:
                    raise InputError(
                        f"{side} table value {v!r} outside the codomain")
    numbers = {v: p for p, v in enumerate(values)}
    return Pullback(_gather(numbers, f.values()), _gather(numbers, g.values()),
                    tuple(f), tuple(g))


def subdivide(X, act):
    """``edgewise`` for a simplicial set or groupoid X, acted by ``act``.

    The result has the type of X.
    """
    if X.truncation < 1:
        raise InputError("edgewise needs truncation >= 1")
    M = (X.truncation - 1) // 2
    face, degeneracy = _tables(M, lambda kind, n, i: act(
        edgewise_on_map(_comap(kind, n, i)), X))
    return X._on_levels(range(1, 2 * M + 2, 2), face, degeneracy,
                        f"esd({X.name})" if X.name else "esd")


def edgewise(X: TruncatedSSet) -> TruncatedSSet:
    """The edgewise subdivision: level n is X's level 2n+1.

    The result is truncated at floor((truncation - 1) / 2); structure
    tables are X acted by the subdivided generators, kept as positions
    in X's levels.
    """
    _expect(X, TruncatedSSet)
    return subdivide(X, act_positions)


def op_reverse(X: TruncatedSSet) -> TruncatedSSet:
    """The reversed simplicial set: structure index i becomes n - i.

    It has X's levels and shares X's tables.
    """
    face, degeneracy = _tables(
        X.truncation, lambda kind, n, i: X._map(kind, n, n - i))
    return X._on_levels(range(X.truncation + 1), face, degeneracy,
                        f"rev({X.name})" if X.name else "rev")


def nondegenerate_cells(X: TruncatedSSet, n: int):
    """Level-n cells that are not degeneracy images; all of level 0."""
    _expect(X, TruncatedSSet)
    cells = X.level(n)
    degenerate = set()
    for i in range(n):
        degenerate.update(X.degeneracy_map(n - 1, i).values())
    return tuple(c for c in cells if c not in degenerate)


@dataclass
class SimplicialMap:
    """A levelwise cell assignment between equal-truncation sets."""

    source: TruncatedSSet
    target: TruncatedSSet
    components: tuple
    name: str = ""


def _components(comps, N):
    """The shape check of a map's components over a set truncated at N.

    It raises ``InputError`` if ``comps`` is not a sequence, and returns
    the shape violation's text if it does not hold N + 1 components.
    Else it raises ``InputError`` if a component is not a ``Mapping``,
    and returns "".
    """
    if not isinstance(comps, Sequence):
        raise InputError("components must be a sequence, one mapping per "
                         f"level, not {type(comps).__name__}")
    if len(comps) != N + 1:
        return f"expected {N + 1} components"
    for n, comp in enumerate(comps):
        if not isinstance(comp, Mapping):
            raise InputError(f"component at level {n} must be a mapping of "
                             f"cells, not {type(comp).__name__}")
    return ""


def simplicial_map_violations(f: SimplicialMap):
    """Totality and naturality failures of f; empty means f is simplicial.

    The components are dicts of names, so every naturality square is
    checked on name tables, each structure map read as ``face_map`` and
    ``degeneracy_map`` read it; a square is checked only at the cells
    where both of its composites are defined.  Components that are not
    a sequence, or one that is not a ``Mapping``, raise ``InputError``.
    """
    out = []
    X, Y, comps = f.source, f.target, f.components
    if X.truncation != Y.truncation:
        return [Violation("shape", -1, (), "",
                          f"truncations {X.truncation} != {Y.truncation}")]
    shape = _components(comps, X.truncation)
    if shape:
        return [Violation("shape", -1, (), "", shape)]
    for n, comp in enumerate(comps):
        _totality(out, n, (), comp, X.level(n), Y.level_set(n),
                  "component", "image {!r} not a cell of the target")
    for kind, n, i in structure_maps(X.truncation):
        cells = X.level(n)
        _disagreements(out, f"naturality-{kind}", n, (i,), cells,
                       _through(cells, X._names(kind, n, i),
                                comps[n + _SHIFT[kind]]),
                       _through(cells, comps[n], Y._names(kind, n, i)))
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
        comp, seen = f.components[n], {}
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
    """Reindex a simplicial map along the subdivision of its ends.

    Components that are not a sequence of one ``Mapping`` per level of
    the source raise ``InputError``, with the texts of
    ``simplicial_map_violations``.
    """
    shape = _components(f.components, f.source.truncation)
    if shape:
        raise InputError(shape)
    src = edgewise(f.source)
    tgt = edgewise(f.target)
    comps = tuple(dict(f.components[2 * n + 1])
                  for n in range(src.truncation + 1))
    return SimplicialMap(src, tgt, comps,
                         name=f"esd({f.name})" if f.name else "")
