"""Finite categories, partial monoids, and their simplicial incarnations.

Composition is always written ``compose[(g, f)]`` for "g after f".  Cell
identifiers of nerves and bar constructions are pipe-joined strings of
morphism or element names; twisted-arrow and span morphisms are
colon-joined triples.  Constructors reject names containing the
separator they would need, so generated identifiers never collide.

Every category builder here, and the level groupoids of the
S-construction, hand their morphism data and rules to one builder,
``tabulate_category``, which names the morphisms, tabulates their
endpoints and identities, and asks the composition rule only of
composable pairs.  ``nerve`` and ``bar`` build their sets of strings
through one helper, ``_tabulate_strings``, a level at a time on
positions.

Partial monoids here satisfy the two-sided unit law and the strong
associativity axiom: for any triple, definedness of one bracketing
(including its outer product) is equivalent to definedness of the
other, and the results agree.  ``validate_partial_monoid`` checks
exactly that; the bar construction relies on it to keep its face
tables total.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from operator import add, itemgetter, mul
from types import MappingProxyType

from .delta import _ints
from .errors import InputError
from .sset import (_SHIFT, SimplicialMap, TruncatedSSet, _gather, _stored,
                   edgewise)

__all__ = [
    "LawViolation",
    "FinCategory",
    "tabulate_category",
    "validate_category",
    "opposite_category",
    "nerve",
    "twisted_arrow",
    "canonical_tw_iso",
    "PartialMonoid",
    "validate_partial_monoid",
    "bar",
    "span_category",
    "canonical_partial_iso",
    "truncated_free_monoid",
    "cyclic_monoid",
    "monoid_category",
    "poset_category",
    "chain_poset",
    "product_category",
]


@dataclass(frozen=True)
class LawViolation:
    """A failed law together with the witnessing tuple."""

    law: str
    witness: tuple
    detail: str = ""

    def __str__(self):
        return f"[{self.law}] at {self.witness}" + \
            (f": {self.detail}" if self.detail else "")


def _check_names(names, forbidden, what):
    for name in names:
        if not isinstance(name, str) or not name:
            raise InputError(f"{what} id {name!r} must be a nonempty string")
        for ch in forbidden:
            if ch in name:
                raise InputError(
                    f"{what} id {name!r} contains reserved character {ch!r}")


def _frozen(table, what):
    """``table`` read-only: a read-only ``Mapping`` is kept as given and
    trusted, values unchecked, and anything else is copied into a dict
    behind a ``MappingProxyType``.  ``InputError`` naming ``what`` where
    ``dict`` cannot take the table or a value of the copy is not
    hashable.  A ``MappingProxyType`` is recognised first: the builders
    hand theirs over so, and the ``Mapping`` checks cost a microsecond."""
    if type(table) is MappingProxyType or (
            isinstance(table, Mapping) and
            not isinstance(table, MutableMapping)):
        return table
    try:
        table = dict(table)
    except (TypeError, ValueError):
        raise InputError(f"{what} is not a table") from None
    try:
        hash(tuple(table.values()))
    except TypeError:
        raise InputError(f"{what} has a value that is not hashable") from None
    return MappingProxyType(table)


@dataclass(frozen=True, eq=False)
class FinCategory:
    """A finite category given by explicit tables.

    ``compose`` is keyed by (g, f) pairs of morphism ids and must be
    defined exactly on composable pairs; ``validate_category`` reports
    where that or any law fails.  Every table is read-only
    (``_frozen``): a read-only ``Mapping`` is kept as given, its values
    unchecked and trusted not to change behind it, so that a builder's
    tables are not copied and composites can be computed on lookup;
    any other table is copied.
    The constructor refuses with ``InputError`` names that are not
    distinct nonempty strings, a table that is no table or holds an
    unhashable value, a morphism whose src or tgt is no object, and an
    object whose identity is no morphism.  No attribute can be rebound,
    so what is read off the tables, such as ``hom``'s index, is built
    on first use and kept.
    """

    objects: tuple
    morphisms: tuple
    src: Mapping
    tgt: Mapping
    identity: Mapping
    compose: Mapping
    name: str = ""
    _TABLES = ("src", "tgt", "identity", "compose")     # made read-only

    def __post_init__(self):
        objects, morphisms = tuple(self.objects), tuple(self.morphisms)
        _check_names(objects, ",", "object")
        _check_names(morphisms, ",", "morphism")
        if len(set(objects)) != len(objects):
            raise InputError("duplicate object ids")
        if len(set(morphisms)) != len(morphisms):
            raise InputError("duplicate morphism ids")
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "morphisms", morphisms)
        for part in self._TABLES:
            object.__setattr__(self, part, _frozen(
                getattr(self, part), f"{part} of {self.name or 'a category'}"))
        obset, morset = set(objects), set(morphisms)
        for f in morphisms:
            if self.src.get(f) not in obset or self.tgt.get(f) not in obset:
                raise InputError(f"morphism {f!r} lacks valid endpoints")
        for x in objects:
            if self.identity.get(x) not in morset:
                raise InputError(f"object {x!r} lacks an identity morphism")

    @cached_property
    def _hom_index(self):
        index = {}
        for f in self.morphisms:
            index.setdefault((self.src[f], self.tgt[f]), []).append(f)
        return {key: tuple(fs) for key, fs in index.items()}

    def hom(self, a, b):
        """Morphisms a -> b, in morphism order."""
        return self._hom_index.get((a, b), ())

    def composable(self, g, f):
        return self.src[g] == self.tgt[f]

    def composite(self, g, f):
        """g after f; ``InputError`` naming the pair if none is recorded."""
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise InputError(f"composition undefined on ({g}, {f})") from None

    def __repr__(self):
        label = self.name or "category"
        return f"<{label}: {len(self.objects)} objects, " \
               f"{len(self.morphisms)} morphisms>"


def tabulate_category(objects, data, name, src, tgt, identity, compose):
    """The six tables of a finite category from morphism data and rules.

    ``data`` lists the hashable data of the morphisms in morphism order,
    and ``name(d)`` gives a morphism's id.  ``src(d)`` and ``tgt(d)``
    give its endpoints as object ids, ``identity(x)`` the data of the
    identity of the object ``x``, and ``compose(g, f)`` the data of g
    after f.  ``compose`` is asked only of composable pairs: g in
    morphism order, then each f ending where g starts, in morphism
    order, which is also the key order of the compose table.  Returns
    the objects, morphisms, src, tgt, identity and compose tables in
    the order ``FinCategory`` takes them, the four tables read-only, so
    that it keeps them as given.
    """
    morphisms = list(map(name, data))
    sources = list(map(src, data))
    targets = list(map(tgt, data))
    into = {}
    for f, d, y in zip(morphisms, data, targets):
        into.setdefault(y, []).append((f, d))
    identities = {x: name(identity(x)) for x in objects}
    composites = {(g, f): name(compose(e, d))
                  for g, e, x in zip(morphisms, data, sources)
                  for f, d in into.get(x, ())}
    return (objects, morphisms, *map(MappingProxyType, (
        dict(zip(morphisms, sources)), dict(zip(morphisms, targets)),
        identities, composites)))


def _missing(*lookups) -> InputError:
    """The ``InputError`` for a ``KeyError`` raised by one of
    ``lookups``, each (table name, table, key) in the order they were
    made: it names the first whose table has no entry for its key, the
    one that raised, since those before it succeeded.  Where every
    table has its key, the ``KeyError`` came from a lookup not listed,
    and the text names no table."""
    for name, table, key in lookups:
        if key not in table:
            return InputError(f"{name} has no entry {key!r}; input tables "
                              "are not valid")
    return InputError("a table lacks an entry; input tables are not valid")


def validate_category(A: FinCategory):
    """Law violations of A: composability, endpoints, units, associativity,
    and composites recorded for pairs that are not morphisms."""
    out = []
    for x in A.objects:
        i = A.identity.get(x)
        if A.src.get(i) != x or A.tgt.get(i) != x:
            out.append(LawViolation("identity-endpoints", (x,),
                                    f"identity {i!r} not an endomorphism"))
    position = {f: p for p, f in enumerate(A.morphisms)}
    into = {x: [] for x in A.objects}
    for f in A.morphisms:
        into[A.tgt[f]].append(f)
    # only composable pairs and recorded pairs of morphisms can fail
    pairs = {(g, f) for g in A.morphisms for f in into[A.src[g]]}
    pairs.update((g, f) for g, f in A.compose
                 if g in position and f in position)
    for g, f in sorted(pairs, key=lambda gf: (position[gf[0]],
                                              position[gf[1]])):
        defined = (g, f) in A.compose
        if defined != A.composable(g, f):
            out.append(LawViolation(
                "composability", (g, f),
                "defined" if defined else "missing"))
            continue
        h = A.compose[(g, f)]
        if h not in position:
            out.append(LawViolation("composability", (g, f),
                                    f"composite {h!r} unknown"))
        elif A.src[h] != A.src[f] or A.tgt[h] != A.tgt[g]:
            out.append(LawViolation("composite-endpoints", (g, f), h))
    for f in A.morphisms:
        left = A.compose.get((f, A.identity.get(A.src[f])))
        right = A.compose.get((A.identity.get(A.tgt[f]), f))
        if left != f:
            out.append(LawViolation("unit", (f,), f"right unit gave {left!r}"))
        if right != f:
            out.append(LawViolation("unit", (f,), f"left unit gave {right!r}"))
    for h in A.morphisms:
        for g in into[A.src[h]]:
            hg = A.compose.get((h, g))
            for f in into[A.src[g]]:
                gf = A.compose.get((g, f))
                lhs = A.compose.get((h, gf)) if gf is not None else None
                rhs = A.compose.get((hg, f)) if hg is not None else None
                if lhs != rhs:
                    out.append(LawViolation("associativity", (h, g, f),
                                            f"{lhs!r} != {rhs!r}"))
    out.extend(LawViolation("stray-entry", (g, f),
                            "compose key is not a pair of morphisms")
               for g, f in A.compose
               if g not in position or f not in position)
    return out


def opposite_category(A: FinCategory) -> FinCategory:
    """Same names, arrows reversed."""
    return FinCategory(
        A.objects, A.morphisms, A.tgt, A.src, A.identity,
        {(f, g): h for (g, f), h in A.compose.items()},
        name=f"op({A.name})" if A.name else "op")


def _tabulate_strings(truncation, roots, firsts, letters, moves, merge, unit,
                      label, *, gaps):
    """A truncated simplicial set of strings, built a level at a time on
    positions.

    Level 0 holds the ``roots``.  A level-n cell, n >= 1, is its
    parent, the level-(n-1) cell d_n, extended by a last letter, one of
    ``letters``, and is named by its letters joined with "|".  A cell's
    state decides how it extends.  A root's state is its name;
    ``firsts`` lists the level-1 cells in level order as (root of d_1,
    root of d_0, letter, state); ``moves(s)`` gives the (letter, state)
    pairs that extend a cell in state s, in level order.  ``merge(a,
    b)`` is the letter of a followed by b, or None, and ``unit(s)`` the
    letter that a degeneracy inserts at a vertex in state s.

    Each level keeps a child index, parent position and letter to
    position, and most tables come from the level below: for i <= n - 2,
    d_i(x) is the child of d_i(parent x) by the last letter of x, and
    for i <= n - 1, s_i(x) is the child of s_i(parent x).  Only the
    level-1 faces, d_{n-1} (the child of the grandparent by the merge
    of the last two letters) and s_n (the child by the unit at the last
    vertex) read letters.  These identities hold exactly for strings
    whose prefixes are all cells, so an image is no cell exactly where
    the recurrence finds no prefix or no child.  A table whose images
    are all cells is kept as positions.  In any other, an image that is
    no cell is named by its letters joined with "|", as a cell would
    be, or left out of a face table if ``gaps``; the table is kept in
    the form ``sset._stored`` gives it, so a dict of names that are all
    cells is still kept as positions.
    """
    none = len(letters)         # the letter id of no letter
    S = none + 1
    lid = {a: k for k, a in enumerate(letters)}
    spelled = ["|" + a for a in letters]
    names, index = [list(roots)], [dict(zip(roots, count()))]
    parent, letter, state = [()], [()], [list(roots)]
    # child[n][p * S + l]: the level-(n+1) position of cell p extended by
    # letter l, or len(level n+1), the dead position, where that is no
    # cell; row len(level n) is all dead, so a dead position stays dead
    child = []
    work = {}       # (kind, n, i) -> positions, dead where no cell
    merged, units, steps = {}, {}, {}
    face, degeneracy = {}, {}

    def at(n, cells, ids):
        """Level-(n+1) positions of the given level-n cells extended by
        the given letter ids."""
        return _gather(child[n], map(add, map(mul, cells, repeat(S)), ids))

    def image(kind, n, i, x):
        """The letters of cell x's image, or None where it has none."""
        word, states = [], []
        for k in range(n, 0, -1):
            word.append(letters[letter[k][x]])
            states.append(state[k][x])
            x = parent[k][x]
        word.reverse()
        states.append(state[0][x])
        states.reverse()
        if kind == "degeneracy":
            return word[:i] + [unit(states[i])] + word[i:]
        if gaps:
            return None
        if i == 0 or i == n:
            return word[1:] if i == 0 else word[:-1]
        m = merge(word[i - 1], word[i])
        return None if m is None else word[:i - 1] + [m] + word[i + 1:]

    def keep(kind, n, i, positions):
        """The stored form of a table computed as ``positions``."""
        work[kind, n, i] = positions
        target = n + _SHIFT[kind]
        dead = len(names[target])
        if dead not in positions:
            return positions
        out = {}
        for x, (cid, t) in enumerate(zip(names[n], positions)):
            if t != dead:
                out[cid] = names[target][t]
            elif (d := image(kind, n, i, x)) is not None:
                out[cid] = "|".join(d)
        return _stored(out, names[n], index[target])

    for n in range(1, truncation + 1):
        if n == 1:
            cells = [(index[0][r], lid[a], s) for r, _, a, s in firsts]
        else:
            for s in dict.fromkeys(state[n - 1]):
                if s not in steps:
                    steps[s] = [(lid[a], t) for a, t in moves(s)]
            cells = [(p, k, t) for p, s in enumerate(state[n - 1])
                     for k, t in steps[s]]
        par, let, st = zip(*cells) if cells else ((), (), ())
        names.append(list(map(add, _gather(names[n - 1], par),
                              _gather(spelled, let)))
                     if n > 1 else [letters[k] for k in let])
        parent.append(par)
        letter.append(let)
        state.append(st)
        index.append(dict(zip(names[n], count())))
        address = dict(zip(map(add, map(mul, par, repeat(S)), let), count()))
        child.append(list(map(address.get,
                              range((len(names[n - 1]) + 1) * S),
                              repeat(len(par)))))

        if n == 1:
            face[1, 0] = keep("face", 1, 0, tuple(
                index[0][r] for _, r, _, _ in firsts))
        else:
            for i in range(n - 1):
                face[n, i] = keep("face", n, i, at(
                    n - 2, _gather(work["face", n - 1, i], par), let))
            pairs = list(map(add, map(mul, _gather(letter[n - 1], par),
                                      repeat(S)), let))
            for k in dict.fromkeys(pairs):
                if k not in merged:
                    merged[k] = lid.get(
                        merge(letters[k // S], letters[k % S]), none)
            face[n, n - 1] = keep("face", n, n - 1, at(
                n - 2, _gather(parent[n - 1], par), _gather(merged, pairs)))
        face[n, n] = keep("face", n, n, tuple(par))

        m = n - 1       # the degeneracies into level n
        for i in range(m):
            degeneracy[m, i] = keep("degeneracy", m, i, at(
                m, _gather(work["degeneracy", m - 1, i], parent[m]),
                letter[m]))
        for s in dict.fromkeys(state[m]):
            if s not in units:
                units[s] = lid.get(unit(s), none)
        degeneracy[m, m] = keep("degeneracy", m, m, at(
            m, range(len(names[m])), _gather(units, state[m])))
    return TruncatedSSet._of_tables(truncation, names, tuple(index), face,
                                    degeneracy, label)


def nerve(A: FinCategory, truncation: int) -> TruncatedSSet:
    """Composable strings of A as a truncated simplicial set.

    Level n cells are pipe-joined strings of n composable morphisms
    (objects at level 0); inner faces compose adjacent entries, outer
    faces drop an end, degeneracies insert identities.  The tables are
    built by ``_tabulate_strings``: the letters are the morphisms, a
    string's state is the object it ends at, so only the level-1 faces,
    the last inner face (which composes the last two morphisms) and the
    last degeneracy (which appends an identity) read the category; every
    other face and degeneracy comes from the level below.
    """
    _ints("nerve", truncation)
    _check_names(A.objects, "|", "object")
    _check_names(A.morphisms, "|", "morphism")
    if truncation < 0:
        raise InputError("negative truncation")
    src, tgt = A.src, A.tgt
    out_of = {x: [] for x in A.objects}
    for f in A.morphisms:
        out_of[src[f]].append((f, tgt[f]))
    return _tabulate_strings(
        truncation, A.objects, [(src[f], tgt[f], f, tgt[f])
                                for f in A.morphisms],
        A.morphisms, out_of.__getitem__, lambda f, g: A.composite(g, f),
        A.identity.__getitem__, f"nerve({A.name or 'category'})",
        gaps=False)


def _escape(part):
    # ":" separates triple components, so literal occurrences are escaped;
    # the construction then iterates (ids of ids stay unambiguous)
    return part.replace("\\", "\\\\").replace(":", "\\:")


def _triple_id(f, u, v):
    return f"{_escape(f)}:{_escape(u)}:{_escape(v)}"


def twisted_arrow(A: FinCategory) -> FinCategory:
    """Objects are the morphisms of A; maps are two-sided factorizations.

    A morphism f -> g is a pair (u, v) with g = v o f o u, stored as the
    triple id "f:u:v" with escaped components; composition whiskers on
    both sides, contravariantly in u.  A morphism's data is (f, u, v, g).
    """
    data = []
    for f in A.morphisms:
        for u in A.morphisms:
            if A.tgt[u] == A.src[f]:
                fu = A.composite(f, u)
                data += [(f, u, v, A.composite(v, fu)) for v in A.morphisms
                         if A.src[v] == A.tgt[f]]
    return FinCategory(*tabulate_category(
        A.morphisms, data, lambda t: _triple_id(*t[:3]), itemgetter(0),
        itemgetter(3),
        lambda f: (f, A.identity[A.src[f]], A.identity[A.tgt[f]], f),
        lambda t2, t1: (t1[0], A.composite(t1[1], t2[1]),
                        A.composite(t2[2], t1[2]), t2[3])),
        name=f"tw({A.name})" if A.name else "tw")


def canonical_tw_iso(A: FinCategory, truncation: int) -> SimplicialMap:
    """The comparison from the subdivided nerve to the twisted-arrow nerve.

    A string of 2n+1 composable morphisms maps to the string of nested
    composites read outward from the middle entry.
    """
    source = edgewise(nerve(A, 2 * truncation + 1))
    target = nerve(twisted_arrow(A), truncation)
    return SimplicialMap(source, target, _outward(
        source, lambda u, g, v: (_triple_id(g, u, v),
                                 A.compose[(v, A.compose[(g, u)])])),
        name=f"tw-comparison({A.name})")


def _outward(source, step):
    """The components of a comparison out of a subdivision: a level-n
    string of 2n+1 letters is read outward from its middle letter g, and
    the letters u, v i places either side give ``step(u, g, v)``: the
    image's i-th letter and the next g."""
    comps = [{c: c for c in source.level(0)}]
    for n in range(1, source.truncation + 1):
        comp = {}
        for c in source.level(n):
            letters = c.split("|")
            g = letters[n]
            entries = []
            for i in range(1, n + 1):
                entry, g = step(letters[n - i], g, letters[n + i])
                entries.append(entry)
            comp[c] = "|".join(entries)
        comps.append(comp)
    return tuple(comps)


class PartialMonoid:
    """A finite set with unit and a partially defined product table."""

    def __init__(self, elements, unit, product, name=""):
        self.elements = tuple(elements)
        _check_names(self.elements, ",", "element")
        if len(set(self.elements)) != len(self.elements):
            raise InputError("duplicate element ids")
        if unit not in set(self.elements):
            raise InputError(f"unit {unit!r} is not an element")
        self.unit = unit
        self.product = dict(product)
        self.name = name
        elset = set(self.elements)
        for (a, b), c in self.product.items():
            if a not in elset or b not in elset or c not in elset:
                raise InputError(f"product entry ({a!r}, {b!r}) -> {c!r} "
                                 "names unknown elements")

    def defined(self, a, b):
        return (a, b) in self.product

    def multiply(self, a, b):
        return self.product.get((a, b))

    def __repr__(self):
        label = self.name or "partial monoid"
        return f"<{label}: {len(self.elements)} elements, " \
               f"{len(self.product)} products>"


def validate_partial_monoid(M: PartialMonoid):
    """Unit laws plus strong associativity, with witnessing tuples.

    Strong associativity: for every triple, the left-nested bracketing
    is defined exactly when the right-nested one is, and then they
    agree.  This is deliberately stricter than requiring agreement only
    when both sides happen to exist; the bar construction needs it.
    """
    return list(_monoid_violations(M.elements, M.unit, M.product))


def _monoid_violations(elements, e, product):
    """``validate_partial_monoid`` of a product dict, one violation at a
    time, in its order."""
    multiply = product.get
    for a in elements:
        if multiply((e, a)) != a:
            yield LawViolation("unit", (e, a), f"{multiply((e, a))!r}")
        if multiply((a, e)) != a:
            yield LawViolation("unit", (a, e), f"{multiply((a, e))!r}")
    for a in elements:
        for b in elements:
            ab = multiply((a, b))
            for c in elements:
                bc = multiply((b, c))
                left = multiply((ab, c)) if ab is not None else None
                right = multiply((a, bc)) if bc is not None else None
                left_def = ab is not None and left is not None
                right_def = bc is not None and right is not None
                if left_def != right_def:
                    yield LawViolation(
                        "strong-associativity", (a, b, c),
                        "left defined" if left_def else "right defined")
                elif left_def and left != right:
                    yield LawViolation(
                        "associativity-value", (a, b, c),
                        f"{left!r} != {right!r}")


def bar(M: PartialMonoid, truncation: int) -> TruncatedSSet:
    """The bar construction: level n holds progressively defined tuples.

    Inner faces multiply adjacent entries; with strong associativity the
    results stay progressively defined, so the tables come out total.
    Without it, entries whose products do not exist are simply omitted
    and ``validate`` on the result reports them.  The tables are built
    by ``_tabulate_strings``: the letters are the elements, a tuple's
    state is its running product, so only the level-1 faces, the last
    inner face (which multiplies the last two entries) and the last
    degeneracy (which appends the unit) read the product; every other
    face and degeneracy comes from the level below.
    """
    _ints("bar", truncation)
    _check_names(M.elements, "|", "element")
    if truncation < 0:
        raise InputError("negative truncation")

    def moves(run):
        return [(m, p) for m in M.elements
                if (p := M.multiply(run, m)) is not None]

    return _tabulate_strings(
        truncation, ("*",), [("*", "*", m, m) for m in M.elements],
        M.elements, moves, M.multiply, lambda s: M.unit,
        f"bar({M.name or 'monoid'})", gaps=True)


def span_category(M: PartialMonoid) -> FinCategory:
    """Elements as objects; two-sided multiplications as morphisms.

    A morphism m -> m' is a triple (m1, m, m2) with m1*m*m2 = m',
    progressively defined; composition multiplies the outer factors
    outward.  Requires a strongly associative M.  A morphism's data is
    (m1, m, m2, m').
    """
    els = M.elements
    data = [(m1, m, m2, full) for m1 in els for m in els if M.defined(m1, m)
            for m2 in els
            if (full := M.multiply(M.multiply(m1, m), m2)) is not None]

    def compose(t2, t1):
        outer_left = M.multiply(t2[0], t1[0])
        outer_right = M.multiply(t1[2], t2[2])
        if outer_left is None or outer_right is None:
            raise InputError(
                f"span composition undefined on ({_triple_id(*t2[:3])}, "
                f"{_triple_id(*t1[:3])}); is the monoid strongly associative?")
        return outer_left, t1[1], outer_right, t2[3]

    return FinCategory(*tabulate_category(
        els, data, lambda t: _triple_id(*t[:3]), itemgetter(1),
        itemgetter(3), lambda m: (M.unit, m, M.unit, m), compose),
        name=f"spans({M.name})" if M.name else "spans")


def canonical_partial_iso(M: PartialMonoid, truncation: int) -> SimplicialMap:
    """Comparison from the subdivided bar construction to the span nerve.

    A tuple of odd length maps to the string of span morphisms obtained
    by multiplying outward from the middle entry.
    """
    source = edgewise(bar(M, 2 * truncation + 1))
    target = nerve(span_category(M), truncation)
    return SimplicialMap(source, target, _outward(
        source, lambda m1, g, m2: (_triple_id(m1, g, m2),
                                   M.multiply(M.multiply(m1, g), m2))),
        name=f"span-comparison({M.name})")


def truncated_free_monoid(k: int) -> PartialMonoid:
    """Powers of one generator up to k; higher products are undefined."""
    _ints("truncated_free_monoid", k)
    if k < 0:
        raise InputError("need k >= 0")
    names = ["e"] + ["a" if p == 1 else f"a{p}" for p in range(1, k + 1)]
    product = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i + j <= k:
                product[(a, b)] = names[i + j]
    return PartialMonoid(names, "e", product, name=f"tfm{k}")


def cyclic_monoid(n: int) -> PartialMonoid:
    """The cyclic group of order n as a total partial monoid."""
    _ints("cyclic_monoid", n)
    if n < 1:
        raise InputError("need n >= 1")
    names = ["e"] + ["g" if p == 1 else f"g{p}" for p in range(1, n)]
    product = {(names[i], names[j]): names[(i + j) % n]
               for i in range(n) for j in range(n)}
    return PartialMonoid(names, "e", product, name=f"cyclic{n}")


def monoid_category(M: PartialMonoid) -> FinCategory:
    """A total monoid as a one-object category.

    Elements become endomorphisms; a path reads left to right, so
    composing g after f multiplies f * g.
    """
    for a in M.elements:
        for b in M.elements:
            if not M.defined(a, b):
                raise InputError(
                    f"monoid_category needs a total product; "
                    f"({a!r}, {b!r}) is undefined")
    return FinCategory(*tabulate_category(
        ("o",), M.elements, str, lambda m: "o", lambda m: "o",
        lambda o: M.unit, lambda g, f: M.product[(f, g)]),
        name=f"B({M.name})" if M.name else "B")


def poset_category(elements, leq, name="") -> FinCategory:
    """A finite poset as a category with at most one map between objects.

    ``leq`` is the set of (a, b) pairs with a <= b; it must be
    reflexive, antisymmetric, and transitive.
    """
    elements = tuple(elements)
    rel = set(leq)
    for a in elements:
        if (a, a) not in rel:
            raise InputError(f"relation is not reflexive at {a!r}")
    for a, b in rel:
        if (b, a) in rel and a != b:
            raise InputError(f"relation is not antisymmetric at ({a!r}, {b!r})")
        for c in elements:
            if (b, c) in rel and (a, c) not in rel:
                raise InputError(
                    f"relation is not transitive at ({a!r}, {b!r}, {c!r})")
    return FinCategory(*tabulate_category(
        elements, sorted(rel), lambda p: f"{p[0]}<{p[1]}", itemgetter(0),
        itemgetter(1), lambda a: (a, a), lambda g, f: (f[0], g[1])),
        name=name or "poset")


def chain_poset(n: int) -> FinCategory:
    """The linear order 0 < 1 < ... < n as a category."""
    _ints("chain_poset", n)
    elements = tuple(str(i) for i in range(n + 1))
    leq = {(str(i), str(j)) for i in range(n + 1) for j in range(i, n + 1)}
    return poset_category(elements, leq, name=f"chain{n}")


def product_category(A: FinCategory, B: FinCategory) -> FinCategory:
    """The product, with star-joined component names."""
    for pool in (A.objects, A.morphisms, B.objects, B.morphisms):
        _check_names(pool, "*", "component")
    identity = {f"{x}*{y}": (A.identity[x], B.identity[y])
                for x in A.objects for y in B.objects}
    return FinCategory(*tabulate_category(
        tuple(identity), [(f, g) for f in A.morphisms for g in B.morphisms],
        "*".join, lambda p: f"{A.src[p[0]]}*{B.src[p[1]]}",
        lambda p: f"{A.tgt[p[0]]}*{B.tgt[p[1]]}", identity.__getitem__,
        lambda g, f: (A.composite(g[0], f[0]), B.composite(g[1], f[1]))),
        name=f"{A.name}x{B.name}")
