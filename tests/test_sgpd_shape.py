"""A simplicial groupoid's shape and tables are checked when built.

``TruncatedSGpd`` takes the set tier's shape rule: a natural
truncation, one ``FinGroupoid`` per level, and stores keyed by in-range
(n, i) pairs whose maps are functors between those level objects.  The
same ``InputError`` comes from the constructor and from
``dataclasses.replace``; fields cannot be reassigned and stores cannot
be written to, so no check meets a shape it cannot read.  The levels
and functors refuse bad tables when they are built, and their tables
are read-only, so nothing a check has read can change afterwards.
"""

import dataclasses
from types import MappingProxyType

import pytest

from edgewise.cat import FinCategory, _missing, bar, cyclic_monoid
from edgewise.errors import InputError
from edgewise.groupoid import (FinGroupoid, Functor, TruncatedSGpd,
                               discrete_sgpd, s_construction, validate_sgpd)
from edgewise.sset import TruncatedSSet
from test_corruption import GROUPOID_ENTRIES
from test_gpd_index import rebuilt


def _fields(Y):
    return {f.name: getattr(Y, f.name) for f in dataclasses.fields(Y)}


def _category_level(Y, n=1):
    """Level n as a ``FinCategory`` of the same tables, with the
    functors re-pointed at it."""
    G = Y.levels[n]
    C = FinCategory(G.objects, G.morphisms, G.src, G.tgt, G.identity,
                    G.compose, name=G.name)

    def repoint(F):
        return dataclasses.replace(
            F, source=C if F.source is G else F.source,
            target=C if F.target is G else F.target)

    return {"levels": Y.levels[:n] + (C,) + Y.levels[n + 1:],
            "face": {k: repoint(F) for k, F in Y.face.items()},
            "degeneracy": {k: repoint(F) for k, F in Y.degeneracy.items()}}


def _off_its_levels(Y):
    F = Y.degeneracy[0, 0]
    return dataclasses.replace(F, target=Y.levels[0])


# (changed fields, the rule's text, a store entry written after build)
CASES = {
    "too few levels": (
        lambda Y: {"levels": Y.levels[:2]}, "expected 3 levels, got 2",
        None),
    "face store None": (
        lambda Y: {"face": None},
        r"face tables must be a mapping keyed by \(n, i\), not NoneType",
        None),
    "face store a list": (
        lambda Y: {"face": []},
        r"face tables must be a mapping keyed by \(n, i\), not list", None),
    "face entry 0": (
        lambda Y: {"face": {**Y.face, (1, 0): 0}},
        r"face \(1, 0\) is not a functor from level 1 into level 0",
        ("face", (1, 0), 0)),
    "degeneracy off its levels": (
        lambda Y: {"degeneracy": {**Y.degeneracy,
                                  (0, 0): _off_its_levels(Y)}},
        r"degeneracy \(0, 0\) is not a functor from level 0 into level 1",
        ("degeneracy", (0, 0), None)),
    "bool key": (
        lambda Y: {"face": {(True, 0): Y.face[1, 0]}},
        r"face index \(True, 0\) is not a pair of ints", None),
    "key out of range": (
        lambda Y: {"degeneracy": {(2, 0): Y.degeneracy[1, 0]}},
        "degeneracy index '2,0' out of range", None),
    "levels None": (
        lambda Y: {"levels": None}, "levels must be a sequence of levels",
        None),
    "str truncation": (
        lambda Y: {"truncation": "2"}, "bad truncation '2'", None),
    "FinCategory level": (
        _category_level, "expected a FinGroupoid, got a FinCategory", None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_shape_is_refused_when_built_and_cannot_be_assigned(case):
    Y = s_construction(2, 2)
    before = _fields(Y)
    make, message, item = CASES[case]
    change = make(Y)
    with pytest.raises(InputError, match=f"^{message}"):
        TruncatedSGpd(**{**before, **change})
    with pytest.raises(InputError, match=f"^{message}"):
        dataclasses.replace(Y, **change)
    for name, value in change.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(Y, name, value)
    if item is not None:
        kind, key, value = item
        with pytest.raises(TypeError):
            getattr(Y, kind)[key] = value
    assert _fields(Y) == before
    assert validate_sgpd(Y) == []


@pytest.mark.parametrize("levels", [None, 5, [5, 6]])
def test_levels_that_are_no_sequence_of_levels_are_refused(levels):
    with pytest.raises(InputError,
                       match="^levels must be a sequence of levels$"):
        TruncatedSSet(1, levels, {}, {})


def test_stores_are_read_only_copies():
    Y = s_construction(2, 2)
    face = dict(Y.face)
    Z = TruncatedSGpd(2, Y.levels, face, Y.degeneracy)
    face.pop((1, 0))
    assert set(Z.face) == set(Y.face)
    with pytest.raises(TypeError):
        del Z.face[1, 0]


def test_a_lookup_no_table_lacks_has_a_text_of_its_own():
    assert str(_missing(("table", {"a": 1}, "a"))) == \
        "a table lacks an entry; input tables are not valid"


# one entry of a level's src or tgt off its objects is refused when the
# level is built


@pytest.mark.parametrize("n, part, key, value", [
    (0, "src", "m0", None), (2, "tgt", "m0", "nope"), (1, "src", "m1", None)])
def test_a_level_entry_off_the_objects_is_refused_when_built(n, part, key,
                                                             value):
    Y = s_construction(2, 3)
    table = dict(getattr(Y.levels[n], part))
    if value is None:
        del table[key]
    else:
        table[key] = value
    with pytest.raises(InputError,
                       match=f"^morphism '{key}' lacks valid endpoints$"):
        rebuilt(Y, levels={n: {part: table}})


# every table of a category, a groupoid and a functor is refused when
# dict() cannot take it or, where it is copied, when a value is not
# hashable; a read-only table is kept as given


POINT = {"src": {"i": "*"}, "tgt": {"i": "*"}, "identity": {"*": "i"},
         "compose": {("i", "i"): "i"}, "inverse": {"i": "i"},
         "on_objects": {"*": "*"}, "on_morphisms": {"i": "i"}}
CATEGORY_TABLES = ("src", "tgt", "identity", "compose")
TABLES = [(FinCategory, part) for part in CATEGORY_TABLES] + \
    [(FinGroupoid, part) for part in (*CATEGORY_TABLES, "inverse")] + \
    [(Functor, part) for part in ("on_objects", "on_morphisms")]


def _point(owner, part, table):
    """The one-morphism category or groupoid "pt", or the identity
    functor "F" on it, with ``part`` replaced by ``table``."""
    tables = {**POINT, part: table}
    category = {k: tables[k] for k in CATEGORY_TABLES}
    if owner is FinCategory:
        return FinCategory(("*",), ("i",), name="pt", **category)
    G = FinGroupoid(("*",), ("i",), name="pt", inverse=tables["inverse"],
                    **category)
    return G if owner is FinGroupoid else Functor(
        G, G, tables["on_objects"], tables["on_morphisms"], name="F")


@pytest.mark.parametrize("bad", ["None", "list", "unhashable value"])
@pytest.mark.parametrize("owner, part", TABLES,
                         ids=[f"{o.__name__}-{p}" for o, p in TABLES])
def test_a_table_that_is_no_table_of_hashable_values_is_refused(owner, part,
                                                                bad):
    table = {"None": None, "list": [1], "unhashable value": {
        k: [v] for k, v in POINT[part].items()}}[bad]
    name = "F" if owner is Functor else "pt"
    message = f"{part} of {name} " + (
        "has a value that is not hashable" if bad == "unhashable value"
        else "is not a table")
    with pytest.raises(InputError, match=f"^{message}$"):
        _point(owner, part, table)
    given = MappingProxyType(dict(POINT[part]))
    assert getattr(_point(owner, part, given), part) is given
    kept = getattr(_point(owner, part, POINT[part]), part)
    assert kept == POINT[part] and isinstance(kept, MappingProxyType)


# nothing a check has read can be changed after it ran


@pytest.mark.parametrize("entry", range(len(GROUPOID_ENTRIES)))
@pytest.mark.parametrize("make", [
    lambda: s_construction(2, 3),
    lambda: discrete_sgpd(bar(cyclic_monoid(2), 3))], ids=["S", "disc"])
def test_no_table_or_field_can_be_changed_after_an_entry_point(make, entry):
    Y = make()
    GROUPOID_ENTRIES[entry](Y)
    functors = [F for kind in ("face", "degeneracy")
                for F in Y._store(kind).values()]
    tables = [getattr(G, part) for G in Y.levels for part in
              ("src", "tgt", "identity", "compose", "inverse")]
    tables += [getattr(F, part) for F in functors
               for part in ("on_objects", "on_morphisms")]
    for table in tables:
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
        with pytest.raises(TypeError):
            del table[key]
    for obj in (Y, *Y.levels, *functors):
        for name in list(vars(obj)):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
