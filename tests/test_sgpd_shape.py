"""A simplicial groupoid's shape is checked when it is built.

``TruncatedSGpd`` takes the set tier's shape rule: a natural
truncation, one ``FinGroupoid`` per level, and stores keyed by in-range
(n, i) pairs whose maps are functors between those level objects.  The
same ``InputError`` comes from the constructor and from
``dataclasses.replace``; fields cannot be reassigned and stores cannot
be written to, so no check meets a shape it cannot read.  The tables
inside the levels stay mutable, and a bad src, tgt or identity entry
there ends in ``InputError`` when a check reads it.
"""

import dataclasses

import pytest

from edgewise.cat import FinCategory, _missing
from edgewise.errors import InputError
from edgewise.groupoid import (TruncatedSGpd, s_construction,
                               sgpd_segal_check, sgpd_two_segal_check,
                               validate_sgpd)
from edgewise.sset import TruncatedSSet


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
    "assignment not a mapping": (
        lambda Y: {"face": {**Y.face, (1, 0): dataclasses.replace(
            Y.face[1, 0], on_objects=None)}},
        r"S\(\(1,\)\) needs mappings on_objects and on_morphisms", None),
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


# one entry of a level's tables changed after the build ends in the
# InputError that names it


@pytest.mark.parametrize("check", [sgpd_segal_check, validate_sgpd])
def test_a_level_src_entry_deleted_is_an_input_error(check):
    Y = s_construction(2, 3)
    del Y.levels[0].src["m0"]
    with pytest.raises(InputError, match="^src of S0 has no entry 'm0'; "
                       "input tables are not valid$"):
        check(Y)


@pytest.mark.parametrize("check", [sgpd_segal_check, validate_sgpd])
def test_a_level_tgt_entry_sent_off_the_objects_is_an_input_error(check):
    Y = s_construction(2, 3)
    Y.levels[2].tgt["m0"] = "nope"
    with pytest.raises(InputError, match="^objects of S2 has no entry "
                       "'nope'; input tables are not valid$"):
        check(Y)


def test_a_level_src_entry_deleted_under_the_two_segal_sweep():
    Y = s_construction(2, 3)
    del Y.levels[1].src["m1"]
    with pytest.raises(InputError, match="^src of S1 has no entry 'm1'"):
        sgpd_two_segal_check(Y)
