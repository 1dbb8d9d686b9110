"""Failure branches that no other test reaches, each with its outcome.

A set whose tables are total maps but not simplicial reaches the β/γ
mismatches and the groupoid tier's "legs disagree" error: one face
entry sent to another cell (``_broken`` of ``test_theorem_one_pass``)
makes the subdivision's composite of two faces differ from X's act
along the composite map.  The shape violations are reached by objects
built with one part changed.
"""

import dataclasses
import json

import pytest

from edgewise import groupoid, io
from edgewise.cat import bar, cyclic_monoid
from edgewise.checks import beta_gamma_equality, _same_pairs
from edgewise.errors import InputError
from edgewise.groupoid import (SgpdBetaGamma, discrete_sgpd,
                               s_construction, sgpd_beta_gamma_equality,
                               sgpd_two_segal_check, validate_sgpd)
from edgewise.sset import (Pullback, SimplicialMap, Violation,
                           simplicial_map_violations, standard_simplex)

from test_theorem_one_pass import _broken


def _redirected(key):
    return _broken(bar(cyclic_monoid(2), 5), "face", key, "redirect")


# -- the β/γ match ------------------------------------------------------------


def test_set_tier_beta_gamma_mismatch_and_its_witness():
    result = beta_gamma_equality(_redirected((2, 1)), 2, 2)
    assert result.verdict == "fail"
    assert (result.tables_equal, result.pullbacks_equal,
            result.legs_equal, result.verdicts_equal) == \
        (False, False, False, True)
    assert result.mismatch == \
        ("e|g|e|e|e", ("e|g|e|e|e", "e"), ("g", "e|g|e|e|e"))


def test_same_pairs_enumerates_when_the_legs_differ():
    P = Pullback((0, 1), (0, 1), ("a", "b"), ("x", "y"))
    Q = Pullback((1, 0), (1, 0), ("a", "b"), ("x", "y"))
    R = Pullback((0, 0), (0, 1), ("a", "b"), ("x", "y"))
    assert P.f != Q.f and _same_pairs(P, Q)
    assert not _same_pairs(P, R)
    assert _same_pairs(P, Q, swap=True)


def test_groupoid_tier_beta_gamma_mismatch():
    result = sgpd_beta_gamma_equality(discrete_sgpd(_redirected((2, 1))),
                                      2, 2)
    assert result.verdict == "fail"
    assert (result.objects_equal, result.morphisms_equal,
            result.verdicts_equal) == (False, False, True)
    assert result.mismatch == "e|g|e|e|e"


@pytest.mark.parametrize("changed, equal, mismatch", [
    (("objects",), (False, True), "x1"),
    (("morphisms",), (True, False), "m1"),
    (("objects", "morphisms"), (False, False), "x1")])
def test_groupoid_tier_beta_gamma_mismatch_at_one_triple(
        monkeypatch, changed, equal, mismatch):
    # γ's triple at the second object or morphism changed: the match
    # names the first differing cell, objects before morphisms
    real = groupoid.GROUPOID

    class Changed:
        def beta_gamma(self, *args):
            beta, gamma = real.beta_gamma(*args)
            parts = []
            for part, table in zip(("objects", "morphisms"), gamma.parts):
                table = dict(table)
                if part in changed:
                    cell = list(table)[1]
                    table[cell] = (*table[cell][:2], "zz")
                parts.append(table)
            return beta, dataclasses.replace(gamma, parts=tuple(parts))

    Y = s_construction(2, 3)
    assert sgpd_beta_gamma_equality(Y, 1, 1).verdict == "pass"
    monkeypatch.setattr(groupoid, "GROUPOID", Changed())
    result = sgpd_beta_gamma_equality(Y, 1, 1)
    assert result == SgpdBetaGamma(1, 1, "fail", *equal, True, mismatch)


def test_groupoid_legs_that_disagree():
    Y = discrete_sgpd(_redirected((2, 0)))
    for check, cell in ((sgpd_two_segal_check, "g|e|e"),
                        (lambda Z: sgpd_beta_gamma_equality(Z, 2, 1),
                         "g|e|e|e|e")):
        with pytest.raises(InputError) as caught:
            check(Y)
        assert str(caught.value) == (f"legs disagree at object {cell!r}; "
                                     "input is not strictly simplicial")


# -- shapes -------------------------------------------------------------------


def test_validate_sgpd_shape_violations():
    """Too few levels and a functor off its levels are refused when the
    object is built; a store that lacks a key is built, and reported."""
    Y = discrete_sgpd(standard_simplex(1, 2))
    with pytest.raises(InputError, match="^expected 3 levels, got 2$"):
        dataclasses.replace(Y, levels=Y.levels[:2])
    face = {k: F for k, F in Y.face.items() if k != (1, 0)}
    assert validate_sgpd(dataclasses.replace(Y, face=face)) == [
        Violation("shape", 2, (), "", "face keys wrong")]
    copy = io.load_groupoid(io.save_groupoid(Y.levels[1]))
    degeneracy = dict(Y.degeneracy)
    degeneracy[0, 0] = dataclasses.replace(degeneracy[0, 0], target=copy)
    with pytest.raises(InputError, match=r"^degeneracy \(0, 0\) is not a "
                       "functor from level 0 into level 1$"):
        dataclasses.replace(Y, degeneracy=degeneracy)


def test_simplicial_map_shape_violations():
    X = standard_simplex(1, 2)
    assert simplicial_map_violations(
        SimplicialMap(X, standard_simplex(1, 1), ({}, {}, {}))) == [
        Violation("shape", -1, (), "", "truncations 2 != 1")]
    assert simplicial_map_violations(SimplicialMap(X, X, ({}, {}))) == [
        Violation("shape", -1, (), "", "expected 3 components")]


def test_structure_maps_of_a_groupoid_are_its_functors():
    Y = discrete_sgpd(standard_simplex(1, 2))
    assert Y.face_map(2, 1) is Y.face[2, 1]
    assert Y.degeneracy_map(1, 0) is Y.degeneracy[1, 0]
    with pytest.raises(InputError, match=r"face index \(0, 0\) out of range"):
        Y.face_map(0, 0)


# -- groupoid files -----------------------------------------------------------


def test_sgpd_level_list_and_blocks():
    doc = json.loads(io.save_sgpd(discrete_sgpd(standard_simplex(1, 1))))
    for levels in ({}, doc["levels"][:1]):
        with pytest.raises(InputError) as caught:
            io.load_sgpd(json.dumps(dict(doc, levels=levels)))
        assert str(caught.value) == "levels must list one groupoid per level"
    with pytest.raises(InputError) as caught:
        io.load_sgpd(json.dumps(dict(doc, levels=[doc["levels"][0], []])))
    assert str(caught.value) == "level 1 is not a groupoid block"
