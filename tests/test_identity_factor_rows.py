"""The set tier's identity-factor rows against the four-act counting path.

In the adjacent 2-Segal rows (n, i, i+1), the long-edge rows (n, 0, n)
and the Segal rows (m, m) one factor is the identity of [n] and its leg
is the identity, so the set tier decides them with the one act of the
other factor.  The reference below is the counting path every row took
before: four acts, the pullback of the legs and ``_compare``.  Both
paths must give the same comparison field by field, the same reports
and the same errors on tables that are not maps.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from edgewise import checks, io
from edgewise.cat import bar, cyclic_monoid, nerve
from edgewise.checks import (SET, Semantics, _compare, segal_check,
                             theorem_verify, two_segal_check)
from edgewise.corpus import (random_category, random_coskeletal_sset,
                             random_partial_monoid, standard_corpus)
from edgewise.errors import GenerationError, InputError
from edgewise.sset import Pullback, TruncatedSSet, act_positions, edgewise


def reference_bijection(kind, indices, X, first, second, leg_first,
                        leg_second, shared):
    """Every comparison by four acts and counting."""
    outer = act_positions(first, X)
    inner = act_positions(second, X)
    f, g = act_positions(leg_first, X), act_positions(leg_second, X)
    P = Pullback(f, g, X.level(leg_first.cod_dim),
                 X.level(leg_second.cod_dim))
    return _compare(kind, indices, X.level(first.cod_dim), outer, inner, P)


REFERENCE = Semantics("set", reference_bijection)


def identity_factor_rows(X):
    """(semantics method, set, indices) of every identity-factor row of
    X and of the Segal rows (m, m) of its subdivision."""
    rows = [("segal_map", X, (m, m)) for m in range(1, X.truncation + 1)]
    for n in range(3, X.truncation + 1):
        rows.append(("two_segal_map", X, (n, 0, n)))
        rows += [("two_segal_map", X, (n, i, i + 1)) for i in range(n)]
    if X.truncation >= 1:
        E = edgewise(X)
        rows += [("segal_map", E, (m, m))
                 for m in range(1, E.truncation + 1)]
    return rows


def fields(comp):
    P = comp.pullback
    return (comp.kind, comp.indices, comp.domain, comp.outer, comp.inner,
            P.f, P.g, P.left, P.right, P.size(), comp.verdict,
            comp.witness, comp.table)


def assert_rows_match(X):
    for method, Y, indices in identity_factor_rows(X):
        fast = getattr(SET, method)(Y, *indices)
        slow = getattr(REFERENCE, method)(Y, *indices)
        assert fields(fast) == fields(slow), (Y.name, method, indices)


def test_corpus_rows_match_the_counting_path():
    for inst in standard_corpus():
        assert_rows_match(inst.sset)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(("nerve", "bar", "coskeletal")))
    seed = draw(st.integers(0, 10 ** 6))
    try:
        if kind == "nerve":
            return nerve(random_category(seed), draw(st.integers(1, 4)))
        if kind == "bar":
            return bar(random_partial_monoid(draw(st.integers(1, 4)), seed),
                       draw(st.integers(1, 5)))
        return random_coskeletal_sset(draw(st.integers(1, 3)),
                                      draw(st.integers(0, 3)),
                                      draw(st.integers(1, 4)), seed)
    except GenerationError:
        assume(False)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(instances())
def test_drawn_rows_match_the_counting_path(X):
    assert_rows_match(X)


# -- tables that are not maps -------------------------------------------------


def _outcomes(X):
    """Report bytes or error text of each check, in turn."""
    out = []
    for check in (segal_check, lambda Y: two_segal_check(Y, "full"),
                  lambda Y: two_segal_check(Y, "reduced"), theorem_verify):
        try:
            out.append(io.save_report(check(X)))
        except InputError as e:
            out.append(f"InputError: {e}")
    return out


def _broken_face_sets():
    """X with one face entry dropped, renamed to a non-cell or sent to
    another cell, for each face table in turn."""
    X = bar(cyclic_monoid(2), 5)
    for key in X.face:
        cells = X.level(key[0])
        for how in ("drop", "rename", "redirect"):
            face = {k: dict(v) for k, v in X.face.items()}
            cell = cells[len(cells) // 2]
            if how == "drop":
                del face[key][cell]
            elif how == "rename":
                face[key][cell] = "not-a-cell"
            else:       # a map still, and where it can, not simplicial
                targets = X.level(key[0] - 1)
                face[key][cell] = targets[0] \
                    if face[key][cell] == targets[-1] else targets[-1]
            yield key, how, TruncatedSSet(X.truncation, X.levels, face,
                                          X.degeneracy)


def test_tables_that_are_not_maps_fail_as_on_the_counting_path(monkeypatch):
    kinds = set()
    for key, how, Y in _broken_face_sets():
        fast = _outcomes(Y)
        with monkeypatch.context() as m:
            m.setattr(checks, "SET", REFERENCE)
            slow = _outcomes(Y)
        assert fast == slow, (key, how)
        kinds.update(o.startswith("InputError") for o in fast)
    assert kinds == {True, False}


# -- the fast path is taken ---------------------------------------------------


@pytest.mark.parametrize("method, indices, acts", [
    ("segal_map", (3, 3), 1),
    ("segal_map", (1, 1), 1),
    ("two_segal_map", (4, 1, 2), 1),
    ("two_segal_map", (4, 3, 4), 1),
    ("two_segal_map", (4, 0, 4), 1),
    ("segal_map", (3, 1), 4),
    ("two_segal_map", (4, 0, 2), 4),
    ("two_segal_map", (4, 1, 3), 4),
])
def test_identity_factor_rows_act_once(monkeypatch, method, indices, acts):
    X = bar(cyclic_monoid(2), 4)
    calls = []

    def counting(alpha, Y):
        calls.append(alpha)
        return act_positions(alpha, Y)

    monkeypatch.setattr(checks, "act_positions", counting)
    comp = getattr(SET, method)(X, *indices)
    assert len(calls) == acts
    assert comp.verdict == "pass"
