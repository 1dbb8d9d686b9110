"""The one table form that ``act`` and the checks read, against ``validate``.

A face or degeneracy table is kept as a tuple of target positions
exactly when ``validate`` finds it total and free of stray keys; any
other dict is kept as it was given, and ``act_positions`` refuses it
with an ``InputError`` that names it.  So an instance that ``validate``
accepts never meets that error.  The corrupted instances are those of
the ``validate`` reference test.  A table given as positions must hold
one in-range ``int`` position per cell, and a table that is neither a dict nor
a position tuple is refused when the set is built, as is a key that is
not an in-range (n, i) pair of ``int``s and a store that is not a mapping.
"""

import pytest
from hypothesis import given, settings, strategies as st

from edgewise.delta import codegeneracy, coface
from edgewise.errors import InputError
from edgewise.sset import TruncatedSSet, act_positions, validate

from test_validate_reference import BASES, corrupt_sset


def _not_maps(X):
    """(kind, n, i) of each table with a totality or stray-entry
    violation; the detail of each starts with the kind."""
    return {(v.detail.split()[0], v.level, v.indices[0])
            for v in validate(X) if v.identity in ("totality", "stray-entry")}


def _generators(N):
    """(kind, n, i, alpha) for each structure map of a truncation-N
    set, where X acted on alpha is that map."""
    for n in range(1, N + 1):
        for i in range(n + 1):
            yield "face", n, i, coface(i, n)
    for n in range(N):
        for i in range(n + 1):
            yield "degeneracy", n, i, codegeneracy(i, n)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_tables_are_positions_exactly_where_validate_finds_maps(data):
    X = corrupt_sset(data, data.draw(st.sampled_from(BASES)))
    not_maps = _not_maps(X)
    for kind, n, i, alpha in _generators(X.truncation):
        stored = X._store(kind).get((n, i))
        assert isinstance(stored, tuple) == ((kind, n, i) not in not_maps)
        if isinstance(stored, tuple):
            assert act_positions(alpha, X) == stored
        else:
            with pytest.raises(InputError,
                               match=rf"^{kind} table \({n}, {i}\) "):
                act_positions(alpha, X)


# levels of two vertices and one edge, with position tables that are maps
LEVELS = [["a", "b"], ["x"]]
FACE = {(1, 0): (1,), (1, 1): (0,)}
DEGENERACY = {(0, 0): (0, 0)}


def _refused(face, degeneracy, kind, n, i):
    message = (rf"^{kind} table \({n}, {i}\) is not a map from level {n} "
               rf"into level {n + (1 if kind == 'degeneracy' else -1)}; "
               r"input tables are not simplicial$")
    with pytest.raises(InputError, match=message):
        TruncatedSSet(1, LEVELS, face, degeneracy)


def test_position_tuples_that_are_maps_are_kept():
    X = TruncatedSSet(1, LEVELS, FACE, DEGENERACY)
    assert X._store("face") == FACE
    assert X._store("degeneracy") == DEGENERACY


def test_a_position_outside_the_target_level_is_refused():
    _refused({**FACE, (1, 0): (5,)}, DEGENERACY, "face", 1, 0)


def test_a_position_tuple_shorter_than_its_level_is_refused():
    _refused(FACE, {(0, 0): (0,)}, "degeneracy", 0, 0)


def test_a_table_neither_dict_nor_tuple_is_refused():
    _refused({**FACE, (1, 0): [0]}, DEGENERACY, "face", 1, 0)


@pytest.mark.parametrize("position", [1.0, True, "1", None])
def test_a_position_that_is_not_an_int_is_refused(position):
    # 1.0 and True are in range by comparison, and True == 1
    _refused({**FACE, (1, 0): (position,)}, DEGENERACY, "face", 1, 0)


@pytest.mark.parametrize("face, degeneracy, message", [
    pytest.param({**FACE, "1,0": (1,)}, DEGENERACY,
                 r"^face index '1,0' is not a pair of ints$", id="str-key"),
    pytest.param({**FACE, (1,): (1,)}, DEGENERACY,
                 r"^face index \(1,\) is not a pair of ints$", id="short-key"),
    # 1.0 == True == 1: each key stands in for (1, 0)
    pytest.param({(1.0, 0): (1,), (1, 1): (0,)}, DEGENERACY,
                 r"^face index \(1\.0, 0\) is not a pair of ints$",
                 id="float-key"),
    pytest.param({(True, 0): (1,), (1, 1): (0,)}, DEGENERACY,
                 r"^face index \(True, 0\) is not a pair of ints$",
                 id="bool-key"),
    pytest.param({**FACE, (-1, 0): (1,)}, DEGENERACY,
                 r"^face index '-1,0' out of range$", id="negative-level"),
    pytest.param({**FACE, (2, 0): (1,)}, DEGENERACY,
                 r"^face index '2,0' out of range$", id="beyond-truncation"),
    pytest.param(FACE, {**DEGENERACY, (0, 1): (0, 0)},
                 r"^degeneracy index '0,1' out of range$", id="index-past-n"),
    pytest.param(list(FACE.items()), DEGENERACY,
                 r"^face tables must be a mapping keyed by \(n, i\), "
                 r"not list$", id="list-store"),
])
def test_a_table_key_that_is_no_index_in_range_is_refused(face, degeneracy,
                                                          message):
    with pytest.raises(InputError, match=message):
        TruncatedSSet(1, LEVELS, face, degeneracy)
