"""The one table form that ``act`` and the checks read, against ``validate``.

A face or degeneracy table is kept as a tuple of target positions
exactly when ``validate`` finds it total and free of stray keys; any
other table is kept as the dict it was given, and ``act_positions``
refuses it with an ``InputError`` that names it.  So an instance that
``validate`` accepts never meets that error.  The corrupted instances
are those of the ``validate`` reference test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from edgewise.delta import codegeneracy, coface
from edgewise.errors import InputError
from edgewise.sset import act_positions, validate

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
