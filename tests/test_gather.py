"""``sset._gather`` against the per-entry form it replaces.

``_gather(table, positions)`` must equal
``tuple(map(table.__getitem__, positions))`` for every table type the
package gathers from (tuples, lists, dicts, ranges), at every length,
including the 0 and 1 that ``operator.itemgetter`` treats apart, and a
bad position must raise the exception type that the per-entry form
raises.  Positions come as tuples, lists, ranges or one-shot iterators.
"""

import pytest
from hypothesis import given, settings, strategies as st

from edgewise.sset import _gather


def _per_entry(table, positions):
    return tuple(map(table.__getitem__, positions))


def _outcome(f, table, positions):
    """f's result, or the type of what it raised."""
    try:
        return f(table, positions)
    except Exception as e:      # noqa: BLE001 - the type is the outcome
        return type(e)


LENGTHS = st.sampled_from([0, 1, 2]) | st.integers(3, 60)
KINDS = st.sampled_from(["tuple", "list", "dict", "range"])


@st.composite
def tables(draw):
    """(table, keys): a table and the keys it answers to."""
    kind = draw(KINDS)
    size = draw(st.integers(0, 25))
    if kind == "range":
        start = draw(st.integers(-5, 5))
        return range(start, start + 2 * size, 2), list(range(size))
    values = draw(st.lists(st.integers(-3, 50) | st.text(max_size=3),
                           min_size=size, max_size=size))
    if kind == "dict":
        keys = draw(st.lists(st.integers(-10, 100) | st.text(max_size=3),
                             min_size=size, max_size=size, unique=True))
        return dict(zip(keys, values)), keys
    table = tuple(values) if kind == "tuple" else list(values)
    # negative positions are valid sequence indices too
    return table, list(range(-size, size))


def _shaped(draw, positions):
    """``positions`` as a tuple, list or one-shot iterator, with a
    second copy for the reference."""
    shape = draw(st.sampled_from(["tuple", "list", "iterator"]))
    if shape == "tuple":
        return tuple(positions), tuple(positions)
    if shape == "list":
        return list(positions), list(positions)
    return iter(list(positions)), list(positions)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_gather_is_the_per_entry_tuple(data):
    table, keys = data.draw(tables())
    length = data.draw(LENGTHS) if keys else 0
    positions = data.draw(st.lists(st.sampled_from(keys), min_size=length,
                                   max_size=length)) if keys else []
    given_positions, reference = _shaped(data.draw, positions)
    got = _gather(table, given_positions)
    assert type(got) is tuple
    assert got == _per_entry(table, reference)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 3))
def test_gather_over_a_range_of_positions(size, stop, step):
    table = tuple(range(100, 100 + size))
    positions = range(0, min(stop, size), step)
    got = _gather(table, positions)
    assert type(got) is tuple and got == _per_entry(table, positions)


BAD = {
    "out of range": lambda table, n: len(table) + n,
    "missing key": lambda table, n: ("no such key", n),
    "unhashable key": lambda table, n: [n],
    "non-int index": lambda table, n: str(n),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data(), st.sampled_from(sorted(BAD)))
def test_a_bad_position_raises_what_the_per_entry_form_raises(data, bad):
    table, keys = data.draw(tables())
    length = data.draw(LENGTHS) if keys else 0
    positions = data.draw(st.lists(st.sampled_from(keys), min_size=length,
                                   max_size=length)) if keys else []
    at = data.draw(st.integers(0, len(positions)))
    positions.insert(at, BAD[bad](table, data.draw(st.integers(0, 3))))
    # a dict may hold the drawn key after all; then both must agree on it
    assert _outcome(_gather, table, positions) == \
        _outcome(_per_entry, table, positions)


@pytest.mark.parametrize("table, position, error", [
    ((1, 2, 3), 3, IndexError),
    ([1, 2, 3], -4, IndexError),
    (range(3), 5, IndexError),
    ({"a": 0}, "b", KeyError),
    ({"a": 0}, ["a"], TypeError),
    ((1, 2, 3), "0", TypeError),
])
@pytest.mark.parametrize("length", [0, 1, 2, 5])
def test_each_error_type_at_each_length(table, position, error, length):
    keys = list(table)[:1] if isinstance(table, dict) else [0]
    positions = keys * length + [position]
    with pytest.raises(error):
        _per_entry(table, positions)
    with pytest.raises(error):
        _gather(table, positions)


def test_zero_and_one_positions_give_tuples():
    assert _gather((7, 8), ()) == ()
    assert _gather((7, 8), (1,)) == (8,)
    assert _gather({"a": (1, 2)}, ["a"]) == ((1, 2),)
    assert _gather([[3]], iter([0])) == ([3],)
