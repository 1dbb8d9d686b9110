"""One changed table entry never ends in a bare exception, in either tier.

A small instance is built afresh and one entry of one of its tables is
changed: dropped, sent to a name that is nowhere in the instance, sent
to another value the table holds, or given a value of another type.
Every entry point of the instance's tier then runs on it, each on its
own fresh copy.  The constructors may refuse the change with
``InputError``; otherwise each entry point must return (a report, a
violation list, a verdict, a loaded object) or raise ``InputError``; a
check may still give a verdict on input it never reads wrongly.

The groupoid tier's tables are its levels' ``src``, ``tgt``,
``identity``, ``inverse`` and ``compose`` and its structure functors'
assignments; they are read-only once built, so the level or functor is
built again with the changed table and the instance re-pointed at it
(``rebuilt``).  The set tier's are its face and degeneracy name tables,
changed before the set is built.  The values of another type are ``0``,
``None`` and a list.
"""

from hypothesis import given, settings, strategies as st

from edgewise import io
from edgewise.cat import bar, cyclic_monoid, truncated_free_monoid
from edgewise.checks import (beta_gamma_equality, segal_check,
                             theorem_verify, two_segal_check)
from edgewise.corpus import coskeletal_from_graph, idempotent_monoid
from edgewise.errors import InputError
from edgewise.groupoid import (discrete_sgpd, esd_gpd, s_construction,
                               sgpd_beta_gamma_equality, sgpd_segal_check,
                               sgpd_two_segal_check, validate_sgpd)
from edgewise.sset import TruncatedSSet, edgewise, validate
from test_gpd_index import rebuilt


def _par2():
    return coskeletal_from_graph(
        ("a", "b"), [("e0", "a", "b"), ("e1", "a", "b")], 3, name="par2")


GROUPOIDS = (
    lambda: s_construction(2, 3),
    lambda: discrete_sgpd(bar(cyclic_monoid(2), 3)),
    lambda: discrete_sgpd(bar(truncated_free_monoid(1), 3)),
    lambda: discrete_sgpd(_par2()),
)

SETS = (
    lambda: bar(cyclic_monoid(2), 4),
    lambda: bar(idempotent_monoid(), 4),
    _par2,
)

GROUPOID_ENTRIES = (
    validate_sgpd,
    sgpd_segal_check,
    sgpd_two_segal_check,
    lambda Y: sgpd_two_segal_check(Y, "reduced"),
    lambda Y: sgpd_beta_gamma_equality(Y, 1, 1),
    lambda Y: sgpd_segal_check(esd_gpd(Y)),
    lambda Y: io.load_sgpd(io.save_sgpd(Y)),
)

SET_ENTRIES = (
    validate,
    segal_check,
    two_segal_check,
    lambda X: two_segal_check(X, "reduced"),
    theorem_verify,
    lambda X: beta_gamma_equality(X, 1, 1),
    edgewise,
    lambda X: io.load_sset(io.save_sset(X)),
)

OPS = ("drop", "foreign", "other", 0, None, "list")


def _groupoid_tables(Y):
    """Every table of Y that holds entries, in a fixed order, each as
    (table, argument of ``rebuilt``, key there, table name)."""
    tables = [(getattr(G, part), "levels", n, part)
              for n, G in enumerate(Y.levels)
              for part in ("src", "tgt", "identity", "inverse", "compose")]
    tables += [(getattr(F, part), "functors", (kind, n, i), part)
               for kind in ("face", "degeneracy")
               for (n, i), F in Y._store(kind).items()
               for part in ("on_objects", "on_morphisms")]
    return tables


_DROP = object()


def _change(data, table, op):
    """One change of an entry of ``table`` by ``op``, as (key, value),
    where the value ``_DROP`` drops the entry."""
    key = data.draw(st.sampled_from(sorted(table, key=str)))
    if op == "other":
        values = sorted({v for v in table.values() if v != table[key]})
        return key, data.draw(st.sampled_from(values or [table[key]]))
    return key, {"drop": _DROP, "foreign": "nowhere",
                 "list": [table[key]]}.get(op, op)


def _apply(table, key, value):
    if value is _DROP:
        del table[key]
    else:
        table[key] = value


def _allowed(entry, obj):
    try:
        entry(obj)
    except InputError:
        pass


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_a_changed_groupoid_entry_is_reported_or_refused(data):
    make = data.draw(st.sampled_from(GROUPOIDS))
    tables = _groupoid_tables(make())
    where = data.draw(st.integers(0, len(tables) - 1))
    change = _change(data, tables[where][0],
                     data.draw(st.sampled_from(OPS)))
    for entry in GROUPOID_ENTRIES:
        Y = make()
        table, arg, key, part = _groupoid_tables(Y)[where]
        table = dict(table)
        _apply(table, *change)
        try:
            Y = rebuilt(Y, **{arg: {key: {part: table}}})
        except InputError:
            return
        _allowed(entry, Y)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_a_changed_set_entry_is_reported_or_refused(data):
    X = data.draw(st.sampled_from(SETS))()
    kind = data.draw(st.sampled_from(("face", "degeneracy")))
    stores = {"face": X.face, "degeneracy": X.degeneracy}
    table = stores[kind][data.draw(st.sampled_from(sorted(stores[kind])))]
    _apply(table, *_change(data, table, data.draw(st.sampled_from(OPS))))
    try:
        Z = TruncatedSSet(X.truncation, X.levels, stores["face"],
                          stores["degeneracy"], name=X.name)
    except InputError:
        return
    for entry in SET_ENTRIES:
        _allowed(entry, Z)
