"""Simplicial-set files against the document writer and the two-pass loader.

``io.save_sset`` writes each position table straight from its positions.
The reference is ``json.dumps(doc, sort_keys=True, indent=2)`` of the
set's document, built from its name tables.  ``io.load_sset`` reads each
table into positions in one pass through the level index.  The
reference is the loader it replaced, which checks every table as
str -> str and hands the name tables to the constructor.  On mutated
documents both loaders must give equal sets or the same error.
"""

import json

from hypothesis import given, settings, strategies as st

from edgewise import io
from edgewise.corpus import standard_corpus
from edgewise.sset import TruncatedSSet, standard_simplex

from test_fuzz_formats import mutate
from test_validate_reference import BASES, corrupt_sset

# -- references -------------------------------------------------------------


def reference_save_sset(X):
    return json.dumps({
        "truncation": X.truncation,
        "levels": [list(X.level(n)) for n in range(X.truncation + 1)],
        "face": {f"{n},{i}": v for (n, i), v in X.face.items()},
        "degeneracy": {f"{n},{i}": v for (n, i), v in X.degeneracy.items()},
    }, sort_keys=True, indent=2) + "\n"


def reference_load_sset(text, name=""):
    data = io._parse(text)
    io._require_keys(data, ("truncation", "levels", "face", "degeneracy"),
                     "simplicial set")
    if not isinstance(data["levels"], list) or \
            not all(isinstance(lv, list) for lv in data["levels"]):
        raise io.InputError("levels must be an array of arrays")
    io._require_type(data, ("face", "degeneracy"), dict)
    face = {io._parse_index(k, "face"): io._string_table(v, f"face {k}")
            for k, v in data["face"].items()}
    degeneracy = {
        io._parse_index(k, "degeneracy"):
            io._string_table(v, f"degeneracy {k}")
        for k, v in data["degeneracy"].items()}
    return TruncatedSSet(data["truncation"], data["levels"], face,
                         degeneracy, name=name)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # the error's type and message must agree
        return (type(exc).__name__, str(exc))


# -- the writer ---------------------------------------------------------------


def renamed(X, rename):
    """X with every cell renamed by ``rename``, as name tables."""
    def tables(store):
        return {key: {rename(c): rename(v) for c, v in t.items()}
                for key, t in store.items()}
    return TruncatedSSet(X.truncation,
                         [[rename(c) for c in lv] for lv in X.levels],
                         tables(X.face), tables(X.degeneracy), name=X.name)


# names whose JSON escapes sort apart from the names themselves
ODD = ["\x01", "!", "\"", "\\", "é", "α", "\U0001F600", "\n", "\t", "\x7f",
       "a\"b", "a\\b"]


def test_writer_matches_the_document_on_the_corpus():
    for inst in standard_corpus():
        assert io.save_sset(inst.sset) == reference_save_sset(inst.sset), \
            inst.name


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_writer_matches_the_document_on_sets_with_name_tables(data):
    X = corrupt_sset(data, data.draw(st.sampled_from(BASES)))
    assert io.save_sset(X) == reference_save_sset(X)


def test_writer_escapes_and_sorts_names_as_json_does():
    X = standard_simplex(2, 3)
    cells = sorted({c for lv in X.levels for c in lv})
    odd = dict(zip(cells, (ODD[k % len(ODD)] + c
                           for k, c in enumerate(cells))))
    Y = renamed(X, odd.__getitem__)
    assert all(isinstance(t, tuple) for t in Y._store("face").values())
    text = io.save_sset(Y)
    assert text == reference_save_sset(Y)
    assert io.load_sset(text) == Y


def test_writer_on_empty_levels_and_truncation_zero():
    sets = [
        TruncatedSSet(0, [["a", "b"]], {}, {}),
        TruncatedSSet(0, [[]], {}, {}),
        TruncatedSSet(2, [[], [], []],
                      {(1, 0): {}, (1, 1): {}, (2, 0): {}, (2, 1): {},
                       (2, 2): {}},
                      {(0, 0): {}, (1, 0): {}, (1, 1): {}}),
        # a degeneracy into an empty level is no map: a name table
        TruncatedSSet(1, [["v"], []], {(1, 0): {}, (1, 1): {}},
                      {(0, 0): {}}),
    ]
    assert not isinstance(sets[-1]._store("degeneracy")[(0, 0)], tuple)
    for X in sets:
        text = io.save_sset(X)
        assert text == reference_save_sset(X)
        assert io.load_sset(text) == X


# -- the loader ---------------------------------------------------------------

DOCS = [io.save_sset(X) for X in BASES]
JUNK = st.sampled_from(["zz", "", None, 3, 2.5, True, [], {}, ["a"],
                        {"a": "b"}])
TABLE_KEYS = ["9,0", "0,5", "1,2", "01,0", "x", "-1,0", "1,0,0"]
SSET_MUTATIONS = ("entry-value", "stray-entry", "missing-entry",
                  "missing-cell", "duplicate-cell", "cell-type",
                  "table-key", "table-type", "truncation")


def aim(data, doc, cells):
    """One mutation aimed at the tables or levels of a simplicial-set
    document; ``cells`` are the cells it had before any mutation."""
    op = data.draw(st.sampled_from(SSET_MUTATIONS))
    anything = st.one_of(st.sampled_from(cells), JUNK)
    tables = [(kind, key) for kind in ("face", "degeneracy")
              for key in sorted(doc[kind])
              if isinstance(doc[kind][key], dict)]
    if not tables:
        return
    kind, key = data.draw(st.sampled_from(tables))
    table = doc[kind][key]
    level = data.draw(st.sampled_from(doc["levels"]))
    if op == "entry-value" and table:
        table[data.draw(st.sampled_from(sorted(table)))] = data.draw(anything)
    elif op == "stray-entry":
        table[data.draw(st.sampled_from(cells + ["zz"]))] = \
            data.draw(anything)
    elif op == "missing-entry" and table:
        del table[data.draw(st.sampled_from(sorted(table)))]
    elif op == "missing-cell" and level:
        del level[data.draw(st.integers(0, len(level) - 1))]
    elif op == "duplicate-cell" and level:
        level.append(level[data.draw(st.integers(0, len(level) - 1))])
    elif op == "cell-type" and level:
        level[data.draw(st.integers(0, len(level) - 1))] = data.draw(JUNK)
    elif op == "table-key":
        doc[kind][data.draw(st.sampled_from(TABLE_KEYS))] = dict(table)
    elif op == "table-type":
        doc[kind][key] = data.draw(JUNK)
    elif op == "truncation":
        doc["truncation"] = data.draw(st.sampled_from(
            [len(doc["levels"]), len(doc["levels"]) - 2, -1, True, "2",
             2.0, None]))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_loader_matches_the_two_pass_loader(data):
    doc = json.loads(data.draw(st.sampled_from(DOCS)))
    cells = sorted({c for lv in doc["levels"] for c in lv})
    for _ in range(data.draw(st.integers(0, 3))):
        aim(data, doc, cells)
    if data.draw(st.booleans()):    # then one of the format fuzzer's
        mutate(data, doc)
    text = json.dumps(doc)
    got = outcome(io.load_sset, text)
    assert got == outcome(reference_load_sset, text)
    assert not isinstance(got, tuple) or got[0] == "InputError"


def test_loader_matches_on_every_base_and_keeps_positions():
    for text, X in zip(DOCS, BASES):
        Y = io.load_sset(text)
        assert Y == reference_load_sset(text) == X
        assert all(isinstance(t, tuple) for kind in ("face", "degeneracy")
                   for t in Y._store(kind).values())
