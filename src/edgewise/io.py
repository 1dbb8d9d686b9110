"""Canonical file formats.

Every format is JSON with sorted keys, two-space indentation, and a
trailing newline; saving a loaded canonical file reproduces it byte for
byte.  Each kind's top-level fields are stated once, in ``_KINDS``, which
detection and the loaders read; unknown fields are rejected so that
typos fail loudly instead of being ignored.

Simplicial-set files stay on position tables both ways.  ``save_sset``
writes each position table from pieces shared by every table (each
level's JSON-encoded names, sorted once) and joins the text once; its
bytes are ``canonical_json`` of the document of name tables, which
still writes the levels and any table that is not a total map.
``load_sset`` reads each table into positions in one pass through an
index of the levels, and checks any other table as str -> str, with
the errors in the order the constructor gives them on name tables.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .cat import FinCategory, PartialMonoid
from .checks import CheckEntry, CheckReport
from .errors import InputError
from .groupoid import FinGroupoid, Functor, TruncatedSGpd
from .sset import (_SHIFT, TruncatedSSet, _expect, _in_range, _level_index,
                   _stored, _truncation)

__all__ = [
    "canonical_json",
    "save_sset",
    "load_sset",
    "save_category",
    "load_category",
    "save_groupoid",
    "load_groupoid",
    "save_partial_monoid",
    "load_partial_monoid",
    "save_sgpd",
    "load_sgpd",
    "save_report",
    "load_report",
    "report_header",
    "detect_format",
    "load_any",
    "write_text",
]


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _parse(text: str):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise InputError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("top level must be an object")
    return data


def _require_keys(data: dict, keys, what: str):
    got, want = set(data), set(keys)
    if got - want:
        raise InputError(
            f"{what} file has unknown fields {sorted(got - want)}")
    if want - got:
        raise InputError(
            f"{what} file is missing fields {sorted(want - got)}")


# each file kind: its top-level fields and its name in error texts.  A
# simplicial groupoid file has a simplicial set's fields, with a groupoid
# block per level; a report's fields are ``CheckReport``'s, and those of
# each of its entries (``_ENTRY``) ``CheckEntry``'s.
_LEVELED = ("truncation", "levels", "face", "degeneracy")
_CATEGORY = ("objects", "morphisms", "identity", "compose")
_KINDS = {
    "sset": (_LEVELED, "simplicial set"),
    "sgpd": (_LEVELED, "simplicial groupoid"),
    "category": (_CATEGORY, "category"),
    "groupoid": (_CATEGORY + ("inverse",), "groupoid"),
    "partial_monoid": (("elements", "unit", "product"), "partial monoid"),
    "report": (tuple(f.name for f in fields(CheckReport)), "report"),
}
_ENTRY = {f.name for f in fields(CheckEntry)}


def _require_type(data: dict, keys, kind: type):
    for key in keys:
        if not isinstance(data[key], kind):
            article = {dict: "an object", list: "an array",
                       str: "a string"}[kind]
            raise InputError(f"{key} must be {article}")


def _index_key(n: int, i: int) -> str:
    return f"{n},{i}"


def _parse_index(key: str, what: str):
    """(n, i) from the canonical key "n,i"; any other spelling of it
    (such as "01,0") is rejected, so no two keys name one table."""
    parts = key.split(",")
    try:
        n, i = (int(p) for p in parts)
    except ValueError:
        raise InputError(f"bad {what} index key {key!r}") from None
    if key != _index_key(n, i):
        raise InputError(f"bad {what} index key {key!r}")
    return n, i


def _string_table(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be an object")
    for k, v in value.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise InputError(f"{what} entry {k!r}: {v!r} is not str -> str")
    return value


# -- simplicial sets --------------------------------------------------------


def _nested(text: str, indent: str) -> str:
    """``canonical_json`` text of a value, without its newline, as it
    reads ``indent`` deep inside a document."""
    return text[:-1].replace("\n", "\n" + indent)


def _object(members, indent: str):
    """The pieces of the canonical JSON of an object ``indent`` deep,
    from its members in key order: each an encoded key and an iterable
    of the pieces of its value."""
    if not members:
        return ("{}",)
    pieces = []
    for sep, (key, value) in zip(chain("{", repeat(",")), members):
        pieces += [(f"{sep}\n{indent}  {key}: ",), value]
    pieces.append((f"\n{indent}}}",))
    return chain.from_iterable(pieces)


def save_sset(X: TruncatedSSet) -> str:
    """``canonical_json`` of the set's document, byte for byte.

    Each position table is written straight from its positions: every
    level's names are encoded once and its positions sorted by name
    once, so a table's text is, in that order, each entry's head (the
    separator before it, its indent and its encoded key) followed by
    its target's encoded name.  Heads and names are shared by all
    tables, and the text is joined once from them.  Name tables and the
    levels are written by ``canonical_json``.
    """
    _expect(X, TruncatedSSet)
    encoded = [list(map(encode_basestring_ascii, lv)) for lv in X.levels]
    order = [sorted(range(len(lv)), key=lv.__getitem__) for lv in X.levels]
    heads = [[f'{"," if j else "{"}\n      {names[p]}: '
              for j, p in enumerate(by_name)]
             for names, by_name in zip(encoded, order)]

    def value(table, n, target):
        if not isinstance(table, tuple):
            return (_nested(canonical_json(table), "    "),)
        if not table:
            return ("{}",)
        names = map(encoded[target].__getitem__,
                    map(table.__getitem__, order[n]))
        return chain(chain.from_iterable(zip(heads[n], names)),
                     ("\n    }",))

    def store(kind):
        tables = sorted(X._store(kind).items(),
                        key=lambda item: _index_key(*item[0]))
        return _object([(f'"{_index_key(n, i)}"',
                         value(table, n, n + _SHIFT[kind]))
                        for (n, i), table in tables], "  ")

    return "".join(chain(_object([
        ('"degeneracy"', store("degeneracy")),
        ('"face"', store("face")),
        ('"levels"', (_nested(canonical_json(X.levels), "  "),)),
        ('"truncation"', (str(X.truncation),))], ""), "\n"))


def _sset_tables(tables: dict, kind: str, levels, index):
    """The tables of one kind, keyed by (n, i): a table at an index in
    range for the levels, in the form ``_stored`` gives it through
    ``index``, so a total map from level n into its target level is a
    position tuple read in one pass; any other table is checked by
    ``_string_table`` and kept as it is."""
    out = {}
    for key, table in tables.items():
        n, i = _parse_index(key, kind)
        if index is not None and isinstance(table, dict) and \
                _in_range(kind, n, i, len(levels) - 1):
            table = _stored(table, levels[n], index[n + _SHIFT[kind]])
        out[n, i] = table if isinstance(table, tuple) else \
            _string_table(table, f"{kind} {key}")
    return out


def load_sset(text: str, name: str = "") -> TruncatedSSet:
    """The set of a file, with its tables as ``TruncatedSSet`` keeps
    them and the same ``InputError`` as the constructor gives on the
    tables as names.  When every level lists distinct strs, the tables
    are read through one index of the levels (``_level_index``) that
    the set then keeps; otherwise the constructor refuses the levels."""
    data = _parse(text)
    _require_keys(data, *_KINDS["sset"])
    levels = data["levels"]
    if not isinstance(levels, list) or \
            not all(isinstance(lv, list) for lv in levels):
        raise InputError("levels must be an array of arrays")
    _require_type(data, ("face", "degeneracy"), dict)
    try:
        index = _level_index(levels)
    except InputError:
        index = None
    face = _sset_tables(data["face"], "face", levels, index)
    degeneracy = _sset_tables(data["degeneracy"], "degeneracy", levels,
                              index)
    if index is None:
        return TruncatedSSet(data["truncation"], levels, face, degeneracy,
                             name=name)
    return TruncatedSSet._of_tables(data["truncation"], levels, index, face,
                                    degeneracy, name=name)


# -- categories, groupoids, partial monoids ---------------------------------


def _category_doc(A: FinCategory) -> dict:
    return {
        "objects": list(A.objects),
        "morphisms": [{"id": f, "src": A.src[f], "tgt": A.tgt[f]}
                      for f in A.morphisms],
        "identity": dict(A.identity),
        "compose": {f"{g},{f}": h for (g, f), h in A.compose.items()},
    }


def _category_parts(data: dict):
    _require_type(data, ("objects", "morphisms"), list)
    morphisms, src, tgt = [], {}, {}
    for row in data["morphisms"]:
        if not isinstance(row, dict) or set(row) != {"id", "src", "tgt"} \
                or not all(isinstance(v, str) for v in row.values()):
            raise InputError(f"bad morphism record {row!r}")
        morphisms.append(row["id"])
        src[row["id"]] = row["src"]
        tgt[row["id"]] = row["tgt"]
    compose = {}
    for key, h in _string_table(data["compose"], "compose").items():
        g, f = _parse_pair(key, "compose")
        compose[(g, f)] = h
    identity = _string_table(data["identity"], "identity")
    return data["objects"], morphisms, src, tgt, identity, compose


def _parse_pair(key: str, what: str):
    parts = key.split(",")
    if len(parts) != 2:
        raise InputError(f"bad {what} key {key!r}")
    return parts[0], parts[1]


def save_category(A: FinCategory) -> str:
    return canonical_json(_category_doc(A))


def load_category(text: str, name: str = "") -> FinCategory:
    data = _parse(text)
    _require_keys(data, *_KINDS["category"])
    return FinCategory(*_category_parts(data), name=name)


def _groupoid_doc(G: FinGroupoid) -> dict:
    return dict(_category_doc(G), inverse=dict(G.inverse))


def _groupoid_from(data: dict, what: str, name: str) -> FinGroupoid:
    _require_keys(data, _KINDS["groupoid"][0], what)
    inverse = _string_table(data["inverse"], "inverse")
    return FinGroupoid(*_category_parts(data), name=name, inverse=inverse)


def save_groupoid(G: FinGroupoid) -> str:
    return canonical_json(_groupoid_doc(G))


def load_groupoid(text: str, name: str = "") -> FinGroupoid:
    return _groupoid_from(_parse(text), "groupoid", name)


def save_partial_monoid(M: PartialMonoid) -> str:
    return canonical_json({
        "elements": list(M.elements),
        "unit": M.unit,
        "product": {f"{a},{b}": c for (a, b), c in M.product.items()},
    })


def load_partial_monoid(text: str, name: str = "") -> PartialMonoid:
    data = _parse(text)
    _require_keys(data, *_KINDS["partial_monoid"])
    _require_type(data, ("elements",), list)
    _require_type(data, ("unit",), str)
    product = {_parse_pair(k, "product"): c
               for k, c in _string_table(data["product"],
                                         "product").items()}
    return PartialMonoid(data["elements"], data["unit"], product, name=name)


# -- simplicial groupoids ---------------------------------------------------


def _functor_doc(F: Functor) -> dict:
    return {"on_objects": dict(F.on_objects),
            "on_morphisms": dict(F.on_morphisms)}


def save_sgpd(Y: TruncatedSGpd) -> str:
    _expect(Y, TruncatedSGpd)
    return canonical_json({
        "truncation": Y.truncation,
        "levels": [_groupoid_doc(Y.levels[n])
                   for n in range(Y.truncation + 1)],
        "face": {_index_key(*k): _functor_doc(v)
                 for k, v in Y.face.items()},
        "degeneracy": {_index_key(*k): _functor_doc(v)
                       for k, v in Y.degeneracy.items()},
    })


def load_sgpd(text: str, name: str = "") -> TruncatedSGpd:
    data = _parse(text)
    _require_keys(data, *_KINDS["sgpd"])
    truncation = data["truncation"]
    _truncation(truncation)
    if not isinstance(data["levels"], list) or \
            len(data["levels"]) != truncation + 1:
        raise InputError("levels must list one groupoid per level")
    levels = []
    for n, block in enumerate(data["levels"]):
        if not isinstance(block, dict):
            raise InputError(f"level {n} is not a groupoid block")
        levels.append(_groupoid_from(block, f"level {n}", f"level{n}"))
    _require_type(data, ("face", "degeneracy"), dict)

    def functor(key, doc, kind):
        n, i = _parse_index(key, kind)
        if not _in_range(kind, n, i, truncation):
            raise InputError(f"{kind} index {key!r} out of range")
        if not isinstance(doc, dict) or \
                set(doc) != {"on_objects", "on_morphisms"}:
            raise InputError(f"bad functor record at {kind} {key!r}")
        return (n, i), Functor(
            levels[n], levels[n + _SHIFT[kind]],
            _string_table(doc["on_objects"], "on_objects"),
            _string_table(doc["on_morphisms"], "on_morphisms"),
            name=f"{kind}({n},{i})")

    face, degeneracy = (dict(functor(k, v, kind)
                             for k, v in data[kind].items())
                        for kind in _SHIFT)
    return TruncatedSGpd(truncation, tuple(levels), face, degeneracy,
                         name=name)


# -- reports ----------------------------------------------------------------


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _record(obj) -> dict:
    """A report's or an entry's fields by name."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def save_report(report: CheckReport, header: dict | None = None) -> str:
    doc = dict(_record(report), entries=list(map(_record, report.entries)))
    return canonical_json(doc if header is None else
                          {"header": header, "report": doc})


def _unwrap(data: dict):
    """(header, payload) of a report wrapped with a header, else None."""
    if data.keys() == {"header", "report"}:
        return data["header"], data["report"]
    return None


def load_report(text: str) -> CheckReport:
    data = _parse(text)
    wrapped = _unwrap(data)
    if wrapped is not None:
        data = wrapped[1]
        if not isinstance(data, dict):
            raise InputError("report payload must be an object")
    _require_keys(data, *_KINDS["report"])
    _require_type(data, ("entries",), list)
    _require_type(data, ("summary",), dict)
    _require_type(data, ("subject", "semantics"), str)
    entries = []
    for e in data["entries"]:
        if not isinstance(e, dict) or e.keys() != _ENTRY:
            raise InputError(f"bad report entry {e!r}")
        bad = _bad_entry_field(e)
        if bad:
            raise InputError(f"bad {bad} in report entry {e!r}")
        entries.append(CheckEntry(**{k: _tuplify(v) for k, v in e.items()}))
    overall = data["summary"].get("overall")
    if overall not in ("pass", "fail"):
        raise InputError(f"report overall must be pass or fail, not "
                         f"{overall!r}")
    return CheckReport(**dict(data, entries=tuple(entries),
                              summary=dict(data["summary"])))


def _naturals(value, count):
    """Whether value lists ``count`` natural numbers (no bools)."""
    return isinstance(value, list) and len(value) == count and \
        all(type(v) is int and v >= 0 for v in value)


def _bad_entry_field(e: dict):
    """The first field of a report entry that no check writes, or None.

    A check writes a kind with its indices, (m, j) with 1 <= j <= m for
    "segal" and (n, i, j) with i < j <= n for "two_segal"; two natural
    sizes; and a witness, a tag and a list of names, exactly when the
    verdict is "fail"."""
    kind, indices, witness = e["kind"], e["indices"], e["witness"]
    if kind not in ("segal", "two_segal"):
        return "kind"
    if kind == "segal":
        ok = _naturals(indices, 2) and 1 <= indices[1] <= indices[0]
    else:
        ok = _naturals(indices, 3) and indices[1] < indices[2] <= indices[0]
    if not ok:
        return "indices"
    if not _naturals([e["domain_size"], e["codomain_size"]], 2):
        return "sizes"
    if e["verdict"] not in ("pass", "fail"):
        return "verdict"
    if e["verdict"] == "pass":
        return None if witness is None else "witness"
    if not (isinstance(witness, list) and len(witness) == 2 and
            isinstance(witness[0], str) and isinstance(witness[1], list)
            and all(isinstance(c, str) for c in witness[1])):
        return "witness"
    return None


def report_header(text: str) -> dict | None:
    wrapped = _unwrap(_parse(text))
    return None if wrapped is None else wrapped[0]


# -- detection and atomic output --------------------------------------------


def detect_format(text: str) -> str:
    """Classify a file by its exact top-level field set: a wrapped report,
    or the first kind in ``_KINDS`` with those fields, where a simplicial
    set's fields with a groupoid block as level 0 are an sgpd file's."""
    data = _parse(text)
    if _unwrap(data) is not None:
        return "report"
    kind = next((kind for kind, (keys, _) in _KINDS.items()
                 if data.keys() == set(keys)), None)
    if kind is None:
        raise InputError(f"unrecognized field set {sorted(data)}")
    lv = data["levels"] if kind == "sset" else None
    if isinstance(lv, list) and lv and isinstance(lv[0], dict):
        return "sgpd"
    return kind


_LOADERS = {
    "sset": load_sset,
    "sgpd": load_sgpd,
    "category": load_category,
    "groupoid": load_groupoid,
    "partial_monoid": load_partial_monoid,
}


def load_any(text: str, name: str = ""):
    """Detect and load; returns (kind, value)."""
    kind = detect_format(text)
    if kind == "report":
        return kind, load_report(text)
    return kind, _LOADERS[kind](text, name=name)


_WRITE_SLICE = 1 << 20


def write_text(path: str, text: str) -> None:
    """Write atomically: the target never holds a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # in slices, so that no encoded copy of a long text is made
            for start in range(0, len(text), _WRITE_SLICE):
                handle.write(text[start:start + _WRITE_SLICE])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
