"""``validate`` and ``simplicial_map_violations`` against per-cell references.

The library states each simplicial identity and each naturality square
once, as a comparison of two composites of tables over a level.  The
references below are the direct forms: one loop per identity, looking
each cell up through the tables one at a time.  On randomly corrupted
instances both must give the same violations in the same order, or
raise the same error.
"""

from hypothesis import given, settings, strategies as st

from edgewise.cat import bar, chain_poset, cyclic_monoid, nerve
from edgewise.corpus import random_coskeletal_sset
from edgewise.errors import InputError
from edgewise.sset import (SimplicialMap, TruncatedSSet, Violation,
                           iso_check, simplicial_map_violations,
                           standard_simplex, validate)

# -- references -------------------------------------------------------------


def _lookup(table, key):
    if table is None:
        return None
    return table.get(key)


def reference_validate(X):
    out = []
    N = X.truncation

    def table(kind, n, i):
        store = X.face if kind == "face" else X.degeneracy
        return store.get((n, i))

    for n in range(1, N + 1):
        for i in range(n + 1):
            t = table("face", n, i)
            if t is None:
                out.append(Violation("totality", n, (i,), "",
                                     f"face table ({n}, {i}) missing"))
                continue
            for c in X.level(n):
                v = t.get(c)
                if v is None:
                    out.append(Violation("totality", n, (i,), c,
                                         "face entry missing"))
                elif v not in X.level_set(n - 1):
                    out.append(Violation("totality", n, (i,), c,
                                         f"face value {v!r} not a cell"))
            for c in t:
                if c not in X.level_set(n):
                    out.append(Violation("stray-entry", n, (i,), c,
                                         "face key is not a cell"))
    for n in range(N):
        for i in range(n + 1):
            t = table("degeneracy", n, i)
            if t is None:
                out.append(Violation("totality", n, (i,), "",
                                     f"degeneracy table ({n}, {i}) missing"))
                continue
            for c in X.level(n):
                v = t.get(c)
                if v is None:
                    out.append(Violation("totality", n, (i,), c,
                                         "degeneracy entry missing"))
                elif v not in X.level_set(n + 1):
                    out.append(Violation("totality", n, (i,), c,
                                         f"degeneracy value {v!r} not a cell"))
            for c in t:
                if c not in X.level_set(n):
                    out.append(Violation("stray-entry", n, (i,), c,
                                         "degeneracy key is not a cell"))

    for n in range(2, N + 1):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                dj, di = table("face", n, j), table("face", n, i)
                dil, djl = table("face", n - 1, i), table("face", n - 1, j - 1)
                for c in X.level(n):
                    lhs = _lookup(dil, _lookup(dj, c))
                    rhs = _lookup(djl, _lookup(di, c))
                    if lhs is not None and rhs is not None and lhs != rhs:
                        out.append(Violation(
                            "dd", n, (i, j), c, f"{lhs!r} != {rhs!r}"))

    for n in range(0, N - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                sj, si = table("degeneracy", n, j), table("degeneracy", n, i)
                sih = table("degeneracy", n + 1, i)
                sjh = table("degeneracy", n + 1, j + 1)
                for c in X.level(n):
                    lhs = _lookup(sih, _lookup(sj, c))
                    rhs = _lookup(sjh, _lookup(si, c))
                    if lhs is not None and rhs is not None and lhs != rhs:
                        out.append(Violation(
                            "ss", n, (i, j), c, f"{lhs!r} != {rhs!r}"))

    for n in range(0, N):
        for j in range(n + 1):
            sj = table("degeneracy", n, j)
            for i in range(n + 2):
                di = table("face", n + 1, i)
                for c in X.level(n):
                    lhs = _lookup(di, _lookup(sj, c))
                    if lhs is None:
                        continue
                    if i in (j, j + 1):
                        if lhs != c:
                            out.append(Violation(
                                "ds", n, (i, j), c,
                                f"expected identity, got {lhs!r}"))
                    elif i < j:
                        rhs = _lookup(table("degeneracy", n - 1, j - 1),
                                      _lookup(table("face", n, i), c))
                        if rhs is not None and lhs != rhs:
                            out.append(Violation(
                                "ds", n, (i, j), c, f"{lhs!r} != {rhs!r}"))
                    else:
                        rhs = _lookup(table("degeneracy", n - 1, j),
                                      _lookup(table("face", n, i - 1), c))
                        if rhs is not None and lhs != rhs:
                            out.append(Violation(
                                "ds", n, (i, j), c, f"{lhs!r} != {rhs!r}"))
    return out


def reference_map_violations(f):
    out = []
    X, Y = f.source, f.target
    if X.truncation != Y.truncation:
        return [Violation("shape", -1, (), "",
                          f"truncations {X.truncation} != {Y.truncation}")]
    if len(f.components) != X.truncation + 1:
        return [Violation("shape", -1, (), "",
                          f"expected {X.truncation + 1} components")]
    for n in range(X.truncation + 1):
        comp = f.components[n]
        for c in X.level(n):
            v = comp.get(c)
            if v is None:
                out.append(Violation("totality", n, (), c,
                                     "component entry missing"))
            elif v not in Y.level_set(n):
                out.append(Violation("totality", n, (), c,
                                     f"image {v!r} not a cell of the target"))
    for n in range(1, X.truncation + 1):
        for i in range(n + 1):
            fx, fy = X.face_map(n, i), Y.face_map(n, i)
            lo, hi = f.components[n - 1], f.components[n]
            for c in X.level(n):
                lhs = _lookup(lo, _lookup(fx, c))
                rhs = _lookup(fy, _lookup(hi, c))
                if lhs is not None and rhs is not None and lhs != rhs:
                    out.append(Violation("naturality-face", n, (i,), c,
                                         f"{lhs!r} != {rhs!r}"))
    for n in range(X.truncation):
        for i in range(n + 1):
            sx, sy = X.degeneracy_map(n, i), Y.degeneracy_map(n, i)
            lo, hi = f.components[n], f.components[n + 1]
            for c in X.level(n):
                lhs = _lookup(hi, _lookup(sx, c))
                rhs = _lookup(sy, _lookup(lo, c))
                if lhs is not None and rhs is not None and lhs != rhs:
                    out.append(Violation("naturality-degeneracy", n, (i,), c,
                                         f"{lhs!r} != {rhs!r}"))
    return out


# -- corrupted instances ----------------------------------------------------

BASES = (
    bar(cyclic_monoid(2), 3),
    nerve(chain_poset(2), 3),
    random_coskeletal_sset(3, 2, 3, 0),
    standard_simplex(2, 3),
)

SSET_CORRUPTIONS = ("delete-table", "delete-entry", "value", "stray-key")
MAP_CORRUPTIONS = ("delete-entry", "swap", "value", "empty-component")


def _cells_and_junk(X):
    """Cells of every level (wrong-level values and keys) and a non-cell."""
    return [c for lv in X.levels for c in lv] + ["zz"]


def corrupt_sset(data, X):
    stores = {"face": {k: dict(v) for k, v in X.face.items()},
              "degeneracy": {k: dict(v) for k, v in X.degeneracy.items()}}
    anything = st.sampled_from(_cells_and_junk(X))
    for _ in range(data.draw(st.integers(1, 4))):
        store = stores[data.draw(st.sampled_from(sorted(stores)))]
        if not store:
            continue
        key = data.draw(st.sampled_from(sorted(store)))
        table = store[key]
        op = data.draw(st.sampled_from(SSET_CORRUPTIONS))
        if op == "delete-table":
            del store[key]
        elif op == "stray-key":
            table[data.draw(anything)] = data.draw(anything)
        elif table:
            cell = data.draw(st.sampled_from(sorted(table)))
            if op == "delete-entry":
                del table[cell]
            else:
                table[cell] = data.draw(anything)
    return TruncatedSSet(X.truncation, X.levels, stores["face"],
                         stores["degeneracy"], name=X.name)


def corrupt_map(data, X):
    comps = [{c: c for c in lv} for lv in X.levels]
    anything = st.sampled_from(_cells_and_junk(X))
    for _ in range(data.draw(st.integers(1, 4))):
        comp = comps[data.draw(st.integers(0, X.truncation))]
        op = data.draw(st.sampled_from(MAP_CORRUPTIONS))
        if op == "empty-component":
            comp.clear()
        elif comp:
            keys = sorted(comp)
            a, b = data.draw(st.sampled_from(keys)), \
                data.draw(st.sampled_from(keys))
            if op == "delete-entry":
                del comp[a]
            elif op == "swap":
                comp[a], comp[b] = comp[b], comp[a]
            else:
                comp[a] = data.draw(anything)
    return tuple(comps)


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_validate_matches_the_per_cell_reference(data):
    X = corrupt_sset(data, data.draw(st.sampled_from(BASES)))
    assert validate(X) == reference_validate(X)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_map_violations_match_the_per_cell_reference(data):
    X = data.draw(st.sampled_from(BASES))
    target = corrupt_sset(data, X) if data.draw(st.booleans()) else X
    f = SimplicialMap(X, target, corrupt_map(data, X))
    assert outcome(simplicial_map_violations, f) == \
        outcome(reference_map_violations, f)


def reference_iso_check(f):
    out = reference_map_violations(f)
    if any(v.identity in ("shape", "totality") for v in out):
        return out
    X, Y = f.source, f.target
    for n in range(X.truncation + 1):
        seen = {}
        for c in X.level(n):
            v = f.components[n][c]
            if v in seen:
                out.append(Violation("bijectivity", n, (), c,
                                     f"collides with {seen[v]!r} at {v!r}"))
            seen[v] = c
        for y in Y.level(n):
            if y not in seen:
                out.append(Violation("bijectivity", n, (), y,
                                     "uncovered target cell"))
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_map_checks_with_name_tables_at_both_ends_match_the_reference(data):
    """Source and target may both carry name tables; ``iso_check`` adds
    the bijectivity of each component."""
    X = data.draw(st.sampled_from(BASES))
    source = corrupt_sset(data, X) if data.draw(st.booleans()) else X
    target = corrupt_sset(data, X) if data.draw(st.booleans()) else X
    f = SimplicialMap(source, target, corrupt_map(data, X))
    assert outcome(simplicial_map_violations, f) == \
        outcome(reference_map_violations, f)
    assert outcome(iso_check, f) == outcome(reference_iso_check, f)


def test_corruptions_reach_every_identity():
    """The corrupted instances exercise every kind of violation."""
    seen = set()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def collect(data):
        X = data.draw(st.sampled_from(BASES))
        seen.update(v.identity for v in validate(corrupt_sset(data, X)))
        f = SimplicialMap(X, X, corrupt_map(data, X))
        seen.update(v.identity for v in simplicial_map_violations(f))

    collect()
    assert seen >= {"totality", "stray-entry", "dd", "ss", "ds",
                    "naturality-face", "naturality-degeneracy"}
