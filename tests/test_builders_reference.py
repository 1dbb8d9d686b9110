"""The four table builders against their direct forms.

``standard_simplex`` gathers each table from its cells' vertex columns;
``coskeletal_from_graph`` builds its tables a level at a time on its
cells' edge columns, and ``nerve`` and ``bar`` through
``cat._tabulate_strings``.  The references below build the same tables
one string per entry.  On random and defective inputs both must give the
same saved bytes, table key order and violations, or raise the same
error.  The builders must also share one string per cell between the
levels and every table.
"""

from itertools import product as iproduct

from hypothesis import example, given, settings, strategies as st

from edgewise import io
from edgewise.cat import (FinCategory, PartialMonoid, _check_names, bar,
                          chain_poset, cyclic_monoid, nerve,
                          truncated_free_monoid, twisted_arrow,
                          validate_partial_monoid)
from edgewise.corpus import coskeletal_from_graph, diamond_poset, \
    random_category
from edgewise.delta import all_monotone_maps
from edgewise.errors import GenerationError, InputError
from edgewise.sset import TruncatedSSet, standard_simplex, validate

# -- references -------------------------------------------------------------


def reference_standard_simplex(k, truncation):
    if k < 0 or truncation < 0:
        raise InputError("standard_simplex needs k >= 0 and truncation >= 0")
    sep = "" if k <= 9 else "."
    cell = lambda vals: sep.join(str(v) for v in vals)
    levels = []
    by_level = []
    for n in range(truncation + 1):
        cells = [tuple(a.values) for a in all_monotone_maps(n, k)]
        by_level.append(cells)
        levels.append([cell(c) for c in cells])
    face = {}
    degeneracy = {}
    for n in range(1, truncation + 1):
        for i in range(n + 1):
            face[(n, i)] = {cell(c): cell(c[:i] + c[i + 1:])
                            for c in by_level[n]}
    for n in range(truncation):
        for i in range(n + 1):
            degeneracy[(n, i)] = {cell(c): cell(c[:i + 1] + c[i:])
                                  for c in by_level[n]}
    return TruncatedSSet(truncation, levels, face, degeneracy,
                         name=f"standard-simplex-{k}")


def reference_nerve(A, truncation):
    _check_names(A.objects, "|", "object")
    _check_names(A.morphisms, "|", "morphism")
    if truncation < 0:
        raise InputError("negative truncation")
    by_tuple = [[()], [(f,) for f in A.morphisms]]
    for n in range(2, truncation + 1):
        by_tuple.append([s + (f,) for s in by_tuple[n - 1]
                         for f in A.morphisms
                         if A.src[f] == A.tgt[s[-1]]])
    levels = [list(A.objects)]
    for n in range(1, truncation + 1):
        levels.append(["|".join(s) for s in by_tuple[n]])

    def vertex(s, i):
        return A.src[s[0]] if i == 0 else A.tgt[s[i - 1]]

    face = {}
    degeneracy = {}
    for n in range(1, truncation + 1):
        for i in range(n + 1):
            table = {}
            for s in by_tuple[n]:
                if n == 1:
                    table["|".join(s)] = vertex(s, 1 - i)
                elif i == 0:
                    table["|".join(s)] = "|".join(s[1:])
                elif i == n:
                    table["|".join(s)] = "|".join(s[:-1])
                else:
                    merged = s[:i - 1] + (A.composite(s[i], s[i - 1]),) + \
                        s[i + 1:]
                    table["|".join(s)] = "|".join(merged)
            face[(n, i)] = table
    for n in range(truncation):
        for i in range(n + 1):
            if n == 0:
                degeneracy[(0, 0)] = {x: A.identity[x] for x in A.objects}
            else:
                degeneracy[(n, i)] = {
                    "|".join(s):
                    "|".join(s[:i] + (A.identity[vertex(s, i)],) + s[i:])
                    for s in by_tuple[n]}
    return TruncatedSSet(truncation, levels, face, degeneracy,
                         name=f"nerve({A.name or 'category'})")


def _progressive_tuples(M, length):
    """Tuples whose left-nested products are defined at every step.

    Yields (tuple, running product).  Length 0 gives the empty tuple
    with the unit as its product.
    """
    if length == 0:
        yield (), M.unit
        return
    for prefix, run in _progressive_tuples(M, length - 1):
        if not prefix:
            for m in M.elements:
                yield (m,), m
            return
        for m in M.elements:
            prod = M.multiply(run, m)
            if prod is not None:
                yield prefix + (m,), prod


def reference_bar(M, truncation):
    _check_names(M.elements, "|", "element")
    if truncation < 0:
        raise InputError("negative truncation")
    by_tuple = [[t for t, _ in _progressive_tuples(M, n)]
                for n in range(truncation + 1)]
    levels = [["*"]] + [["|".join(t) for t in by_tuple[n]]
                        for n in range(1, truncation + 1)]
    level_sets = [set(lv) for lv in levels]

    def put(table, t, parts, n):
        if parts is None:
            return
        cell = "|".join(parts) if parts else "*"
        if cell in level_sets[n]:
            table["|".join(t) if t else "*"] = cell

    face = {}
    degeneracy = {}
    for n in range(1, truncation + 1):
        for i in range(n + 1):
            table = {}
            for t in by_tuple[n]:
                if n == 1:
                    table["|".join(t)] = "*"
                elif i == 0:
                    put(table, t, t[1:], n - 1)
                elif i == n:
                    put(table, t, t[:-1], n - 1)
                else:
                    prod = M.multiply(t[i - 1], t[i])
                    merged = None if prod is None else \
                        t[:i - 1] + (prod,) + t[i + 1:]
                    put(table, t, merged, n - 1)
            face[(n, i)] = table
    for n in range(truncation):
        for i in range(n + 1):
            if n == 0:
                degeneracy[(0, 0)] = {"*": M.unit}
            else:
                degeneracy[(n, i)] = {
                    "|".join(t): "|".join(t[:i] + (M.unit,) + t[i:])
                    for t in by_tuple[n]}
    return TruncatedSSet(truncation, levels, face, degeneracy,
                         name=f"bar({M.name or 'monoid'})")


def reference_coskeletal_from_graph(vertices, edges, truncation, name="",
                                    level_cap=20000):
    vertices = tuple(vertices)
    if truncation < 1:
        raise InputError("coskeletal completion needs truncation >= 1")
    loop_of = {v: f"{v}~" for v in vertices}
    by_pair = {(u, w): [] for u in vertices for w in vertices}
    for v in vertices:
        by_pair[(v, v)].append(loop_of[v])
    edge_ids = list(loop_of.values())
    for eid, u, w in edges:
        if (u, w) not in by_pair:
            raise InputError(f"edge {eid!r} touches unknown vertices")
        by_pair[(u, w)].append(eid)
        edge_ids.append(eid)
    if len(set(edge_ids)) != len(edge_ids):
        raise InputError("duplicate edge ids")

    def pairs(n):
        return [(p, q) for p in range(n + 1) for q in range(p + 1, n + 1)]

    src = {e: u for (u, w), pool in by_pair.items() for e in pool}
    tgt = {e: w for (u, w), pool in by_pair.items() for e in pool}
    levels = [list(vertices), edge_ids]
    cell_data = [[((v,), ()) for v in vertices],
                 [((src[e], tgt[e]), (e,)) for e in edge_ids]]
    for n in range(2, truncation + 1):
        data = []
        for vt in iproduct(vertices, repeat=n + 1):
            pools = [by_pair[(vt[p], vt[q])] for p, q in pairs(n)]
            if any(not pool for pool in pools):
                continue
            for et in iproduct(*pools):
                data.append((vt, et))
                if len(data) > level_cap:
                    raise GenerationError(
                        f"level {n} exceeds the cap of {level_cap} cells",
                        level=n, cap=level_cap)
        levels.append([f"c{n}_{i}" for i in range(len(data))])
        cell_data.append(data)
    cell_id = {(n, vt, et): cid
               for n, (ids, data) in enumerate(zip(levels, cell_data))
               for cid, (vt, et) in zip(ids, data)}

    face = {}
    degeneracy = {}
    for n in range(1, truncation + 1):
        prs = pairs(n)
        small = pairs(n - 1)
        for i in range(n + 1):
            keep = [p for p in range(n + 1) if p != i]
            sel = [prs.index((keep[p], keep[q])) for p, q in small]
            table = {}
            for vt, et in cell_data[n]:
                vt2 = tuple(vt[p] for p in keep)
                et2 = tuple(et[s] for s in sel)
                table[cell_id[(n, vt, et)]] = cell_id[(n - 1, vt2, et2)]
            face[(n, i)] = table
    for n in range(truncation):
        big = pairs(n + 1)
        prs = pairs(n)
        for i in range(n + 1):
            expand = [p if p <= i else p - 1 for p in range(n + 2)]
            table = {}
            for vt, et in cell_data[n]:
                vt2 = tuple(vt[expand[p]] for p in range(n + 2))
                et2 = tuple(
                    loop_of[vt[i]] if (p, q) == (i, i + 1)
                    else et[prs.index((expand[p], expand[q]))]
                    for p, q in big)
                table[cell_id[(n, vt, et)]] = cell_id[(n + 1, vt2, et2)]
            degeneracy[(n, i)] = table
    return TruncatedSSet(truncation, levels, face, degeneracy,
                         name=name or "coskeletal")


# -- comparison -------------------------------------------------------------


def outcome(build, *args, **kwargs):
    """Saved bytes, table key order and violations, or the error raised."""
    try:
        X = build(*args, **kwargs)
    except (InputError, GenerationError) as exc:
        return (type(exc).__name__, str(exc))
    order = [(k, list(t)) for store in (X.face, X.degeneracy)
             for k, t in store.items()]
    return io.save_sset(X), X.name, order, validate(X)


def _corrupt_category(data, A):
    """A with composites deleted or replaced by a morphism whose
    endpoints are wrong for the pair."""
    compose = dict(A.compose)
    for _ in range(data.draw(st.integers(0, 2))):
        if not compose:
            break
        key = data.draw(st.sampled_from(sorted(compose)))
        g, f = key
        wrong = [h for h in A.morphisms
                 if (A.src[h], A.tgt[h]) != (A.src[f], A.tgt[g])]
        if wrong and data.draw(st.booleans()):
            compose[key] = data.draw(st.sampled_from(wrong))
        else:
            del compose[key]
    return FinCategory(A.objects, A.morphisms, A.src, A.tgt, A.identity,
                       compose, name=A.name)


NAMED_CATEGORIES = (chain_poset(0), chain_poset(2), diamond_poset(),
                    twisted_arrow(chain_poset(1)))


def _category(data):
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(NAMED_CATEGORIES))
    return random_category(data.draw(st.integers(0, 10**6)))


def _partial_monoid(data):
    """A random product table, unit rows forced or not; most are not
    strongly associative."""
    size = data.draw(st.integers(1, 4))
    elements = ("e",) + tuple(f"x{i}" for i in range(1, size))
    product = {}
    if data.draw(st.booleans()):
        product.update({("e", m): m for m in elements})
        product.update({(m, "e"): m for m in elements})
    for a in elements:
        for b in elements:
            if (a, b) not in product and data.draw(st.booleans()):
                product[(a, b)] = data.draw(st.sampled_from(elements))
    return PartialMonoid(elements, "e", product, name=f"pm{size}")


def _graph(data):
    vertices = tuple(f"v{i}" for i in range(data.draw(st.integers(1, 3))))
    # repeated ids and unknown endpoints exercise the input errors
    ends = st.sampled_from(vertices + ("zz",) if data.draw(
        st.integers(0, 9)) == 0 else vertices)
    edges = [(f"e{data.draw(st.integers(0, 5))}", data.draw(ends),
              data.draw(ends))
             for _ in range(data.draw(st.integers(0, 3)))]
    return vertices, edges, data.draw(st.integers(0, 4))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_nerve_matches_the_reference(data):
    A = _category(data)
    if data.draw(st.booleans()):
        A = _corrupt_category(data, A)
    N = data.draw(st.integers(-1, 4 if len(A.morphisms) <= 6 else 3))
    assert outcome(nerve, A, N) == outcome(reference_nerve, A, N)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_bar_matches_the_reference(data):
    M = _partial_monoid(data)
    N = data.draw(st.integers(-1, 4))
    assert outcome(bar, M, N) == outcome(reference_bar, M, N)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_coskeletal_matches_the_reference(data):
    vertices, edges, N = _graph(data)
    assert outcome(coskeletal_from_graph, vertices, edges, N,
                   name="g", level_cap=2000) == \
        outcome(reference_coskeletal_from_graph, vertices, edges, N,
                name="g", level_cap=2000)


def _sparse_graph(data):
    """More vertices than edges, so most vertex tuples are not cells."""
    vertices = tuple(f"v{i}" for i in range(data.draw(st.integers(4, 7))))
    ends = st.sampled_from(vertices)
    edges = [(f"e{i}", data.draw(ends), data.draw(ends))
             for i in range(data.draw(st.integers(0, 6)))]
    return vertices, edges, data.draw(st.integers(2, 4))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_coskeletal_on_sparse_graphs_matches_the_reference(data):
    vertices, edges, N = _sparse_graph(data)
    cap = data.draw(st.sampled_from((30, 20000)))
    assert outcome(coskeletal_from_graph, vertices, edges, N,
                   level_cap=cap) == \
        outcome(reference_coskeletal_from_graph, vertices, edges, N,
                level_cap=cap)


def test_coskeletal_cap_fires_where_the_reference_fires():
    # levels of 6, 12, 24, 60, 224 and 1316 cells around one 4-cycle
    vertices = tuple("abcdef")
    edges = [("e0", "a", "b"), ("e1", "a", "b"), ("e2", "b", "c"),
             ("e3", "c", "d"), ("e4", "a", "c"), ("e5", "d", "a")]
    fired = []
    for cap in (30, 100, 1000, 2000):
        raised = []
        for build in (coskeletal_from_graph, reference_coskeletal_from_graph):
            try:
                X = build(vertices, edges, 5, level_cap=cap)
            except GenerationError as exc:
                raised.append((str(exc), exc.diagnostics))
            else:
                raised.append((io.save_sset(X), X.name))
        assert raised[0] == raised[1], cap
        fired.append(raised[0][1])
    assert fired == [{"level": 3, "cap": 30}, {"level": 4, "cap": 100},
                     {"level": 5, "cap": 1000}, "coskeletal"]


def test_coskeletal_cap_fires_at_level_two_and_at_the_top_level():
    # the graph of the test above: 24 cells at level 2, 60 at level 3
    vertices = tuple("abcdef")
    edges = [("e0", "a", "b"), ("e1", "a", "b"), ("e2", "b", "c"),
             ("e3", "c", "d"), ("e4", "a", "c"), ("e5", "d", "a")]
    got = []
    for N, cap in ((2, 23), (2, 24), (3, 23), (3, 59), (3, 60), (4, 0)):
        outcomes = []
        for build in (coskeletal_from_graph, reference_coskeletal_from_graph):
            try:
                X = build(vertices, edges, N, level_cap=cap)
            except GenerationError as exc:
                outcomes.append((str(exc), exc.diagnostics))
            else:
                outcomes.append((io.save_sset(X), X.name))
        assert outcomes[0] == outcomes[1], (N, cap)
        got.append(outcomes[0][1])
    assert got == [{"level": 2, "cap": 23}, "coskeletal",
                   {"level": 2, "cap": 23}, {"level": 3, "cap": 59},
                   "coskeletal", {"level": 2, "cap": 0}]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(-1, 11), st.integers(0, 4))
@example(9, 3)      # the last k whose names are digit strings
@example(10, 3)     # the first k whose names are dot-separated
@example(0, 4)      # one cell per level
def test_standard_simplex_matches_the_reference(k, N):
    N = min(N, 4 if k <= 4 else 3)
    assert outcome(standard_simplex, k, N) == \
        outcome(reference_standard_simplex, k, N)


def test_inputs_reach_the_defective_cases():
    """The drawn inputs include failing nerves, incomplete bars and
    cap overflows, not only valid instances."""
    seen = set()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def collect(data):
        A = _corrupt_category(data, _category(data))
        got = outcome(nerve, A, 3)
        seen.add("nerve-error" if len(got) == 2 else "nerve")
        M = _partial_monoid(data)
        if validate_partial_monoid(M):
            seen.add("not-strongly-associative")
            if any(v.identity == "totality" for v in outcome(bar, M, 3)[3]):
                seen.add("bar-gap")
        got = outcome(coskeletal_from_graph, *_graph(data), level_cap=2000)
        seen.add(f"cosk-{got[0]}" if len(got) == 2 else "cosk")

    collect()
    assert seen >= {"nerve", "nerve-error", "not-strongly-associative",
                    "bar-gap", "cosk", "cosk-InputError"}


# -- one string per cell ----------------------------------------------------

SHARED = (
    lambda: standard_simplex(3, 4),
    lambda: standard_simplex(11, 2),
    lambda: nerve(chain_poset(2), 4),
    lambda: nerve(random_category(3), 3),
    lambda: bar(cyclic_monoid(3), 4),
    lambda: bar(truncated_free_monoid(2), 4),
    lambda: coskeletal_from_graph(("a", "b"), [("e0", "a", "b"),
                                               ("e1", "a", "b")], 4),
)


def test_tables_share_the_level_strings():
    for build in SHARED:
        X = build()
        held = [{c: c for c in lv} for lv in X.levels]
        for store, shift in ((X.face, -1), (X.degeneracy, 1)):
            for (n, i), table in store.items():
                for key, value in table.items():
                    assert key is held[n][key], (X.name, n, i, key)
                    assert value is held[n + shift][value], \
                        (X.name, n, i, value)
