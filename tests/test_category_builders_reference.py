"""The category builders against their direct forms.

``twisted_arrow``, ``span_category``, ``monoid_category``,
``poset_category``, ``product_category`` and the S-construction's level
groupoids all hand their morphism data and rules to
``cat.tabulate_category``.  The references below tabulate ids,
endpoints, identities and composites by hand, scanning every pair of
morphisms for composites.  On valid and defective inputs both must give
the same tables and saved bytes, or raise the same error.  The compose
table lists each composable pair once: g in morphism order, then each f
ending where g starts, in morphism order.  The references for twisted
arrows, spans, monoids and level groupoids list their keys in that
order too; the poset reference lists them in the iteration order of a
set, and the product reference pairs up the factors' compose tables.
The level-groupoid reference also finds its morphisms the long way: a
backtracking search over every slot's permutations, keeping the
families that commute with every square, where the builder derives
each family from its top row.
"""

from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from edgewise import io
from edgewise.cat import (FinCategory, _check_names, _triple_id,
                          chain_poset, cyclic_monoid, monoid_category,
                          poset_category, product_category, span_category,
                          truncated_free_monoid, twisted_arrow)
from edgewise.corpus import (diamond_poset, idempotent_monoid,
                             random_category, random_partial_monoid)
from edgewise.errors import InputError
from edgewise.groupoid import (FinGroupoid, _enumerate_arrays,
                               _level_groupoid, _pcompose, _pidentity,
                               _slots)

from test_arrays_reference import signature
from test_builders_reference import _corrupt_category, _partial_monoid

# -- references -------------------------------------------------------------


def reference_twisted_arrow(A):
    objects = tuple(A.morphisms)
    morphisms = []
    src = {}
    tgt = {}
    triple = {}
    for f in A.morphisms:
        for u in A.morphisms:
            if A.tgt[u] != A.src[f]:
                continue
            fu = A.composite(f, u)
            for v in A.morphisms:
                if A.src[v] != A.tgt[f]:
                    continue
                t = _triple_id(f, u, v)
                morphisms.append(t)
                src[t] = f
                tgt[t] = A.composite(v, fu)
                triple[t] = (f, u, v)
    identity = {f: _triple_id(f, A.identity[A.src[f]], A.identity[A.tgt[f]])
                for f in A.morphisms}
    compose = {}
    for t2 in morphisms:
        g2, u2, v2 = triple[t2]
        for t1 in morphisms:
            f1, u1, v1 = triple[t1]
            if tgt[t1] != g2:
                continue
            compose[(t2, t1)] = _triple_id(
                f1, A.composite(u1, u2), A.composite(v2, v1))
    return FinCategory(objects, morphisms, src, tgt, identity, compose,
                       name=f"tw({A.name})" if A.name else "tw")


def reference_span_category(M):
    objects = tuple(M.elements)
    morphisms = []
    src = {}
    tgt = {}
    triple = {}
    for m1 in M.elements:
        for m in M.elements:
            m1m = M.multiply(m1, m)
            if m1m is None:
                continue
            for m2 in M.elements:
                full = M.multiply(m1m, m2)
                if full is None:
                    continue
                t = _triple_id(m1, m, m2)
                morphisms.append(t)
                src[t] = m
                tgt[t] = full
                triple[t] = (m1, m, m2)
    identity = {m: _triple_id(M.unit, m, M.unit) for m in M.elements}
    compose = {}
    for t2 in morphisms:
        n1, _, n2 = triple[t2]
        for t1 in morphisms:
            m1, m, m2 = triple[t1]
            if src[t2] != tgt[t1]:
                continue
            outer_left = M.multiply(n1, m1)
            outer_right = M.multiply(m2, n2)
            if outer_left is None or outer_right is None:
                raise InputError(
                    f"span composition undefined on ({t2}, {t1}); "
                    "is the monoid strongly associative?")
            compose[(t2, t1)] = _triple_id(outer_left, m, outer_right)
    return FinCategory(objects, morphisms, src, tgt, identity, compose,
                       name=f"spans({M.name})" if M.name else "spans")


def reference_monoid_category(M):
    for a in M.elements:
        for b in M.elements:
            if not M.defined(a, b):
                raise InputError(
                    f"monoid_category needs a total product; "
                    f"({a!r}, {b!r}) is undefined")
    compose = {(g, f): M.product[(f, g)]
               for g in M.elements for f in M.elements}
    return FinCategory(
        ("o",), M.elements, {m: "o" for m in M.elements},
        {m: "o" for m in M.elements}, {"o": M.unit}, compose,
        name=f"B({M.name})" if M.name else "B")


def reference_poset_category(elements, leq, name=""):
    elements = tuple(elements)
    rel = set(leq)
    for a in elements:
        if (a, a) not in rel:
            raise InputError(f"relation is not reflexive at {a!r}")
    for a, b in rel:
        if (b, a) in rel and a != b:
            raise InputError(f"relation is not antisymmetric at ({a!r}, {b!r})")
        for c in elements:
            if (b, c) in rel and (a, c) not in rel:
                raise InputError(
                    f"relation is not transitive at ({a!r}, {b!r}, {c!r})")
    morphisms = [f"{a}<{b}" for a, b in sorted(rel)]
    src = {f"{a}<{b}": a for a, b in rel}
    tgt = {f"{a}<{b}": b for a, b in rel}
    identity = {a: f"{a}<{a}" for a in elements}
    compose = {(f"{b}<{c}", f"{a}<{b0}"): f"{a}<{c}"
               for a, b0 in rel for b, c in rel if b0 == b}
    return FinCategory(elements, morphisms, src, tgt, identity, compose,
                       name=name or "poset")


def reference_product_category(A, B):
    for pool in (A.objects, A.morphisms, B.objects, B.morphisms):
        _check_names(pool, "*", "component")
    objects = tuple(f"{x}*{y}" for x in A.objects for y in B.objects)
    morphisms = tuple(f"{f}*{g}" for f in A.morphisms for g in B.morphisms)
    src = {f"{f}*{g}": f"{A.src[f]}*{B.src[g]}"
           for f in A.morphisms for g in B.morphisms}
    tgt = {f"{f}*{g}": f"{A.tgt[f]}*{B.tgt[g]}"
           for f in A.morphisms for g in B.morphisms}
    identity = {f"{x}*{y}": f"{A.identity[x]}*{B.identity[y]}"
                for x in A.objects for y in B.objects}
    compose = {}
    for (g1, f1), h1 in A.compose.items():
        for (g2, f2), h2 in B.compose.items():
            compose[(f"{g1}*{g2}", f"{f1}*{f2}")] = f"{h1}*{h2}"
    return FinCategory(objects, morphisms, src, tgt, identity, compose,
                       name=f"{A.name}x{B.name}")


def _commuting_families(A, B, slots):
    """Slot permutations from A to B commuting with every inj and surj.

    Families come in the order of the product of the permutation pools
    (slot by slot, ``slots`` order).  Each square is checked as soon as
    its last slot is chosen, so a failing prefix is never extended.
    """
    position = {s: t for t, s in enumerate(slots)}
    squares = [[] for _ in slots]
    # phi[left] . top == bottom . phi[right], phi of a diagonal slot ();
    # a square on diagonal slots alone maps empty sets and commutes
    for (i, j, k) in A.inj:
        for left, right, top, bottom in (
                ((i, k), (i, j), A.inj[(i, j, k)], B.inj[(i, j, k)]),
                ((j, k), (i, k), A.surj[(i, j, k)], B.surj[(i, j, k)])):
            last = max(position.get(left, -1), position.get(right, -1))
            if last >= 0:
                squares[last].append((left, right, top, bottom))
    fam = {}

    def extend(t):
        if t == len(slots):
            yield tuple(fam[s] for s in slots)
            return
        s = slots[t]
        for perm in permutations(range(A.sizes[s])):
            fam[s] = perm
            if all(_pcompose(fam.get(left, ()), top) ==
                   _pcompose(bottom, fam.get(right, ()))
                   for left, right, top, bottom in squares[t]):
                yield from extend(t + 1)

    yield from extend(0)


def reference_level_groupoid(c, n, name):
    arrays = list(_enumerate_arrays(c, n))
    obj_id = {}
    objects = []
    for idx, A in enumerate(arrays):
        oid = f"x{idx}"
        obj_id[signature(A)] = oid
        objects.append(oid)
    by_obj = dict(zip(objects, arrays))
    morphisms = []
    mor_data = {}
    src = {}
    tgt = {}
    by_signature = {}
    slots = _slots(n)
    for o1, A in by_obj.items():
        for o2, B in by_obj.items():
            if any(A.sizes[s] != B.sizes[s] for s in slots):
                continue
            for fam in _commuting_families(A, B, slots):
                mid = f"m{len(morphisms)}"
                morphisms.append(mid)
                key = (o1, o2, fam)
                mor_data[mid] = key
                src[mid] = o1
                tgt[mid] = o2
                by_signature[key] = mid
    identity = {}
    for o, A in by_obj.items():
        key = (o, o, tuple(_pidentity(A.sizes[s]) for s in slots))
        identity[o] = by_signature[key]
    into = {o: [] for o in objects}
    for m in morphisms:
        into[tgt[m]].append(m)
    compose = {}
    inverse = {}
    for m2 in morphisms:
        o2a, o2b, fam2 = mor_data[m2]
        for m1 in into[o2a]:
            o1a, _, fam1 = mor_data[m1]
            compose[(m2, m1)] = by_signature[
                (o1a, o2b, tuple(map(_pcompose, fam2, fam1)))]
    for m in morphisms:
        oa, ob, fam = mor_data[m]
        inv = tuple(tuple(sorted(range(len(p)), key=lambda x: p[x]))
                    for p in fam)
        inverse[m] = by_signature[(ob, oa, inv)]
    G = FinGroupoid(tuple(objects), tuple(morphisms), src, tgt, identity,
                    compose, name=name, inverse=inverse)
    return G, by_obj, obj_id, mor_data, by_signature, slots


# -- comparison -------------------------------------------------------------


def composable_pairs(morphisms, src, tgt):
    """(g, f) for each composable pair: g, then f, in morphism order."""
    return [(g, f) for g in morphisms for f in morphisms if src[g] == tgt[f]]


def outcome(build, *args):
    """The tables, saved bytes and compose key order, or the error."""
    try:
        A = build(*args)
    except InputError as exc:
        return ("InputError", str(exc))
    return ((A.name, A.objects, A.morphisms, A.src, A.tgt, A.identity,
             A.compose, io.save_category(A)), list(A.compose))


def assert_same(build, reference, *args, same_order=True):
    got, want = outcome(build, *args), outcome(reference, *args)
    if got[0] == "InputError" or same_order:
        assert got == want
    else:
        assert got[0] == want[0]
        assert got[1] == composable_pairs(*got[0][2:5])


NAMED = (chain_poset(0), chain_poset(1), chain_poset(3), diamond_poset(),
         monoid_category(cyclic_monoid(3)),
         monoid_category(idempotent_monoid()),
         product_category(chain_poset(1), diamond_poset()),
         twisted_arrow(twisted_arrow(chain_poset(1))))

MONOIDS = (cyclic_monoid(1), cyclic_monoid(2), cyclic_monoid(4),
           idempotent_monoid(), truncated_free_monoid(0),
           truncated_free_monoid(2), truncated_free_monoid(4))


def _category(data):
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(NAMED))
    return random_category(data.draw(st.integers(0, 10 ** 6)),
                           max_morphisms=12)


def _monoid(data):
    """A named monoid, a strongly associative random table, or a random
    table that is usually not strongly associative."""
    pick = data.draw(st.integers(0, 2))
    if pick == 0:
        return data.draw(st.sampled_from(MONOIDS))
    if pick == 1:
        return random_partial_monoid(data.draw(st.integers(1, 4)),
                                     data.draw(st.integers(0, 10 ** 6)))
    return _partial_monoid(data)


def _relation(data):
    """A relation: an order by rank, the diagonal with random pairs, or
    random pairs alone, on up to four elements; or a linear order on
    three or four elements less a pair (p_i, p_j) with j > i + 1."""
    kind = data.draw(st.integers(0, 3))
    if kind == 3:
        chain = [f"p{i}" for i in range(data.draw(st.integers(3, 4)))]
        gaps = [(a, chain[j]) for i, a in enumerate(chain)
                for j in range(i + 2, len(chain))]
        return chain, {(a, b) for a in chain for b in chain if a <= b} - \
            {data.draw(st.sampled_from(gaps))}
    elements = tuple(f"p{i}" for i in range(data.draw(st.integers(1, 4))))
    pairs = [(a, b) for a in elements for b in elements]
    if kind == 0:
        rank = {a: data.draw(st.integers(0, 2)) for a in elements}
        return elements, {(a, b) for a, b in pairs
                          if a == b or rank[a] < rank[b]}
    rel = data.draw(st.sets(st.sampled_from(pairs)))
    return elements, rel | {(a, a) for a in elements} if kind == 1 else rel


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_twisted_arrow_matches_the_reference(data):
    A = _category(data)
    if data.draw(st.booleans()):
        A = _corrupt_category(data, A)
    assert_same(twisted_arrow, reference_twisted_arrow, A)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_span_category_matches_the_reference(data):
    M = _monoid(data)
    assert_same(span_category, reference_span_category, M)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_monoid_category_matches_the_reference(data):
    M = _monoid(data)
    assert_same(monoid_category, reference_monoid_category, M)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_poset_category_matches_the_reference(data):
    elements, leq = _relation(data)
    assert_same(poset_category, reference_poset_category, elements, leq,
                "rel", same_order=False)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_product_category_matches_the_reference(data):
    A, B = _category(data), _category(data)
    if len(A.morphisms) * len(B.morphisms) > 150:
        B = chain_poset(1)
    assert_same(product_category, reference_product_category, A, B,
                same_order=False)


def test_level_groupoids_match_the_reference():
    for c, n in product(range(1, 4), range(4)):
        got = _level_groupoid(c, n, f"S{n}")
        want = reference_level_groupoid(c, n, f"S{n}")
        G, H = got[0], want[0]
        assert (G.objects, G.morphisms, G.src, G.tgt, G.identity,
                G.compose, list(G.compose), G.inverse) == \
            (H.objects, H.morphisms, H.src, H.tgt, H.identity,
             H.compose, list(H.compose), H.inverse)
        assert io.save_groupoid(G) == io.save_groupoid(H)
        _, by_obj, obj_id, mor_data, by_top_row, slots = got
        assert (by_obj, mor_data, slots) == (want[1], want[3], want[5])
        # the builder finds each array by its generating data, the
        # reference by all of its entries: both name the same arrays
        assert len(obj_id) == len(want[2])
        assert {signature(by_obj[o]): o for o in obj_id.values()} == want[2]
        # a morphism's top row is its family at the slot (0, n)
        top = slots.index((0, n)) if n else None
        assert by_top_row == {(o1, o2, () if top is None else fam[top]): m
                              for (o1, o2, fam), m in want[4].items()}


def test_inputs_reach_the_errors_and_the_edge_cases():
    """The drawn inputs include each builder's errors, partial and
    total monoids, and relations that are and are not orders."""
    seen = set()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def collect(data):
        A = _corrupt_category(data, _category(data))
        got = outcome(twisted_arrow, A)
        seen.add("tw-error" if got[0] == "InputError" else "tw")
        M = _monoid(data)
        for build in (span_category, monoid_category):
            got = outcome(build, M)
            seen.add(f"{build.__name__}-"
                     f"{'error' if got[0] == 'InputError' else 'ok'}")
        got = outcome(poset_category, *_relation(data))
        seen.add(got[1].split(" at ")[0] if got[0] == "InputError"
                 else "poset")

    collect()
    assert seen >= {"tw", "tw-error", "span_category-ok",
                    "span_category-error", "monoid_category-ok",
                    "monoid_category-error", "poset",
                    "relation is not reflexive",
                    "relation is not antisymmetric",
                    "relation is not transitive"}
