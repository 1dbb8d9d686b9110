"""The memoized Δ constructors and generator paths against uncached ones.

``delta`` computes its constructors and each map's generator path once
per process.  The references below are the uncached forms as they
stood before: each constructor builds its maps on every call, and a
map's generators are read off ``epi_mono_factorize`` on every walk.
For every index up to n = 9 and every monotone map [n] -> [m] with
n, m <= 5, both must give equal results, or ``InputError``s with equal
texts.
"""

import pytest

from edgewise.cat import bar, cyclic_monoid
from edgewise.delta import (SimplexMap, TwoSegalInclusions, all_monotone_maps,
                            codegeneracy, coface, edgewise_on_map,
                            epi_mono_factorize, generator_path,
                            induced_subset_map, retract_retraction,
                            retract_section, segal_inclusions,
                            two_segal_inclusions, vertex)
from edgewise.errors import InputError
from edgewise.groupoid import discrete_sgpd
from edgewise.sset import TruncatedSSet

# -- references -------------------------------------------------------------


def reference_coface(i: int, n: int) -> SimplexMap:
    """The injection [n-1] -> [n] that misses i, for 0 <= i <= n, n >= 1."""
    if n < 1 or not 0 <= i <= n:
        raise InputError(f"coface({i}, {n}) out of range")
    return SimplexMap(tuple(k if k < i else k + 1 for k in range(n)), n + 1)


def reference_codegeneracy(i: int, n: int) -> SimplexMap:
    """The surjection [n+1] -> [n] that hits i twice, for 0 <= i <= n."""
    if n < 0 or not 0 <= i <= n:
        raise InputError(f"codegeneracy({i}, {n}) out of range")
    return SimplexMap(
        tuple(k if k <= i else k - 1 for k in range(n + 2)), n + 1)


def reference_vertex(i, n):
    """The vertex map as the checks and the diagram emitter built it."""
    return SimplexMap((i,), n + 1)


def reference_edgewise_on_map(alpha: SimplexMap) -> SimplexMap:
    n, m = alpha.dom_dim, alpha.cod_dim
    front = tuple(m - alpha(n - k) for k in range(n + 1))
    back = tuple(m + 1 + alpha(k) for k in range(n + 1))
    return SimplexMap(front + back, 2 * m + 2)


def reference_subset_inclusion(subset, n: int) -> SimplexMap:
    vals = tuple(sorted(subset))
    if len(set(vals)) != len(vals):
        raise InputError(f"subset {subset} has repeats")
    return SimplexMap(vals, n + 1)


def reference_segal_inclusions(m: int, j: int):
    if not 1 <= j <= m:
        raise InputError(f"segal_inclusions({m}, {j}) out of range")
    front = SimplexMap(tuple(range(j + 1)), m + 1)
    back = SimplexMap(tuple(i + j for i in range(m - j + 1)), m + 1)
    return front, back


def reference_two_segal_inclusions(n: int, i: int,
                                   j: int) -> TwoSegalInclusions:
    if n < 3 or not 0 <= i < j <= n:
        raise InputError(f"two_segal_inclusions({n}, {i}, {j}) out of range")
    outer_subset = tuple(range(i + 1)) + tuple(range(j, n + 1))
    inner_subset = tuple(range(i, j + 1))
    outer = reference_subset_inclusion(outer_subset, n)
    inner = reference_subset_inclusion(inner_subset, n)
    edge = reference_subset_inclusion((i, j), n)
    # positions of i and j inside the two enumerations
    edge_in_outer = SimplexMap((i, i + 1), len(outer_subset))
    edge_in_inner = SimplexMap((0, j - i), len(inner_subset))
    return TwoSegalInclusions(
        n, i, j, outer, inner, edge, edge_in_outer, edge_in_inner)


def reference_retract_section(n: int, k: int) -> SimplexMap:
    if n < 3 or not 1 < k < n:
        raise InputError(f"retract_section({n}, {k}) out of range")
    vals = (n - k,) + tuple(i + n - 1 for i in range(1, n + 1))
    return SimplexMap(vals, 2 * n)


def reference_retract_retraction(n: int, k: int) -> SimplexMap:
    if n < 3 or not 1 < k < n:
        raise InputError(f"retract_retraction({n}, {k}) out of range")
    vals = tuple(0 for _ in range(n)) + tuple(i - n + 1 for i in range(n, 2 * n))
    return SimplexMap(vals, n + 1)


def reference_induced_subset_map(vert: SimplexMap, source_subset: SimplexMap,
                                 target_subset: SimplexMap) -> SimplexMap:
    if not target_subset.is_injective():
        raise InputError("target subset inclusion must be injective")
    if source_subset.cod_size != vert.dom_size:
        raise InputError("source subset does not land in the domain")
    if target_subset.cod_size != vert.cod_size:
        raise InputError("target subset does not land in the codomain")
    position = {v: p for p, v in enumerate(target_subset.values)}
    vals = []
    for p in range(source_subset.dom_size):
        v = vert(source_subset(p))
        if v not in position:
            raise InputError(
                f"image value {v} misses the target subset "
                f"{target_subset.values}")
        vals.append(position[v])
    return SimplexMap(tuple(vals), target_subset.dom_size)


def reference_epi_mono_factorize(alpha: SimplexMap):
    missed = tuple(v for v in range(alpha.cod_size)
                   if v not in set(alpha.values))
    duplicated = tuple(j for j in range(alpha.dom_size - 1)
                       if alpha.values[j] == alpha.values[j + 1])
    return missed, duplicated


def reference_generator_maps(X, m, cofaces, codegens):
    """``SimplicialTables.generator_maps`` as it was, on a factorization."""
    level = m
    for i in reversed(cofaces):
        yield X._map("face", level, i), ("face", level, i)
        level -= 1
    for j in codegens:
        yield X._map("degeneracy", level, j), ("degeneracy", level, j)
        level += 1


# -- comparison -------------------------------------------------------------


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the text of its ``InputError``."""
    try:
        return ("ok", fn(*args))
    except InputError as exc:
        return ("InputError", str(exc))


def agree(memoized, reference, *args):
    """Both calls, twice over, give equal results or equal errors."""
    want = outcome(reference, *args)
    assert outcome(memoized, *args) == want, args
    assert outcome(memoized, *args) == want, args


RANGE = range(-1, 11)      # every index up to n = 9, and just outside
MAPS = [alpha for n in range(6) for m in range(6)
        for alpha in all_monotone_maps(n, m)]
X5 = bar(cyclic_monoid(2), 5)       # tables for every map in MAPS


def test_generator_constructors_match_the_reference():
    for n in RANGE:
        for i in RANGE:
            agree(coface, reference_coface, i, n)
            agree(codegeneracy, reference_codegeneracy, i, n)
            if 0 <= i <= n:
                agree(vertex, reference_vertex, i, n)
            else:
                with pytest.raises(InputError,
                                   match=rf"^vertex\({i}, {n}\) out of range$"):
                    vertex(i, n)


def test_inclusions_match_the_reference():
    for n in RANGE:
        for i in RANGE:
            agree(segal_inclusions, reference_segal_inclusions, n, i)
            agree(retract_section, reference_retract_section, n, i)
            agree(retract_retraction, reference_retract_retraction, n, i)
            for j in RANGE:
                agree(two_segal_inclusions, reference_two_segal_inclusions,
                      n, i, j)


def test_induced_subset_maps_match_the_reference():
    # the retract squares, as retract_verify builds them
    for n in range(3, 10):
        for k in range(2, n):
            sec, ret = retract_section(n, k), retract_retraction(n, k)
            small = two_segal_inclusions(n, 0, k)
            big = two_segal_inclusions(2 * n - 1, n - k, n + k - 1)
            for vert, src, tgt in (
                    (ret, big.outer, small.outer), (ret, big.inner, small.inner),
                    (sec, small.outer, big.outer), (sec, small.inner, big.inner),
                    (sec, big.outer, small.outer), (ret, small.inner, big.inner)):
                agree(induced_subset_map, reference_induced_subset_map,
                      vert, src, tgt)
    # every map between ordinals up to [2], against every pair of maps
    # into its domain and codomain, injective or not
    small_maps = [a for a in MAPS if a.dom_dim <= 2 and a.cod_dim <= 2]
    for vert in small_maps:
        sources = [a for a in small_maps if a.cod_size == vert.dom_size]
        targets = [a for a in small_maps if a.cod_size == vert.cod_size]
        for src in sources:
            for tgt in targets:
                agree(induced_subset_map, reference_induced_subset_map,
                      vert, src, tgt)
        agree(induced_subset_map, reference_induced_subset_map,
              vert, vert, vert)


def test_maps_and_paths_match_the_reference():
    for alpha in MAPS:
        agree(edgewise_on_map, reference_edgewise_on_map, alpha)
        assert epi_mono_factorize(alpha) == \
            reference_epi_mono_factorize(alpha)
        want = tuple(step for _, step in reference_generator_maps(
            X5, alpha.cod_dim, *reference_epi_mono_factorize(alpha)))
        assert generator_path(alpha) == want, alpha
        assert generator_path(SimplexMap(alpha.values, alpha.cod_size)) \
            is generator_path(alpha)


def _walks(X, alpha):
    return (list(X.generator_maps(alpha)),
            list(reference_generator_maps(
                X, alpha.cod_dim, *reference_epi_mono_factorize(alpha))))


def test_generator_maps_walk_the_reference_tables():
    Y = discrete_sgpd(bar(cyclic_monoid(2), 3))
    for alpha in MAPS:
        got, want = _walks(X5, alpha)
        assert [step for _, step in got] == [step for _, step in want]
        assert all(a is b for (a, _), (b, _) in zip(got, want)), alpha
        if alpha.dom_dim <= 3 and alpha.cod_dim <= 3:
            got, want = _walks(Y, alpha)
            assert got == want, alpha


def test_a_missing_table_raises_the_reference_error():
    face = {key: t for key, t in X5._store("face").items() if key != (2, 1)}
    Z = TruncatedSSet(X5.truncation, X5.levels, face,
                      X5._store("degeneracy"))

    def steps(alpha):
        return [step for _, step in Z.generator_maps(alpha)]

    def reference_steps(alpha):
        return [step for _, step in reference_generator_maps(
            Z, alpha.cod_dim, *reference_epi_mono_factorize(alpha))]

    for alpha in MAPS:
        agree(steps, reference_steps, alpha)
    with pytest.raises(InputError, match=r"^face table \(2, 1\) missing$"):
        list(Z.generator_maps(SimplexMap((0, 2), 3)))
