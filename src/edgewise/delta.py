"""Finite ordinals and the monotone maps between them.

``[n]`` is the linearly ordered set {0 < 1 < ... < n}; a map is stored by
its tuple of values, so composition and the generator calculus stay exact
integer bookkeeping.  Everything downstream (simplicial sets, subdivision,
the condition checkers) reduces to the functions in this module.

Conventions fixed here and used everywhere else:

* ``compose(g, f)`` is "g after f".
* ``coface(i, n)`` is the injection [n-1] -> [n] whose image misses i;
  ``codegeneracy(i, n)`` is the surjection [n+1] -> [n] hitting i twice.
* ``epi_mono_factorize`` returns (missed values, duplicated positions),
  both strictly increasing; recomposing per that order reproduces the map.
* ``edgewise_on_map`` sends [n] to [2n+1], reading the domain as a
  reversed copy of [n] followed by an ordinary copy.  The closed formula
  is certified in the tests against ``edgewise_join_oracle``, which
  builds the concatenated ordering literally and transports the map.

The checks ask for the same few maps again and again, for every set
they check, so the constructors they call are memoized for the life of
the process (``_memo``): ``coface``, ``codegeneracy``, ``vertex``,
``segal_inclusions``, ``two_segal_inclusions``, ``edgewise_on_map``,
``retract_section``, ``retract_retraction``, ``induced_subset_map`` and
``generator_path``.  They are keyed by ints and ``SimplexMap``s only
and hold Δ data only: what they keep depends on the indices and maps
asked for, never on the sets they are asked for.  To keep them small,
maps use slots and paths share their generators' tuples (``_step``).
Indices and sizes must be ``int`` exactly; anything else, ``bool`` and
``float`` included, raises ``InputError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, wraps
from itertools import combinations_with_replacement

from .errors import InputError

__all__ = [
    "SimplexMap",
    "identity",
    "compose",
    "coface",
    "codegeneracy",
    "vertex",
    "epi_mono_factorize",
    "generator_path",
    "recompose",
    "all_monotone_maps",
    "edgewise_on_map",
    "edgewise_join_oracle",
    "subset_inclusion",
    "segal_inclusions",
    "TwoSegalInclusions",
    "two_segal_inclusions",
    "retract_section",
    "retract_retraction",
    "induced_subset_map",
]


@dataclass(frozen=True, slots=True)
class SimplexMap:
    """A monotone map between finite ordinals.

    ``values[i]`` is the image of i; ``cod_size`` is the number of
    elements of the codomain ordinal (so the codomain is [cod_size - 1]).
    Instances are immutable and hashable.
    """

    values: tuple[int, ...]
    cod_size: int

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise InputError("empty domain ordinal")
        _ints("SimplexMap", self.cod_size, *self.values)
        if self.cod_size < 1:
            raise InputError("empty codomain ordinal")
        prev = 0
        for v in self.values:
            if not 0 <= v < self.cod_size:
                raise InputError(
                    f"value {v!r} outside codomain of size {self.cod_size}")
            if v < prev:
                raise InputError(f"values {self.values} are not monotone")
            prev = v

    @property
    def dom_size(self) -> int:
        return len(self.values)

    @property
    def dom_dim(self) -> int:
        """The n with domain [n]."""
        return len(self.values) - 1

    @property
    def cod_dim(self) -> int:
        """The m with codomain [m]."""
        return self.cod_size - 1

    def __call__(self, i: int) -> int:
        return self.values[i]

    def is_identity(self) -> bool:
        return self.cod_size == self.dom_size and all(
            v == i for i, v in enumerate(self.values))

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.dom_size

    def __repr__(self):
        return f"SimplexMap({list(self.values)} -> [{self.cod_dim}])"


def _ints(where, *values):
    """``InputError`` unless every value is an ``int`` exactly, as in a
    table key of ``TruncatedSSet``: a ``bool``, or a ``float`` such as
    2.0, is refused."""
    for v in values:
        if type(v) is not int:
            raise InputError(f"{where}: {v!r} is not an int")


def _memo(fn):
    """``fn``, computed once per process for each tuple of arguments.

    Each argument must be an ``int`` exactly or a ``SimplexMap``, and
    is refused with ``InputError`` before the memo is read: 2.0 and
    True hash and compare equal to 2 and 1, so they would share the int
    entries.  A call that raises is not memoized.
    """
    memo = cache(fn)

    @wraps(fn)
    def checked(*args):
        for a in args:
            if type(a) is not int and type(a) is not SimplexMap:
                raise InputError(
                    f"{fn.__name__}: {a!r} is not an int or a SimplexMap")
        return memo(*args)

    return checked


def identity(n: int) -> SimplexMap:
    """The identity of [n]."""
    _ints("identity", n)
    if n < 0:
        raise InputError("negative dimension")
    return SimplexMap(tuple(range(n + 1)), n + 1)


def compose(g: SimplexMap, f: SimplexMap) -> SimplexMap:
    """g after f; domains must line up."""
    if f.cod_size != g.dom_size:
        raise InputError(
            f"cannot compose: codomain [{f.cod_dim}] vs domain [{g.dom_dim}]")
    return SimplexMap(tuple(g.values[v] for v in f.values), g.cod_size)


@_memo
def coface(i: int, n: int) -> SimplexMap:
    """The injection [n-1] -> [n] that misses i, for 0 <= i <= n, n >= 1."""
    if n < 1 or not 0 <= i <= n:
        raise InputError(f"coface({i}, {n}) out of range")
    return SimplexMap(tuple(k if k < i else k + 1 for k in range(n)), n + 1)


@_memo
def codegeneracy(i: int, n: int) -> SimplexMap:
    """The surjection [n+1] -> [n] that hits i twice, for 0 <= i <= n."""
    if n < 0 or not 0 <= i <= n:
        raise InputError(f"codegeneracy({i}, {n}) out of range")
    return SimplexMap(
        tuple(k if k <= i else k - 1 for k in range(n + 2)), n + 1)


@_memo
def vertex(i: int, n: int) -> SimplexMap:
    """The map [0] -> [n] picking vertex i, for 0 <= i <= n."""
    if not 0 <= i <= n:
        raise InputError(f"vertex({i}, {n}) out of range")
    return SimplexMap((i,), n + 1)


def epi_mono_factorize(alpha: SimplexMap):
    """Split a map into codegeneracies followed by cofaces.

    Returns ``(cofaces, codegeneracies)`` where ``cofaces`` lists the
    values missed by alpha and ``codegeneracies`` lists the positions j
    with alpha(j) == alpha(j+1), both strictly increasing.  With
    ``recompose`` these reproduce alpha; the factorization is unique for
    that ordering convention.
    """
    missed = tuple(v for v in range(alpha.cod_size)
                   if v not in set(alpha.values))
    duplicated = tuple(j for j in range(alpha.dom_size - 1)
                       if alpha.values[j] == alpha.values[j + 1])
    return missed, duplicated


@cache
def _step(kind, level, index):
    """The one (kind, level, index) tuple of a generator, shared by
    every memoized path that has it."""
    return kind, level, index


@_memo
def generator_path(alpha: SimplexMap) -> tuple:
    """alpha's generators as (kind, level, index), in the order in
    which their structure maps act on the cells of a simplicial object.

    For alpha: [n] -> [m] with ``epi_mono_factorize(alpha)`` the path
    starts at level m with one face per coface, the last coface first,
    and goes on with one degeneracy per codegeneracy in increasing
    order, each at the level the one before reached; it ends at level
    n.  Every index is in range for its kind and level.
    """
    cofaces, codegens = epi_mono_factorize(alpha)
    level = alpha.cod_dim
    path = []
    for i in reversed(cofaces):
        path.append(_step("face", level, i))
        level -= 1
    for j in codegens:
        path.append(_step("degeneracy", level, j))
        level += 1
    return tuple(path)


def recompose(dom_dim: int, cofaces, codegeneracies) -> SimplexMap:
    """Rebuild a map from factorization data, innermost generator first.

    The codegeneracies are applied in decreasing index order starting
    from [dom_dim], then the cofaces in increasing index order.
    """
    out = identity(dom_dim)
    n = dom_dim
    for j in reversed(tuple(codegeneracies)):
        out = compose(codegeneracy(j, n - 1), out)
        n -= 1
    for i in cofaces:
        out = compose(coface(i, n + 1), out)
        n += 1
    return out


def all_monotone_maps(dom_dim: int, cod_dim: int):
    """All monotone maps [dom_dim] -> [cod_dim], lexicographically."""
    _ints("all_monotone_maps", dom_dim, cod_dim)
    for vals in combinations_with_replacement(range(cod_dim + 1), dom_dim + 1):
        yield SimplexMap(vals, cod_dim + 1)


@_memo
def edgewise_on_map(alpha: SimplexMap) -> SimplexMap:
    """The subdivision functor on maps: [n] -> [m] becomes [2n+1] -> [2m+1].

    Position k <= n stands for element n-k of the reversed copy, position
    k > n for element k-n-1 of the ordinary copy; alpha acts on both
    copies.
    """
    n, m = alpha.dom_dim, alpha.cod_dim
    front = tuple(m - alpha(n - k) for k in range(n + 1))
    back = tuple(m + 1 + alpha(k) for k in range(n + 1))
    return SimplexMap(front + back, 2 * m + 2)


def edgewise_join_oracle(alpha: SimplexMap) -> SimplexMap:
    """Independent construction of ``edgewise_on_map`` for certification.

    Builds the concatenated ordering of a reversed copy of the domain
    followed by an ordinary copy as a literal list of labels, transports
    alpha label by label, and reads positions off the codomain list.  No
    index arithmetic beyond list lookup.
    """
    n, m = alpha.dom_dim, alpha.cod_dim
    dom = [("rev", n - k) for k in range(n + 1)]
    dom += [("fwd", k) for k in range(n + 1)]
    cod = [("rev", m - k) for k in range(m + 1)]
    cod += [("fwd", k) for k in range(m + 1)]
    values = tuple(cod.index((tag, alpha(j))) for tag, j in dom)
    return SimplexMap(values, len(cod))


def subset_inclusion(subset, n: int) -> SimplexMap:
    """The inclusion of a subset of [n], enumerated in increasing order."""
    _ints("subset_inclusion", n)
    vals = tuple(sorted(subset))
    if len(set(vals)) != len(vals):
        raise InputError(f"subset {subset} has repeats")
    return SimplexMap(vals, n + 1)


@_memo
def segal_inclusions(m: int, j: int):
    """The two inclusions splitting [m] at vertex j, for 1 <= j <= m.

    Returns ``(front, back)``: [j] -> [m] sending i to i, and
    [m-j] -> [m] sending i to i+j.  They agree on the shared vertex j.
    """
    if not 1 <= j <= m:
        raise InputError(f"segal_inclusions({m}, {j}) out of range")
    front = SimplexMap(tuple(range(j + 1)), m + 1)
    back = SimplexMap(tuple(i + j for i in range(m - j + 1)), m + 1)
    return front, back


@dataclass(frozen=True, slots=True)
class TwoSegalInclusions:
    """Subset inclusions for the decomposition of [n] along the edge {i, j}.

    ``outer`` keeps {0..i} and {j..n}; ``inner`` keeps {i..j}; ``edge``
    is {i, j}.  The edge factors through both pieces via
    ``edge_in_outer`` and ``edge_in_inner``.
    """

    n: int
    i: int
    j: int
    outer: SimplexMap
    inner: SimplexMap
    edge: SimplexMap
    edge_in_outer: SimplexMap
    edge_in_inner: SimplexMap


@_memo
def two_segal_inclusions(n: int, i: int, j: int) -> TwoSegalInclusions:
    """Decomposition data of [n] along {i, j}, for n >= 3, 0 <= i < j <= n."""
    if n < 3 or not 0 <= i < j <= n:
        raise InputError(f"two_segal_inclusions({n}, {i}, {j}) out of range")
    outer_subset = tuple(range(i + 1)) + tuple(range(j, n + 1))
    inner_subset = tuple(range(i, j + 1))
    outer = subset_inclusion(outer_subset, n)
    inner = subset_inclusion(inner_subset, n)
    edge = subset_inclusion((i, j), n)
    # positions of i and j inside the two enumerations
    edge_in_outer = SimplexMap((i, i + 1), len(outer_subset))
    edge_in_inner = SimplexMap((0, j - i), len(inner_subset))
    return TwoSegalInclusions(
        n, i, j, outer, inner, edge, edge_in_outer, edge_in_inner)


@_memo
def retract_section(n: int, k: int) -> SimplexMap:
    """The injection [n] -> [2n-1] with 0 at n-k and i at i+n-1 otherwise.

    Defined for n >= 3 and 1 < k < n, split by ``retract_retraction``.
    """
    if n < 3 or not 1 < k < n:
        raise InputError(f"retract_section({n}, {k}) out of range")
    vals = (n - k,) + tuple(i + n - 1 for i in range(1, n + 1))
    return SimplexMap(vals, 2 * n)


@_memo
def retract_retraction(n: int, k: int) -> SimplexMap:
    """The surjection [2n-1] -> [n] collapsing the first n elements to 0."""
    if n < 3 or not 1 < k < n:
        raise InputError(f"retract_retraction({n}, {k}) out of range")
    vals = tuple(0 for _ in range(n)) + tuple(i - n + 1 for i in range(n, 2 * n))
    return SimplexMap(vals, n + 1)


@_memo
def induced_subset_map(vert: SimplexMap, source_subset: SimplexMap,
                       target_subset: SimplexMap) -> SimplexMap:
    """Solve ``target_subset o result == vert o source_subset``.

    ``source_subset`` and ``target_subset`` must be subset inclusions
    into the domain and codomain of ``vert``; the result maps positions
    to positions.  Raises if ``vert`` carries the source subset outside
    the target subset, which would mean no such map exists.
    """
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
