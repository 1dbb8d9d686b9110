"""Exact Segal and 2-Segal checkers, and the subdivision comparison.

All verdicts are decided by explicit image and fiber computation with
witnesses; cardinality comparison alone is never trusted.  Reports are
deterministic: entries are sorted by index and summaries state exactly
which levels the truncated data certifies.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat, takewhile
from operator import add, attrgetter, mul
from typing import Callable

from .cat import bar, nerve
from .delta import (
    _ints,
    retract_retraction,
    retract_section,
    induced_subset_map,
    segal_inclusions,
    two_segal_inclusions,
    vertex,
)
from .errors import GenerationError, InputError
# act and strict_pullback are bound here too, for tracers that wrap them
from .sset import (Pullback, TruncatedSSet, _composite, _expect, _gather,
                   act, act_positions, edgewise, identities, op_reverse,
                   strict_pullback, structure_maps)

__all__ = [
    "Semantics",
    "SET",
    "Comparison",
    "CheckEntry",
    "CheckReport",
    "segal_map",
    "two_segal_map",
    "segal_check",
    "two_segal_check",
    "witness_re_verifies",
    "BetaGammaResult",
    "beta_gamma_equality",
    "RetractResult",
    "retract_verify",
    "retract_verify_reversed",
    "theorem_verify",
    "FuzzSummary",
    "fuzz_theorem",
]


@dataclass(frozen=True)
class Comparison:
    """A comparison table into a strict pullback, with its verdict.

    The table sends the domain cell at position x to the pair
    (outer[x], inner[x]) of positions in the domains of the pullback's
    legs; ``table`` gives it by name, built on first use.  ``witness``
    is ``("collision", (x, y))`` for two domain cells with the same
    image, ``("uncovered", pair)`` for a pullback element with empty
    preimage, or None when the table is a bijection.
    """

    kind: str
    indices: tuple
    domain: tuple
    outer: tuple = field(repr=False)
    inner: tuple = field(repr=False)
    pullback: Pullback = field(repr=False)
    verdict: str
    witness: tuple | None

    @property
    def domain_size(self):
        return len(self.domain)

    @property
    def codomain_size(self):
        return self.pullback.size()

    @cached_property
    def table(self) -> dict:
        P = self.pullback
        return dict(zip(self.domain, zip(_gather(P.left, self.outer),
                                         _gather(P.right, self.inner))))


def _compare(kind, indices, domain, outer, inner, pullback) -> Comparison:
    """Decide whether x -> (outer[x], inner[x]) is a bijection.

    ``outer`` and ``inner`` give, per domain position, positions in the
    domains of the pullback's legs.  A bijection is proved by counting:
    every image satisfies the pullback equation, the pair codes
    a * |B| + b of the images are distinct, and there are as many as
    the pullback has pairs.  Only when that fails does the ordered scan
    run, to raise for the first image outside the pullback or to find
    the first collision or else the first uncovered pair.
    """
    f, g = pullback.f, pullback.g
    agree = _gather(f, outer) == _gather(g, inner)
    if agree and len(domain) == pullback.size() == len(set(
            map(add, map(mul, outer, repeat(len(g))), inner))):
        witness = None
    else:
        witness = _scan(kind, indices, domain, outer, inner, pullback)
    verdict = "pass" if witness is None else "fail"
    return Comparison(kind, tuple(indices), tuple(domain), outer, inner,
                      pullback, verdict, witness)


def _scan(kind, indices, domain, outer, inner, pullback):
    """The first failure of the table in domain order, then pullback
    order, by name."""
    f, g, left, right = pullback.f, pullback.g, pullback.left, pullback.right
    seen = {}
    collision = None
    for x, p in enumerate(zip(outer, inner)):
        a, b = p
        if f[a] != g[b]:
            raise InputError(
                f"{kind} comparison at {indices} leaves the pullback "
                f"at cell {domain[x]!r}; input tables are not simplicial")
        if p in seen and collision is None:
            collision = ("collision", (domain[seen[p]], domain[x]))
        seen.setdefault(p, x)
    if collision is not None:
        return collision
    for a, b in pullback.positions():
        if (a, b) not in seen:
            return ("uncovered", (left[a], right[b]))
    return None


def witness_re_verifies(comp: Comparison) -> bool:
    """Check a failure witness against the table it came from."""
    if comp.witness is None:
        return comp.verdict == "pass"
    tag, payload = comp.witness
    if tag == "collision":
        x, y = payload
        return x != y and comp.table[x] == comp.table[y]
    if tag == "uncovered":
        return payload in comp.pullback and \
            payload not in set(comp.table.values())
    return False


@dataclass(frozen=True)
class Semantics:
    """The Segal and 2-Segal comparisons, for one meaning of equivalence.

    Indices and inclusions are the same in every tier; ``compare(kind,
    indices, X, first, second, leg_first, leg_second, shared)`` is not.
    It gets the inclusions of the two factors into [n], of the shared
    face into each factor, and of that face into [n]; it acts X on the
    ones it needs, forms the pullback of the legs and decides the
    level-n comparison into it.  ``name`` labels the tier's reports.
    On a graph row (``_graph_row``), where one factor and its leg are
    identities and the other factor is the other leg, neither tier
    forms the pullback: the set tier acts once (``_bijection``), and
    the groupoid tier passes the row without its iso-comma behind a
    guard (``groupoid._factors_sound``).  ``pastes(X)``, where a tier
    has it, is the guard under which ``two_segal_rows`` infers passing
    rows from rows that pass (see ``_pastes``); a tier without it
    computes every row.  Rows are yielded as they are decided; reports
    list entries by index.
    """

    name: str
    compare: Callable
    pastes: Callable | None = None

    def segal_map(self, X, m: int, j: int):
        """The level-m comparison into X_j fibered with X_{m-j} over X_0.

        The first factor is the front j-face, the second the back
        (m-j)-face; the legs evaluate at the shared vertex j.
        """
        _ints("segal_map", m, j)
        if not 1 <= j <= m:
            raise InputError(f"need 1 <= j <= m, got ({m}, {j})")
        if m > X.truncation:
            raise InputError(f"level {m} beyond truncation {X.truncation}")
        front, back = segal_inclusions(m, j)
        return self.compare("segal", (m, j), X, front, back, vertex(j, j),
                            vertex(0, m - j), vertex(j, m))

    def two_segal_map(self, X, n: int, i: int, j: int):
        """The comparison into the outer-polygon and inner-polygon fibers.

        Factors restrict a level-n cell to the vertex subsets
        {0..i, j..n} and {i..j}; the legs restrict both to the edge
        {i, j}.
        """
        _ints("two_segal_map", n, i, j)
        if n > X.truncation:
            raise InputError(f"level {n} beyond truncation {X.truncation}")
        data = two_segal_inclusions(n, i, j)
        return self.compare("two_segal", (n, i, j), X, data.outer,
                            data.inner, data.edge_in_outer,
                            data.edge_in_inner, data.edge)

    def segal_check(self, X, segal_map) -> CheckReport:
        """All level-m comparisons for 1 <= j <= m <= truncation.

        The sweep calls ``segal_map``, the tier's public binding of
        ``self.segal_map``, so a wrapper on that name sees each call.
        """
        entries = [_entry(segal_map(X, m, j))
                   for m, j in _segal_indices(X.truncation)]
        return _report(self.name, X, entries, "segal", 1)

    def two_segal_rows(self, X, mode, two_segal_map,
                       reads=lambda n, i, j: False):
        """The polygon-subdivision rows for 3 <= n <= truncation, each
        yielded as it is decided.  Full mode has every 0 <= i < j <= n,
        reduced mode only i = 0 or j = n; ``mode`` is checked when this
        is called.

        Each row is computed at most once, by ``two_segal_map``, the
        tier's public binding, so a wrapper on that name sees each
        computed row.  A level is walked in report order or, when the
        truncation reaches level 4 and the tier's ``pastes(X)`` holds,
        by i ascending and j descending, which puts the ``_premises`` of
        a row at its level first.  Then a row whose three premises pass
        is inferred to pass, unless ``reads(n, i, j)`` says the caller
        reads its tables; it is the ``CheckEntry`` counting would give:
        pass, both sizes |X_n|, no witness.  Unguarded, a table that is
        not simplicial raises its ``InputError`` at the first row, in
        report order, that meets it.
        """
        if mode not in ("full", "reduced"):
            raise InputError(f"unknown mode {mode!r}")
        pastes = self.pastes is not None and X.truncation >= 4 and \
            self.pastes(X)

        def rows():
            passed = set()
            for n in range(3, X.truncation + 1):
                level = _two_segal_level(n, mode)
                if pastes:
                    level.sort(key=lambda r: (r[1], -r[2]))
                for idx in level:
                    premises = pastes and _premises(*idx)
                    if premises and passed.issuperset(premises) and \
                            not reads(*idx):
                        size = len(X.level(n))
                        row = CheckEntry("two_segal", idx, size, size, "pass")
                    else:
                        row = two_segal_map(X, *idx)
                    if row.verdict == "pass":
                        passed.add(idx)
                    yield row
                    del row     # one row alive at a time
        return rows()

    def two_segal_check(self, X, mode, two_segal_map) -> CheckReport:
        """The report of ``two_segal_rows``: no row is skipped, so the
        adjacent and long-edge rows are reported as trivially bijective
        and the rows pasting infers as passing."""
        entries = [_entry(comp)
                   for comp in self.two_segal_rows(X, mode, two_segal_map)]
        return _report(self.name, X, entries, "two_segal", 3, mode=mode)

    def beta_gamma(self, X, m: int, j: int, subdivide):
        """The subdivision's (m, j) comparison and the matched polygon one.

        ``subdivide`` is the tier's edgewise subdivision.  The polygon
        comparison sits at level 2m+1 with indices (m-j, m+j+1); None
        when that level lies beyond the truncation.
        """
        _ints("beta_gamma", m, j)
        if not 1 <= j <= m:
            raise InputError(f"need 1 <= j <= m, got ({m}, {j})")
        if 2 * m + 1 > X.truncation:
            return None
        return (self.segal_map(subdivide(X), m, j),
                self.two_segal_map(X, 2 * m + 1, m - j, m + j + 1))


def _bijection(kind, indices, X, first, second, leg_first, leg_second,
               shared) -> Comparison:
    """Set semantics: the table into the strict pullback of the legs,
    all of it on positions.

    When one factor is the identity of [n], its leg is the identity and
    the other factor is the other leg (the adjacent 2-Segal rows
    (n, i, i+1), the long-edge rows (n, 0, n) and the Segal rows
    (m, m)), the comparison is the graph x -> (x, t[x]) of the act
    table t of that other factor, decided by one act:
    - one leg is t itself and the other is the identity of its codomain,
      so every image lies in the pullback, whatever the tables;
    - the images are distinct, since one coordinate is x;
    - the pullback has exactly one pair (x, t[x]) per cell x.
    So it passes, and its pullback has |X_n| pairs, recorded without
    counting.  The one act reads the same tables, in the same order, as
    the first act of the counting path that reads any (the identity's
    act reads none), so invalid tables raise the same error.  Every
    other comparison acts four times and is decided by ``_compare``.
    """
    flip = _graph_row(first, second, leg_first, leg_second)
    if flip is None:
        return _counted(kind, indices, X, first, second, leg_first,
                        leg_second)
    t = act_positions(first if flip else second, X)
    domain = X.level(first.cod_dim)
    cells = tuple(range(len(domain)))
    faces = tuple(range(len(X.level(shared.dom_dim))))
    f, g = (faces, t) if flip else (t, faces)
    P = Pullback(f, g, X.level(leg_first.cod_dim),
                 X.level(leg_second.cod_dim))
    P._size = len(domain)       # the graph's pairs, one per cell
    outer, inner = (t, cells) if flip else (cells, t)
    return Comparison(kind, tuple(indices), tuple(domain), outer, inner, P,
                      "pass", None)


def _graph_row(first, second, leg_first, leg_second):
    """Whether the comparison of these inclusions is a graph row, one
    whose comparison is the graph of the other factor's act: None if
    not, else whether the factors are flipped.

    Unflipped, the first factor and the second's leg are identities
    and the second factor is the first's leg; flipped, the same with
    the factors swapped.  Both tiers decide such a row without forming
    the pullback of its legs.
    """
    if second == leg_first and first.is_identity() and \
            leg_second.is_identity():
        return False
    if first == leg_second and second.is_identity() and \
            leg_first.is_identity():
        return True
    return None


def _counted(kind, indices, X, first, second, leg_first, leg_second):
    """The comparison decided by counting, after four acts."""
    outer = act_positions(first, X)
    inner = act_positions(second, X)
    f, g = act_positions(leg_first, X), act_positions(leg_second, X)
    P = Pullback(f, g, X.level(leg_first.cod_dim),
                 X.level(leg_second.cod_dim))
    return _compare(kind, indices, X.level(first.cod_dim), outer, inner, P)


def _pastes(X) -> bool:
    """Whether every face table of X is a position tuple and the face
    identities d_i d_j = d_{j-1} d_i (i < j) hold at every level: the
    guard of the set tier's pasting.

    Why it suffices:
    - the face identities present the semi-simplicial category, the
      injective maps of Δ, so on such X ``act_positions`` of an
      injective map does not depend on the path of faces it composes,
      and acting is functorial on injective maps;
    - every 2-Segal factor, shared edge and leg is injective, so its
      generator path uses faces only, and degeneracies never enter a
      2-Segal row;
    - so the squares of two cuts of one polygon commute, strict
      pullbacks paste, and base change keeps bijections: a row whose
      ``_premises`` are bijections is one, with |X_n| pairs, the entry
      counting writes.  Nor can its images leave the pullback, so
      counting would raise nothing either.
    The identities are the "dd" entries of ``sset.identities``, composed
    by ``_composite`` as ``validate`` composes them; the check reads no
    degeneracy table and costs about half of ``validate``.  Any other
    object, groupoids included, is refused, and every row is computed.
    """
    if not isinstance(X, TruncatedSSet):
        return False
    faces = X._store("face")
    if not all(isinstance(faces.get((n, i)), tuple)
               for kind, n, i in structure_maps(X.truncation)
               if kind == "face"):
        return False
    for _, n, _, lhs, rhs in takewhile(lambda law: law[0] == "dd",
                                       identities(X.truncation)):
        size = len(X.level(n))
        if _composite([faces[k, i] for _, k, i in lhs], size) != \
                _composite([faces[k, i] for _, k, i in rhs], size):
            return False
    return True


SET = Semantics("set", _bijection, _pastes)


def segal_map(X: TruncatedSSet, m: int, j: int) -> Comparison:
    """The level-m comparison into X_j fibered with X_{m-j} over X_0."""
    return SET.segal_map(X, m, j)


def two_segal_map(X: TruncatedSSet, n: int, i: int, j: int) -> Comparison:
    """The comparison into the outer-polygon and inner-polygon fibers."""
    return SET.two_segal_map(X, n, i, j)


@dataclass(frozen=True)
class CheckEntry:
    """One verdict row of a report."""

    kind: str
    indices: tuple
    domain_size: int
    codomain_size: int
    verdict: str
    witness: tuple | None = None


def _entry(comp) -> CheckEntry:
    return CheckEntry(comp.kind, comp.indices, comp.domain_size,
                      comp.codomain_size, comp.verdict, comp.witness)


@dataclass(frozen=True)
class CheckReport:
    """Verdicts per index plus a summary with certified level ranges."""

    subject: str
    semantics: str
    entries: tuple
    summary: dict

    @cached_property
    def _index(self):
        index = {}
        for e in self.entries:
            index.setdefault((e.kind, e.indices), e)
        return index

    def entry(self, kind, indices):
        """The first entry with this kind and these indices."""
        try:
            return self._index[(kind, tuple(indices))]
        except KeyError:
            raise KeyError((kind, indices)) from None

    @property
    def overall(self):
        return self.summary["overall"]


def _segal_indices(truncation):
    for m in range(1, truncation + 1):
        for j in range(1, m + 1):
            yield m, j


def segal_check(X: TruncatedSSet) -> CheckReport:
    """All level-m comparisons for 1 <= j <= m <= truncation."""
    _expect(X, TruncatedSSet)
    return SET.segal_check(X, segal_map)


def _two_segal_level(n, mode):
    """The 2-Segal rows of level n, in report order."""
    return [(n, i, j) for i in range(n) for j in range(i + 1, n + 1)
            if mode == "full" or i == 0 or j == n]


def _premises(n, i, j):
    """The rows whose passing makes row (n, i, j) pass by pasting, or ().

    Row (n, i, j) cuts the (n+1)-gon along {i, j}; cut it also along the
    coarser diagonal {i, j+1} when j < n, or {i-1, n} when j = n.  The
    premises are the row of the coarser cut, the row cutting its inner
    polygon along {i, j} and the row cutting the outer polygon of
    {i, j} along the coarser diagonal.  Each is yielded before (n, i, j)
    by ``Semantics.two_segal_rows`` (i ascending, then j descending),
    and rows with i = 0 or j = n have premises of that kind only.  The
    identity-factor rows and (n, 0, n-1) and (n, 1, n) have none.
    """
    if j - i < 2 or (i, j) in ((0, n - 1), (0, n), (1, n)):
        return ()
    if j < n:
        return (n, i, j + 1), (j - i + 1, 0, j - i), (n - j + i + 1, i, i + 2)
    return (n, i - 1, n), (n - i + 1, 1, n - i + 1), (i + 1, i - 1, i + 1)


def two_segal_check(X: TruncatedSSet, mode: str = "full") -> CheckReport:
    """All polygon-subdivision comparisons, in full or reduced mode."""
    _expect(X, TruncatedSSet)
    return SET.two_segal_check(X, mode, two_segal_map)


def _report(semantics, X, entries, check, lowest, **mode) -> CheckReport:
    """The report of a sweep, listed by index (a stable sort); levels
    lowest..truncation are certified."""
    entries = sorted(entries, key=attrgetter("indices"))
    levels = [lowest, X.truncation] if X.truncation >= lowest else []
    failures = sum(e.verdict != "pass" for e in entries)
    summary = {
        "check": check,
        **mode,
        "overall": "fail" if failures else "pass",
        "failures": failures,
        "certified_levels": levels,
    }
    return CheckReport(X.name or "anonymous", semantics, tuple(entries),
                       summary)


@dataclass(frozen=True)
class BetaGammaResult:
    """Outcome of matching the subdivision comparison at one index.

    The level-m comparison of the subdivision equals the level-(2m+1)
    polygon comparison at (m-j, m+j+1) after swapping factor order:
    the subdivision's first factor is the inner polygon, its second
    the outer, and its vertex legs are the edge legs.
    """

    m: int
    j: int
    verdict: str
    tables_equal: bool = True
    pullbacks_equal: bool = True
    legs_equal: bool = True
    verdicts_equal: bool = True
    mismatch: tuple | None = None


def beta_gamma_equality(X: TruncatedSSet, m: int, j: int) -> BetaGammaResult:
    """Compare the subdivision's level-m map with the matched polygon map."""
    _expect(X, TruncatedSSet)
    pair = SET.beta_gamma(X, m, j, edgewise)
    if pair is None:
        return BetaGammaResult(m, j, "out_of_truncation")
    return _beta_gamma_match(m, j, *pair)


def _same_pairs(P: Pullback, Q: Pullback, swap: bool = False) -> bool:
    """Whether P holds the pairs of Q (each reversed, with ``swap``).

    The legs of both have the same domains, so positions compare as
    names do.  Equal legs give equal pairs, so the pairs are enumerated
    only when the legs differ.
    """
    f, g = (Q.g, Q.f) if swap else (Q.f, Q.g)
    if P.f == f and P.g == g:
        return True
    theirs = {(b, a) for a, b in Q.positions()} if swap \
        else set(Q.positions())
    return set(P.positions()) == theirs


def _beta_gamma_match(m, j, beta: Comparison,
                      gamma: Comparison) -> BetaGammaResult:
    """Match the subdivision's (m, j) comparison against its polygon one.

    The vertex legs of beta are the tables of E = edgewise(X) at the
    vertices j of [j] and 0 of [m-j]; those of gamma are X's tables at
    the edge {m-j, m+j+1} of the inner and outer polygon.  E's level k
    is X's level 2k+1, so the positions of both compare as names do.
    """
    mismatch = None
    tables_equal = beta.outer == gamma.inner and beta.inner == gamma.outer
    if not tables_equal:
        x = beta.domain[next(
            p for p in range(len(beta.domain))
            if (beta.outer[p], beta.inner[p]) !=
            (gamma.inner[p], gamma.outer[p]))]
        mismatch = (x, beta.table[x], gamma.table[x])
    pullbacks_equal = _same_pairs(beta.pullback, gamma.pullback, swap=True)
    legs_equal = beta.pullback.f == gamma.pullback.g and \
        beta.pullback.g == gamma.pullback.f
    verdicts_equal = beta.verdict == gamma.verdict
    ok = tables_equal and pullbacks_equal and legs_equal and verdicts_equal
    return BetaGammaResult(m, j, "pass" if ok else "fail", tables_equal,
                           pullbacks_equal, legs_equal, verdicts_equal,
                           mismatch)


@dataclass(frozen=True)
class RetractResult:
    """Outcome of exhibiting a small comparison as a retract of a big one.

    ``identity_ok``: the section-then-retraction round trip is the
    identity on level-n cells.  ``square_up_ok`` / ``square_down_ok``:
    the two naturality squares between the comparisons commute as
    tables.  ``implication_ok``: the big comparison passing forces the
    small one to pass.
    """

    n: int
    k: int
    reversed_family: bool
    verdict: str
    identity_ok: bool = True
    square_up_ok: bool = True
    square_down_ok: bool = True
    implication_ok: bool = True
    big_verdict: str = ""
    small_verdict: str = ""
    witness: tuple | None = None


def _first_failure(count, lhs, rhs):
    """The first position below ``count`` whose two composites differ,
    or None.

    Each side lists paths of position tables; its value at x is the tuple
    of x carried along each path (``_composite``).  Whole levels are
    compared first, and only if they differ is a position sought.
    """
    left = [_composite(p, count) for p in lhs]
    right = [_composite(p, count) for p in rhs]
    if left == right:
        return None
    return next(x for x, (a, b) in enumerate(zip(zip(*left), zip(*right)))
                if a != b)


_BigRow = namedtuple("_BigRow", "verdict outer inner")


def _retract(X, n, k, rows) -> RetractResult:
    """The retract check of X's edge-{0,k} comparison at level n.

    The section and retraction act first; then ``rows()`` gives the
    small comparison (n, 0, k) and the big one (2n-1, n-k, n+k-1), or
    the ``_BigRow`` of what is read of it: its verdict and tables."""
    sec = retract_section(n, k)
    ret = retract_retraction(n, k)
    down = act_positions(sec, X)       # level 2n-1 -> level n
    up = act_positions(ret, X)         # level n -> level 2n-1
    cells, big_cells = X.level(n), X.level(2 * n - 1)
    identity = _first_failure(len(cells), [(up, down)], [()])

    small, big = rows()
    small_inc = two_segal_inclusions(n, 0, k)
    big_inc = two_segal_inclusions(2 * n - 1, n - k, n + k - 1)

    up_outer = act_positions(
        induced_subset_map(ret, big_inc.outer, small_inc.outer), X)
    up_inner = act_positions(
        induced_subset_map(ret, big_inc.inner, small_inc.inner), X)
    square_up = _first_failure(
        len(cells), [(up, big.outer), (up, big.inner)],
        [(small.outer, up_outer), (small.inner, up_inner)])

    down_outer = act_positions(
        induced_subset_map(sec, small_inc.outer, big_inc.outer), X)
    down_inner = act_positions(
        induced_subset_map(sec, small_inc.inner, big_inc.inner), X)
    square_down = _first_failure(
        len(big_cells), [(down, small.outer), (down, small.inner)],
        [(big.outer, down_outer), (big.inner, down_inner)])

    witness = next(((name, level[x]) for name, x, level in (
        ("identity", identity, cells), ("square_up", square_up, cells),
        ("square_down", square_down, big_cells)) if x is not None), None)
    implication_ok = not (big.verdict == "pass" and small.verdict != "pass")
    ok = witness is None and implication_ok
    if not implication_ok:
        witness = witness or ("implication", small.witness)
    return RetractResult(n, k, False, "pass" if ok else "fail",
                         identity is None, square_up is None,
                         square_down is None, implication_ok,
                         big.verdict, small.verdict, witness)


def retract_verify(X: TruncatedSSet, n: int, k: int) -> RetractResult:
    """Verify the retract presentation of the edge-{0,k} comparison.

    The big comparison lives at level 2n-1 with indices (n-k, n+k-1);
    the vertical maps of both squares are induced on the polygon
    factors by the section and retraction.
    """
    _expect(X, TruncatedSSet)
    _ints("retract_verify", n, k)
    if not (n >= 3 and 1 < k < n):
        raise InputError(f"need n >= 3 and 1 < k < n, got ({n}, {k})")
    if 2 * n - 1 > X.truncation:
        return RetractResult(n, k, False, "out_of_truncation")
    return _retract(X, n, k, lambda: (
        two_segal_map(X, n, 0, k),
        two_segal_map(X, 2 * n - 1, n - k, n + k - 1)))


def retract_verify_reversed(X: TruncatedSSet, n: int, k: int) -> RetractResult:
    """The edge-{k,n} comparison, handled through order reversal.

    Reversal carries it to the edge-{0,n-k} comparison of the reversed
    simplicial set, where the plain retract applies; the transport is
    itself checked by table equality before the result is relabeled.
    """
    _expect(X, TruncatedSSet)
    _ints("retract_verify_reversed", n, k)
    if not (n >= 3 and 0 < k < n - 1):
        raise InputError(f"need n >= 3 and 0 < k < n - 1, got ({n}, {k})")
    if 2 * n - 1 > X.truncation:
        return RetractResult(n, k, True, "out_of_truncation")
    return _retract_reversed(op_reverse(X), n, k, two_segal_map(X, n, k, n))


def _retract_reversed(rev, n, k, direct) -> RetractResult:
    """The reversed family's check of X's comparison ``direct`` at
    (n, k, n), with ``rev = op_reverse(X)`` (X's levels, so positions
    compare as names do); the transported row is the small one on rev."""
    transported = two_segal_map(rev, n, 0, n - k)
    transport_ok = direct.outer == transported.outer and \
        direct.inner == transported.inner and \
        _same_pairs(direct.pullback, transported.pullback) and \
        direct.verdict == transported.verdict
    inner = _retract(rev, n, n - k, lambda: (
        transported, two_segal_map(rev, 2 * n - 1, k, 2 * n - 1 - k)))
    ok = transport_ok and inner.verdict == "pass"
    witness = None if transport_ok else ("transport", (n, k))
    return RetractResult(n, k, True, "pass" if ok else "fail",
                         inner.identity_ok, inner.square_up_ok,
                         inner.square_down_ok, inner.implication_ok,
                         inner.big_verdict, inner.small_verdict,
                         witness or inner.witness)


def _matched(n, i, j):
    """Whether (n, i, j) is a matched row (2m+1, m-k, m+k+1), 1 <= k <= m."""
    return n % 2 and i + j == n and j - i >= 3


def theorem_verify(X: TruncatedSSet) -> CheckReport:
    """Check the equivalence: 2-Segal exactly when the subdivision is Segal.

    ``segal_check`` on the subdivision E runs first, then one pass over
    X's ``two_segal_rows`` (so the first ``InputError`` is the one the
    two sweeps, run in turn, meet first); the entries are theirs.  At
    each matched row (2m+1, m-j, m+j+1) the pass computes E's (m, j)
    row again for the verdict match and the beta-gamma check, whose
    witnesses are the least failing [m, j].  It keeps the rows of levels
    n with 2n-1 <= truncation, the levels the summary certifies, for the
    retract families; of a big row they read the entry's verdict and
    act the two tables again.  The pass computes those two kinds of row,
    whose tables it reads; the sweep may infer any other passing row
    by pasting, so each row of X is computed at most once.
    """
    _expect(X, TruncatedSSet)
    if X.truncation < 3:
        raise InputError("theorem checking needs truncation >= 3")
    E = edgewise(X)
    esd_report = segal_check(E)
    hi = (X.truncation + 1) // 2      # the levels n with 2n-1 <= truncation
    entries, kept, mismatched, bg_failed = [], {}, [], []

    def reads(n, i, j):             # the rows whose tables are read below
        return n <= hi or _matched(n, i, j)

    for gamma in SET.two_segal_rows(X, "full", two_segal_map, reads):
        entries.append(_entry(gamma))
        n, i, j = gamma.indices
        if _matched(n, i, j):
            m, k = n // 2, (j - i - 1) // 2
            beta = segal_map(E, m, k)
            if beta.verdict != gamma.verdict:
                mismatched.append([m, k])
            if _beta_gamma_match(m, k, beta, gamma).verdict != "pass":
                bg_failed.append([m, k])
            del beta
        if n <= hi:
            kept[n, i, j] = gamma
        del gamma           # one row alive at a time
    ts_report = _report(SET.name, X, entries, "two_segal", 3, mode="full")

    retracts, rev = [], None    # rev: built where first needed
    for n in range(3, hi + 1):
        for k in range(2, n):
            big = two_segal_inclusions(2 * n - 1, n - k, n + k - 1)
            retracts.append(_retract(X, n, k, lambda: (kept[n, 0, k], _BigRow(
                ts_report.entry("two_segal", (big.n, big.i, big.j)).verdict,
                act_positions(big.outer, X), act_positions(big.inner, X)))))
        rev = rev or op_reverse(X)
        for k in range(1, n - 1):
            retracts.append(_retract_reversed(rev, n, k, kept[n, k, n]))
    retract_failed = [[r.n, r.k, r.reversed_family] for r in retracts
                      if r.verdict != "pass"]

    summary = {
        "check": "theorem",
        "overall": "fail" if mismatched or bg_failed or retract_failed
        else "pass",
        "two_segal_overall": ts_report.overall,
        "esd_segal_overall": esd_report.overall,
        "esd_truncation": E.truncation,
        "matched_agree": not mismatched,
        "matched_witness": min(mismatched, default=None),
        "beta_gamma_failures": len(bg_failed),
        "beta_gamma_witness": min(bg_failed, default=None),
        "retract_failures": len(retract_failed),
        "retract_witness": retract_failed[0] if retract_failed else None,
        "certified_levels": [3, hi] if hi >= 3 else [],
    }
    entries = esd_report.entries + ts_report.entries
    return CheckReport(X.name or "anonymous", "set", entries, summary)


@dataclass(frozen=True)
class FuzzSummary:
    """Aggregate outcome of a randomized theorem sweep."""

    count: int
    seed: int
    checked: int
    generation_failures: int
    kind_counts: dict
    violations: tuple
    partial_bar_level2_passes: int


def _genuinely_partial(M):
    return any((a, b) not in M.product
               for a in M.elements for b in M.elements)


def fuzz_theorem(count: int, seed: int) -> FuzzSummary:
    """Run the theorem checker over seeded random instances.

    Each instance is a nerve, a bar construction or a coskeletal set,
    its kind and its sub-seed drawn from one ``random.Random(seed)``;
    ``kind_counts`` lists the kinds in that order.  Violations collect
    any instance whose report is not an overall pass; generation
    failures are counted, not fatal.  Also counts bar constructions of
    genuinely partial products whose level-2 Segal rows all pass (the
    expected count is zero: an undefined product is an uncovered pair).
    """
    from .corpus import (random_category, random_coskeletal_sset,
                         random_partial_monoid)
    _ints("fuzz_theorem", count)
    if count < 0:
        raise InputError("count must be nonnegative")
    rng = random.Random(seed)
    kinds = ("nerve", "bar", "coskeletal")
    kind_counts = dict.fromkeys(kinds, 0)
    violations = []
    generation_failures = 0
    checked = 0
    partial_level2 = 0
    for idx in range(count):
        kind = kinds[rng.randrange(len(kinds))]
        sub_seed = rng.randrange(10 ** 9)
        try:
            if kind == "nerve":
                A = random_category(sub_seed)
                N = 5 if len(A.morphisms) <= 6 else 4
                X = nerve(A, N)
            elif kind == "bar":
                M = random_partial_monoid(rng.randrange(2, 5), sub_seed)
                X = bar(M, 5)
            else:
                nv = rng.randrange(2, 4)
                X = random_coskeletal_sset(nv, rng.randrange(1, 4),
                                           4 if nv == 2 else 3, sub_seed)
        except GenerationError:
            generation_failures += 1
            continue
        kind_counts[kind] += 1
        report = theorem_verify(X)
        checked += 1
        if report.overall != "pass":
            violations.append((X.name, dict(report.summary)))
        if kind == "bar" and _genuinely_partial(M) and all(
                segal_map(X, 2, j).verdict == "pass" for j in (1, 2)):
            partial_level2 += 1
    return FuzzSummary(count, seed, checked, generation_failures,
                       kind_counts, tuple(violations), partial_level2)
