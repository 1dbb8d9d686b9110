"""``theorem_verify`` and the retract checks against their two-loop form.

``theorem_verify`` runs the subdivision's Segal sweep, then one pass over
X's 2-Segal sweep that feeds the matched rows, the beta-gamma checks and
the retract families.  The reference below is the form it replaced,
kept verbatim: an interleaved matched loop, a second pass over the
unmatched 2-Segal indices, a re-run of both sweeps to pick the first
error, and retract checks that compute their rows again.  Both forms
must give the same report bytes, retract results and ``InputError``
texts, and the one pass must decide each 2-Segal row of X once,
computing it at most once.
"""

import dataclasses
import sys
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from edgewise import checks, io
from edgewise.cat import bar, cyclic_monoid, nerve
from edgewise.checks import (SET, CheckReport, RetractResult,
                             _beta_gamma_match, _bijection, _entry, _report,
                             _same_pairs, _segal_indices, _two_segal_level,
                             segal_check, segal_map, two_segal_check,
                             two_segal_map)
from edgewise.corpus import (random_category, random_coskeletal_sset,
                             random_partial_monoid, standard_corpus)
from edgewise.delta import (_ints, induced_subset_map, retract_retraction,
                            retract_section, two_segal_inclusions)
from edgewise.errors import GenerationError, InputError
from edgewise.sset import (TruncatedSSet, _gather, act_positions, edgewise,
                           op_reverse)


def _two_segal_indices(truncation, mode):
    """Every 2-Segal row of a set truncated there, in report order."""
    for n in range(3, truncation + 1):
        yield from _two_segal_level(n, mode)


# -- the reference: the two-loop form, verbatim -----------------------------


def _carry(count, path):
    """Positions 0..count-1, each carried through the tables of ``path``
    in turn, as a tuple (whatever the path's length, so that two
    carries compare equal exactly when they agree)."""
    cells = tuple(range(count))
    for table in path:
        cells = _gather(table, cells)
    return cells


def _first_failure(count, lhs, rhs):
    """The first position below ``count`` whose two composites differ,
    or None.

    Each side lists paths of position tables, and its value at x is the
    tuple of x carried along each path.  Whole levels are compared
    first; only when they differ is the first differing position sought.
    """
    left = [_carry(count, p) for p in lhs]
    right = [_carry(count, p) for p in rhs]
    if left == right:
        return None
    return next(x for x, (a, b) in enumerate(zip(zip(*left), zip(*right)))
                if a != b)


def retract_verify(X: TruncatedSSet, n: int, k: int) -> RetractResult:
    """Verify the retract presentation of the edge-{0,k} comparison.

    The big comparison lives at level 2n-1 with indices (n-k, n+k-1);
    the vertical maps of both squares are induced on the polygon
    factors by the section and retraction.
    """
    _ints("retract_verify", n, k)
    if not (n >= 3 and 1 < k < n):
        raise InputError(f"need n >= 3 and 1 < k < n, got ({n}, {k})")
    if 2 * n - 1 > X.truncation:
        return RetractResult(n, k, False, "out_of_truncation")
    sec = retract_section(n, k)
    ret = retract_retraction(n, k)
    down = act_positions(sec, X)       # level 2n-1 -> level n
    up = act_positions(ret, X)         # level n -> level 2n-1
    cells, big_cells = X.level(n), X.level(2 * n - 1)
    identity = _first_failure(len(cells), [(up, down)], [()])

    small = two_segal_map(X, n, 0, k)
    big = two_segal_map(X, 2 * n - 1, n - k, n + k - 1)
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


def retract_verify_reversed(X: TruncatedSSet, n: int, k: int) -> RetractResult:
    """The edge-{k,n} comparison, handled through order reversal.

    Reversal carries it to the edge-{0,n-k} comparison of the reversed
    simplicial set, where the plain retract applies; the transport is
    itself checked by table equality before the result is relabeled.
    """
    _ints("retract_verify_reversed", n, k)
    if not (n >= 3 and 0 < k < n - 1):
        raise InputError(f"need n >= 3 and 0 < k < n - 1, got ({n}, {k})")
    if 2 * n - 1 > X.truncation:
        return RetractResult(n, k, True, "out_of_truncation")
    return _retract_reversed(X, op_reverse(X), n, k)


def _retract_reversed(X, rev, n, k) -> RetractResult:
    """``retract_verify_reversed`` with ``rev = op_reverse(X)`` given;
    rev has X's levels, so positions compare as names do."""
    direct = two_segal_map(X, n, k, n)
    transported = two_segal_map(rev, n, 0, n - k)
    transport_ok = direct.outer == transported.outer and \
        direct.inner == transported.inner and \
        _same_pairs(direct.pullback, transported.pullback) and \
        direct.verdict == transported.verdict
    inner = retract_verify(rev, n, n - k)
    ok = transport_ok and inner.verdict == "pass"
    witness = None if transport_ok else ("transport", (n, k))
    return RetractResult(n, k, True, "pass" if ok else "fail",
                         inner.identity_ok, inner.square_up_ok,
                         inner.square_down_ok, inner.implication_ok,
                         inner.big_verdict, inner.small_verdict,
                         witness or inner.witness)


def theorem_verify(X: TruncatedSSet) -> CheckReport:
    """Check the equivalence: 2-Segal exactly when the subdivision is Segal.

    Runs both checkers, matches their verdicts index-by-index through
    the factor-swap identification, and verifies the retract argument
    in both the plain and the reversed family.  The subdivision is
    built once, and each matched pair of comparisons is computed once
    and serves both the verdict match and the beta-gamma check; the
    entries are those of ``segal_check`` on the subdivision followed by
    those of ``two_segal_check``.  Level-n polygon
    verdicts count as certified by subdivision data only when
    2n-1 <= truncation, and the summary says so.
    """
    if X.truncation < 3:
        raise InputError("theorem checking needs truncation >= 3")
    E = edgewise(X)
    M = E.truncation
    esd_entries = []
    matched = {}        # polygon indices -> entry of the matched gamma

    matched_agree = True
    matched_witness = None
    bg_failures = 0
    bg_witness = None
    try:
        for m, j in _segal_indices(M):
            beta = segal_map(E, m, j)
            gamma = two_segal_map(X, 2 * m + 1, m - j, m + j + 1)
            esd_entries.append(_entry(beta))
            matched[gamma.indices] = _entry(gamma)
            if beta.verdict != gamma.verdict:
                matched_agree = False
                matched_witness = matched_witness or [m, j]
            if _beta_gamma_match(m, j, beta, gamma).verdict != "pass":
                bg_failures += 1
                bg_witness = bg_witness or [m, j]
            del beta, gamma     # one matched pair alive at a time
        ts_entries = [matched.get(idx) or _entry(two_segal_map(X, *idx))
                      for idx in _two_segal_indices(X.truncation, "full")]
    except InputError:
        # raise the error that the two sweeps, run in turn, meet first
        segal_check(E)
        two_segal_check(X, "full")
        raise
    esd_report = _report(SET.name, E, esd_entries, "segal", 1)
    ts_report = _report(SET.name, X, ts_entries, "two_segal", 3, mode="full")

    retract_failures = 0
    retract_witness = None
    retract_results = []
    rev = None          # built once, where the reversed family first needs it
    n = 3
    while 2 * n - 1 <= X.truncation:
        for k in range(2, n):
            retract_results.append(retract_verify(X, n, k))
        rev = rev or op_reverse(X)
        for k in range(1, n - 1):
            retract_results.append(_retract_reversed(X, rev, n, k))
        n += 1
    for r in retract_results:
        if r.verdict != "pass":
            retract_failures += 1
            if retract_witness is None:
                retract_witness = [r.n, r.k, bool(r.reversed_family)]

    hi = (X.truncation + 1) // 2
    certified = [3, hi] if hi >= 3 else []
    overall = "pass" if (matched_agree and bg_failures == 0
                         and retract_failures == 0) else "fail"
    summary = {
        "check": "theorem",
        "overall": overall,
        "two_segal_overall": ts_report.summary["overall"],
        "esd_segal_overall": esd_report.summary["overall"],
        "esd_truncation": M,
        "matched_agree": matched_agree,
        "matched_witness": matched_witness,
        "beta_gamma_failures": bg_failures,
        "beta_gamma_witness": bg_witness,
        "retract_failures": retract_failures,
        "retract_witness": retract_witness,
        "certified_levels": certified,
    }
    entries = esd_report.entries + ts_report.entries
    return CheckReport(X.name or "anonymous", "set", entries, summary)


# -- comparing the two forms ------------------------------------------------


def _outcome(call, *args):
    """What a call gives: its result's bytes, or its ``InputError`` text."""
    try:
        out = call(*args)
    except InputError as e:
        return f"InputError: {e}"
    return io.save_report(out) if isinstance(out, CheckReport) else repr(out)


def _retract_indices(X):
    """(n, k) of each plain and each reversed retract check, one level
    past the truncation included (out of truncation)."""
    plain, reversed_ = [], []
    for n in range(3, (X.truncation + 1) // 2 + 2):
        plain += [(n, k) for k in range(2, n)]
        reversed_ += [(n, k) for k in range(1, n - 1)]
    return plain, reversed_


def assert_same_outcomes(X):
    kinds = set()
    if X.truncation >= 3:
        want = _outcome(theorem_verify, X)
        assert _outcome(checks.theorem_verify, X) == want, X.name
        kinds.add(want.startswith("InputError"))
    plain, reversed_ = _retract_indices(X)
    for n, k in plain:
        want = _outcome(retract_verify, X, n, k)
        assert _outcome(checks.retract_verify, X, n, k) == want, (n, k)
        kinds.add(want.startswith("InputError"))
    for n, k in reversed_:
        want = _outcome(retract_verify_reversed, X, n, k)
        assert _outcome(checks.retract_verify_reversed, X, n, k) == want, \
            (n, k)
        kinds.add(want.startswith("InputError"))
    return kinds


def test_corpus_outcomes_match_the_two_loop_form():
    for inst in standard_corpus():
        assert_same_outcomes(inst.sset)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(("nerve", "bar", "coskeletal")))
    seed = draw(st.integers(0, 10 ** 6))
    try:
        if kind == "nerve":
            return nerve(random_category(seed, 3, 12),
                         draw(st.integers(3, 5)))
        if kind == "bar":
            return bar(random_partial_monoid(draw(st.integers(1, 3)), seed),
                       draw(st.integers(3, 7)))
        return random_coskeletal_sset(2, draw(st.integers(0, 2)),
                                      draw(st.integers(3, 5)), seed)
    except GenerationError:
        assume(False)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(instances())
def test_drawn_outcomes_match_the_two_loop_form(X):
    assert_same_outcomes(X)


def _broken(X, kind, key, how):
    """X with one entry of the table (kind, key) dropped, renamed to a
    non-cell or sent to another cell of the target level."""
    tables = {k: {key: dict(t) for key, t in getattr(X, k).items()}
              for k in ("face", "degeneracy")}
    table = tables[kind][key]
    cells = X.level(key[0])
    cell = cells[len(cells) // 2]
    if how == "drop":
        del table[cell]
    elif how == "rename":
        table[cell] = "not-a-cell"
    else:       # a map still, and where it can, not simplicial
        targets = X.level(key[0] + (-1 if kind == "face" else 1))
        table[cell] = targets[0] if table[cell] == targets[-1] \
            else targets[-1]
    return TruncatedSSet(X.truncation, X.levels, tables["face"],
                         tables["degeneracy"])


def test_one_broken_entry_gives_the_same_outcomes():
    X = bar(cyclic_monoid(2), 5)
    kinds = set()
    for kind in ("face", "degeneracy"):
        for key in getattr(X, kind):
            for how in ("drop", "rename", "redirect"):
                kinds |= assert_same_outcomes(_broken(X, kind, key, how))
    assert kinds == {True, False}


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.data())
def test_one_broken_entry_at_truncation_seven(data):
    X = bar(cyclic_monoid(2), 7)
    kind = data.draw(st.sampled_from(("face", "degeneracy")))
    key = data.draw(st.sampled_from(sorted(getattr(X, kind))))
    how = data.draw(st.sampled_from(("drop", "rename", "redirect")))
    assert_same_outcomes(_broken(X, kind, key, how))


def test_one_missing_table_gives_the_same_outcomes():
    X = nerve(random_category(3), 5)
    for kind in ("face", "degeneracy"):
        for key in getattr(X, kind):
            tables = {k: dict(getattr(X, k)) for k in ("face", "degeneracy")}
            del tables[kind][key]
            assert_same_outcomes(TruncatedSSet(
                X.truncation, X.levels, tables["face"],
                tables["degeneracy"]))


def test_witnesses_are_the_least_failing_index(monkeypatch):
    # the pass meets the matched rows of level 7 as (7, 0, 7), (7, 1, 6),
    # (7, 2, 5), that is [3, 3], [3, 2], [3, 1]: the last two fail here
    X = bar(cyclic_monoid(2), 7)
    failing = {(3, 1), (3, 2)}
    real_segal_map, real_match = segal_map, _beta_gamma_match

    def flipped_segal_map(Y, m, j):
        comp = real_segal_map(Y, m, j)
        return dataclasses.replace(comp, verdict="fail") \
            if (m, j) in failing else comp

    def failing_match(m, j, beta, gamma):
        result = real_match(m, j, beta, gamma)
        return dataclasses.replace(result, verdict="fail") \
            if (m, j) in failing else result

    for module in (checks, sys.modules[__name__]):
        monkeypatch.setattr(module, "segal_map", flipped_segal_map)
        monkeypatch.setattr(module, "_beta_gamma_match", failing_match)
    summary = checks.theorem_verify(X).summary
    assert summary == theorem_verify(X).summary
    assert summary["matched_witness"] == [3, 1]
    assert summary["beta_gamma_witness"] == [3, 1]
    assert summary["beta_gamma_failures"] == 2


# -- each row of X at most once --------------------------------------------


def test_theorem_decides_each_two_segal_row_of_x_once(monkeypatch):
    # each row of X is decided once: computed at most once, or inferred
    # to pass by pasting; computed are the rows whose tables the pass
    # reads (levels 3 and 4 and the matched rows), the identity-factor
    # rows, and the two rows of each level without premises
    X = bar(cyclic_monoid(3), 7)
    decided = Counter()

    def counting(kind, indices, Y, *inclusions):
        decided[Y.name, kind, tuple(indices)] += 1
        return _bijection(kind, indices, Y, *inclusions)

    monkeypatch.setattr(checks, "SET",
                        dataclasses.replace(SET, compare=counting))
    assert checks.theorem_verify(X).overall == "pass"
    by_set = Counter()
    for (name, _, _), count in decided.items():
        by_set[name] += count
    computed = {key[2] for key in decided if key[0] == X.name}
    assert {count for key, count in decided.items()
            if key[0] == X.name} == {1}
    assert computed == {
        (n, i, j) for n, i, j in _two_segal_indices(X.truncation, "full")
        if n <= 4 or j - i == 1 or (i, j) in ((0, n - 1), (0, n), (1, n))
        or (n % 2 and i + j == n)}
    # the subdivision's sweep, then its matched rows once more; the
    # reversed set's transported and big rows, two per reversed check
    esd_rows = len(list(_segal_indices((X.truncation - 1) // 2)))
    assert by_set == {X.name: 46, f"esd({X.name})": 2 * esd_rows,
                      f"rev({X.name})": 2 * 3}
    assert len(list(_two_segal_indices(7, "full"))) == 80
