"""The benchmark's workloads: inputs made from a seed, one op, its check.

Each workload is a class built once per process (its set-up) and then
asked to run op ``i`` again and again.  ``run(i)`` is the timed part and
returns the program's outputs; ``check(i, out)`` is untimed and returns
``(digest, problems)``: the SHA-256 of the op's canonical bytes and a
list of expected verdicts that did not hold.  An op passes when the
digest equals the golden digest recorded from the seed commit and the
problem list is empty.

Importing this module does not import ``edgewise``; ``load_edgewise``
does, from the checkout's own ``src`` directory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as stdio
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")   # work files and span dumps

# Pool of fuzz seeds for set-corpus-sweep; golden.json holds one digest
# for each.  A run visits the pool in an order drawn from its seed and
# stops when the pool is used up, so no instance repeats in a process.
CORPUS_POOL = 4096


def load_edgewise():
    """Import the package from this checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "edgewise", "__init__.py")):
        raise SystemExit(f"no edgewise sources under {SRC}")
    sys.path.insert(0, SRC)
    import edgewise
    where = os.path.dirname(os.path.abspath(edgewise.__file__))
    if where != os.path.join(SRC, "edgewise"):
        raise SystemExit(f"edgewise imported from {where}, not from {SRC}")
    return edgewise


def canonical(data) -> bytes:
    """The benchmark's own canonical form for values that are not reports."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _file_sha(path: str) -> bytes:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest().encode()


def corpus_order(seed: int) -> list:
    """The fuzz seeds set-corpus-sweep visits, in this run's order."""
    order = list(range(CORPUS_POOL))
    random.Random(seed).shuffle(order)
    return order


class Workload:
    """Set-up in ``__init__``; op ``i`` in ``run``; its check in ``check``.

    ``trace_ops`` is how many ops, from op 0, a traced run covers;
    ``ops`` is how many distinct ops there are (None: no limit).
    ``key(i)`` names op i's golden digest.
    """

    name = ""
    trace_ops = 1
    ops = None

    def __init__(self, seed: int, workdir: str):
        pass

    def key(self, i):
        return "op"

    def run(self, i):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError


class SetTheorem(Workload):
    """``theorem_verify(bar(cyclic_monoid(3), 9))``: one large instance."""

    name = "set-theorem"

    def __init__(self, seed: int, workdir: str):
        from edgewise import cat, checks, io
        self.cat, self.checks, self.io = cat, checks, io

    def run(self, i):
        X = self.cat.bar(self.cat.cyclic_monoid(3), 9)
        return self.checks.theorem_verify(X)

    def check(self, i, report):
        s = report.summary
        problems = [f"{k} is {s[k]!r}" for k in
                    ("overall", "two_segal_overall", "esd_segal_overall")
                    if s[k] != "pass"]
        problems += [f"{k} is {s[k]!r}" for k, want in
                     (("matched_agree", True), ("beta_gamma_failures", 0),
                      ("retract_failures", 0)) if s[k] != want]
        return _sha(self.io.save_report(report).encode()), problems


class SetCorpusSweep(Workload):
    """``fuzz_theorem(1, seed_i)`` over seeds drawn from a fixed pool."""

    name = "set-corpus-sweep"
    trace_ops = 150
    ops = CORPUS_POOL

    def __init__(self, seed: int, workdir: str):
        from edgewise import checks
        self.checks = checks
        self.order = corpus_order(seed)

    def key(self, i):
        return str(self.order[i])

    def run(self, i):
        return self.checks.fuzz_theorem(1, self.order[i])

    def check(self, i, summary):
        problems = []
        if summary.checked + summary.generation_failures != 1:
            problems.append("instance neither checked nor counted as failed")
        if summary.violations:
            problems.append(f"theorem violated: {summary.violations[0][0]}")
        return _sha(canonical(dataclasses.asdict(summary))), problems


class GpdSConstruction(Workload):
    """The groupoid tier on the S-construction at truncation 3."""

    name = "gpd-sconstruction"
    trace_ops = 6

    def __init__(self, seed: int, workdir: str):
        from edgewise import groupoid, io
        self.g, self.io = groupoid, io

    def run(self, i):
        g = self.g
        Y = g.s_construction(3, 3)
        return (g.sgpd_segal_check(Y), g.sgpd_segal_check(g.esd_gpd(Y)),
                g.sgpd_beta_gamma_equality(Y, 1, 1),
                g.sgpd_two_segal_check(Y))

    def check(self, i, out):
        segal, esd_segal, bg, two_segal = out
        problems = []
        if segal.overall != "fail" or not any(
                e.verdict == "fail" and e.witness for e in segal.entries):
            problems.append("Segal check did not fail with a witness")
        if esd_segal.overall != "pass":
            problems.append("subdivision Segal check did not pass")
        if bg.verdict != "pass":
            problems.append("beta-gamma equality did not pass")
        if two_segal.overall != "pass":
            problems.append("2-Segal check did not pass")
        save = self.io.save_report
        return _sha(save(segal).encode(), save(esd_segal).encode(),
                    canonical(dataclasses.asdict(bg)),
                    save(two_segal).encode()), problems


class CliFiles(Workload):
    """Seven ``edgewise.cli.main`` commands on files in a work directory."""

    name = "cli-files"
    trace_ops = 2
    OUTPUTS = ("bar8.json", "esd.json", "s3.json")

    def __init__(self, seed: int, workdir: str):
        from edgewise import cat, cli, io
        self.cli = cli
        self.dir = workdir
        self.pm = self.path("cyclic3.json")
        io.write_text(self.pm, io.save_partial_monoid(cat.cyclic_monoid(3)))
        bar8, esd, s3 = (self.path(n) for n in self.OUTPUTS)
        self.commands = [
            ["bar", self.pm, "--truncation", "8", "-o", bar8],
            ["validate", bar8],
            ["esd", bar8, "-o", esd],
            ["check", "segal", bar8, "--format", "machine"],
            ["check", "2segal", bar8, "--reduced", "--format", "machine"],
            ["sconstruction", "--max-card", "3", "--truncation", "3",
             "-o", s3],
            ["validate", s3],
        ]

    def path(self, name):
        return os.path.join(self.dir, name)

    def run(self, i):
        results = []
        for argv in self.commands:
            out, err = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def check(self, i, results):
        problems = [f"{argv[0]} exited {code}: {err.strip()}"
                    for argv, (code, _, err) in zip(self.commands, results)
                    if code != 0]
        parts = [canonical([[code, out] for code, out, _ in results])]
        for name in self.OUTPUTS:   # hashed, then removed for the next op
            path = self.path(name)
            parts.append(_file_sha(path) if os.path.exists(path)
                         else b"missing")
            if os.path.exists(path):
                os.unlink(path)
        return _sha(*parts), problems


WORKLOADS = {w.name: w for w in
             (SetTheorem, SetCorpusSweep, GpdSConstruction, CliFiles)}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["digests"]
