"""Byte pins of set-tier reports, recorded before the tier moved to
positions.

Comparisons run on position tuples and name cells only in witnesses
and tables read back.  These digests were taken from the name-table
implementation; they cover collision and uncovered witnesses decoded
from positions, on a passing instance, on a 2-Segal instance that is
not Segal, and on a coskeletal instance that fails both checks.
"""

import contextlib
import hashlib
import io as stdio

import pytest

from edgewise import cli, io
from edgewise.cat import bar, cyclic_monoid, truncated_free_monoid
from edgewise.checks import segal_check, theorem_verify, two_segal_check
from edgewise.corpus import random_coskeletal_sset


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_theorem_report_at_truncation_nine():
    report = theorem_verify(bar(cyclic_monoid(3), 9))
    assert _sha(io.save_report(report)) == \
        "ab32ea8fa47476b06c477ba789a43cfebbc4e81a84201cf6e86a46298137b359"


@pytest.mark.parametrize("argv, code, digest", [
    (["check", "segal"], 1,
     "fe9f69888b67395900be6c4567c61c8c2e9e9c1b2f263c297c61b299db7fb7c4"),
    (["check", "2segal"], 0,
     "00e0d20479a952efa6b94985b093e7988560f0c702c5f99f3302a22f896d4082"),
    (["check", "theorem", "--format", "machine"], 0,
     "49264d29243fe89e74597cf95089c068f86b208976335ce6fe8c420b1e33b031"),
], ids=["segal", "2segal", "theorem-machine"])
def test_cli_checks_on_a_free_monoid_bar(tmp_path, argv, code, digest):
    # Segal fails here with uncovered witnesses
    path = tmp_path / "free7.json"
    io.write_text(str(path), io.save_sset(bar(truncated_free_monoid(1), 7)))
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv[:2] + [str(path)] + argv[2:]) == code
    assert _sha(out.getvalue()) == digest


@pytest.mark.parametrize("check, overall, digest", [
    (segal_check, "fail",
     "74d27dd9792d1e750f62b46d6b7b538606e74e3bcc3fcd11649ce141763ab4fe"),
    (two_segal_check, "fail",
     "45aed0ad49a0e5b37addb97394e60503f0349973bfba870655824cdbf99fc2ac"),
    (theorem_verify, "pass",
     "b59a8bf43f469373310f9fd44b74a215482fd2f42034b8e2aaf50fa47e50fdf8"),
], ids=["segal", "2segal", "theorem"])
def test_failing_coskeletal_instance(check, overall, digest):
    # both sweeps fail here with collision witnesses
    report = check(random_coskeletal_sset(3, 2, 3, 5))
    assert report.overall == overall
    assert _sha(io.save_report(report)) == digest
