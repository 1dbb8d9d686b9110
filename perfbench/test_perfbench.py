"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about a minute: the determinism test traces every workload twice.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

workloads.load_edgewise()

import run  # noqa: E402
from edgewise import cat, checks, cli, groupoid, io, sset  # noqa: E402
from edgewise.cat import FinCategory  # noqa: E402


def traced_counts(name, seed, workdir):
    """Counts (not times) from one traced pass over the workload's ops;
    as in a traced run, the golden check runs outside the tracer."""
    wl = workloads.WORKLOADS[name](seed, str(workdir))
    golden = workloads.load_golden()[name]
    tracer = Tracer()
    for i in range(wl.trace_ops):
        assert run._run_op(wl, golden, i, tracer)[1] is None
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(name, 7, tmp_path)
    second = traced_counts(name, 7, tmp_path)
    assert first == second
    assert any(v for k, v in first.items() if k.endswith(".calls"))


def test_set_theorem_counts_match_the_profile(tmp_path):
    counts = traced_counts("set-theorem", 1, tmp_path)
    assert counts["sset.act.calls"] == 1284
    assert counts["sset.act.distinct_keys"] == 450
    assert counts["sset.strict_pullback.pairs_examined"] == 4774545
    assert counts["sset.strict_pullback.pairs_out"] == 1591515
    assert counts["sset.edgewise.calls"] == 11


def test_corpus_instances_follow_the_seed():
    assert workloads.corpus_order(3) == workloads.corpus_order(3)
    assert workloads.corpus_order(3)[:150] != workloads.corpus_order(4)[:150]
    assert sorted(workloads.corpus_order(3)) == \
        list(range(workloads.CORPUS_POOL))
    golden = workloads.load_golden()["set-corpus-sweep"]
    assert set(golden) == {str(s) for s in range(workloads.CORPUS_POOL)}


class _Counting(workloads.Workload):
    """Three quick ops, each of which checks out."""

    ops = 3

    def run(self, i):
        return i

    def check(self, i, out):
        return "digest", []


def test_run_stops_when_the_ops_are_used_up():
    probes = []
    metrics, _, failures, attempted = run.run_untraced(
        _Counting(0, ""), {"op": "digest"}, 60.0, 0.1,
        lambda: probes.append(1) or 0.2)
    assert attempted == 3 and not failures
    assert len(probes) == run.SETUP_PROBES
    assert metrics["setup_s"] == (0.1, "s")


def test_the_checker_runs_outside_the_tracer(tmp_path):
    wl = workloads.WORKLOADS["set-theorem"](1, str(tmp_path))
    wl.run = lambda i: checks.theorem_verify(
        cat.bar(cat.cyclic_monoid(2), 3))
    tracer = Tracer()
    run._run_op(wl, {}, 0, tracer)
    metrics = tracer.metrics()
    assert metrics["checks.theorem_verify.calls"][0] == 1
    assert metrics["io.save_report.calls"][0] == 0


def test_tracer_patches_every_binding_and_restores_them():
    originals = (checks.act, checks.strict_pullback, checks.edgewise,
                 sset.epi_mono_factorize, groupoid.epi_mono_factorize,
                 FinCategory.hom, cli._VALIDATORS["sset"],
                 io._LOADERS["sset"])
    tracer = Tracer()
    tracer.install()
    try:
        patched = (checks.act, checks.strict_pullback, checks.edgewise,
                   sset.epi_mono_factorize, groupoid.epi_mono_factorize,
                   FinCategory.hom, cli._VALIDATORS["sset"],
                   io._LOADERS["sset"])
        assert all(p.__wrapped__ is o for p, o in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert (checks.act, checks.strict_pullback, checks.edgewise,
            sset.epi_mono_factorize, groupoid.epi_mono_factorize,
            FinCategory.hom, cli._VALIDATORS["sset"],
            io._LOADERS["sset"]) == originals


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [("checks.theorem_verify", 0.0, 10.0, -1, 0, None),
                       ("sset.act", 1.0, 4.0, 0, 0, None),
                       ("sset.act", 5.0, 6.0, 0, 0, None)]
    m = tracer.metrics()
    assert m["checks.theorem_verify.self_s"][0] == 6.0
    assert m["sset.act.self_s"][0] == 4.0
    assert m["sset.act.calls"][0] == 2


def test_wrong_output_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["set-corpus-sweep"](1, str(tmp_path))
    golden = workloads.load_golden()["set-corpus-sweep"]
    assert run._run_op(wl, golden, 0)[1] is None
    wrong = dict(golden, **{wl.key(0): "0" * 64})
    assert "differs from golden" in run._run_op(wl, wrong, 0)[1]


def test_tail_percentile_keeps_ten_ops_beyond():
    assert run.tail_index(19) is None
    assert run.tail_index(1000) == (99, 989)
    for n in (20, 57, 640):
        p, k = run.tail_index(n)
        assert n - 1 - k >= 10


def test_run_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, os.path.join(workloads.HERE, "run.py"),
         "--workload", "gpd-sconstruction", "--seed", "2", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, timeout=180,
        cwd=workloads.ROOT, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "set-theorem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_traced_run_reports_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(workloads.HERE, "run.py"),
         "--workload", "cli-files", "--seed", "2", "--seconds", "1",
         "--trace", "1"], capture_output=True, text=True, timeout=180,
        cwd=workloads.ROOT, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] == 5
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 14
    assert result["metrics"]["cli.main.exit_nonzero"]["value"] == 0
