"""Benchmark entry point: one workload per process, or all of them.

    python3 perfbench/run.py --workload set-theorem --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]

With ``--trace 0`` the process runs the workload's op until ``--seconds``
of op time have passed (the last op finishes) or the workload has no
more distinct ops, checking every op against its golden digest.  Between
ops it starts itself with ``--setup-probe`` to time set-up, spreading
the probes over the run; ``setup_s`` is the fastest set-up seen.  With
``--trace 1`` it runs one warm-up op, then the workload's fixed list of
traced ops, each once without and once with the layer wrappers in
alternating order, and reports per-layer metrics and the tracing
overhead.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from time import perf_counter

PROCESS_START = perf_counter()   # before anything else, edgewise included

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

import workloads

SETUP_PROBES = 20
PROBE_TIMEOUT_S = 60


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(name, seed, workdir):
    """Import the package and build the workload; seconds since start."""
    workloads.load_edgewise()
    golden = workloads.load_golden()[name]
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, golden, perf_counter() - PROCESS_START


def _probe_setup(name, seed):
    """Set-up seconds of one fresh process of this script."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def _run_op(wl, golden, i, tracer=None):
    """Run op i, traced if a tracer is given: (seconds, failure or None).

    Only ``wl.run`` is timed and traced; its check runs afterwards.
    """
    failure = None
    if tracer is not None:
        tracer.begin_op(i)
        tracer.install()
    start = perf_counter()
    try:
        out = wl.run(i)
    except Exception as exc:   # an op that raises counts as failed
        failure = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if failure:
        return elapsed, failure
    try:
        digest, problems = wl.check(i, out)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"
    if digest != golden.get(wl.key(i)):
        problems.append(f"digest {digest[:12]} differs from golden")
    return elapsed, "; ".join(problems) or None


def tail_index(n):
    """(percentile, index) of the highest whole percentile of n sorted ops
    with at least ten ops beyond it, by nearest rank; None if none has."""
    for p in range(99, 49, -1):
        k = max(0, math.ceil(p * n / 100) - 1)
        if n - 1 - k >= 10:
            return p, k
    return None


def run_untraced(wl, golden, seconds, setup, probe):
    """Ops until ``seconds`` of op time have passed, with ``probe()``
    set-ups spread among them: (metrics, notes, failures, ops).

    One probe falls due per ``seconds / SETUP_PROBES`` of op time, so the
    probes sample the whole run rather than one moment of the host, and
    ``setup_s`` is their minimum: on a shared host the speed drifts by
    tens of percent, and the fastest set-up moves least with it.
    """
    times, failures, setups = [], [], [setup]
    spent = 0.0
    i = 0
    while (i == 0 or spent < seconds) and (wl.ops is None or i < wl.ops):
        elapsed, failure = _run_op(wl, golden, i)
        times.append(elapsed)
        spent += elapsed
        if failure:
            failures.append((wl.key(i), failure))
        i += 1
        due = min(SETUP_PROBES, int(SETUP_PROBES * spent / seconds))
        while len(setups) <= due:
            setups.append(probe())
    while len(setups) <= SETUP_PROBES:
        setups.append(probe())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (min(setups), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    notes = [f"failed_ops_frac = {len(failures) / len(times)}",
             "setup_s probes = " + " ".join(f"{t:.4f}" for t in setups)]
    tail = tail_index(len(times))
    if tail:
        notes.append(f"op_tail_s = {sorted(times)[tail[1]]} s "
                     f"(p{tail[0]} of {len(times)} ops)")
    else:
        notes.append(f"op_tail_s = not reported: {len(times)} ops leave "
                     "fewer than ten beyond any percentile")
    return metrics, notes, failures, len(times)


def run_traced(wl, golden, name, seed):
    """A warm-up op, then each traced op plain and traced, the two in
    alternating order so neither always runs first; counts are exact.
    Returns (metrics, failures, ops attempted)."""
    from layertrace import Tracer
    tracer = Tracer()
    failures = []
    _, failure = _run_op(wl, golden, 0)
    if failure:
        failures.append((wl.key(0), "warm-up: " + failure))
    spent = {False: 0.0, True: 0.0}
    for i in range(wl.trace_ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, failure = _run_op(wl, golden, i,
                                       tracer if traced else None)
            spent[traced] += elapsed
            if failure:
                failures.append(
                    (wl.key(i), ("traced: " if traced else "") + failure))
    metrics = tracer.metrics()
    metrics["trace.ops"] = (wl.trace_ops, "count")
    metrics["trace.untraced_s"] = (spent[False], "s")
    metrics["trace.traced_s"] = (spent[True], "s")
    metrics["trace.overhead_ratio"] = (spent[True] / spent[False], "ratio")
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(workloads.OUT_DIR,
                             f"spans-{name}-seed{seed}.jsonl"))
    return metrics, failures, 1 + 2 * wl.trace_ops


def run_one(args):
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=workloads.OUT_DIR)
    try:
        wl, golden, setup = _setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup))
            return 0
        if args.trace:
            metrics, failures, attempted = run_traced(
                wl, golden, args.workload, args.seed)
            notes = []
        else:
            metrics, notes, failures, attempted = run_untraced(
                wl, golden, args.seconds, setup,
                lambda: _probe_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    for line in notes:
        print(f"{args.workload} {line}")
    for key, failure in failures[:5]:
        print(f"{args.workload} FAILED op {key}: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process; print every metric by name."""
    with open(os.path.join(workloads.HERE, "design.json")) as handle:
        design = json.load(handle)
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}\n{done.stderr}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name} correct = {result['correct']} "
              f"({result['failed']} of {result['attempted']} ops failed)")
        status |= not result["correct"]
    for item in design["excluded"]:
        print(f"not run: {item['what']}: {item['why']}")
    return status


def main(argv=None):
    args = _parse(argv)
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
