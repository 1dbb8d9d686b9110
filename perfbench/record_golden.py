"""Record golden digests: run every op once and write golden.json.

    python3 perfbench/record_golden.py [--commit REV]

Run this only on a commit whose outputs are trusted; the benchmark then
counts any op whose digest differs as failed.  Takes a few minutes.
"""

import argparse
import json
import os
import shutil
import tempfile

import workloads


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--commit", default="",
                   help="the commit the digests come from, for the record")
    args = p.parse_args()
    workloads.load_edgewise()
    digests = {}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workloads.OUT_DIR, prefix="golden-")
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, workdir)
            if name == "set-corpus-sweep":
                wl.order = list(range(workloads.CORPUS_POOL))
            ops = wl.ops or 1
            digests[name] = {}
            for i in range(ops):
                digest, problems = wl.check(i, wl.run(i))
                if problems:
                    raise SystemExit(f"{name} op {wl.key(i)}: {problems}")
                digests[name][wl.key(i)] = digest
            print(f"{name}: {ops} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w") as handle:
        json.dump({"commit": args.commit, "digests": digests}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
