"""Run every figure/table benchmark and refresh ``benchmarks/results/``.

One subprocess per benchmark file (their pytest sessions are independent
and some pin process-global caches), printing the per-benchmark runtime
and a final summary.  This is the one-command regeneration of every
artifact EXPERIMENTS.md cites:

    PYTHONPATH=src python benchmarks/run_all.py [-k pattern]

Benches write their tables and ``BENCH_*.json`` records to the gitignored
``benchmarks/out/``.  A bench file's tables are copied into
``benchmarks/results/`` only when every test in that file passed, so a
failing run never replaces a committed table with numbers its own asserts
rejected.

Exit status is non-zero if any benchmark fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RESULTS_DIR = BENCH_DIR / "results"


def discover() -> list:
    return sorted(BENCH_DIR.glob("test_*.py"))


def _stamps() -> dict:
    """``{table file name: mtime_ns}`` of every table under ``OUT_DIR``."""
    return {p.name: p.stat().st_mtime_ns for p in OUT_DIR.glob("*.txt")}


def publish(before: dict) -> list:
    """Copy the tables written since the *before* snapshot into
    ``RESULTS_DIR``; returns the copied file names."""
    fresh = sorted(name for name, stamp in _stamps().items()
                   if before.get(name) != stamp)
    RESULTS_DIR.mkdir(exist_ok=True)
    for name in fresh:
        shutil.copyfile(OUT_DIR / name, RESULTS_DIR / name)
    return fresh


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-k", default="", help="only run benchmark files whose name contains this"
    )
    args = parser.parse_args(argv)

    files = [f for f in discover() if args.k in f.name]
    if not files:
        print(f"no benchmark files match {args.k!r}")
        return 2

    env_path = f"{REPO_ROOT / 'src'}"
    results = []
    refreshed = []
    total0 = time.perf_counter()
    for f in files:
        before = _stamps()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f.name],
            cwd=BENCH_DIR,
            env={**os.environ, "PYTHONPATH": f"{env_path}:{BENCH_DIR}"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        dt = time.perf_counter() - t0
        ok = proc.returncode == 0
        results.append((f.name, dt, ok))
        print(f"{'ok  ' if ok else 'FAIL'}  {f.name:42s}  {dt:7.1f}s")
        if ok:
            refreshed += publish(before)
        else:
            print(proc.stdout)
    total = time.perf_counter() - total0

    print()
    width = max(len(name) for name, _, _ in results)
    print(f"{'benchmark':{width}s}  {'time':>8s}  status")
    print(f"{'-' * width}  {'-' * 8}  ------")
    for name, dt, ok in results:
        print(f"{name:{width}s}  {dt:7.1f}s  {'pass' if ok else 'FAIL'}")
    print(f"{'-' * width}  {'-' * 8}  ------")
    failed = [name for name, _, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} benchmarks passed "
          f"in {total:.1f}s; {len(refreshed)} table(s) refreshed under "
          f"benchmarks/results/")
    if failed:
        print("failed (results/ left as committed):", ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
