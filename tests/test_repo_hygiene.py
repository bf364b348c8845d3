"""Repository hygiene: no committed bytecode, ignore rules present.

Bytecode files were committed once and caused confusing stale-module
behaviour; this test (and the matching CI step) keeps them out for good.
"""

import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent


def _tracked_files():
    proc = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    if proc.returncode != 0:  # not a git checkout (e.g. sdist) — nothing to check
        return None
    return proc.stdout.splitlines()


def test_no_committed_bytecode():
    tracked = _tracked_files()
    if tracked is None:
        return
    offenders = [
        f for f in tracked if "__pycache__" in f or f.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, f"bytecode committed to git: {offenders}"


def test_gitignore_covers_bytecode():
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.is_file(), ".gitignore is missing"
    rules = gitignore.read_text().splitlines()
    assert "__pycache__/" in rules
    assert "*.pyc" in rules


def test_bench_output_dir_is_ignored():
    # benches write every table and BENCH_*.json under benchmarks/out/,
    # so a test run never dirties the tree
    if _tracked_files() is None:
        return
    proc = subprocess.run(
        ["git", "check-ignore", "-q", "benchmarks/out/x"],
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, "benchmarks/out/ is not gitignored"
