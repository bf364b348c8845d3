"""``benchmarks/run_all.py`` refreshes ``benchmarks/results/`` only on pass.

Benches write their tables to the gitignored ``benchmarks/out/`` before
their asserts run; the runner copies a bench file's tables into the
committed ``results/`` directory only when that file's pytest session
passed, and never claims a refresh it did not make.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def run_all(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_run_all", REPO_ROOT / "benchmarks" / "run_all.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(mod, "RESULTS_DIR", tmp_path / "results")
    return mod


def _fake_benches(mod, monkeypatch, outcomes):
    """Stand in for the pytest subprocesses: bench ``test_<name>.py``
    writes ``<name>.txt`` to the out dir, then exits with *outcomes[name]*."""
    monkeypatch.setattr(
        mod, "discover", lambda: [Path(f"test_{n}.py") for n in outcomes]
    )

    def fake_run(cmd, **kwargs):
        name = cmd[-1][len("test_"):-len(".py")]
        mod.OUT_DIR.mkdir(exist_ok=True)
        (mod.OUT_DIR / f"{name}.txt").write_text(f"fresh {name}\n")
        return subprocess.CompletedProcess(cmd, outcomes[name], stdout="")

    monkeypatch.setattr(mod.subprocess, "run", fake_run)


class TestCopyOnPass:
    def test_passing_bench_tables_are_copied(self, run_all, monkeypatch,
                                             capsys):
        _fake_benches(run_all, monkeypatch, {"good": 0})
        assert run_all.main([]) == 0
        assert (run_all.RESULTS_DIR / "good.txt").read_text() == "fresh good\n"
        assert "1 table(s) refreshed" in capsys.readouterr().out

    def test_failing_bench_leaves_results_untouched(self, run_all,
                                                    monkeypatch, capsys):
        run_all.RESULTS_DIR.mkdir()
        (run_all.RESULTS_DIR / "bad.txt").write_text("committed\n")
        _fake_benches(run_all, monkeypatch, {"good": 0, "bad": 1})
        assert run_all.main([]) == 1
        assert (run_all.RESULTS_DIR / "bad.txt").read_text() == "committed\n"
        assert (run_all.RESULTS_DIR / "good.txt").read_text() == "fresh good\n"
        out = capsys.readouterr().out
        assert "1/2 benchmarks passed" in out
        assert "1 table(s) refreshed" in out
        assert "failed (results/ left as committed): test_bad.py" in out

    def test_only_tables_written_by_the_bench_are_copied(self, run_all,
                                                         monkeypatch):
        # a stale table from an earlier session stays in out/ only
        run_all.OUT_DIR.mkdir()
        (run_all.OUT_DIR / "stale.txt").write_text("old\n")
        _fake_benches(run_all, monkeypatch, {"good": 0})
        assert run_all.main([]) == 0
        assert sorted(p.name for p in run_all.RESULTS_DIR.iterdir()) == \
            ["good.txt"]

    def test_no_match_exits_two(self, run_all):
        assert run_all.main(["-k", "no-such-bench"]) == 2
