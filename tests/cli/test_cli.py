"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

#: a saved plan naming a node that no zoo graph has
UNKNOWN_NODE_PLAN = {
    "kind": "repro.sharding_plan", "schema": 1, "tp_degree": 8,
    "assignment": {"no_such_node": "megatron_col"},
}

#: documents that are not a readable plan at all
MALFORMED_PLANS = {
    "invalid-json": "{not json",
    "wrong-kind": json.dumps({**UNKNOWN_NODE_PLAN, "kind": "repro.other"}),
    "bad-schema": json.dumps({**UNKNOWN_NODE_PLAN, "schema": 99}),
}


class TestModels:
    def test_lists_presets(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "t5_large" in out and "resnet50" in out


class TestInspect:
    def test_shows_families(self, capsys):
        assert main(["inspect", "bert_large"]) == 0
        out = capsys.readouterr().out
        assert "24 instances" in out
        assert "search space" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["inspect", "not_a_model"])


class TestPlan:
    def test_plan_small_mesh(self, capsys):
        assert main(["plan", "clip_base", "--mesh", "1x4",
                     "--batch-tokens", "1024"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out and "legend:" in out

    def test_plan_saves_json(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        assert main(["plan", "clip_base", "--mesh", "1x4",
                     "--batch-tokens", "1024", "-o", str(path)]) == 0
        assert path.exists()
        assert "sharding_plan" in path.read_text()

    def test_bad_mesh(self):
        with pytest.raises(SystemExit, match="mesh"):
            main(["plan", "clip_base", "--mesh", "banana"])


class TestEngineFlags:
    """One fast path and one oracle: ``--engine {columnar,reference}``."""

    PLAN = ["plan", "clip_base", "--mesh", "1x4", "--batch-tokens", "1024"]
    SIM = ["simulate", "bert_large", "--plan", "dp", "--mesh", "1x2"]

    @pytest.mark.parametrize("argv", [
        ["--jobs", "2"],
        ["--no-engine"],
        ["--engine", "engine"],
        ["--no-verify"],
    ])
    def test_plan_rejects_retired_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.PLAN + argv)
        assert err.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--reference"],
        ["--engine", "replay"],
        ["--no-verify"],
    ])
    def test_simulate_rejects_retired_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.SIM + argv)
        assert err.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_plan_oracle_prints_same_plan_and_cost(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["plan", "--help"])
        assert "{columnar,reference}" in capsys.readouterr().out
        lines = {}
        for tier in ("columnar", "reference"):
            path = tmp_path / f"{tier}.json"
            assert main(self.PLAN + ["--engine", tier, "-o", str(path)]) == 0
            out = capsys.readouterr().out
            lines[tier] = [
                line for line in out.splitlines()
                if line.startswith(("best:", "cost:"))
            ]
        assert len(lines["columnar"]) == 2
        assert lines["columnar"] == lines["reference"]
        assert (tmp_path / "columnar.json").read_bytes() == \
            (tmp_path / "reference.json").read_bytes()

    def test_simulate_defaults_to_columnar(self, capsys):
        assert main(self.SIM) == 0
        default = capsys.readouterr().out
        assert "[columnar tier]" in default
        assert main(self.SIM + ["--engine", "reference"]) == 0
        oracle = capsys.readouterr().out
        assert oracle.replace("[reference tier]", "[columnar tier]") == default


class TestSimulate:
    def test_named_plan(self, capsys):
        assert main(["simulate", "bert_large", "--plan", "ffn_only",
                     "--mesh", "1x8"]) == 0
        out = capsys.readouterr().out
        assert "step (ms)" in out and "memory (GB)" in out

    def test_saved_plan_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        assert main(["plan", "clip_base", "--mesh", "1x4",
                     "--batch-tokens", "1024", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["simulate", "clip_base", "--plan", str(path),
                     "--mesh", "1x4"]) == 0
        out = capsys.readouterr().out
        assert "clip_base" in out

    def test_dp_plan(self, capsys):
        assert main(["simulate", "bert_large", "--plan", "dp",
                     "--mesh", "1x2"]) == 0


class TestVerify:
    def test_verify_named_plan(self, capsys):
        assert main(["verify", "plan", "bert_large", "--plan", "megatron",
                     "--mesh", "1x8"]) == 0
        out = capsys.readouterr().out
        assert "verification" in out and "ok" in out

    def test_verify_saved_plan(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        assert main(["plan", "clip_base", "--mesh", "1x4",
                     "--batch-tokens", "1024", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "plan", "clip_base", "--plan", str(path),
                     "--mesh", "1x4"]) == 0

    def test_verify_lint_clean_tree(self, capsys):
        assert main(["verify", "lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_verify_lint_flags_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("for x in {1, 2}:\n    print(x)\n")
        assert main(["verify", "lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "lint/set-order" in out

    def test_plan_prints_verification(self, capsys):
        assert main(["plan", "clip_base", "--mesh", "1x4",
                     "--batch-tokens", "1024"]) == 0
        assert "verification" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["simulate"], ["verify", "plan"]],
                         ids=["simulate", "verify-plan"])
class TestSavedPlanFindings:
    """A saved plan is parsed structure-only and the verifier reports its
    findings (exit 1); a document that is not a plan exits with one line."""

    def run(self, command, tmp_path, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        return main(command + ["clip_base", "--plan", str(path),
                               "--mesh", "2x8"])

    def test_unknown_node_reported(self, command, capsys, tmp_path):
        assert self.run(command, tmp_path,
                        json.dumps(UNKNOWN_NODE_PLAN)) == 1
        out = capsys.readouterr().out
        assert "error[plan/unknown-node]" in out and "no_such_node" in out
        assert "step (ms)" not in out

    def test_routing_rejection_reported(self, command, capsys, tmp_path):
        doc = {**UNKNOWN_NODE_PLAN,
               "assignment": {"clip_base/text/embed": "bogus_pattern"}}
        assert self.run(command, tmp_path, json.dumps(doc)) == 1
        out = capsys.readouterr().out
        assert "routing rejects it" in out
        assert "error[plan/unknown-pattern]" in out

    @pytest.mark.parametrize("text", MALFORMED_PLANS.values(),
                             ids=MALFORMED_PLANS.keys())
    def test_malformed_document_one_line_error(self, command, text,
                                               tmp_path):
        with pytest.raises(SystemExit) as err:
            self.run(command, tmp_path, text)
        message = err.value.code
        assert isinstance(message, str) and "\n" not in message
        assert str(tmp_path / "plan.json") in message
