"""Tests for auxiliary-op trimming and restoration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, OpType, TensorSpec, attach_auxiliary, trim_auxiliary


def graph_with_aux():
    g = Graph("aux")
    g.add_operator("x", OpType.INPUT, output=TensorSpec((-1, 4)))
    g.add_operator("w_init", OpType.VARIABLE_INIT)
    g.add_operator(
        "dense/matmul",
        OpType.MATMUL,
        inputs=("x",),
        output=TensorSpec((-1, 4)),
        weight=TensorSpec((4, 4)),
    )
    # identity that forwards the matmul into the loss
    g.add_operator("fwd", OpType.IDENTITY_AUX, inputs=("dense/matmul",))
    g.add_operator("loss", OpType.CROSS_ENTROPY, inputs=("fwd",), output=TensorSpec((1,)))
    g.add_operator("saver", OpType.SAVE, inputs=("dense/matmul",))
    g.add_operator("summary", OpType.SUMMARY, inputs=("loss",))
    return g


def restored_copy(graph, record):
    """Re-attach the trimmed auxiliary ops to a copy of *graph*."""
    restored = graph.subgraph([op.name for op in graph], name=graph.name)
    attach_auxiliary(restored, record)
    return restored


class TestTrim:
    def test_aux_removed(self):
        trimmed, record = trim_auxiliary(graph_with_aux())
        kinds = {op.op_type for op in trimmed}
        assert OpType.VARIABLE_INIT not in kinds
        assert OpType.SAVE not in kinds
        assert record.num_removed == 4

    def test_edges_contracted_through_identity(self):
        trimmed, _ = trim_auxiliary(graph_with_aux())
        assert trimmed.op("loss").inputs == ("dense/matmul",)

    def test_compute_preserved(self):
        g = graph_with_aux()
        trimmed, _ = trim_auxiliary(g)
        compute_before = {op.name for op in g if op.is_compute}
        assert {op.name for op in trimmed} == compute_before

    def test_trimmed_graph_valid(self):
        trimmed, _ = trim_auxiliary(graph_with_aux())
        trimmed.validate()

    def test_chained_aux_contraction(self):
        g = Graph()
        g.add_operator("x", OpType.INPUT)
        g.add_operator("a1", OpType.IDENTITY_AUX, inputs=("x",))
        g.add_operator("a2", OpType.IDENTITY_AUX, inputs=("a1",))
        g.add_operator("y", OpType.RELU, inputs=("a2",))
        trimmed, _ = trim_auxiliary(g)
        assert trimmed.op("y").inputs == ("x",)

    def test_trim_idempotent(self):
        trimmed, _ = trim_auxiliary(graph_with_aux())
        again, record2 = trim_auxiliary(trimmed)
        assert record2.num_removed == 0
        assert len(again) == len(trimmed)


class TestRestore:
    def test_restore_brings_back_aux(self):
        g = graph_with_aux()
        trimmed, record = trim_auxiliary(g)
        restored = restored_copy(trimmed, record)
        assert {op.name for op in restored} == {op.name for op in g}
        restored.validate()

    def test_restore_tolerates_missing_producers(self):
        g = graph_with_aux()
        trimmed, record = trim_auxiliary(g)
        # simulate a rewrite that renamed the matmul
        sub = trimmed.subgraph(["x", "loss"])
        restored = restored_copy(sub, record)
        restored.validate()
        assert "saver" in restored
        assert restored.op("saver").inputs == ()  # dangling edge dropped


@st.composite
def graphs_with_random_aux(draw):
    g = Graph()
    g.add_operator("in", OpType.INPUT)
    prev = "in"
    for i in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            g.add_operator(f"aux_{i}", OpType.IDENTITY_AUX, inputs=(prev,))
            prev = f"aux_{i}"
        g.add_operator(f"op_{i}", OpType.RELU, inputs=(prev,))
        prev = f"op_{i}"
    return g


@given(graphs_with_random_aux())
@settings(max_examples=40)
def test_trim_never_removes_compute(g):
    trimmed, record = trim_auxiliary(g)
    assert {op.name for op in trimmed} == {op.name for op in g if op.is_compute}
    # every removed op really was auxiliary
    assert all(op.is_auxiliary for op in record.removed)
    trimmed.validate()


@given(graphs_with_random_aux())
@settings(max_examples=40)
def test_restore_roundtrip_names(g):
    trimmed, record = trim_auxiliary(g)
    restored = restored_copy(trimmed, record)
    assert {op.name for op in restored} == {op.name for op in g}
