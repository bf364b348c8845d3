"""Fingerprint stability: the cache-key contract.

A persistent plan cache is only sound if the key is a pure function of
the request's *value*: the same graph built twice — in this process, in
a subprocess, under a different ``PYTHONHASHSEED`` — must produce
byte-identical keys, and any config change must surface in the key.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import Mesh, paper_testbed
from repro.core import (
    CostConfig,
    KEY_SCHEMA_VERSION,
    coarsen,
    config_fingerprint,
    graph_fingerprint,
    mesh_fingerprint,
    plan_cache_key,
)
from repro.graph import trim_auxiliary
from repro.models import build_preset
from repro.service import (
    PlanRequest,
    SimulateRequest,
    request_fingerprints,
    request_key,
    simulate_request_key,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _nodes(preset):
    trimmed, _ = trim_auxiliary(build_preset(preset))
    return coarsen(trimmed)


def test_same_graph_built_twice_is_byte_identical():
    a = graph_fingerprint(_nodes("clip_base"))
    b = graph_fingerprint(_nodes("clip_base"))
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")


def test_different_presets_differ():
    assert graph_fingerprint(_nodes("clip_base")) != \
        graph_fingerprint(_nodes("bert_large"))


def test_key_is_versioned_and_filename_safe():
    key = plan_cache_key(_nodes("clip_base"), paper_testbed(2, 8))
    assert key.startswith(f"v{KEY_SCHEMA_VERSION}-g")
    assert "/" not in key and " " not in key
    version, g, m, c = key.split("-")
    assert (g[0], m[0], c[0]) == ("g", "m", "c")
    assert len(g) == len(m) == len(c) == 17


SUBPROCESS_PROG = """
import sys
sys.path.insert(0, {src!r})
from repro.cluster import paper_testbed
from repro.core import coarsen, graph_fingerprint, plan_cache_key
from repro.graph import trim_auxiliary
from repro.models import build_preset

trimmed, _ = trim_auxiliary(build_preset("clip_base"))
ng = coarsen(trimmed)
print(graph_fingerprint(ng))
print(plan_cache_key(ng, paper_testbed(2, 8)))
"""


@pytest.mark.parametrize("hashseed", ["1", "2"])
def test_fingerprint_stable_across_processes_and_hashseeds(hashseed):
    """The digest must not depend on hash(), id() or set iteration."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_PROG.format(src=SRC)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    sub_graph_fp, sub_key = out.stdout.split()
    ng = _nodes("clip_base")
    assert sub_graph_fp == graph_fingerprint(ng)
    assert sub_key == plan_cache_key(ng, paper_testbed(2, 8))


def test_mesh_fingerprint_covers_interconnects():
    paper = paper_testbed(2, 8)
    default = Mesh(2, 8)
    # same shape, different fabric — must not collide
    assert mesh_fingerprint(paper) != mesh_fingerprint(default)
    assert mesh_fingerprint(paper) == mesh_fingerprint(paper_testbed(2, 8))


def test_config_change_lands_only_in_config_segment():
    ng = _nodes("clip_base")
    mesh = paper_testbed(2, 8)
    base = plan_cache_key(ng, mesh, CostConfig(batch_tokens=8192))
    changed = plan_cache_key(ng, mesh, CostConfig(batch_tokens=4096))
    bv, bg, bm, bc = base.split("-")
    cv, cg, cm, cc = changed.split("-")
    assert (bv, bg, bm) == (cv, cg, cm)
    assert bc != cc


@pytest.mark.parametrize("kwargs", [
    {"min_duplicate": 3},
    {"tp_degrees": (1, 8)},
    {"use_pruning": False},
    {"max_plans_per_block": 10},
])
def test_every_search_knob_reaches_the_key(kwargs):
    base = config_fingerprint(CostConfig())
    assert config_fingerprint(CostConfig(), **kwargs) != base


def test_unequal_configs_never_collide_on_key_prefix():
    """The g/m prefixes are shared; only the c segment may differ —
    so two different configs always yield two different keys."""
    ng = _nodes("clip_base")
    mesh = paper_testbed(2, 8)
    keys = {
        plan_cache_key(ng, mesh, CostConfig(batch_tokens=bt),
                       min_duplicate=md)
        for bt in (1024, 8192) for md in (2, 3)
    }
    assert len(keys) == 4
    assert len({k.rsplit("-", 1)[0] for k in keys}) == 1  # g/m shared


def test_request_key_matches_library_key():
    """The service's request-derived key equals the core API's key for
    the equivalent graph/mesh/config triple."""
    request = PlanRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                          batch_tokens=8192)
    key, fps = request_key(request)
    ng = _nodes("clip_base")
    assert key == plan_cache_key(
        ng, paper_testbed(2, 8), CostConfig(batch_tokens=8192)
    )
    assert fps["graph"] == graph_fingerprint(ng)
    assert sorted(fps) == ["config", "graph", "mesh"]


#: Keys computed before the request types lost their evaluation-tier
#: field; a refactor of the request layer must not move any of them.
PINNED_KEYS = [
    (PlanRequest(model="clip_base"),
     "v1-g898036d10608efae-m3e1458d89063fe96-c3dd67cd150cf41e1"),
    (PlanRequest(model="t5_large", batch_tokens=4096, zero_stage=1),
     "v1-g994928051ed37e08-m3e1458d89063fe96-c23097389e330c624"),
    (SimulateRequest(model="clip_base"),
     "sim-v1-g898036d10608efae-m3e1458d89063fe96-c3dd67cd150cf41e1"
     "-p862a49d705e1f157"),
    (SimulateRequest(model="clip_base", plans=("dp", "tap"), tp_degree=4,
                     mesh_nodes=4, mesh_gpus=4),
     "sim-v1-g898036d10608efae-mfd99c37585197320-c3dd67cd150cf41e1"
     "-p59493ef34fddac10"),
]


@pytest.mark.parametrize("request_,key", PINNED_KEYS,
                         ids=["plan", "plan-zero", "sim", "sim-plans"])
def test_request_keys_are_pinned(request_, key):
    if isinstance(request_, SimulateRequest):
        assert simulate_request_key(request_)[0] == key
    else:
        assert request_key(request_)[0] == key


@pytest.mark.parametrize("cls", [PlanRequest, SimulateRequest])
def test_request_docs_carry_no_retired_knobs(cls):
    doc = cls(model="clip_base", batch_tokens=8192).to_doc()
    assert "jobs" not in doc and "engine" not in doc


@pytest.mark.parametrize("field,value,named", [
    ("jobs", 2, "jobs"),
    ("engine", "engine", "'engine'"),
    ("engine", "reference", "'engine'"),
])
def test_from_doc_rejects_retired_knobs(field, value, named):
    """Docs from clients that still send ``jobs`` or an evaluation tier
    fail loudly, naming the offending field, whatever its value."""
    for cls in (PlanRequest, SimulateRequest):
        with pytest.raises(ValueError, match=named):
            cls.from_doc({"model": "clip_base", field: value})
        with pytest.raises(TypeError):
            cls(model="clip_base", **{field: value})


def test_request_doc_roundtrip():
    request = PlanRequest(model="bert_large", tp_degrees=(1, 8),
                          batch_tokens=4096)
    doc = json.loads(json.dumps(request.to_doc()))
    assert PlanRequest.from_doc(doc) == request
    with pytest.raises(ValueError):
        PlanRequest.from_doc({"model": "x", "bogus_field": 1})
    with pytest.raises(ValueError):
        PlanRequest.from_doc({})
