"""With no tier named, every stage runs its fast path: columnar.

``derive_plan`` and ``simulate_iteration`` default to the columnar
tier, and the planner service always runs it; the reference loops run
only when asked for by name.  The tier is read back from the ``engine`` attribute of the
``enumerate``/``simulate`` spans and from the service's cache envelope.
"""

from repro import obs
from repro.cluster import Mesh
from repro.core import CostConfig, coarsen, derive_plan
from repro.graph import trim_auxiliary
from repro.models import build_preset
from repro.service import PlannerService, PlanRequest
from repro.simulator import simulate_iteration


def _span_engines(sink, name):
    return {rec.attrs.get("engine") for rec in sink.find(name)}


def test_library_defaults_run_columnar():
    trimmed, _ = trim_auxiliary(build_preset("clip_base"))
    ng = coarsen(trimmed)
    mesh = Mesh(1, 4)
    cfg = CostConfig(batch_tokens=1024)
    with obs.capture() as sink:
        result = derive_plan(ng, mesh, cost_config=cfg)
        simulate_iteration(result.routed, mesh, cfg)
    assert _span_engines(sink, "enumerate") == {"columnar"}
    assert _span_engines(sink, "simulate") == {"columnar"}


def test_service_miss_records_columnar(tmp_path):
    request = PlanRequest(model="clip_base", mesh_nodes=1, mesh_gpus=4,
                          batch_tokens=1024)
    with PlannerService(tmp_path, workers=None) as svc:
        response = svc.plan(request)
    assert response.source == "search"
    assert response.envelope.engine == "columnar"
