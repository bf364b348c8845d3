"""HTTP surface: endpoints, status codes, client, graceful shutdown."""

import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    PlannerClient,
    PlannerServer,
    PlannerService,
    PlanRequest,
    ServiceError,
)
from repro.service.server import MAX_BODY_BYTES

REQ = PlanRequest(model="clip_base", mesh_nodes=2, mesh_gpus=8,
                  batch_tokens=8192)


@pytest.fixture
def server(tmp_path):
    srv = PlannerServer(
        PlannerService(tmp_path, workers=None), port=0
    ).start_background()
    yield srv
    srv.shutdown()


def test_plan_roundtrip_and_cache_hit(server):
    client = PlannerClient(server.url)
    assert client.health()
    a = client.plan(REQ)
    b = client.plan(REQ)
    assert a["source"] == "search" and not a["cached"]
    assert b["source"] == "memory" and b["cached"]
    assert a["key"] == b["key"] == a["envelope"]["key"]
    # the full envelope crosses the wire bit-identically
    assert a["envelope"] == b["envelope"]
    assert a["engine"] == "columnar"
    assert a["cost"] > 0 and "search_seconds" in a["timings"]


def test_stats_endpoint(server):
    client = PlannerClient(server.url)
    client.plan(REQ)
    stats = client.stats()
    assert stats["counters"]["requests"] == 1
    assert stats["cache"]["disk_entries"] == 1


def test_bad_requests_get_400(server):
    client = PlannerClient(server.url)
    with pytest.raises(ServiceError, match="400"):
        client._call("/plan", {"model": "no_such_preset"})
    with pytest.raises(ServiceError, match="400"):
        client._call("/plan", {"model": "clip_base", "bogus": 1})
    with pytest.raises(ServiceError, match="404"):
        client._call("/nope")
    # malformed JSON body
    url = f"{server.url}/plan"
    req = urllib.request.Request(
        url, data=b"{not json", headers={"Content-Type": "application/json"}
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    assert err.value.code == 400


def _raw_post(server, content_length):
    """Send a keep-alive POST /plan header with no body; return the reply
    bytes up to the server closing the connection (or the timeout)."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(
            f"POST /plan HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        reply = b""
        while True:
            chunk = sock.recv(4096)  # socket.timeout fails the test
            if not chunk:
                return reply
            reply += chunk


@pytest.mark.parametrize("content_length,status", [
    ("-1", 400),
    ("twelve", 400),
    (str(MAX_BODY_BYTES + 1), 413),
])
def test_unframeable_body_is_refused_unread(server, content_length, status):
    reply = _raw_post(server, content_length)
    assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:80]
    assert b"Connection: close" in reply
    # the handler thread is free again: the service still answers
    assert PlannerClient(server.url).health()


@pytest.mark.parametrize("field,value,named", [
    ("jobs", 2, "jobs"),
    ("engine", "engine", "'engine'"),
    ("engine", "reference", "'engine'"),
])
def test_retired_knobs_get_400(server, field, value, named):
    client = PlannerClient(server.url)
    for path in ("/plan", "/simulate"):
        with pytest.raises(ServiceError, match="400") as err:
            client._call(path, {"model": "clip_base", field: value})
        assert named in str(err.value)


def test_remote_shutdown_stops_server(tmp_path):
    server = PlannerServer(
        PlannerService(tmp_path, workers=None), port=0
    ).start_background()
    client = PlannerClient(server.url)
    assert client.health()
    client.shutdown()
    for _ in range(100):
        if not client.health(timeout=1):
            break
        time.sleep(0.05)
    assert not client.health(timeout=1)
