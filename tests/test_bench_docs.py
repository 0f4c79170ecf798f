"""Bench documents: one format, one ``check``, and the load client under it.

Every checked-in ``BENCH_*.json`` must carry the unified header and pass
its own kind's rules; the plan bench (the one load-generator mode with
no other tier-1 coverage) must produce a document that passes them; and
the single-attempt client mode must count a raw, non-envelope error.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.bench import DOC_SCHEMA, RULES, check
from repro.service.loadgen import _Client, _closed, _collect, run_plan_bench

ROOT = Path(__file__).resolve().parent.parent
BASELINES = sorted(ROOT.glob("BENCH_*.json"))
HEADER = ("schema", "kind", "produced_by", "python", "platform",
          "cpu_count", "revision", "seed")


def test_every_checked_in_kind_is_known():
    kinds = {json.loads(p.read_text())["kind"] for p in BASELINES}
    assert len(BASELINES) == 5
    assert kinds <= set(RULES)


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_checked_in_baseline_passes_its_own_rules(path):
    doc = json.loads(path.read_text())
    assert list(doc)[: len(HEADER)] == list(HEADER)
    assert doc["schema"] == DOC_SCHEMA
    assert path.name == f"BENCH_{doc['kind']}.json"
    assert check(doc, doc) == []


def test_checked_in_baselines_come_from_one_pass():
    docs = [json.loads(p.read_text()) for p in BASELINES]
    for field in ("revision", "platform", "python", "cpu_count"):
        assert len({doc[field] for doc in docs}) == 1, field


def test_plan_bench_smoke_passes_its_rules():
    doc = run_plan_bench(smoke=True,
                         calibration=str(ROOT / "CALIBRATION.json"))
    assert doc["kind"] == "service_plan"
    assert doc["non_envelope_errors"] == 0
    assert "shed_429" in doc["phases"]["adversarial_costaware"]["bulk"]
    assert check(doc, doc) == []


class _RawErrors(BaseHTTPRequestHandler):
    """Answers every POST with a bare error status and a plain-text body
    (no ``{"error": ...}`` envelope), as a misbehaving proxy would."""

    status = 500

    def do_POST(self):  # noqa: N802 - the stdlib's handler name
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b"Internal Server Error"
        self.send_response(self.server.status)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status,errors,shed", [(500, 1, 0), (429, 0, 1)])
def test_single_attempt_client_counts_raw_errors(status, errors, shed):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RawErrors)
    server.status = status
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        client = _Client(url, _closed([[{"program": "sort"}]])[0], once=True)
        client.run()
    finally:
        server.shutdown()
        server.server_close()
    tally = _collect([client])
    assert tally["non_envelope_errors"] == 1
    assert tally["errors"] == errors
    assert tally["shed_429"] == shed
    assert tally["latency_samples"] == 0
