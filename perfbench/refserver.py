"""The reference HTTP server: fixed work of the same kind as a hit on
``/v1/run``, in the benchmark's own code (standard library only).

    python3 perfbench/refserver.py      # prints its port, then serves

A stdlib ``ThreadingHTTPServer`` on an ephemeral port, HTTP/1.1
keep-alive with ``TCP_NODELAY`` like the service: each POST parses its
JSON body, hashes its canonical form into a key, looks the key up in a
dict and answers a ~400-byte JSON document.  The serve workloads time
it between their blocks, on the same CPU and connection pattern as the
program's server, as the measure of the host's speed for HTTP work
(see ``harness.RefServer``).  Nothing in it changes with the program.
"""

from __future__ import annotations

import hashlib
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_RESULTS: dict[str, dict] = {}


def _result(key: str) -> dict:
    return {
        "time": 1234.5,
        "counters": {"words_touched": 4096, "words_moved": 2048,
                     "supersteps": 12, "messages": 640},
        "slowdown": 2.25,
        "f": "x^0.5",
        "v": 64,
        "seed": key[:8],
        "trace": [],
    }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        key = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        result = _RESULTS.get(key)
        if result is None:
            result = _RESULTS[key] = _result(key)
        data = json.dumps({"key": key, "served": "cached", "result": result}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args) -> None:
        pass


if __name__ == "__main__":
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    server.serve_forever()
