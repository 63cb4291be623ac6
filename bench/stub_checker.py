"""Line-JSON grammar checker stub with a fixed service time.

Speaks gecmetric's external checker protocol: one request per line,
``{"id": <int>, "tokens": [...]}``, answered by one response per line,
``{"id": <int>, "errors": [{"start": i, "end": j, "category": c}]}``.
Each request is served after ``SERVICE_S`` (2 ms, a stand-in for a real
checker's per-request latency), one at a time in arrival order. The
verdict is deterministic: every token of twelve or more characters is
flagged as ``LONG``.

Run: ``python3 bench/stub_checker.py``
"""

from __future__ import annotations

import json
import sys
import time

LONG_TOKEN = 12
SERVICE_S = 0.002


def respond(request: dict) -> dict:
    tokens = request["tokens"]
    errors = [
        {"start": i, "end": i + 1, "category": "LONG"}
        for i, token in enumerate(tokens)
        if len(token) >= LONG_TOKEN
    ]
    return {"id": request["id"], "errors": errors}


def serve(stdin, stdout) -> None:
    for line in stdin:
        if not line.strip():
            continue
        reply = respond(json.loads(line))
        time.sleep(SERVICE_S)
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


def main() -> int:
    serve(sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
