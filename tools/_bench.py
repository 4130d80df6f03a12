"""Helpers shared by the ``bench_*.py`` scripts in this directory."""

from __future__ import annotations

import hashlib
import json
import time


def best_of(fn, repeat):
    """(least wall time over ``repeat`` calls of fn, fn's last result)."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def report_digest(payload):
    """sha256 of a CLI report without its ``wall_time_ms`` field."""
    payload = dict(payload)
    payload.pop("wall_time_ms", None)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()
