"""Helpers shared by the ``bench_*.py`` scripts in this directory."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(doc, argv=None):
    """The ``--src`` and ``--label`` every script takes, with the first
    paragraph of its docstring as the description.  ``--src`` goes first on
    ``sys.path``, so ``nonarch`` is imported from that tree."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    return args


def env(repeat, **extra):
    """The machine and timing settings recorded with every label."""
    return {"python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "repeat": repeat, "clock": "perf_counter", **extra}


def record(path, label, entry):
    """Store ``entry`` under ``label`` in the JSON file at ``path``, next to
    the labels already there; returns every label's entry."""
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data[label] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return data


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
