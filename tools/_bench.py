"""Helpers shared by the ``bench_*.py`` scripts in this directory."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)


def parser(doc):
    """A parser of the ``--src`` and ``--label`` every script takes, with
    the first paragraph of its docstring as the description."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--label", required=True)
    return ap


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


def alternating(rounds, sides):
    """Every side once in each of ``rounds`` rounds, the order of the sides
    reversed every other round (A B, B A, A B, ...), so that load drifting
    over a recording falls on every side alike."""
    for r in range(rounds):
        yield from (sides if r % 2 == 0 else sides[::-1])


def run(child, tree, *args):
    """The JSON that the one-line script ``child`` prints, run in a fresh
    process from the repository root with argv [TOOLS, tree, *args]."""
    done = subprocess.run([sys.executable, "-c", child, TOOLS, tree, *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"measuring {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(child, trees, rounds, *args):
    """{side: [the rows ``run`` gives on trees[side], one list per round]},
    the sides run in ``alternating`` order."""
    runs = {side: [] for side in trees}
    for side in alternating(rounds, tuple(trees)):
        runs[side].append(run(child, trees[side], *args))
    return runs


def over_rounds(rows, keys, name):
    """One request's row from every round on one side: the values of
    ``keys``, which must not change between rounds, with the round times
    (``request_ms``) and their median and quartiles."""
    kept = [{k: row[k] for k in keys} for row in rows]
    if any(k != kept[0] for k in kept):
        raise RuntimeError(f"{name}: {', '.join(keys)} changed between rounds")
    times = [row["request_ms"] for row in rows]
    q1, median, q3 = statistics.quantiles(times, n=4)
    return dict(kept[0], request_ms=times, median_ms=round(median, 4),
                q1_ms=round(q1, 4), q3_ms=round(q3, 4))


def report_digest(payload):
    """sha256 of a CLI report without its ``wall_time_ms`` field."""
    payload = dict(payload)
    payload.pop("wall_time_ms", None)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()
