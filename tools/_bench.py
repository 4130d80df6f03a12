"""The harness of the ``bench_*.py`` scripts in this directory: ``compare``
runs a script's ``measure`` on the trees ``--base`` and ``--src`` in fresh
processes and alternating rounds, ``side_by_side`` folds the rounds into
one row per request, and ``record`` stores them under ``--label``, next to
the labels already there.  The rounds are paired, so ``src_faster_rounds``
reads against a rule such as "better in at least 9 of 10 pairs"."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
SIDES = ("base", "src")


def trees(doc, argv=None):
    """(label, {"base": tree, "src": tree}) from the ``--base``, ``--src``
    and ``--label`` every script takes, with the first paragraph of its
    docstring ``doc`` as the description."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the tree to compare --src against")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    return args.label, {"base": os.path.abspath(args.base), "src": os.path.abspath(args.src)}


def load(tree, *names):
    """The modules ``nonarch.<name>`` of each of ``names``, imported from
    ``tree``, which goes first on ``sys.path``; stops if ``nonarch`` comes
    from anywhere else."""
    sys.path.insert(0, tree)
    modules = [importlib.import_module(f"nonarch.{name}") for name in names]
    home = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["nonarch"].__file__)))
    if home != tree:
        raise SystemExit(f"nonarch imported from {home}, not {tree}")
    return modules


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


@contextlib.contextmanager
def patched(*patches):
    """Each ``(owner, name, make)`` of ``patches`` sets ``owner.name`` to
    ``make(old)``, old its value, for the duration of the block; a missing
    attribute raises AttributeError before anything is set."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for (owner, name, old), (*_, make) in zip(saved, patches):
            setattr(owner, name, make(old))
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)


def alternating(rounds, sides):
    """Every side once in each of ``rounds`` rounds, the order of the sides
    reversed every other round (A B, B A, A B, ...), so that load drifting
    over a recording falls on every side alike."""
    for r in range(rounds):
        yield from (sides if r % 2 == 0 else sides[::-1])


def compare(measure, trees, rounds, payload):
    """{side: [the rows ``measure(trees[side], payload)`` returns, one list
    per round]}.  Each call runs in a fresh process from the repository
    root, as the function of that name in the script ``measure`` comes
    from, with ``payload`` passed as JSON; the sides run in ``alternating``
    order, so round i of every side is a pair."""
    script = os.path.splitext(os.path.basename(measure.__code__.co_filename))[0]
    child = (f"import json, sys; sys.path.insert(0, sys.argv[1]); import {script}; "
             f"json.dump({script}.measure(sys.argv[2], json.loads(sys.argv[3])), sys.stdout)")
    runs = {side: [] for side in trees}
    for side in alternating(rounds, tuple(trees)):
        done = subprocess.run([sys.executable, "-c", child, TOOLS, trees[side],
                               json.dumps(payload)],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode:
            raise RuntimeError(f"measuring {trees[side]} failed:\n{done.stderr}")
        runs[side].append(json.loads(done.stdout))
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


def src_faster(base, src):
    """The number of rounds whose src time is below base's, the two lists
    of times paired by round."""
    return sum(s < b for b, s in zip(base, src))


def side_by_side(runs, heads, keys, same):
    """(rows, rounds) from ``compare``'s runs: row i is ``heads[i]`` with
    each side's ``over_rounds`` of request i under the side's name,
    ``same_<same>``, whether the sides' ``<same>_sha256`` agree, and
    ``src_faster_rounds``; rounds is ``src_faster`` of the rounds' total
    times."""
    rows = []
    for idx, head in enumerate(heads):
        row = dict(head)
        for side in SIDES:
            row[side] = over_rounds([r[idx] for r in runs[side]], keys, f"{head} on {side}")
        row[f"same_{same}"] = row["base"][f"{same}_sha256"] == row["src"][f"{same}_sha256"]
        row["src_faster_rounds"] = src_faster(*(row[side]["request_ms"] for side in SIDES))
        rows.append(row)
    return rows, src_faster(*([sum(r["request_ms"] for r in rnd) for rnd in runs[side]]
                              for side in SIDES))


def report_digest(payload):
    """sha256 of a CLI report without its ``wall_time_ms`` field."""
    payload = dict(payload)
    payload.pop("wall_time_ms", None)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()
