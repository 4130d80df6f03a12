"""nonarch benchmark: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload theta-sweep --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --repeat 3 --out base.json
    python3 perfbench/run.py --compare base.json new.json

Each workload runs in its own single-threaded worker process (worker.py) as
a closed loop with one client.  Before it, SETUP_RUNS short processes only
set up, so that ``setup_s`` is a median.  After the worker has ended,
every job's output is checked by the independent oracle (oracle.py) and,
for the default seed, against the reports recorded at the seed code
(corpus/seed-1/expected.json).  A job fails on a wrong output, a wrong exit
code or an uncaught exception.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
job list untraced and then traced (tracer.py) and prints the per-layer
metrics with the tracing overhead.  Everything runs in one process and one
thread, so no layer waits on another and no wait-time metric is reported.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from worker import CAL_KERNEL, cal_ref_ms  # noqa: E402

RUN_LIMIT_S = 170
SETUP_RUNS = 4  # set-up-only processes before each untraced run
CAL_WINDOW = 4
GOLDEN = f"perfbench/corpus/seed-{workloads.DEFAULT_SEED}/expected.json"
NO_WAIT_NOTE = ("wait time: not applicable, every layer runs in one process "
                "and one thread, so no layer waits on another")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so trace counts repeat
    return env


def _worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "machine": platform.machine(),
            "commit": commit or "unknown"}


def _quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[int(q * 100) - 1]


def scaled_ms(records, ref_ms):
    """Job times scaled to the reference speed (worker.CAL_REF_MS) by
    the median calibration time of the job and its CAL_WINDOW neighbours on
    each side.  Raw times are kept in the result file."""
    cal = [r["cal_ms"] for r in records]
    return [r["ms"] * ref_ms /
            statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
            for i, r in enumerate(records)]


def _load_golden(seed):
    path = os.path.join(ROOT, GOLDEN)
    if seed != workloads.DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_records(jobs, records, golden):
    problems, failed = [], 0
    for rec in records:
        job = jobs[rec["i"]]
        msgs = oracle.check(job, rec, golden)
        failed += bool(msgs)
        problems += [f"{job['id']} ({job['label']}): {msg}" for msg in msgs]
    return failed, problems


def run_one(workload, seed, seconds, trace, setup_runs=SETUP_RUNS, once=False):
    """Set up ``setup_runs`` times, run the worker, check its outputs."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = [json.loads(_worker(base + ["--setup-only"], deadline).strip()
                         .splitlines()[-1]) for _ in range(0 if trace else setup_runs)]
    records_path = os.path.join(ROOT, ".perfbench", "records",
                                f"{workload}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(records_path), exist_ok=True)
    _worker(base + ["--records", records_path] + (["--once"] if once else []),
            deadline)
    with open(records_path, encoding="utf-8") as fh:
        res = json.load(fh)
    with open(os.path.join(ROOT, res["jobs_file"]), encoding="utf-8") as fh:
        jobs = json.load(fh)
    records = res["records"]
    checked = time.monotonic()
    failed, problems = check_records(jobs, records, _load_golden(seed))
    check_s = time.monotonic() - checked
    setups.append({"setup_s": res["setup_s"], "cal_ms": res["setup_cal_ms"]})
    run = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
           "attempted": len(records), "failed": failed,
           "fail_ratio": failed / len(records) if records else 1.0,
           "problems": problems[:20]}
    times = [r["ms"] for r in records]
    if trace:
        tr = res["trace"]
        same = [oracle.normalized(jobs[a["i"]], a) == oracle.normalized(jobs[b["i"]], b)
                for a, b in zip(res["untraced_records"], records) if a["out"] and b["out"]]
        if not all(same) or tr["wrapped_after_uninstall"]:
            run["problems"].append("traced outputs differ from untraced ones, "
                                   "or wrappers remained installed")
            run["failed"] += 1
        metrics = dict(tr["metrics"])
        metrics["cli.report_bytes"] = sum(
            len(oracle.normalized(jobs[r["i"]], r).encode()) for r in records
            if r["out"] and jobs[r["i"]]["kind"] == "cli")
        run["metrics"] = {k: {"value": v, "samples": len(records)}
                          for k, v in metrics.items()}
        run["layers"] = tr["layers"]
        run["overhead"] = {
            "untraced_job_s": tr["untraced_job_s"],
            "traced_job_s": tr["traced_job_s"],
            "overhead_s": tr["traced_job_s"] - tr["untraced_job_s"],
            "traced_virtual_s": tr["traced_virtual_s"],
            "residual_s": tr["traced_virtual_s"] - tr["untraced_job_s"],
            "spans": tr["spans"], "spans_file": tr["spans_file"]}
    else:
        if res["wrapped_callables"]:
            run["problems"].append("tracing wrappers found in an untraced run")
            run["failed"] += 1

        def e2e(ms, setup):
            return {
                "jobs_per_s": {"value": len(ms) / (sum(ms) / 1000), "samples": len(ms)},
                "job_ms_p50": {"value": statistics.median(ms), "samples": len(ms)},
                "job_ms_p90": {"value": _quantile(ms, 0.9), "samples": len(ms)},
                "setup_s": {"value": statistics.median(setup), "samples": len(setup)},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "samples": 1},
            }

        ref_ms = cal_ref_ms(CAL_KERNEL[workload])
        scaled = scaled_ms(records, ref_ms)
        run["metrics"] = e2e(scaled, [s["setup_s"] * ref_ms / s["cal_ms"] for s in setups])
        run["raw_metrics"] = e2e(times, [s["setup_s"] for s in setups])
        run["calibration_ms_median"] = statistics.median(r["cal_ms"] for r in records)
        run["wrapped_callables"] = res["wrapped_callables"]
        by_label = {}
        for r, ms in zip(records, scaled):
            by_label.setdefault(jobs[r["i"]]["label"], []).append(ms)
        run["label_ms_median"] = {k: statistics.median(v)
                                  for k, v in sorted(by_label.items())}
    run["setup_samples"] = setups
    run["check_s"] = check_s
    run["run_wall_s"] = time.monotonic() - (deadline - RUN_LIMIT_S)
    run["correct"] = run["failed"] == 0
    run["digests"] = {jobs[r["i"]]["id"]: oracle.golden_digest(jobs[r["i"]], r)
                      for r in records if r["out"] is not None}
    return run


def print_run(run, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {run['workload']} seed={run['seed']} trace={run['trace']} "
          f"jobs={run['attempted']} failed={run['failed']}")
    raw = run.get("raw_metrics", {})
    for name, m in run["metrics"].items():
        note = f"  raw {raw[name]['value']:.6g}" if name in raw else ""
        print(f"  {name:34s} {m['value']:>16.6g} {units.get(name, ''):8s} "
              f"(n={m['samples']}){note}")
    print(f"  {'fail_ratio':34s} {run['fail_ratio']:>16.6g} {'ratio':8s} "
          f"(n={run['attempted']})")
    if run["trace"]:
        o = run["overhead"]
        print(f"  tracing overhead: {o['overhead_s']:.3f} s over {o['untraced_job_s']:.3f} s "
              f"untraced ({o['spans']} spans, residual after clock "
              f"correction {o['residual_s']:.3f} s)")
    else:
        print(f"  tracing wrappers installed in this run: {run['wrapped_callables']}")
    print(f"  {NO_WAIT_NOTE}")
    for p in run["problems"]:
        print(f"  FAIL {p}")


def summary_line(runs, spec):
    trace = runs[0]["trace"]
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    workloads_seen = sorted({r["workload"] for r in runs})
    for w in workloads_seen:
        mine = [r for r in runs if r["workload"] == w]
        for name in names:
            value = statistics.median(r["metrics"][name]["value"] for r in mine)
            key = name if len(workloads_seen) == 1 else f"{w}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def compare(base_path, new_path, spec):
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def values(result, w, name):
        return [r["metrics"][name]["value"] for r in result["runs"]
                if r["workload"] == w and name in r["metrics"]]

    def stats(v):
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        return statistics.median(v), q[0], q[2]

    print(f"base {base_path}: commit {base['env']['commit']}; "
          f"new {new_path}: commit {new['env']['commit']}")
    print(f"{'workload':12s} {'metric':32s} {'base med [q1, q3]':>30s} "
          f"{'new med [q1, q3]':>30s} {'new/base':>9s}  verdict")
    for w in workloads.WORKLOADS:
        for name, m in metrics.items():
            b, n = values(base, w, name), values(new, w, name)
            if not b or not n:
                continue
            (bm, b1, b3), (nm, n1, n3) = stats(b), stats(n)
            ratio = nm / bm if bm else float("nan")
            verdict = "-"
            if "bound" in m:
                spread = max((b3 - b1) / bm if bm else 0, (n3 - n1) / nm if nm else 0)
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                if spread > m["bound"]:
                    verdict = f"unresolved (spread {spread:.3f} > bound {m['bound']})"
                elif worse > m["bound"]:
                    verdict = f"worse by {worse:.3f} > bound {m['bound']}"
                elif worse < -m["bound"]:
                    verdict = f"better by {-worse:.3f}"
                else:
                    verdict = "within bound"
            print(f"{w:12s} {name:32s} {bm:>12.6g} [{b1:.4g}, {b3:.4g}]".ljust(76)
                  + f" {nm:>12.6g} [{n1:.4g}, {n3:.4g}]".ljust(31)
                  + f" {ratio:>9.4f}  {verdict}")


def record_golden(seconds):
    """Record digests of every default-seed job's output at this commit."""
    golden = {}
    for w in workloads.WORKLOADS:
        run = run_one(w, workloads.DEFAULT_SEED, seconds, 0, setup_runs=0, once=True)
        if not run["correct"]:
            raise BenchError(f"{w}: outputs fail the oracle: {run['problems'][:3]}")
        golden.update(run["digests"])
    path = os.path.join(ROOT, GOLDEN)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"recorded {len(golden)} digests in {GOLDEN}")


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--out", help="result file (default .perfbench/results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--record-golden", action="store_true",
                    help="record the default seed's outputs as expected reports")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare, spec)
        return 0
    try:
        if args.record_golden:
            record_golden(args.seconds)
            return 0
        names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
        runs = []
        for rep in range(args.repeat):
            for w in names:
                run = run_one(w, args.seed + rep, args.seconds, args.trace)
                print_run(run, spec)
                runs.append(run)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    out = args.out or os.path.join(
        ROOT, ".perfbench", "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    env = dict(environment(), seed=args.seed)
    for run in runs:
        run.pop("digests")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "runs": runs}, fh, indent=1)
    print(f"env: python {env['python']}, nproc {env['nproc']}, {env['platform']}, "
          f"commit {env['commit']}, seed {env['seed']}; results in "
          f"{os.path.relpath(out, ROOT)}")
    print(json.dumps(summary_line(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
