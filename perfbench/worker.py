"""One workload in one single-threaded process: set up, then a closed loop.

Set-up (``setup_s``) covers importing nonarch from ``src/``, generating the
seeded inputs, and a warm-up of one small job of every kind.  The loop is a
closed loop with one client: the next job is issued only after the previous
one returned.  Job timings cover the call into nonarch and nothing else;
outputs are written to the record file and checked by ``run.py`` after this
process has ended.

Untraced runs issue whole cycles of jobs until ``--seconds`` of job time
have passed.  Before every job, and on both sides of set-up, the worker
times a fixed calibration loop (``calibrate``); ``run.py`` uses these times
to scale job and set-up times to a reference machine speed.  Traced runs
issue a fixed number of cycles twice, first untraced and then with the
tracer installed, so that trace counts repeat exactly for a seed and the
tracing overhead is measured on the same jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Calibration time (ms) that defines the reference speed, per kernel: about
# its time in the fast phases of a 2-core x86-64 container, Python 3.11.7.
# Job and set-up times are scaled by the summed references of a workload's
# kernels over their measured time around the job: that machine runs in fast
# and slow phases up to 2x apart, and the scaling cancels most of it (10-s
# medians of one job: 56% apart raw, 3-10% scaled).  A slow phase slows
# interpreted code more than the C loops of big-integer arithmetic; the
# kernels of each workload are the mix that tracked its jobs best over runs
# in both kinds of phase.
CAL_KERNEL = {"theta-sweep": ("arith",), "root-ladder": ("arith",),
              "pole-orders": ("elim", "bigint"), "cli-mix": ("interp",)}
CAL_REF_MS = {"arith": 1.0, "elim": 1.8, "bigint": 1.0, "interp": 1.5}


def work_dir(workload: str, seed: int) -> str:
    return f".perfbench/work/{workload}/seed-{seed}"


def import_nonarch():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import nonarch
    import nonarch.cli
    if not os.path.abspath(nonarch.__file__).startswith(src + os.sep):
        raise ImportError(f"nonarch imported from {nonarch.__file__}, not {src}")
    return nonarch


class Runner:
    """Runs jobs against the imported package."""

    def __init__(self, nonarch):
        self.nonarch = nonarch
        self.inputs = {}

    def prepare(self, jobs):
        """Build the library inputs of root jobs (part of set-up)."""
        series = self.nonarch.series
        for job in jobs:
            if job["kind"] == "root":
                spec = job["spec"]
                tail = spec["tail"]
                tail = None if tail is None else series.TailBound(
                    Fraction(tail["alpha"]), Fraction(tail["beta"]))
                self.inputs[job["id"]] = series.BoundedSeries.build(
                    spec["p"], [Fraction(c) for c in spec["coeffs"]], tail)

    def run(self, job):
        """(seconds, exit code, output value, exception text)."""
        try:
            if job["kind"] == "root":
                f = self.inputs[job["id"]]
                m = job["spec"]["m"]
                series = self.nonarch.series
                t0 = time.perf_counter()
                root = series.series_p_power_root(f, m)
                radius = series.convergence_logradius(root)
                dt = time.perf_counter() - t0
                return dt, 0, (root, radius), None
            buf = io.StringIO()
            cli = self.nonarch.cli
            with contextlib.redirect_stdout(buf):
                t0 = time.perf_counter()
                try:
                    code = cli.main(job["argv"])
                except SystemExit as exc:
                    code = exc.code
                dt = time.perf_counter() - t0
            return dt, code, buf.getvalue(), None
        except Exception as exc:  # a job that raises is a failed job
            return 0.0, None, None, f"{type(exc).__name__}: {exc}"


def _kernel_arith():
    x = Fraction(1)
    for i in range(1, 300):
        x = x * Fraction(3 * i + 1, 2 * i + 1)


def _kernel_elim():
    n = 9
    rows = [[Fraction(1, (101 + 7 * i) ** (j + 1)) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]


def _kernel_bigint():
    a, b = 3 ** 700 + 12345, 5 ** 450 + 678
    for i in range(100):
        a, b = b, (a * 7 + b * (i + 1)) % (10 ** 420 + 3)
        math.gcd(a, b + i)


def _kernel_interp():
    ap = argparse.ArgumentParser(prog="calibration")
    sub = ap.add_subparsers(dest="cmd")
    for k in range(6):
        sp = sub.add_parser(f"c{k}")
        for name in "abcdef":
            sp.add_argument(f"--{name}", type=int, default=k)
    ns = ap.parse_args(["c3", "--a", "5", "--d", "7"])
    json.dumps({"inputs": vars(ns), "r": [str(Fraction(i, 7)) for i in range(60)]},
               sort_keys=True)


_KERNELS = {"arith": _kernel_arith, "elim": _kernel_elim, "bigint": _kernel_bigint,
            "interp": _kernel_interp}


def calibrate(kernels) -> float:
    """Seconds taken by fixed calibration kernels: exact Fraction products
    with growing operands ("arith"), exact elimination on a small rational
    matrix ("elim"), big-integer products, remainders and gcds ("bigint"),
    or argparse and JSON work ("interp"), the kinds of work nonarch's jobs
    spend their time on.  None touches nonarch, so a change to nonarch
    cannot change them; on a shared machine they slow down and speed up
    with the jobs around them."""
    enabled = gc.isenabled()
    gc.disable()  # a collection's cost depends on the heap the jobs left
    t0 = time.perf_counter()
    for kernel in kernels:
        _KERNELS[kernel]()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def cal_ref_ms(kernels) -> float:
    return sum(CAL_REF_MS[k] for k in kernels)


def _median_calibration(kernels, count):
    return sorted(calibrate(kernels) for _ in range(count))[count // 2]


def _root_text(value) -> str:
    root, radius = value
    tail = root.tail
    return json.dumps({
        "coeffs": [[str(c.rat), str(c.pi_part)] for c in root.coeffs],
        "tail": None if tail is None else {"alpha": str(tail.alpha),
                                           "beta": str(tail.beta)},
        "radius": str(radius)})


def peak_rss_mb() -> float:
    """High-water resident set size of this process.  Linux's VmHWM starts
    afresh at exec; getrusage's ru_maxrss, the fallback, keeps the peak of
    the image exec replaced (the forked run.py process, whose memory grows
    over repeated runs)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _record(job, dt, code, value, exc, cal=None):
    out = None
    if exc is None:
        out = _root_text(value) if job["kind"] == "root" else value
    return {"i": job["index"], "ms": dt * 1000.0, "code": code, "out": out,
            "exc": exc, "cal_ms": None if cal is None else cal * 1000.0}


def closed_loop(runner, jobs, seconds, kernels):
    """Whole cycles until ``seconds`` of job time at the reference speed;
    wraps around the list if it runs out.  A wall-clock cap keeps a much
    slower program inside the run's time limit."""
    records, job_time, i = [], 0.0, 0
    started = time.perf_counter()
    cap = 6 * seconds + 30
    n = len(jobs)
    while True:
        job = jobs[i % n]
        boundary = i % n == 0 or job["cycle"] != jobs[(i - 1) % n]["cycle"]
        if boundary and (job_time >= seconds or time.perf_counter() - started > cap):
            break
        cal = calibrate(kernels)
        dt, code, value, exc = runner.run(job)
        job_time += dt * cal_ref_ms(kernels) / (cal * 1000.0)
        records.append(_record(job, dt, code, value, exc, cal))
        i += 1
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--records", help="record file to write")
    ap.add_argument("--once", action="store_true",
                    help="run the jobs of the traced run's cycles once")
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    kernels = CAL_KERNEL[args.workload]
    cal_before = _median_calibration(kernels, 5)
    t0 = time.perf_counter()
    nonarch = import_nonarch()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer
    import workloads
    rel = work_dir(args.workload, args.seed)
    cycles = workloads.job_count_cycles(args.workload, args.seconds, bool(args.trace))
    jobs = workloads.generate(args.workload, args.seed, cycles, ROOT, f"{rel}/inputs")
    for i, job in enumerate(jobs):
        job["index"] = i
    with open(os.path.join(rel, "jobs.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(jobs))
    runner = Runner(nonarch)
    runner.prepare(jobs)
    warm = workloads.warmup_jobs(args.workload, ROOT, f"{rel}/warmup")
    runner.prepare(warm)
    for job in warm:
        _, _, _, exc = runner.run(job)
        if exc is not None:
            raise RuntimeError(f"warm-up job {job['label']} failed: {exc}")
    setup_s = time.perf_counter() - t0
    # calibration on both sides of set-up, so that it brackets it in time
    cal_ms = (cal_before + _median_calibration(kernels, 5)) / 2 * 1000.0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "cal_ms": cal_ms}))
        return 0

    result = {"setup_s": setup_s, "setup_cal_ms": cal_ms, "jobs_file": f"{rel}/jobs.json"}
    if not args.trace:
        if args.once:
            records = [_record(job, *runner.run(job), calibrate(kernels)) for job in jobs
                       if job["cycle"] < workloads.TRACE_CYCLES[args.workload]]
        else:
            records = closed_loop(runner, jobs, args.seconds, kernels)
        result["peak_rss_mb"] = peak_rss_mb()
        result["wrapped_callables"] = tracer.count_wrapped(nonarch)
    else:
        plain = [_record(job, *runner.run(job)) for job in jobs]
        tr = tracer.Tracer()
        tr.install(nonarch)
        records = []
        virtual_s = 0.0
        for job in jobs:
            tr.job = job["index"]
            v0 = tr.now()
            records.append(_record(job, *runner.run(job)))
            virtual_s += (tr.now() - v0) / 1e9
        tr.uninstall()
        spans = f".perfbench/spans/{args.workload}-seed{args.seed}.tsv"
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tr.write_spans(spans)
        result["trace"] = {
            "metrics": tr.metrics(),
            "layers": tr.layer_table(),
            "untraced_job_s": sum(r["ms"] for r in plain) / 1000,
            "traced_job_s": sum(r["ms"] for r in records) / 1000,
            "traced_virtual_s": virtual_s,
            "spans": len(tr.span_fid),
            "spans_file": spans,
            "wrapped_after_uninstall": tracer.count_wrapped(nonarch),
        }
        result["untraced_records"] = plain
    result["records"] = records
    with open(args.records, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
