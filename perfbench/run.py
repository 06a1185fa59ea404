#!/usr/bin/env python3
"""End-to-end benchmark of the regional-access-topology system.

One command, three workloads (see README.md in this directory):

    python3 perfbench/run.py --workload cable_comcast --seed 1 \
        --seconds 20 --trace 0

builds the program from ../src in Release (once per checkout, under
.bench_build/), prepares the seeded inputs in a separate step, runs the
workload in its own process, checks its outputs, prints every metric with
its unit and sample count, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced per-layer measurement of all three flows (each in its own
process) and reports the per-layer metrics, with obs.trace_overhead_frac
taken from the chosen workload.

    python3 perfbench/run.py --workload serve_loopback --steadiness 10 \
        --sets 2 [--vary-seeds]

runs one workload K times per set, on the same seed (or, with
--vary-seeds, on seeds seed..seed+K-1 in every set), and prints, per
end-to-end metric, the median, quartiles, IQR/median against the metric's
bound and the drift of each later set's median from the first's.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (no sources, build failure, bad arguments).
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ranbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("cable_comcast", "offline_comcast", "serve_loopback")
DEFAULT_SEED = 20211102
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN_TIMEOUT_S = 170  # input preparation plus every measured process
KEEP_INPUT_SETS = 2
# Per-layer metrics a workload's traced run does not produce, and why.
NOT_MEASURED = {
    ("offline_comcast", "obs.trace_overhead_frac"):
        "the offline flow has no tracer to switch on",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result may be printed."""


def valid_metric_name(name):
    """Metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def load_spec(path=SPEC):
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")
    for group in ("end_to_end", "per_layer"):
        for metric in spec.get(group, []):
            if not valid_metric_name(metric.get("name")):
                raise BenchError(f"invalid metric name {metric.get('name')!r}")
    return spec


def spread(values):
    """(median, q1, q3, IQR/median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------------- build


def build():
    """Configures and builds the ranbench target in Release; returns the
    binary. Serialised by a lock file so concurrent runs build once."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("program sources (src/) not found next to perfbench/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} not found")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", "ranbench",
                      "-j", jobs])
        with open(build_log, "a") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                    raise BenchError(f"build failed; see {build_log}")
    return BINARY


def remaining(deadline, what):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before {what}")
    return left


def prepare(binary, seed, deadline):
    """The seeded inputs of offline_comcast and serve_loopback, made once
    per (binary, seed) before any measured process starts."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:12]
    root = os.path.join(BUILD, "inputs")
    data = os.path.join(root, f"{digest}-{seed}")
    done = os.path.join(data, "done")
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(done):
            shutil.rmtree(data, ignore_errors=True)
            try:
                proc = subprocess.run(
                    [binary, "prepare", "--seed", str(seed), "--out", data],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    timeout=remaining(deadline, "input preparation"))
            except subprocess.TimeoutExpired:
                raise BenchError("input preparation did not finish in time")
            if proc.returncode:
                raise BenchError(f"input preparation failed: {proc.stderr}")
            open(done, "w").close()
        # Keep the newest input sets only: each is ~70 MB.
        sets = sorted((os.path.join(root, d) for d in os.listdir(root)
                       if os.path.isdir(os.path.join(root, d))),
                      key=os.path.getmtime, reverse=True)
        for old in sets:
            if old != data and sets.index(old) >= KEEP_INPUT_SETS:
                shutil.rmtree(old, ignore_errors=True)
        os.utime(data)
    return data


# ----------------------------------------------------------------------- run


def run_process(binary, workload, seed, seconds, trace, data, deadline):
    """Runs one measured process; returns its parsed result line."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--data", data]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining(deadline, workload))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(spec, workload, seed, seconds, trace, quiet=False):
    """One benchmark run: the contract's result object."""
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    group = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[group]}
    # The traced run covers every layer, so it runs all three flows; the
    # tracing overhead is the chosen workload's.
    flows = WORKLOADS if trace else (workload,)
    # cable_comcast makes its own world; the others read prepared inputs.
    data = ("" if flows == ("cable_comcast",)
            else prepare(binary, seed, deadline))
    results = {w: run_process(binary, w, seed, seconds, trace, data, deadline)
               for w in flows}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    failures = [f"{w}: {f}" for w, r in results.items() for f in r["failures"]]
    merged = {}
    for w, r in results.items():
        for name, m in r["metrics"].items():
            if name == "obs.trace_overhead_frac" and w != workload:
                continue
            merged.setdefault(name, m)

    metrics = {}
    for name, unit in wanted.items():
        m = merged.get(name)
        if m is None and (workload, name) in NOT_MEASURED:
            continue
        if m is None:
            failures.append(f"metric {name} was not produced")
            failed += 1
            attempted += 1
            continue
        if m["unit"] != unit:
            failures.append(f"metric {name} has unit {m['unit']}, not {unit}")
            failed += 1
            attempted += 1
        metrics[name] = {"value": m["value"], "unit": unit}

    if not quiet:
        ctx = results[workload]["context"]
        log("# " + " ".join(f"{k}={v}" for k, v in sorted(ctx.items())))
        log(f"# git_sha={git_sha()}")
        for name in wanted:
            if (workload, name) in NOT_MEASURED and name not in merged:
                log(f"{name}: not measured "
                    f"({NOT_MEASURED[(workload, name)]})")
            elif name in merged:
                m = merged[name]
                log(f"{name} = {m['value']:.6g} {m['unit']} "
                    f"({m['stat']}, n={m['samples']})" if m["samples"] > 1 else
                    f"{name} = {m['value']:.6g} {m['unit']}")
        log(f"fail_frac = {failed / max(1, attempted):.6g} "
            f"({failed} of {attempted} checked operations failed)")
        for f in failures:
            log(f"FAILED: {f}")
    return {"correct": failed == 0, "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def verdict(rel, bound):
    """The steadiness verdict of one set's IQR/median against a bound:
    'steady' below a third of it, 'within' up to it, else 'NOISY'."""
    if rel < bound / 3:
        return "steady"
    return "within" if rel <= bound else "NOISY"


def drift(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative: better)."""
    worse = (second - first) / first
    return -worse if better == "higher" else worse


def steadiness(spec, workload, seed, seconds, runs, sets, vary_seeds):
    """Runs `workload` `runs` times in each of `sets` sets and prints each
    end-to-end metric's median, quartiles and IQR/median against its bound
    (and, from the second set on, the drift of the set's median from the
    first set's). Every set runs the same inputs: by default every run
    uses `seed`, so the spread is run-to-run noise of one input; with
    `vary_seeds` run i of every set uses seed + i, so the spread also
    holds the variation between inputs. Returns 0 when every spread is
    below a third of its bound and no drift exceeds its bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [seed + i if vary_seeds else seed for i in range(runs)]
    log(f"# {workload}: {sets} set(s) of {runs} runs, --seconds {seconds}, "
        f"seeds {seeds[0]}..{seeds[-1]}" if vary_seeds else
        f"# {workload}: {sets} set(s) of {runs} runs, --seconds {seconds}, "
        f"seed {seed} every run")
    per_set = []
    for s in range(sets):
        values = {name: [] for name in bounds}
        for i, run_seed in enumerate(seeds):
            result = measure(spec, workload, run_seed, seconds, False,
                             quiet=True)
            if not result["correct"]:
                log(f"run {i} of set {s}: checks FAILED")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        per_set.append(values)
    log(f"{'metric':14} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'iqr/med':>8} {'bound':>6}  verdict")
    ok = True
    for name, m in bounds.items():
        for s, values in enumerate(per_set):
            med, q1, q3, rel = spread(values[name])
            v = verdict(rel, m["bound"])
            ok = ok and v == "steady"
            if s > 0:
                d = drift(statistics.median(per_set[0][name]), med,
                          m["better"])
                v += f" drift={d:+.3f}" + (" DRIFT" if d > m["bound"] else "")
                ok = ok and d <= m["bound"]
            log(f"{name:14} {m['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{rel:8.4f} {m['bound']:6.3f}  {v}")
            log("    runs: " + " ".join(f"{x:.5g}" for x in values[name]))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K", default=0,
                        help="run the workload K times and report spreads")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --steadiness: sets of K runs on the "
                        "same inputs")
    parser.add_argument("--vary-seeds", action="store_true",
                        help="with --steadiness: run i of each set uses "
                        "seed + i instead of the same seed every run")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.steadiness:
            return steadiness(spec, args.workload, args.seed, seconds,
                              args.steadiness, args.sets, args.vary_seeds)
        start = time.monotonic()
        result = measure(spec, args.workload, args.seed, seconds,
                         bool(args.trace))
        log(f"# wall {time.monotonic() - start:.1f} s")
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
