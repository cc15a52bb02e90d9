#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eval|serve|fuzz --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
then runs it once per repetition -- each repetition a fresh process, so
every process-wide memo starts cold, on the same inputs -- until S
seconds of repetitions have run (at least two).  Prints a human-readable detail line, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  Exits 1 if any operation or self
check failed, 2 if the checkout cannot be benchmarked.

Files of the run (per-repetition records, the replay's Chrome trace)
go under perfbench/_run/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_DIR = os.path.join(HERE, "_run")

MIN_REPS = 2
# The whole command must end within 180 s once built; leave a margin.
HARD_LIMIT_S = 165.0
# The tail percentile of per-op latency: the highest with at least ten
# samples beyond it.  A run has 56 eval cells, 150 fuzz trials or 1100
# serve requests.
TAIL = {"eval": 0.80, "fuzz": 0.90, "serve": 0.99}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def rank_quantile(xs, q):
    s = sorted(xs)
    return s[max(1, min(len(s), math.ceil(q * len(s)))) - 1]


def per_key(records, field, agg):
    """agg over repetitions of the (key, value) samples of each key."""
    by_key = {}
    for r in records:
        for k, v in r[field]:
            by_key.setdefault(k, []).append(v)
    return [agg(v) for v in by_key.values()]


def end_to_end(workload, records):
    """The workload-level values the repetitions' samples give.

    Every repetition of a run replays the same ops (eval cells, fuzz
    trials, serve requests) in a fresh process.  An op's time is the
    lowest of its repetitions: load from other tenants of a shared host
    only ever slows an op down, so the minimum drops the slow moments
    within a run (slowdowns that outlast a run remain; see README.md).
    p50 and tail are taken over those per-op times.  For the sequential workloads, eval and fuzz,
    ops/s is the number of ops over the sum of their times; serve's is
    the best repetition's completed requests per wall second.  The
    energy ratio is the geometric mean over programs.
    """
    out = {}
    ops = per_key(records, "op_ms", min)
    if ops:
        out["p50_ms"] = rank_quantile(ops, 0.50)
        out["tail_ms"] = rank_quantile(ops, TAIL[workload])
        if workload != "serve":
            out["ops_per_s"] = len(ops) / (sum(ops) / 1e3)
        else:
            out["ops_per_s"] = max(r["metrics"]["ops_per_s"] for r in records)
    ratios = per_key(records, "energy_ratios", statistics.median)
    if ratios:
        out["energy_ratio"] = math.exp(sum(map(math.log, ratios)) / len(ratios))
    return out


def source_digest():
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    t_start = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    wanted = spec["per_layer" if a.trace else "end_to_end"]
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no program to benchmark: dune-project or lib/ is missing")

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        die("build failed", 1)
    t_built = time.monotonic()
    budget_end = t_built + HARD_LIMIT_S - min(t_built - t_start, 15.0)

    run_dir = os.path.join(RUN_DIR, "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    records, durations, errors = [], [], []
    t_loop = time.monotonic()
    rep = 0
    while True:
        now = time.monotonic()
        mean = statistics.mean(durations) if durations else 0.0
        # start another repetition only if it ends, on average, no more
        # than half a repetition past the requested time
        if rep >= MIN_REPS and now - t_loop + mean / 2 > a.seconds:
            break
        if durations and now + 1.3 * max(durations) > budget_end:
            break
        rep_dir = os.path.join(run_dir, "rep%d" % rep)
        os.makedirs(rep_dir)
        cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
               "--rep", str(rep), "--trace", str(a.trace), "--workdir", rep_dir]
        t0 = time.monotonic()
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=max(5.0, budget_end - t0))
        except subprocess.TimeoutExpired:
            errors.append("repetition %d timed out" % rep)
            break
        durations.append(time.monotonic() - t0)
        shutil.rmtree(os.path.join(rep_dir, "serve-cache"), ignore_errors=True)
        try:
            rec = json.loads(p.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            errors.append("repetition %d exited %d without a record: %s"
                          % (rep, p.returncode, p.stderr.strip()[-500:]))
            break
        records.append(rec)
        if p.returncode != 0:
            errors.append("repetition %d exited %d" % (rep, p.returncode))
            break
        rep += 1

    def med(name):
        vals = [r["metrics"][name] for r in records if name in r["metrics"]]
        return statistics.median(vals) if vals else None

    combined = {} if a.trace else end_to_end(a.workload, records)
    metrics = {}
    for m in wanted:
        name = m["name"]
        v = combined[name] if name in combined else med(name)
        if v is None:
            errors.append("metric %s missing" % name)
            continue
        metrics[name] = {"value": v, "unit": m["unit"]}

    failures = [f for r in records for f in r["failures"]]
    bad_checks = [c for r in records for c in r["checks"] if not c["ok"]]
    # a repetition that ended without its record counts as one failed op
    attempted = sum(r["attempted"] for r in records) + len(errors)
    failed = sum(r["failed"] for r in records) + len(errors)
    correct = (not errors and not failures and not bad_checks and failed == 0
               and attempted > 0 and len(records) >= MIN_REPS)
    host = dict(records[0]["host"]) if records else {}
    host.update(git_rev=git_rev(), source_md5=source_digest())
    info_keys = sorted({k for r in records for k in r["info"]})
    detail = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "reps": len(records), "rep_seconds": [round(d, 3) for d in durations],
        "host": host,
        "op_samples": sum(len(r["op_ms"]) for r in records),
        "energy_programs": len({k for r in records for k, _ in r["energy_ratios"]}),
        "info_median": {k: statistics.median(r["info"][k] for r in records
                                             if k in r["info"])
                        for k in info_keys},
        "checks": sorted({c["name"] for r in records for c in r["checks"]}),
        "failed_checks": bad_checks[:5], "failures": failures[:5],
        "errors": errors,
    }
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"detail": detail, "records": records, "metrics": metrics},
                  fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
