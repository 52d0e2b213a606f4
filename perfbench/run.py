"""Benchmark of the TargAD reproduction: one workload per call.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload train_unsw --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The workload runs in a fresh worker process with the BLAS/OpenMP pools
pinned to one thread. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the layers' public callables and prints the per-layer
metrics, the self-time breakdown of the traced section and the tracing
overhead against the untraced runs recorded in ``perfbench/out``. The last
line of standard output is the JSON result.

Counts that must repeat exactly (elbow k, optimizer steps, drift events,
swaps, rollbacks, labels found, ...) are recorded per run in
``perfbench/out/records.jsonl``; a run whose counts disagree with an
earlier run of the same workload, seed, length and source is incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("train_unsw", "stream_sqb", "bulk_sqb")
# Headline metric per workload for the tracing overhead, and whether higher is better.
HEADLINE = {"train_unsw": ("fit_s", False), "stream_sqb": ("latency_p50_ms", False),
            "bulk_sqb": ("rows_per_s", True)}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0


def source_digest():
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(workload, seed, seconds, trace, deadline):
    """Run one workload in a fresh process; return its result dict."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    out = OUT / f"{stem}.json"
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-s{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload}: worker exceeded the time limit")
    if code != 0:
        raise SystemExit(f"{workload}: worker exited with code {code}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def load_records():
    path = OUT / "records.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def append_record(record):
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")


def untraced_reference(args, digest, records, deadline):
    """Untraced headline values of this workload and source, running one if none exist."""
    same = [r for r in records if r["workload"] == args.workload and r["digest"] == digest
            and r["seconds"] == args.seconds and not r["trace"]]
    if not same:
        result = run_worker(args.workload, args.seed, args.seconds, 0, deadline)
        record = make_record(args, digest, 0, result)
        append_record(record)
        same = [record]
    name, _ = HEADLINE[args.workload]
    seeded = [r for r in same if r["seed"] == args.seed]
    return median(r["metrics"][name] for r in (seeded or same))


def make_record(args, digest, trace, result):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "digest": digest, "counts": result["counts"],
        "metrics": result["metrics"], "host": result["host"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every output check a wrong output and exit")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks

    if args.selftest:
        broken = checks.self_test()
        for name in broken:
            print(f"FAIL: check {name} accepts a wrong output")
        print(f"{len(broken)} check(s) broken")
        return 1 if broken else 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digest = source_digest()
    records = load_records()
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, deadline)
    failures = list(result["failures"])
    earlier = [r["counts"] for r in records
               if (r["workload"], r["seed"], r["seconds"], r["digest"])
               == (args.workload, args.seed, args.seconds, digest)]
    failures += checks.check_repeat(result["counts"], earlier)
    host = {
        "nproc": os.cpu_count(),
        "python": result["host"]["python"],
        "numpy": result["host"]["numpy"],
        "source_digest": digest,
        "git_sha": git_sha(),
        "backend": result["info"].get("backend", "numpy"),
        "executors": result["info"].get("executors", []),
        "threads": {name: "1" for name in THREAD_VARS},
    }
    result["host"] = host

    if args.trace:
        reference = untraced_reference(args, digest, records, deadline)
        name, higher = HEADLINE[args.workload]
        traced = result["metrics"][name]
        ratio = reference / traced if higher else traced / reference
        result["per_layer"]["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print_trace(result, reference, name, spec)
    else:
        metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    append_record(make_record(args, digest, args.trace, result))

    print(f"host: {json.dumps(host)}")
    print(f"counts: {json.dumps(result['counts'])}")
    print(f"info: {json.dumps(result['info'])}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def print_trace(result, reference, headline, spec):
    import layers

    per_layer = result["per_layer"]
    print(f"{'per-layer metric':28s} {'value':>14s} {'unit':8s} should move")
    for metric in spec["per_layer"]:
        name = metric["name"]
        moves = layers.PER_LAYER[name][1]
        print(f"{name:28s} {per_layer[name]:14.6g} {metric['unit']:8s} {moves}")
    print(f"\ntracing overhead: {headline} traced {result['metrics'][headline]:.6g} "
          f"vs untraced {reference:.6g} -> {per_layer['trace.overhead_pct']:+.2f}%")
    print(f"\n{'span (self time)':34s} {'calls':>8s} {'self_s':>10s}")
    total = 0.0
    for name, row in sorted(result["breakdown"].items(), key=lambda kv: -kv[1]["self_s"]):
        total += row["self_s"]
        print(f"{name:34s} {row['calls']:8d} {row['self_s']:10.4f}")
    remainder = per_layer["trace.remainder_s"]
    print(f"{'(outside every span)':34s} {'':8s} {remainder:10.4f}")
    print(f"{'sum':34s} {'':8s} {total + remainder:10.4f}  "
          f"(traced wall {per_layer['trace.wall_s']:.4f} s)")


if __name__ == "__main__":
    sys.exit(main())
