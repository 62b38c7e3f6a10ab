#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload train_full_cora --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds the measuring program
(`perfbench/`, a Cargo package of its own) in release mode, launches it
in a fresh process with every `MG_*` variable removed from its
environment, and prints each metric by name with its unit. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`, with `--trace 1` its per-layer metrics. Build output,
the served checkpoint, span files and result records go under
`$CARGO_TARGET_DIR` (default `.bench_build`).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Set-ups timed in processes of their own before the measuring process,
# which times one more; setup_s is the median of all of them. Repeating
# set-up inside the measuring process instead would leave its allocator
# state, and so peak_rss_mb, depending on the repetitions.
SETUP_PROCESSES = 4
# Metrics every measured run prints besides those BENCHMARK.json judges:
# the speed metrics spread too widely between unpaired runs on a shared
# host to judge against a bound (see README.md); quality and train_loss
# are not defined for every workload and repeat exactly at a fixed seed,
# so the determinism check judges them; error_frac is judged through the
# result's failed count.
REPORTED_ONLY = ("items_per_s", "op_p50_ms", "op_p90_ms", "quality",
                 "train_loss", "error_frac")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def clean_env():
    """The environment minus every variable the repository's defaults read."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MG_")}


def build(target):
    env = clean_env()
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest():
    """Digest of every source file the program is built from."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    h.update(sha256_file(path).encode())
    return h.hexdigest()[:16]


def commit():
    """The git commit of the checkout, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_child(argv):
    """Run the program; return (last stdout line as JSON, peak RSS in MB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=clean_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        fail(f"{' '.join(argv[1:3])} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("the program printed no result")
    # ru_maxrss is in KiB on Linux
    return json.loads(lines[-1]), usage.ru_maxrss * 1024 / 1e6


def check_repeats(cache, workload, seed, exact):
    """Values that must repeat exactly at this seed and binary: compare
    with the first run that reported them, remember new ones. Returns the
    drifted names."""
    path = os.path.join(cache, f"exact-{workload}-{seed}.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    drift = sorted(k for k, v in exact.items() if k in seen and seen[k] != v)
    for k, v in exact.items():
        seen.setdefault(k, v)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, sort_keys=True)
    os.replace(tmp, path)
    return drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    judged = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = target_dir()
    binary = build(target)
    cache = os.path.join(target, "perfbench", sha256_file(binary)[:16])
    os.makedirs(cache, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--cache", cache]

    if args.workload == "serve_cora":
        ckpt = os.path.join(cache, f"serve_cora-seed{args.seed}.mgck")
        if not os.path.exists(ckpt):
            # trained once per binary and seed, outside every timed region
            # and in its own process so it never counts in peak_rss_mb
            run_child([binary, "ckpt"] + common)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            alone, _ = run_child([binary, "setup"] + common)
            setups.append(alone["metrics"]["setup_s"]["value"])
    mode = "trace" if args.trace else "measure"
    report, peak_rss_mb = run_child([binary, mode] + common)
    metrics = {k: dict(value=v["value"], unit=v["unit"])
               for k, v in report["metrics"].items()}
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["peak_rss_mb"] = dict(value=peak_rss_mb, unit="MB")
    metrics["error_frac"] = dict(
        value=report["failed"] / max(report["attempted"], 1), unit="fraction")

    problems = list(report["problems"])
    drift = check_repeats(cache, args.workload, args.seed, report["exact"])
    if drift:
        problems.append(f"values drifted from an earlier run at this seed: {drift}")
    missing = [m["name"] for m in judged if m["name"] not in metrics]
    if missing:
        fail(f"the program did not report {missing}")

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "features": "default", "commit": commit(), "source": source_digest(),
        "binary": os.path.basename(cache), "info": report["info"],
        "setup_s_samples": setups,
        "exact": report["exact"], "problems": problems,
    }
    results = os.path.join(target, "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    record = dict(facts, metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("host: " + json.dumps({k: facts[k] for k in (
        "nproc", "features", "commit", "source", "binary")}, sort_keys=True))
    print("info: " + json.dumps(report["info"], sort_keys=True))
    for p in problems:
        print(f"problem: {p}")
    shown = [m["name"] for m in judged]
    if not args.trace:
        shown += [k for k in REPORTED_ONLY if k in metrics]
    for k in shown:
        print(f"{k} = {metrics[k]['value']:.6g} {metrics[k]['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in judged},
    }))


if __name__ == "__main__":
    main()
