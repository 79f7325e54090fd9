#!/usr/bin/env python3
"""The repo benchmark: builds the simulator from the checkout, runs one
workload and prints every metric BENCHMARK.json declares.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare RECORD_A RECORD_B
  python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 is the
separate traced run that reports the per-layer metrics. Each run writes a
record with the host and build fingerprint, the per-job simulated
fingerprints and every summary under .bench_build/records/. The last
line of stdout is the result as one JSON object. Exit code 0 means every
output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import aggregate  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
# A run must end within 180 s; the measuring process gets what is left.
CHILD_TIMEOUT_S = 170
# Host fields two records must share to be compared.
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds perfbench and alb-serve in Release."""
    for need in ("src", "tools", "scenarios"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            fail("no %s/ next to perfbench/: run from a full checkout" % need)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cache = os.path.join(CMAKE_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(CMAKE_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "perfbench", "alb-serve"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(CMAKE_DIR, "perfbench"),
            os.path.join(CMAKE_DIR, "alb_tools", "alb-serve"))


def source_digest():
    """SHA-256 over every file the benchmark builds from or reads."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "scenarios", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if "__pycache__" not in d for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    perfbench, serve = build()
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(work, "raw.json")
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
           "--work-dir", work, "--serve-bin", serve, "--raw-out", raw_path]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the alb-serve
    # children it may have running.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        if rc != 0:
            fail("measuring process exited with %d" % rc)
        with open(raw_path) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("measuring process ran past %d s" % CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return spec, raw


def report(args, spec, raw):
    host = dict(raw["host"], git_rev=git_rev(), source_digest=source_digest())
    checks = raw["checks"]
    ratio = aggregate.fail_ratio(checks["attempted"], checks["failed"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = raw["layer"] if args.trace else raw["samples"]
    names = [m["name"] for m in declared]
    extra = sorted(set(measured) - set(names))
    if extra:
        fail("measured metrics missing from BENCHMARK.json: " + ", ".join(extra))

    summaries, absent = {}, {}
    for m in declared:
        name = m["name"]
        if name in measured and measured[name]:
            summaries[name] = aggregate.summarize(measured[name])
        elif args.trace and aggregate.absent_reason(name, raw["absent"]):
            absent[name] = aggregate.absent_reason(name, raw["absent"])
        else:
            fail("metric %s was not measured" % name)

    print("host-fingerprint " + " ".join("%s=%s" % (k, str(v).replace(" ", "_"))
                                         for k, v in sorted(host.items())))
    for fp in raw["fingerprints"]:
        print("sim-fingerprint " + fp)
    with open(os.path.join(HERE, "layers.json")) as f:
        moves = json.load(f)["per_layer"]
    print("%-28s %14s %-6s %14s %14s %4s %14s" % ("metric", "median", "unit", "q1", "q3", "n",
                                                  "raw median"))
    for m in declared:
        s = summaries.get(m["name"])
        if s is None:
            continue
        raw_median = aggregate.quartiles(raw["raw"][m["name"]])[1] if not args.trace else s["median"]
        line = "%-28s %14.6g %-6s %14.6g %14.6g %4d %14.6g" % (
            m["name"], s["median"], m["unit"], s["q1"], s["q3"], s["n"], raw_median)
        if s["tail"]:
            line += "  p%g=%.6g" % (s["tail"]["p"], s["tail"]["value"])
        if args.trace:
            line += "  -> " + moves.get(m["name"], {}).get("moves", "")
        print(line)
    for name, reason in absent.items():
        print("absent %s: %s" % (name, reason))
    if args.trace:
        for name, (count, total, own) in sorted(aggregate.self_times(raw["spans"]).items()):
            print("span %-20s count=%-4d total_s=%.4f self_s=%.4f" % (name, count, total, own))
    print("fail_ratio %.6g (%d failed of %d checks)" % (ratio, checks["failed"],
                                                         checks["attempted"]))
    for msg in checks["failures"]:
        print("FAILED " + msg)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "fail_ratio": ratio, "checks": checks,
              "fingerprints": raw["fingerprints"], "metrics": summaries, "absent": absent,
              "raw": {k: aggregate.summarize(v) for k, v in raw["raw"].items() if v},
              "spans": raw["spans"] if args.trace else [],
              "span_self_s": {k: v[2] for k, v in aggregate.self_times(raw["spans"]).items()}}
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    rec_path = os.path.join(BUILD, "records", "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, int(time.time())))
    with open(rec_path, "w") as f:
        json.dump(record, f, indent=1)
    print("record " + os.path.relpath(rec_path, ROOT))

    metrics = {}
    for m in declared:
        value = summaries[m["name"]]["median"] if m["name"] in summaries else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": checks["failed"] == 0, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))
    return 0 if checks["failed"] == 0 else 1


def compare(path_a, path_b):
    """Median ratios of two records; refuses records from different hosts
    or builds, which cannot tell slower code from a slower machine."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    diff = [k for k in HOST_KEYS if a["host"].get(k) != b["host"].get(k)]
    if diff:
        fail("refusing to compare records from different hosts or builds: " + ", ".join(
            "%s %r vs %r" % (k, a["host"].get(k), b["host"].get(k)) for k in diff))
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("refusing to compare different workloads or trace modes")
    print("A %s rev=%s seed=%d   B %s rev=%s seed=%d" % (
        path_a, a["host"]["git_rev"], a["seed"], path_b, b["host"]["git_rev"], b["seed"]))
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        ma, mb = a["metrics"][name]["median"], b["metrics"][name]["median"]
        print("%-28s %14.6g %14.6g  B/A=%s" % (name, ma, mb,
                                               "%.4f" % (mb / ma) if ma else "n/a"))
    if a["seed"] == b["seed"]:
        same = a["fingerprints"] == b["fingerprints"]
        print("simulated fingerprints: " + ("identical" if same else "DIFFER"))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar="RECORD")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
        return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    spec, raw = measure(args)
    return report(args, spec, raw)


if __name__ == "__main__":
    sys.exit(main())
