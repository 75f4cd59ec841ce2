#!/usr/bin/env python3
"""Build and run one jsched benchmark workload; print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, runs one workload, checks every schedule
fingerprint against perfbench/pins.json, and prints the host block, one
line per metric, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics; a traced run also writes its spans to
.bench_build/traces/. Exits non-zero, printing no result, when the program
cannot be built or run.

Maintenance modes:
    --selftest          build and run the benchmark's own tests
    --record-pins       run as usual, then pin the fingerprints of the
                        first passes whose seed and size have no pin yet
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PINS = HERE / "pins.json"
WORKLOADS = ("grid_ctc", "stream_ctc", "serve_cons_4x", "serve_easy_4x")
RUN_TIMEOUT_S = 170
PINNED_PASSES = 4  # --record-pins keeps the pins file small


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_env():
    env = dict(os.environ)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries inside the checkout
    return env


def build(target, tests=False):
    """Configure (once) and build `target`; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"jsched sources not found under {ROOT / 'src'}")
    env = build_env()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"]
    cache = BUILD / "CMakeCache.txt"
    if tests or not cache.is_file():
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return BUILD / target


def git_rev():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """sha256 over the library sources the benchmark was built from."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def check_pins(workload, report, pins):
    """Compare every pass with its pin; returns (failed ops, pinned passes)."""
    per_cell = workload == "grid_ctc"
    failed = 0
    pinned = 0
    for p in report["passes"] + report["traced"]:
        want = pins.get(workload, {}).get(str(p["size"]), {}).get(str(p["seed"]))
        if want is None:
            continue
        pinned += 1
        got = p["fingerprints"]
        if len(want) != len(got):
            report["problems"].append(
                f"pass seed {p['seed']}: {len(got)} fingerprints, pin has "
                f"{len(want)}")
            failed += len(got) if per_cell else p["size"]
            continue
        for i, (w, g) in enumerate(zip(want, got)):
            if w != g:
                report["problems"].append(
                    f"pass seed {p['seed']} schedule {i}: fingerprint {g}, "
                    f"pinned {w}")
                failed += 1 if per_cell else p["size"]
    return failed, pinned


def record_pins(workload, report, pins):
    """Pin the first passes of this run that have no pin yet."""
    added = 0
    table = pins.setdefault(workload, {})
    for p in report["passes"][:PINNED_PASSES]:
        by_seed = table.setdefault(str(p["size"]), {})
        if str(p["seed"]) not in by_seed:
            by_seed[str(p["seed"])] = p["fingerprints"]
            added += 1
    for t in pins.values():
        if isinstance(t, dict):
            for size, by_seed in t.items():
                if isinstance(by_seed, dict):
                    t[size] = dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    log(f"pinned {added} new pass(es) for {workload}")


def selftest():
    binary = build("perfbench_selftest", tests=True)
    return subprocess.run([str(binary)], env=build_env()).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-pins", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds within 1..3600")

    specs = metric_specs(args.trace == 1)
    binary = build("jsched_perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    started = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, env=build_env())
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        log(f"jsched_perfbench exited with {out.returncode}")
        return 1
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        if not line.startswith("host:"):
            print(line)

    host = dict(report["host"], git_rev=git_rev(), src_sha256=source_digest())
    print("host:", json.dumps(host))
    pins = load_pins()
    pin_failed, pinned = check_pins(args.workload, report, pins)
    failed = report["failed"] + pin_failed
    attempted = report["attempted"]
    passes = report["passes"]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced "
          f"pass(es), {len(report['traced'])} traced, {pinned} checked against "
          f"pins, wall {time.monotonic() - started:.1f} s")
    for p in passes[:3]:
        print(f"  pass seed {p['seed']} size {p['size']}: "
              + " ".join(p["fingerprints"]))
    for problem in report["problems"]:
        print("problem:", problem)

    metrics = {}
    for spec in specs:
        name = spec["name"]
        m = report["metrics"].get(name)
        if m is None or m["unit"] != spec["unit"]:
            log(f"benchmark bug: metric {name} missing or not in {spec['unit']}")
            return 1
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} attempted)")
    if trace_path is not None:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    if args.record_pins and failed == 0 and not report["problems"]:
        record_pins(args.workload, report, pins)

    correct = failed == 0 and not report["problems"] and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
