#!/usr/bin/env python3
"""Benchmark of the placement stack: build, run one workload, print metrics.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run.  Builds perfbench/ (CMake, into $CARGO_TARGET_DIR or
      .bench_build) on first use, then prints notes on stderr and one JSON
      object as the last stdout line.  Exits nonzero if a correctness check
      failed or the build is impossible.

  python3 perfbench/run.py --steady <k> [--sets <m>] [--workload <name>]
                           [--seed <first>]
      Steadiness mode: k runs per workload on seeds first..first+k-1; prints
      the median, quartiles and spread ((q3-q1)/median) of every end-to-end
      metric next to the bound BENCHMARK.json fixes for it.  With --sets m
      the k runs are repeated m times, and each later set's medians are
      compared with the first set's: the share by which a metric got worse
      must stay within its bound too.

  python3 perfbench/run.py --selftest
      Builds and runs the benchmark's own unit tests.

Workloads and the reasons for them: perfbench/WORKLOADS.md.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["gsrc-anneal", "mcnc-race", "serve-open"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    """Configures and builds perfbench/; returns the build dir or None."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target"]
                     + targets)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                log("perfbench: build step failed: " + " ".join(cmd))
                if "-S" in cmd:  # configure again next time
                    (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                return None
    return bdir


def run_once(bdir, workload, seed, seconds, trace, echo=True):
    """Runs the harness; returns (exit code, parsed result or None)."""
    out_dir = Path(".bench_out") / f"{workload}-{os.getpid()}"
    cmd = [str(bdir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--serve-bin", str(bdir / "als_serve"), "--out", str(out_dir)]
    # Own session: on a timeout the whole group (harness and daemon) dies.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        abs_out = ROOT / out_dir
        for trace_file in abs_out.glob("trace-*.jsonl"):
            shutil.move(str(trace_file),
                        str(ROOT / ".bench_out" / f"{trace_file.stem}-seed{seed}.jsonl"))
        shutil.rmtree(abs_out, ignore_errors=True)
    if stdout == "" and proc.returncode == 0:
        return 1, None
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, result


def run_set(bdir, workload, first_seed, k, seconds):
    """k runs on consecutive seeds; returns {metric: [values]} or None."""
    values = {}
    for seed in range(first_seed, first_seed + k):
        code, result = run_once(bdir, workload, seed, seconds, False, echo=False)
        if code != 0 or result is None:
            log(f"perfbench: {workload} seed {seed} failed (exit {code})")
            return None
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"  {workload} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()))
    return values


def steady(bdir, workloads, first_seed, k, sets, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    all_ok = True
    for w in workloads:
        medians = []
        for s in range(sets):
            values = run_set(bdir, w, first_seed, k, seconds)
            if values is None:
                return 1
            print(f"\n{w}: set {s + 1}, {k} runs, seeds "
                  f"{first_seed}..{first_seed + k - 1}")
            print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'spread':>8} {'bound':>6}  verdict")
            medians.append({})
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians[-1][name] = med
                spread = (q3 - q1) / med if med else float("inf")
                bound = metrics[name]["bound"]
                if spread <= bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    all_ok = False
                print(f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6}  {verdict}")
            sys.stdout.flush()
        for s in range(1, sets):
            print(f"\n{w}: set {s + 1} against set 1 (worse = the share by "
                  "which the median got worse)")
            print(f"  {'metric':<16} {'set 1':>14} {f'set {s + 1}':>14} "
                  f"{'worse':>8} {'bound':>6}  verdict")
            for name, first in medians[0].items():
                later = medians[s][name]
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (later - first) / first if first else float("inf")
                bound = metrics[name]["bound"]
                verdict = "agrees" if worse <= bound else "DRIFTED"
                all_ok = all_ok and worse <= bound
                print(f"  {name:<16} {first:>14.6g} {later:>14.6g} "
                      f"{worse:>8.4f} {bound:>6}  {verdict}")
    return 0 if all_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K")
    ap.add_argument("--sets", type=int, default=1, metavar="M")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        bdir = build(["perfbench_test"])
        if bdir is None:
            return 1
        return subprocess.run([str(bdir / "perfbench_test")]).returncode

    if args.steady:
        bdir = build(["perfbench", "als_serve"])
        if bdir is None:
            return 1
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        workloads = [args.workload] if args.workload else WORKLOADS
        return steady(bdir, workloads, args.seed, args.steady,
                      max(1, args.sets), seconds)

    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required")
    bdir = build(["perfbench", "als_serve"])
    if bdir is None:
        return 1
    code, _ = run_once(bdir, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
