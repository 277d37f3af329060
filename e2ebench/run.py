#!/usr/bin/env python3
"""Build and run the pfql end-to-end serving benchmark (bench_e2e).

Run from the repository root:

  python3 e2ebench/run.py --workload cache_hot --seed 1 --seconds 20 --trace 0
  python3 e2ebench/run.py --workload all --seed 1          # every workload
  python3 e2ebench/run.py --smoke                          # ~1 s per workload
  python3 e2ebench/run.py ... --record runs.jsonl          # keep the result
  python3 e2ebench/run.py --compare parent.jsonl change.jsonl

The first run configures and builds src/, tools/ and the bench under
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later runs only
rebuild what changed. The last line of standard output is the benchmark's
JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_dir():
    return os.path.join(target_dir(), "e2ebench")


def build():
    """Configures (once) and builds bench_e2e, pfqld and pfqlr."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("no %s: run from a pfql checkout" % needed)
            sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "bench_e2e")


def become_subreaper():
    """Processes orphaned below this one (servers of a bench that died) are
    re-parented here instead of to init, so reap_orphans can stop them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_orphans():
    """Kills and waits for every process still parented to this one."""
    me = os.getpid()
    for _ in range(100):
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry) as f:
                    stat = f.read()
            except OSError:
                continue
            if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
                children.append(int(entry))
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def run_bench(binary, args):
    """Runs bench_e2e; returns (exit code, stdout). The bench reaps the
    servers it spawns; if it dies first, reap_orphans stops them."""
    args = args + ["--trace-dir", os.path.join(target_dir(), "traces")]
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    stdout = ""
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("bench_e2e exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Also reached on SIGTERM (see main): stop the bench, then whatever
        # it left behind.
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reap_orphans()
    return proc.returncode, stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def smoke(binary):
    """1 s per workload, traced and untraced: zero failures, every metric
    BENCHMARK.json names present with its unit."""
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    ok = True
    for trace, catalog in (("0", "end_to_end"), ("1", "per_layer")):
        code, stdout = run_bench(binary, [
            "--workload", "all", "--seed", "1", "--seconds", "1",
            "--warmup", "0", "--setups", "1", "--trace", trace])
        result = last_json(stdout)
        if code != 0 or result is None:
            log("smoke: bench_e2e --trace %s exited %s" % (trace, code))
            return 1
        if not result["correct"] or result["failed"] != 0:
            log("smoke: --trace %s saw %d failures" % (trace, result["failed"]))
            ok = False
        for workload in workloads:
            for metric in bench[catalog]:
                name = "%s.%s" % (workload, metric["name"])
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != metric["unit"]:
                    log("smoke: %s missing or not in %s" % (name,
                                                            metric["unit"]))
                    ok = False
    log("smoke: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_path, change_path):
    """Applies the pair rules to two run logs written with --record.

    Runs pair up in order per workload (run i of the parent with run i of
    the change, alternating which side ran first is the caller's job).
    improved:   the change wins >= 9/10 of all pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range;
    unresolved: the parent's own spread (IQR / median) exceeds the bound,
                unless every change run beats every parent run;
    worse:      the change's median is worse than the parent's by more than
                the bound;
    no-worse:   otherwise.
    """
    bench = load_benchmark()

    def load(path):
        runs = {}
        with open(path) as f:
            for line in f:
                if line.strip():
                    record = json.loads(line)
                    if record["trace"] == 0:
                        runs.setdefault(record["workload"], []).append(
                            record["result"]["metrics"])
        return runs

    parent, change = load(parent_path), load(change_path)
    print("%-12s %-16s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "parent_med", "change_med", "delta", "wins",
        "verdict"))
    for workload in sorted(set(parent) & set(change)):
        pairs = list(zip(parent[workload], change[workload]))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            p = [run[name]["value"] for run, _ in pairs]
            c = [run[name]["value"] for _, run in pairs]
            if not p:
                continue
            p1, pm, p3 = quartiles(p)
            _, cm, _ = quartiles(c)

            def better(x, y):
                return x < y if lower else x > y

            wins = sum(1 for a, b in zip(p, c) if better(b, a))
            all_better = all(better(b, a) for a in p for b in c)
            worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
            if wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
                verdict = "improved"
            elif (p3 - p1) / pm > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "no-worse"
            print("%-12s %-16s %12.4f %12.4f %+7.1f%% %3d/%-2d  %s" % (
                workload, name, pm, cm, 100.0 * (cm - pm) / pm, wins,
                len(pairs), verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--record", help="append the result to this JSONL log")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--bench-binary", help="skip the build, use this")
    args, extra = parser.parse_known_args()

    if args.compare:
        return compare(*args.compare)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    become_subreaper()
    binary = args.bench_binary or build()
    if args.smoke:
        return smoke(binary)

    started = time.time()
    code, stdout = run_bench(binary, [
        "--workload", args.workload, "--seed", args.seed,
        "--seconds", args.seconds, "--trace", args.trace] + extra)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    result = last_json(stdout)
    if result is None:
        log("bench_e2e printed no result (exit %s)" % code)
        return code or 1
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload,
                                "seed": int(args.seed),
                                "trace": int(args.trace),
                                "wall_s": round(time.time() - started, 3),
                                "result": result}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
