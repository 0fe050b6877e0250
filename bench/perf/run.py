#!/usr/bin/env python3
"""Build scc_perf from source and run the host-performance benchmark.

Run from the repository root:

    python3 bench/perf/run.py --workload fig5_grid --seed 1 --seconds 15 --trace 0
    python3 bench/perf/run.py --workload all           # every workload, one process each
    python3 bench/perf/run.py --smoke                  # golden check at scale 0.05

The build goes to $CARGO_TARGET_DIR/scc_perf (default .bench_build/scc_perf),
the testbed matrix cache beside it. Every run uses a Release build, the
full testbed (scale 1.0) and SCC_SIM_THREADS=2. With --trace 1 the run prints
the per-layer metrics and writes its spans to the build directory. The
last line of stdout is the JSON result; the exit code is 0 only when every
operation's digest matched bench/perf/golden.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["fig5_grid", "serve_grid", "cluster_faults", "tune_explore"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "scc_perf")


def check(cmd, log, timeout, env=None):
    with open(log, "w") as out:
        code = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout,
                              env=env).returncode
    if code != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        sys.exit(f"run.py: {' '.join(cmd[:3])} ... failed (log: {log})")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
              os.path.join(out, "configure.log"), 600)
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", out, "-j", jobs], os.path.join(out, "build.log"), 900)
    return os.path.join(out, "scc_perf")


def environment():
    env = dict(os.environ)
    env.update({
        "SCC_SIM_THREADS": "2",
        "SCC_SPMV_CACHE_DIR": os.path.join(build_dir(), "testbed-cache"),
        "SCC_QUIET": "1",
    })
    return env


def prepare(binary, size):
    """Untimed pre-pass: generate the testbed matrices into the cache once."""
    stamp = os.path.join(build_dir(), "testbed-cache", f".prepared-{size}")
    if os.path.exists(stamp):
        return
    check([binary, "--prepare", "--size", size], os.path.join(build_dir(), "prepare.log"), 600,
          environment())
    with open(stamp, "w") as f:
        f.write("ok\n")


def run(binary, args, env):
    """Run scc_perf, echo its stdout, and return (exit code, result object)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: scc_perf exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    body = lines[:-1] if result is not None else lines
    if body:
        print("\n".join(body))
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the scale-0.05 golden digests at 1 and 2 threads and "
                             "with the run cache off, instead of measuring")
    args = parser.parse_args()

    binary = build()
    golden = os.path.join(HERE, "golden.json")

    if args.smoke:
        prepare(binary, "smoke")
        ok = True
        for threads, run_cache in (("1", "1"), ("2", "1"), ("2", "0")):
            env = environment()
            env.update({"SCC_SIM_THREADS": threads, "SCC_RUN_CACHE": run_cache})
            code, result = run(binary, ["--workload", "all", "--size", "smoke",
                                        "--golden", golden], env)
            passed = code == 0 and result is not None and result["correct"]
            print(f"smoke SCC_SIM_THREADS={threads} SCC_RUN_CACHE={run_cache}: "
                  f"{'digests match' if passed else 'FAILED'}"
                  + (f" ({result['attempted']} operations)" if result else ""))
            ok = ok and passed
        sys.exit(0 if ok else 1)

    prepare(binary, "full")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for name in names:
        cmd = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--golden", golden]
        if args.trace:
            cmd.append("--trace=" + os.path.join(build_dir(), f"trace_{name}_{args.seed}.jsonl"))
        rc, result = run(binary, cmd, environment())
        if result is None:
            sys.exit(f"run.py: {name} printed no result (exit {rc})")
        code = code or rc
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            for metric, m in result["metrics"].items():
                print(f"{name:15s} {metric:26s} {m['value']:.6g} {m['unit']}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()
