#!/usr/bin/env python3
"""Build and run one workload of the rlv benchmark.

    python3 perfbench/run.py --workload petri_pipeline|engine_cold|serve_mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds perfbench/ (the library
from src/ plus rlv_perfbench) with CMake in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload and prints the program's figures as "# " lines, then one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics. With --trace 1 the
workload runs twice, untraced and then traced; the metrics are the
per-layer metrics of perfbench/layer_map.json (0 where the workload has no
such layer), plus trace.overhead_ratio, the untraced verdicts_per_cpu_s
over the traced one. The spans go to <build dir>/traces/. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("petri_pipeline", "engine_cold", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base.resolve() / "perfbench"


def build(out):
    """Configures (once) and builds rlv_perfbench; returns its path."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "rlv_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "rlv_perfbench"


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=HERE, capture_output=True, text=True,
                              check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_once(binary, args, trace, trace_out=None):
    """Runs the program; echoes its '# ' lines and returns its JSON."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"rlv_perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"run.py: build failed: {err}")
        return 2

    print(f"# config nproc={os.cpu_count()} machine={platform.machine()} "
          f"commit={git_commit()} seed={args.seed} "
          f"seconds={args.seconds} workload={args.workload}")
    try:
        if not args.trace:
            result = run_once(binary, args, trace=False)
        else:
            untraced = run_once(binary, args, trace=False)
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
            result = run_once(binary, args, trace=True, trace_out=trace_file)
            layer_map = json.loads((HERE / "layer_map.json").read_text())
            metrics = result["metrics"]
            for entry in layer_map["per_layer"]:
                metrics.setdefault(entry["name"],
                                   {"value": 0, "unit": entry["unit"]})
            plain = untraced["metrics"]["verdicts_per_cpu_s"]["value"]
            traced = metrics["trace.verdicts_per_cpu_s"]["value"]
            metrics["trace.overhead_ratio"] = {
                "value": plain / traced if traced else 0, "unit": "ratio"}
            result["attempted"] += untraced["attempted"]
            result["failed"] += untraced["failed"]
            result["correct"] = result["correct"] and untraced["correct"]
            print(f"# spans written to {trace_file}")
    except (OSError, RuntimeError, ValueError, IndexError,
            subprocess.SubprocessError) as err:
        log(f"run.py: {err}")
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
