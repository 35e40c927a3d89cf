"""phisigma benchmark: seeded workloads over the package's six layers.

    python3 perfbench/run.py --workload inverse-ladder --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout; the package need not be installed.
This process starts one worker process at a time (closed loop, one
client).  Each worker is a fresh interpreter that imports phisigma from
src/ with cold caches, builds the inputs from the seed and runs one pass of
the workload: set-up (start, import, input generation) is timed apart from
the pass.  Passes repeat on the same inputs while the next one is likely to end
within --seconds, and at least MIN_PASSES times, so every output can also
be compared with the same output of the first pass.

Times are best-of-passes: each op's time is its fastest over the run's
untraced passes, and the time metrics are built from those per-op bests.
The host is shared and its speed drifts by tens of percent over seconds to
minutes; the fastest of several passes spread over the run moves far less
than their median does.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus trace_overhead_ratio (traced over untraced wall_s).
--smoke runs the same code paths at tiny sizes in seconds.

Machine facts and notes go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("inverse-ladder", "batch-tables", "config-pipeline", "cli-readme")
WORK_UNITS = {
    "inverse-ladder": "preimages enumerated or counted per second of the pass",
    "batch-tables": "integers sieved or scanned per second of the pass",
    "config-pipeline": "search probes (SearchStats.probes) per second of search",
    "cli-readme": "stdout bytes per second of the pass",
}
MIN_PASSES = 3
TAIL_PCT = 90  # op_tail_ms: this percentile of the per-op best times
RUN_LIMIT_S = 150  # start no pass that could end after this
RUN_DEADLINE_S = 170  # a worker still running then is killed, so the run ends in time


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Worker:
    """Starts worker.py processes and collects their result lines."""

    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.env["PYTHONHASHSEED"] = "0"
        self.errors: list[str] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, pass_index: int, traced: bool = False, setup_only: bool = False) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--pass-index", str(pass_index)]
        if traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        if self.args.smoke:
            cmd.append("--smoke")
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI command it started
            out, err = proc.communicate()
            self.errors.append(f"pass {pass_index}: worker timed out")
            return None
        if proc.returncode != 0:
            self.errors.append(f"pass {pass_index}: worker exit {proc.returncode}: {err[-1500:]}")
            return None
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.errors.append(f"pass {pass_index}: no result line: {err[-1500:]}")
            return None


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def best_per_op(results: list[dict], column: int) -> list[float]:
    """For each op of a pass, its fastest value over the given passes."""
    return [min(res["ops"][i][column] for res in results)
            for i in range(len(results[0]["ops"]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phisigma benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths at tiny sizes, to check the benchmark itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phisigma" / "__init__.py").is_file():
        print(f"error: no phisigma sources under {ROOT / 'src'}; "
              "run from the root of a phisigma checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    load_start = os.getloadavg()
    worker = Worker(args)
    run_start = time.monotonic()

    setups = []
    worker.run(-1, setup_only=True)  # writes the bytecode caches; not measured

    passes: list[tuple[bool, dict]] = []  # (traced, result)
    failed_passes = 0
    pass_start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        elapsed = time.monotonic() - pass_start
        enough = index >= MIN_PASSES * (2 if args.trace else 1)
        # Past the minimum, start no pass that would likely end after --seconds.
        if enough and elapsed + elapsed / index > args.seconds:
            break
        if enough and time.monotonic() - run_start + longest > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and index % 2 == 1
        began = time.monotonic()
        if not args.trace:
            # A set-up-only sample before each pass spreads them over the run.
            res = worker.run(-2 - index, setup_only=True)
            if res is not None:
                setups.append(res["setup_s"])
        res = worker.run(index, traced=traced)
        longest = max(longest, time.monotonic() - began)
        index += 1
        if res is None:
            failed_passes += 1
            if failed_passes >= 2:
                break
            continue
        passes.append((traced, res))
        setups.append(res["setup_s"])

    load_end = os.getloadavg()
    shutil.rmtree(ROOT / ".perfbench-tmp", ignore_errors=True)
    for err in worker.errors:
        print(f"worker error: {err}", file=sys.stderr)
    plain = [res for traced, res in passes if not traced]
    traced_passes = [res for traced, res in passes if traced]
    if not plain or (args.trace and not traced_passes):
        print("error: no pass completed", file=sys.stderr)
        return 1

    # Outputs must agree op by op across passes: same inputs, same bytes.
    reference = plain[0]["ops"]
    attempted = failed = failed_passes * len(reference)
    for _, res in passes:
        for op, ref in zip(res["ops"], reference):
            attempted += 1
            failed += not (op[2] and op[3] == ref[3])
        for err in res["errors"]:
            print(f"check: {err}", file=sys.stderr)

    best = best_per_op(plain, 1)
    wall = sum(best)
    print(f"workload {args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}: "
          f"{len(plain)} untraced and {len(traced_passes)} traced passes, "
          f"{len(setups)} set-up samples, {attempted} ops attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    print(f"machine: nproc {facts['nproc']}, cpu {facts['cpu']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, load average {load_start[0]:.2f} at start and "
          f"{load_end[0]:.2f} at end; no kernel, cgroup or CPU-frequency setting was touched")

    metrics: dict[str, dict] = {}
    if args.trace:
        names = list(traced_passes[0]["layers"])
        for name in names:
            unit = traced_passes[0]["layers"][name][1]
            value = statistics.median(res["layers"][name][0] for res in traced_passes)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace_overhead_ratio"] = {
            "value": sum(best_per_op(traced_passes, 1)) / wall, "unit": "1"}
    else:
        work = sum(op[4] for op in reference)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * percentile(best, TAIL_PCT), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(res["peak_rss_mb"] for res in plain),
                            "unit": "MB"},
            "work_per_s": {"value": work / sum(best_per_op(plain, 5)), "unit": "1/s"},
        }
        beyond = sum(t > metrics["op_tail_ms"]["value"] / 1000 for t in best)
        print(f"times are per-op bests over {len(plain)} passes; op_tail_ms is the p{TAIL_PCT} "
              f"of {len(best)} op times ({beyond} beyond it); work_per_s counts "
              f"{WORK_UNITS[args.workload]}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
