"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``run.py`` once per seed (one after another,
never in parallel), then prints for each end-to-end metric the median,
the quartiles and the quartile spread as a share of the median — the
steadiness test a metric's bound in ``BENCHMARK.json`` is judged by.
``--history LABEL`` appends the medians and quartiles as one line to
``perfbench/history.jsonl``, the committed perf trajectory.

    python3 perfbench/steady.py --seeds 1-10 --history seed
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--history", metavar="LABEL")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            started = time.perf_counter()
            out = run_once(workload, seed, args.seconds, 0)
            ok &= out["correct"]
            runs.append(out)
            print(f"{workload} seed {seed}: correct={out['correct']} "
                  f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
        summary[workload] = {}
        for name in bounds:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bounds[name] / 3 else (
                "  <- above bound/3" if spread <= bounds[name] else "  <- ABOVE BOUND")
            if spread > bounds[name]:
                ok = False
            print(f"{workload:10s} {name:22s} median {median:12.5g} "
                  f"spread {spread:6.3f} (bound {bounds[name]}){flag}")
            if flag:
                print("    runs: " + " ".join(f"{value:.4g}" for value in values))
            summary[workload][name] = {
                "median": median, "q1": q1, "q3": q3,
                "unit": runs[0]["metrics"][name]["unit"], "runs": len(values),
            }
    if args.history:
        entry = {
            "label": args.history,
            "date": time.strftime("%Y-%m-%d"),
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"{platform.python_implementation()} {platform.python_version()}",
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "workloads": summary,
        }
        with open(HERE / "history.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
