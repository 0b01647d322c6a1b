"""The repository benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pop-study --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, untraced.  ``--trace 1``
runs the same passes untraced for half the time, then as many passes
again with every layer boundary traced, checks that both produce the
same results, and reports the per-layer metrics (calls and seconds per
pass), the request latencies of the untraced passes, the unattributed
time and the tracing overhead.  Metric names and units are those of
``BENCHMARK.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it gives details (sample counts, tail percentiles, failed
checks).

Every end-to-end time is host-adjusted (see ``hostspeed.py``): wall
time rescaled by a probe of host speed sampled every 50 ms, so that the
host's own speed swings do not read as program changes.  The details
line gives the raw pass times beside the adjusted ones.

The program is imported from ``src/`` next to this directory; nothing
is installed.  Scratch files go to a temporary directory inside
``perfbench/`` that is removed before exit, and every process the run
started (cluster workers, the multiprocessing resource tracker) is
stopped and waited for before it exits.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import resource
import signal
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
#: A pass can outlast ``--seconds``; a median needs more than one pass.
MIN_PASSES = 2
TAIL_BEYOND = 10
TAIL_LADDER = (99.0, 90.0, 75.0)


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(samples):
    """The highest of p99, p90, p75 with at least ten samples beyond it,
    else the median, as ``(value, percentile, count)``.  Beyond p99 the
    values of microsecond calls are garbage-collector and preemption
    noise that does not repeat from run to run."""
    count = len(samples)
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= TAIL_BEYOND:
            return percentile(samples, q), q, count
    return percentile(samples, 50.0), 50.0, count


def run_passes(workload, seconds=None, count=None):
    """Repeat the workload's pass until ``seconds`` have passed (at least
    ``MIN_PASSES`` times) or ``count`` passes ran."""
    from tracer import WireProbes

    probes = WireProbes()
    if workload.wire_probes:
        probes.install()
    passes = []
    started = time.perf_counter()
    try:
        while True:
            passes.append(workload.run_pass(len(passes), probes))
            if count is not None:
                if len(passes) >= count:
                    break
            elif (len(passes) >= MIN_PASSES
                  and time.perf_counter() - started >= seconds):
                break
    finally:
        probes.uninstall()
    return passes, probes


def consistency_problems(workload, reference, passes, what):
    """Every pass must repeat the reference pass's results exactly."""
    expected = {label: workload.decision_view(r) for label, r in reference.results}
    problems = []
    for index, record in enumerate(passes):
        got = {label: workload.decision_view(r) for label, r in record.results}
        for label in sorted(set(expected) | set(got)):
            if expected.get(label) != got.get(label):
                problems.append(f"{what} pass {index}: {label} differs")
    return problems


def pass_seconds(clock, passes):
    return [clock.seconds(*p.span) for p in passes]


def end_to_end(workload, passes, setups, clock):
    """End-to-end metrics; every time is host-adjusted (hostspeed.py)."""
    done = [clock.seconds(*s) for p in passes for s in p.done]
    # A batch workload's first progress is its pass's first result.
    progress = (
        [clock.seconds(*s) for p in passes for s in p.first_progress]
        if workload.name == "service"
        else [clock.seconds(p.span[0], p.done[0][1]) for p in passes]
    )
    walls = pass_seconds(clock, passes)
    setups = [clock.seconds(*s) for s in setups]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epochs_per_s": sum(p.epochs for p in passes) / sum(walls),
        "ttt_sim_h": statistics.fmean(t for p in passes for t in p.ttt_h),
        "done_s_p50": percentile(done, 50.0),
        "first_progress_s_p50": percentile(progress, 50.0),
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_raw_wall_s": [p.span[1] - p.span[0] for p in passes],
        "setup_s_samples": setups,
        "host_probe_ms": clock.probe_ms(),
        "done_samples": len(done),
        "first_progress_samples": len(progress),
    }
    return values, details


def request_latency(workload, passes, probes):
    """Client-side request latencies of the untraced passes: HTTP calls
    on service, head-side wire RPCs on live; batch workloads make no
    requests.  Returns metric values and their sample details."""
    rpc_ms = {
        "service": [s for p in passes for s in p.http_ms], "live": probes.rpc_ms,
    }.get(workload.name, [])
    epoch_ms = probes.epoch_rpc_ms
    values, details = {}, {}
    if rpc_ms:
        values["rpc_ms_p50"] = percentile(rpc_ms, 50.0)
        values["rpc_ms_p99"] = percentile(rpc_ms, 99.0)
    if epoch_ms:
        value, q, count = tail(epoch_ms)
        values["epoch_rtt_ms_p50"] = percentile(epoch_ms, 50.0)
        values["epoch_rtt_ms_tail"] = value
        details["epoch_rtt_ms_tail"] = {"percentile": q, "samples": count}
    details.update(rpc_ms_samples=len(rpc_ms), epoch_rtt_ms_samples=len(epoch_ms))
    return values, details


def layer_value(name, table, counts):
    if name in counts:
        return counts[name]
    if name == "curves.fit.calls":
        return sum(
            row["calls"] for span, row in table.items()
            if span.startswith("curves.fit.")
        )
    if name.startswith("curves.fit.s."):
        family = name[len("curves.fit.s."):]
        return table.get(f"curves.fit.{family}", {}).get("s", 0.0)
    span, _, field = name.rpartition(".")
    return table.get(span, {}).get(field, 0)


def per_layer(benchmark, layers, tracer, traced, untraced, latency, clock):
    """Per-layer metrics.  Span times are raw wall seconds per pass;
    ``trace_overhead_s`` compares host-adjusted pass times."""
    table, covered = tracer.layer_table()
    passes = len(traced)
    traced_wall = sum(p.span[1] - p.span[0] for p in traced)
    values = {}
    for entry in benchmark["per_layer"]:
        name = entry["name"]
        if name == "unattributed_s":
            value = (traced_wall - covered) / passes
        elif name == "trace_overhead_s":
            value = statistics.median(pass_seconds(clock, traced)) - statistics.median(
                pass_seconds(clock, untraced)
            )
        elif name == "host.probe_ms":
            value = clock.probe_ms()
        elif name == "host.raw_wall_s":
            value = statistics.median(p.span[1] - p.span[0] for p in untraced)
        elif layers["per_layer"][name]["layer"] == "request":
            value = latency.get(name, 0.0)
        else:
            value = layer_value(name, table, tracer.counts) / passes
        values[name] = value
    return values


def coverage_problems(layers, workload_name, values):
    problems = []
    for rule in layers["coverage"]:
        value = values[rule["metric"]]
        if workload_name in rule["hot"] and not value > 0:
            problems.append(f"layer coverage: {rule['metric']} is 0, predicted hot")
        if workload_name in rule["idle"] and value != 0:
            problems.append(
                f"layer coverage: {rule['metric']} is {value}, predicted idle"
            )
    return problems


#: prctl option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants (Linux), so
    that :func:`stop_children` can wait for a process whose parent has
    already ended."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids():
    """Process ids whose parent is this process, running or not yet
    waited for (Linux ``/proc``; empty elsewhere)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended:
    multiprocessing children (cluster workers), the multiprocessing
    resource tracker that spawning them starts, and anything left."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker

    stop_tracker = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for _ in range(100):
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"imported repro from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    from hostspeed import HostSpeed
    from tracer import Patcher, Tracer, install_tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # Metric names and units come from BENCHMARK.json; layers.json maps
    # each per-layer metric to its layer.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    listed = benchmark["end_to_end" if args.trace == 0 else "per_layer"]

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    workload = WORKLOADS[args.workload](args.seed, workdir)
    clock = HostSpeed()
    problems = []
    adopt_orphans()
    try:
        clock.start()
        # The first set-up also imports the program and warms its caches;
        # it is not timed.  The untraced run then times warm set-ups.
        workload.setup(0)
        setups = []
        for index in range(1, 1 + (SETUP_REPEATS if args.trace == 0 else 0)):
            workload.teardown()
            started = time.perf_counter()
            workload.setup(index)
            setups.append((started, time.perf_counter()))

        if args.trace == 0:
            passes, probes = run_passes(workload, seconds=args.seconds)
            all_passes, all_probes = passes, [probes]
        else:
            untraced, probes = run_passes(workload, seconds=args.seconds / 2)
            tracer, patcher = Tracer(), Patcher()
            install_tracing(tracer, patcher)
            try:
                traced, traced_probes = run_passes(workload, count=len(untraced))
            finally:
                patcher.restore()
            all_passes, all_probes = untraced + traced, [probes, traced_probes]
        clock.stop()

        if args.trace == 0:
            metrics, details = end_to_end(workload, passes, setups, clock)
        else:
            problems += consistency_problems(workload, untraced[0], traced, "traced")
            latency, details = request_latency(workload, untraced, probes)
            metrics = per_layer(benchmark, layers, tracer, traced, untraced, latency, clock)
            problems += coverage_problems(layers, workload.name, metrics)
            details["passes"] = len(traced)

        problems += consistency_problems(workload, all_passes[0], all_passes, "repeat")
        for record in all_passes:
            problems += record.problems
        problems += workload.final_checks(all_passes)
    finally:
        clock.stop()
        workload.teardown()
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    if workload.name == "live":
        # Epoch RPCs count as attempts too.
        attempted += sum(len(p.epoch_rpc_ms) for p in all_probes)
        failed += sum(p.epoch_rpc_failed for p in all_probes)
    details.update(
        workload=workload.name, seed=args.seed, trace=args.trace,
        problems=sorted(set(problems))[:20],
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
