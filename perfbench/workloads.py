"""The four benchmark workloads.

Each workload turns ``--seed`` into a fixed list of experiments (one
*pass*), builds what that list needs in ``setup``, and runs the whole
list in ``run_pass``.  A run repeats the same pass until its time is
up, so every pass of one run does identical work.  The program sees
only the generated specs and configurations.

``--seed`` sets every experiment seed (training noise and snapshot
costs).  Configuration sets are the published per-workload sets (the
registry's default generator seeds), so runs with different seeds do
comparable amounts of work.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "PassRecord"]

_now = time.perf_counter


@dataclass
class PassRecord:
    """What one pass produced, for metrics and output checks."""

    #: Wall-clock (start, end) of the pass, of each experiment and (service
    #: only) of each submission's wait for its first checkpoint; run.py
    #: turns them into host-adjusted seconds (hostspeed.py).
    span: Tuple[float, float] = (0.0, 0.0)
    epochs: int = 0
    #: (experiment label, comparable result) in pass order.
    results: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    done: List[Tuple[float, float]] = field(default_factory=list)
    ttt_h: List[float] = field(default_factory=list)
    #: Client-side samples (service only).
    first_progress: List[Tuple[float, float]] = field(default_factory=list)
    http_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, label: str, result: Dict[str, Any], started: float,
            ended: float, ttt_h: Optional[float] = None) -> None:
        """Record one finished experiment; its time to target is the
        result's own unless ``ttt_h`` is given."""
        self.results.append((label, result))
        self.done.append((started, ended))
        self.epochs += result["epochs_trained"]
        self.ttt_h.append(ttt_hours(result) if ttt_h is None else ttt_h)


def comparable(result: Dict[str, Any]) -> Dict[str, Any]:
    """A result dict without its observability digest (which carries
    wall-clock timings), normalised through JSON like stored results."""
    out = {key: value for key, value in result.items() if key != "observability"}
    return json.loads(json.dumps(out))


def ttt_hours(result: Dict[str, Any]) -> float:
    """Time to target in simulated hours; a miss counts as Tmax."""
    if result.get("reached_target") and result.get("time_to_target") is not None:
        return result["time_to_target"] / 3600.0
    return result["spec"]["tmax"] / 3600.0


def _published_configs(workload_name: str, workload, count: int):
    from repro import registry

    generator = registry.build_generator(
        "random", workload, max_configs=count,
        gen_seed=registry.default_gen_seed(workload_name),
    )
    return [generator.create_job()[1] for _ in range(count)]


def _config_set(configs) -> List[str]:
    return sorted(json.dumps(config, sort_keys=True) for config in configs)


class _Workload:
    name = ""
    #: Whether the run times head-side cluster RPCs (tracer.WireProbes).
    wire_probes = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, probes) -> PassRecord:
        raise NotImplementedError

    def decision_view(self, result: Dict[str, Any]) -> Dict[str, Any]:
        """The part of a result that must repeat exactly across passes
        and between the traced and the untraced run."""
        return result

    def final_checks(self, passes: List[PassRecord]) -> List[str]:
        return []

    def teardown(self) -> None:
        pass


class PopStudy(_Workload):
    """Sweep-lab studies of POP cells, run inline by ``StudyRunner``:
    cifar10 cells in the pop-cell shape of ``benchmarks/test_perf_sim.py``
    (24 configurations, 4 machines) on the run's seed and the next two,
    then a shorter lunarlander cell (8 configurations, 15 machines).

    One cifar10 cell's time varies by about 15% between seeds (POP
    trains more or fewer epochs), so a run covers three of them, and each
    pass starts the cifar10 study at the next of its seeds: the pass's
    first result, and so ``first_progress_s_p50``, then spans as many
    seeds as the run makes passes.  Every pass runs the same cells."""

    name = "pop-study"
    #: (workload, configurations, seed offsets)
    CELLS = (("cifar10", 24, (0, 1, 2)), ("lunarlander", 8, (0,)))
    TMAX_HOURS = 24.0

    def setup(self, index: int) -> None:
        from repro import registry
        from repro.analysis.experiments import standard_configs
        from repro.lab.spec import StudySpec

        self.specs = [
            [
                StudySpec(
                    name=f"pop-study-{workload}",
                    policies=("pop",),
                    workloads=(workload,),
                    seeds=tuple(
                        self.seed + offsets[(start + k) % len(offsets)]
                        for k in range(len(offsets))
                    ),
                    num_configs=configs,
                    tmax_hours=self.TMAX_HOURS,
                    baseline={"policy": "pop"},
                )
                for start in range(len(offsets))
            ]
            for workload, configs, offsets in self.CELLS
        ]
        # The fixed configuration set each cell must run, for the check.
        self.expected_configs = {}
        for workload_name, configs, _ in self.CELLS:
            workload = registry.build_workload(workload_name)
            self.expected_configs[workload_name] = _config_set(json.loads(json.dumps(
                standard_configs(workload, configs,
                                 seed=registry.default_gen_seed(workload_name))
            )))

    def run_pass(self, index: int, probes) -> PassRecord:
        from repro.lab.runner import StudyRunner
        from repro.lab.store import CellStore

        record = PassRecord()
        started = _now()
        for number, rotations in enumerate(self.specs):
            spec = rotations[index % len(rotations)]
            store = CellStore(self.workdir / f"study-{index}-{number}")
            runner = StudyRunner(spec, store, max_workers=1)
            # Inline cells run one after another; each ends at a callback.
            ends = [_now()]
            progress = runner.run(on_cell=lambda _progress: ends.append(_now()))
            runner.write_report()
            cells = spec.cells()
            if progress.executed != len(cells):
                record.problems.append(
                    f"{spec.name}: {progress.executed} of {len(cells)} cells executed"
                )
            for cell, start, end in zip(cells, ends, ends[1:]):
                record.attempted += 1
                if not store.has(cell.key()):
                    record.failed += 1
                    record.problems.append(f"cell {cell.label()} did not complete")
                    continue
                result = comparable(store.load_cell(cell.key())["result"])
                configs = [job["config"] for job in result["jobs"]]
                if _config_set(configs) != self.expected_configs[cell.workload]:
                    record.problems.append(f"cell {cell.label()} ran other configs")
                record.add(cell.label(), result, start, end)
            shutil.rmtree(store.root, ignore_errors=True)
        record.span = (started, _now())
        return record


class SchedSim(_Workload):
    """Predictor-free SAPs on a large LunarLander sweep, plus one
    trace record/replay."""

    name = "sched-sim"
    POLICIES = ("default", "hyperband", "learned")
    REPLAY_POLICY = "default"
    MACHINES = 15
    CONFIGS = 400
    TMAX_HOURS = 48.0

    def setup(self, index: int) -> None:
        from repro import registry
        from repro.framework.experiment import ExperimentSpec

        self.workload = registry.build_workload("lunarlander")
        self.configs = _published_configs("lunarlander", self.workload, self.CONFIGS)
        self.spec = ExperimentSpec(
            num_machines=self.MACHINES,
            num_configs=self.CONFIGS,
            tmax=self.TMAX_HOURS * 3600.0,
            seed=self.seed,
        )

    def _simulate(self, record: PassRecord, label, workload, policy, configs):
        from repro import registry
        from repro.sim.runner import run_simulation

        record.attempted += 1
        started = _now()
        result = run_simulation(
            workload, registry.build_policy(policy), configs=configs, spec=self.spec
        )
        out = comparable(result.to_dict())
        record.add(label, out, started, _now())
        return out

    def run_pass(self, index: int, probes) -> PassRecord:
        from repro.sim.trace import TraceWorkload, record_trace

        record = PassRecord()
        started = _now()
        direct = {}
        for policy in self.POLICIES:
            direct[policy] = self._simulate(
                record, policy, self.workload, policy, self.configs
            )
        trace = record_trace(self.workload, self.configs, seed=self.spec.seed)
        replay = self._simulate(
            record, f"replay/{self.REPLAY_POLICY}",
            TraceWorkload(trace), self.REPLAY_POLICY, list(trace.configs),
        )
        record.span = (started, _now())
        if replay != direct[self.REPLAY_POLICY]:
            record.problems.append("trace replay differs from direct simulation")
        return record


class Service(_Workload):
    """An in-process daemon driven over HTTP by two closed-loop clients."""

    name = "service"
    CLIENTS = 2
    PER_CLIENT = 5
    WORKERS = 2
    POLL_S = 0.05

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.service = None

    def submissions(self) -> List[List[Dict[str, Any]]]:
        """Per client, the experiments it submits in order."""
        return [
            [
                {
                    "workload": "cifar10",
                    "policy": "hyperband",
                    "configs": 24,
                    "seed": self.seed * 1000 + client * self.PER_CLIENT + k,
                    "tmax_hours": 48.0,
                }
                for k in range(self.PER_CLIENT)
            ]
            for client in range(self.CLIENTS)
        ]

    def setup(self, index: int) -> None:
        from repro import registry
        from repro.service.client import ServiceClient
        from repro.service.daemon import ExperimentService

        self.service = ExperimentService(
            self.workdir / f"service-{index}", workers=self.WORKERS
        )
        self.service.start()
        ServiceClient(self.service.url).health()
        # The in-process reference the output check replays against.
        self.reference_workload = registry.build_workload("cifar10")

    def _client(self, url: str, plan, record: PassRecord, lock) -> None:
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.store import (
            CANCELLED, COMPLETED, FAILED, INTERRUPTED,
        )

        TERMINAL = (COMPLETED, FAILED, CANCELLED, INTERRUPTED)

        client = ServiceClient(url, max_retries=0)

        def call(fn, *args):
            started = _now()
            try:
                return fn(*args)
            except ServiceError as exc:
                with lock:
                    record.failed += 1
                    record.problems.append(f"HTTP call failed: {exc}")
                return None
            finally:
                with lock:
                    record.attempted += 1
                    record.http_ms.append((_now() - started) * 1e3)

        for submission in plan:
            started = _now()
            with lock:
                record.attempted += 1
            created = call(client.submit, submission)
            if created is None:
                with lock:
                    record.failed += 1
                continue
            first_progress = None
            status = None
            while True:
                status = call(client.get, created["id"])
                if status is None:
                    break
                if first_progress is None and status.get("checkpoint") is not None:
                    first_progress = (started, _now())
                if status["status"] in TERMINAL:
                    break
                time.sleep(self.POLL_S)
            done = _now()
            events = call(client.events, created["id"])
            with lock:
                if status is None or status["status"] != COMPLETED or not events:
                    record.failed += 1
                    record.problems.append(
                        f"experiment {created['id']} ended "
                        f"{None if status is None else status['status']}"
                    )
                    continue
                record.add(
                    json.dumps(submission, sort_keys=True),
                    comparable(status["result"]), started, done,
                )
                if first_progress is not None:
                    record.first_progress.append(first_progress)

    def run_pass(self, index: int, probes) -> PassRecord:
        record = PassRecord()
        lock = threading.Lock()
        threads = [
            threading.Thread(
                target=self._client,
                args=(self.service.url, plan, record, lock),
                name=f"bench-client-{n}",
            )
            for n, plan in enumerate(self.submissions())
        ]
        started = _now()
        for thread in threads:
            thread.start()
        for thread in threads:
            # Wake every 10 ms: the host-speed timer's handler runs only
            # on this thread, and a plain join would hold it back.
            while thread.is_alive():
                thread.join(0.01)
        record.span = (started, _now())
        return record

    def final_checks(self, passes: List[PassRecord]) -> List[str]:
        """Each stored result equals the same Submission run in-process."""
        from repro.service.submission import Submission
        from repro.sim.runner import run_simulation

        problems = []
        expected: Dict[str, Dict[str, Any]] = {}
        for plan in self.submissions():
            for payload in plan:
                submission = Submission.from_dict(payload)
                generator = submission.build_generator(self.reference_workload)
                configs = [generator.create_job()[1] for _ in range(submission.configs)]
                result = run_simulation(
                    self.reference_workload, submission.build_policy(),
                    configs=configs, spec=submission.build_spec(),
                )
                expected[json.dumps(payload, sort_keys=True)] = comparable(result.to_dict())
        for record in passes:
            for key, result in record.results:
                if result != expected.get(key):
                    problems.append(f"service result differs in-process: {key}")
        return problems

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


class Live(_Workload):
    """A small HyperBand experiment on the multi-process cluster runtime
    with two workers on the run's seed, then on the threaded runtime on
    the next seed.  The time scale is small enough that epoch pacing is
    a few milliseconds of a run: wall time is driver, RPC and worker
    start-up overhead.  The cluster run comes first, so the pass's first
    result (``first_progress_s_p50``) is a CPU-bound interval; the
    threaded run's ~60 ms are bound by thread wake-ups, not host speed,
    and host adjustment would only add noise to them alone."""

    name = "live"
    wire_probes = True
    MACHINES = 2
    CONFIGS = 24
    TMAX_HOURS = 48.0
    TIME_SCALE = 1e-7

    def setup(self, index: int) -> None:
        from repro import registry
        from repro.framework.experiment import ExperimentSpec

        from repro.sim.runner import run_simulation

        self.workload = registry.build_workload("cifar10")
        self.configs = _published_configs("cifar10", self.workload, self.CONFIGS)
        self.specs = {
            label: ExperimentSpec(
                num_machines=self.MACHINES,
                num_configs=self.CONFIGS,
                tmax=self.TMAX_HOURS * 3600.0,
                seed=self.seed + offset,
            )
            for label, offset in (("cluster", 0), ("live", 1))
        }
        # The same experiments on the simulated clock.  A live run paces
        # epochs on the wall clock, so its own time to target is a host
        # timer; when its decisions equal the simulation's, the
        # simulation's time to target is the live run's on the clock of
        # scheduled epoch durations.
        self.twins = {
            label: comparable(run_simulation(
                self.workload, registry.build_policy("hyperband"),
                configs=self.configs, spec=spec,
            ).to_dict())
            for label, spec in self.specs.items()
        }

    def run_pass(self, index: int, probes) -> PassRecord:
        from repro import registry
        from repro.cluster.runtime import run_cluster
        from repro.runtime.local import run_live

        record = PassRecord()
        started = _now()
        for label, runner in (("cluster", run_cluster), ("live", run_live)):
            record.attempted += 1
            failures_before = probes.rpc_failed
            experiment_started = _now()
            result = runner(
                self.workload, registry.build_policy("hyperband"),
                configs=self.configs, spec=self.specs[label],
                time_scale=self.TIME_SCALE,
            )
            out = comparable(result.to_dict())
            twin = self.twins[label]
            record.add(label, out, experiment_started, _now(), ttt_hours(twin))
            if self.decision_view(out) != self.decision_view(twin):
                record.problems.append(f"{label} run decides unlike the simulation")
            moved = [
                event for event in out["lifecycle"]
                if event["kind"] in ("machine_failed", "machine_drained")
            ]
            if (
                not out["reached_target"] or out["machine_failures"]
                or moved or probes.rpc_failed != failures_before
            ):
                record.failed += 1
                record.problems.append(
                    f"{label} run: reached={out['reached_target']} "
                    f"failures={out['machine_failures']} moved={len(moved)} "
                    f"rpc_failed={probes.rpc_failed - failures_before}"
                )
        record.span = (started, _now())
        return record

    def decision_view(self, result: Dict[str, Any]) -> Dict[str, Any]:
        # Live runs pace epochs on the wall clock, so timestamps differ
        # between runs; the decisions, the metric streams and the
        # scheduled epoch durations must not.
        return {
            "reached_target": result["reached_target"],
            "best_metric": result["best_metric"],
            "best_job_id": result["best_job_id"],
            "epochs_trained": result["epochs_trained"],
            "jobs": [
                (job["job_id"], job["state"], job["metrics"], job["durations"])
                for job in result["jobs"]
            ],
        }


WORKLOADS = {cls.name: cls for cls in (PopStudy, SchedSim, Service, Live)}
