"""Wrappers that time calls into the program from outside it.

Two kinds of wrapper are installed by monkeypatching public functions
and methods of the ``repro`` package; nothing under ``src/`` changes.

* :class:`WireProbes` time the head-side cluster RPCs behind the live
  workload's request latencies and count failed RPCs.  They are on in
  every run of that workload, traced or not; every other metric is
  timed by the workloads themselves around calls into the program.
* :class:`Tracer` records a span for every call into each layer's
  boundary: name, parent span id, start and end.  Spans stay in memory
  until the run ends; :meth:`Tracer.layer_table` then folds them into
  calls, seconds and self seconds (a span's duration minus the part its
  child spans cover).  A call nested directly inside a span of the same
  name (a ``super()`` call, a predictor wrapping another predictor) is
  folded into its parent instead of counted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Patcher", "Tracer", "WireProbes", "install_tracing"]

_now = time.perf_counter


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------- probes


class WireProbes:
    """Head-side timers on the cluster wire protocol: every RemoteAgent
    RPC and, among them, every ``train_epoch``; failures are counted."""

    def __init__(self) -> None:
        self.patcher = Patcher()
        self.rpc_ms: List[float] = []
        self.epoch_rpc_ms: List[float] = []
        self.rpc_failed = 0
        self.epoch_rpc_failed = 0

    def install(self) -> None:
        from repro.cluster.agent import RemoteAgent

        self.patcher.wrap(RemoteAgent, "_call", self._timer("rpc"))
        self.patcher.wrap(RemoteAgent, "train_epoch", self._timer("epoch_rpc"))

    def _timer(self, kind: str) -> Callable[[Callable], Callable]:
        probes = self
        samples = getattr(self, f"{kind}_ms")

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                started = _now()
                try:
                    return original(*args, **kwargs)
                except Exception:
                    setattr(probes, f"{kind}_failed",
                            getattr(probes, f"{kind}_failed") + 1)
                    raise
                finally:
                    samples.append((_now() - started) * 1e3)
            return wrapper
        return make

    def uninstall(self) -> None:
        self.patcher.restore()


# ---------------------------------------------------------------- tracer


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[List[Tuple[int, int, str, float, float]]] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            buffer: List[Tuple[int, int, str, float, float]] = []
            with self._lock:
                self._buffers.append(buffer)
            state = ([], buffer)
            self._local.state = state
        return state

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(self, name: str, fn: Callable, args, kwargs):
        stack, buffer = self._thread_state()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][1] if stack else 0
        stack.append((name, span_id))
        started = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = _now()
            stack.pop()
            buffer.append((span_id, parent, name, started, ended))

    def wrapper(self, name: str) -> Callable[[Callable], Callable]:
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.span(name, original, args, kwargs)
            return wrapper
        return make

    def spans(self) -> List[Tuple[int, int, str, float, float]]:
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def layer_table(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per span name ``{calls, s, self_s}``, plus the wall seconds
        covered by at least one top-level span on any thread."""
        spans = self.spans()
        child_s: Dict[int, float] = defaultdict(float)
        for _, parent, _, started, ended in spans:
            if parent:
                child_s[parent] += ended - started
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        roots = []
        for span_id, parent, name, started, ended in spans:
            row = table[name]
            row["calls"] += 1
            row["s"] += ended - started
            row["self_s"] += ended - started - child_s.get(span_id, 0.0)
            if not parent:
                roots.append((started, ended))
        covered = 0.0
        reach = float("-inf")
        for started, ended in sorted(roots):
            if ended <= reach:
                continue
            covered += ended - max(started, reach)
            reach = ended
        return dict(table), covered


def install_tracing(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap each layer's public boundary in a span (see layers.json)."""
    import repro.cluster.protocol as protocol
    import repro.curves.fitting as fitting
    import repro.lab.runner as lab_runner
    import repro.registry as registry
    import repro.sim.trace as sim_trace
    from repro.broker.broker import ResourceBroker
    from repro.cluster.agent import RemoteAgent
    from repro.curves.predictor import CurvePredictor
    from repro.framework.job_manager import JobManager
    from repro.framework.node_agent import NodeAgent
    from repro.framework.policy_api import DefaultAllocationMixin
    from repro.framework.scheduler import HyperDriveScheduler
    from repro.lab.store import CellStore
    from repro.policies.base import SchedulingPolicy
    from repro.service.daemon import _Handler
    from repro.service.store import JournalExporter, RunStore
    from repro.sim.engine import SimulationEngine

    span = tracer.wrapper

    # curves: predictor, per-family fit, and the scipy solver as the
    # fitting module calls it.
    for cls in _subclasses(CurvePredictor):
        if "predict" in cls.__dict__:
            patcher.wrap(cls, "predict", span("curves.predict"))

    def fit_model(original):
        @functools.wraps(original)
        def wrapper(model, *args, **kwargs):
            return tracer.span(
                f"curves.fit.{model.name}", original, (model,) + args, kwargs
            )
        return wrapper

    patcher.wrap(fitting, "fit_model", fit_model)
    patcher.wrap(fitting, "optimize", lambda real: _SolverProxy(real, tracer))

    # core/policies: every SAP's decision and allocation entry points.
    for cls in _subclasses(SchedulingPolicy) + [DefaultAllocationMixin]:
        if "on_iteration_finish" in cls.__dict__:
            patcher.wrap(cls, "on_iteration_finish", span("sap.decide"))
        if "allocate_jobs" in cls.__dict__:
            patcher.wrap(cls, "allocate_jobs", span("sap.allocate"))

    # framework and sim.
    patcher.wrap(HyperDriveScheduler, "process_epoch", span("scheduler.process_epoch"))
    patcher.wrap(JobManager, "active_jobs", span("scheduler.active_jobs"))
    patcher.wrap(NodeAgent, "train_epoch", span("workload.step"))
    patcher.wrap(SimulationEngine, "run", span("sim.engine"))

    def schedule(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count("sim.events")
            return original(*args, **kwargs)
        return wrapper

    patcher.wrap(SimulationEngine, "schedule", schedule)
    patcher.wrap(sim_trace, "record_trace", span("sim.record"))

    # workloads.
    patcher.wrap(registry, "build_workload", span("workload.build"))

    # lab.
    patcher.wrap(lab_runner, "execute_cell", span("lab.cell"))
    patcher.wrap(lab_runner, "analyze", span("lab.analyze"))
    patcher.wrap(lab_runner, "render_markdown", span("lab.report"))
    patcher.wrap(lab_runner, "render_json", span("lab.report"))
    patcher.wrap(CellStore, "save_cell", span("lab.store.save"))
    patcher.wrap(CellStore, "write_report", span("lab.report"))

    # service, observability, broker, HTTP.
    for attr, name in (
        ("append_event", "append"), ("get", "get"),
        ("save_checkpoint", "checkpoint"), ("submit", "submit"),
        ("read_events", "read_events"),
    ):
        patcher.wrap(RunStore, attr, span(f"service.store.{name}"))
    patcher.wrap(JournalExporter, "export", span("obs.journal.export"))
    for attr in ("plan", "commit", "release"):
        patcher.wrap(ResourceBroker, attr, span(f"broker.{attr}"))
    for attr, name in (
        ("_post_experiment", "submit"), ("_get_experiment", "status"),
        ("_get_events", "events"),
    ):
        patcher.wrap(_Handler, attr, span(f"http.{name}"))

    # runtime/cluster: head-side RPCs and the frames the head packs.
    def call(original):
        @functools.wraps(original)
        def wrapper(self, method, *args, **kwargs):
            return tracer.span(
                f"cluster.rpc.{method}", original, (self, method) + args, kwargs
            )
        return wrapper

    patcher.wrap(RemoteAgent, "_call", call)

    def pack_frame(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = original(*args, **kwargs)
            tracer.count("cluster.frame.count")
            tracer.count("cluster.frame.bytes", len(frame))
            return frame
        return wrapper

    patcher.wrap(protocol, "pack_frame", pack_frame)


class _SolverProxy:
    """Stands in for ``scipy.optimize`` inside ``repro.curves.fitting``:
    ``least_squares`` is traced, every other attribute passes through."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer

    def least_squares(self, *args, **kwargs):
        result = self._tracer.span(
            "curves.solver", self._real.least_squares, args, kwargs
        )
        self._tracer.count("curves.solver.nfev", int(result.nfev or 0))
        self._tracer.count("curves.solver.njev", int(result.njev or 0))
        return result

    def __getattr__(self, name: str):
        return getattr(self._real, name)


def _subclasses(base: type) -> List[type]:
    found, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found
