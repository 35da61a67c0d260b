"""Process-pool fan-out: one task/result contract for every caller.

Four callers fan independent tasks out over :class:`WorkPool`: cluster
routing (the hierarchical level loop of paper Fig. 3 routes each
cluster net independently), sweeps, serve and predict.  The pool owns
the whole contract, so each caller only names what to run:

* **worker side** — the pool's initializer resets the worker's
  inherited ``TRACER``/``METRICS`` and starts the metrics event log,
  then runs the caller's optional initializer (the per-pool context,
  e.g. the flow engine).  Each task runs against freshly reset
  metrics and tracer state, and its result travels home with the
  task's metrics snapshot, captured spans and the worker pid;
* **parent side** — :meth:`WorkPool.map` returns exactly one result per
  task, in task order, and never ``None``.  Walking the tasks in order
  it replays each worker result's metrics
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge_raw`) and adopts its
  spans under the caller's open span
  (:meth:`~repro.obs.tracer.Tracer.adopt`, stamped ``worker=<pid>``);
  a task that fell off the resilience ladder instead runs
  ``inline(task, (code, detail))`` in the parent at that position.
  Worker updates and in-process updates therefore land in the order a
  serial run would have produced them.

Failure handling climbs the :mod:`repro.resilience` degradation ladder
(docs/PARALLELISM.md, "Failure model"):

    deadline → retry → resurrect → quarantine → in-process

A task that exceeds its wall-clock budget has its workers killed and
degrades with code ``timeout``; a transient failure (unpicklable
payload) is re-submitted at once, up to ``task_retries`` times, then
degrades as ``fault``, as does a task whose worker raised; a broken
pool is rebuilt — initializer re-run — up to ``pool_rebuilds`` times,
after which every remaining task degrades as ``pool_lost``; a task that
keeps breaking the pool (confirmed by re-running suspects one at a
time, so innocent co-runners are never blamed) is ``quarantine``\\ d
in-process for the rest of the pool's life.  Every rung ends in the
same computation running *somewhere*, so results stay byte-identical
however bumpy the run was; the bumps land in ``WorkPool.health`` (a
:class:`~repro.resilience.RunHealth`) and the ``fabric.*`` metrics,
never in results.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.resilience import FabricChaos, FabricPolicy, RunHealth, chaos_call
from repro.resilience.chaos import Unpicklable

_LOG = get_logger("parallel")

#: Seconds a shutdown waits for workers to exit before terminating
#: (then killing) them: bounds run-end latency, leaves no orphans.
SHUTDOWN_GRACE = 5.0

#: Pool breaks (confirmed in isolation, or deadline expiries) a task may
#: cause before it is quarantined in-process for the pool's life.
QUARANTINE_AFTER = 2


def resolve_jobs(jobs: int) -> int:
    """Effective worker count: ``jobs >= 1`` verbatim, else CPU count."""
    if jobs >= 1:
        return jobs
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_worker_trace = False     # set once per worker by _init_pool_worker


def _init_pool_worker(trace: bool, initializer, initargs: tuple) -> None:
    global _worker_trace
    _worker_trace = trace
    # a forked worker inherits the parent's collected spans/metrics;
    # they must not leak into (or double-count with) task snapshots
    TRACER.reset()
    TRACER.disable()
    METRICS.reset()
    # ordered update log: lets the parent replay this worker's metric
    # updates bit-exactly in serial task order (see metrics.merge_raw)
    METRICS.begin_event_log()
    if initializer is not None:
        initializer(*initargs)


def _tracked_call(sentinel_dir: str, token: str, fn, task, mode, arg):
    """Run one task in a worker; returns ``(result, metrics, spans, pid)``.

    The task runs against freshly reset metrics and tracer state, so
    what ships home depends on nothing but the task.  The sentinel file
    exists exactly while the task is *executing*: created before the
    call, removed on any normal completion (including an ordinary
    exception, which leaves the worker alive).  A sentinel that
    survives a pool break therefore marks a task whose execution the
    break interrupted — the parent's blame evidence for the quarantine
    rung.  A chaos ``kill`` exits before the cleanup runs, exactly like
    a real segfault/OOM-kill would.
    """
    METRICS.reset()
    TRACER.reset()
    TRACER.enabled = _worker_trace
    path = os.path.join(sentinel_dir, token)
    try:
        with open(path, "w"):
            pass
    except OSError:  # ledger unavailable: run anyway, blame-blind
        path = None
    try:
        if mode is not None:
            result = chaos_call(fn, task, mode, arg)
        else:
            result = fn(task)
    finally:
        TRACER.enabled = False
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
    return result, METRICS.raw_snapshot(), list(TRACER.roots), os.getpid()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Fallback(NamedTuple):
    """Why a task fell off the ladder: handed to the caller's ``inline``."""

    code: str     # "timeout" | "fault" | "quarantine" | "pool_lost"
    detail: str


class WorkPool:
    """A lazily-created process pool with per-task degradation.

    Tasks must be picklable and the mapped function a module-level
    callable; per-pool worker context is installed by ``initializer``
    (called with ``initargs`` after the pool's own worker set-up).
    ``trace`` turns span capture on in the workers; the parent adopts
    captured spans only while its own tracer is enabled.

    ``health`` collects every resilience action taken.  ``chaos``, when
    set, injects deterministic seeded faults into submissions — the
    test/CI harness for the ladder.  The executor is created lazily on
    the first batch, so a pool that never sees work costs nothing;
    ``fork`` is preferred when available (the initializer context then
    rides the memory image instead of a pickle round-trip).
    """

    def __init__(
        self,
        jobs: int,
        initializer=None,
        initargs: tuple = (),
        trace: bool = False,
        policy: FabricPolicy | None = None,
        chaos: FabricChaos | None = None,
        health: RunHealth | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else FabricPolicy()
        self.chaos = chaos
        self.health = health if health is not None else RunHealth()
        self._initargs = (trace, initializer, initargs)
        self._executor: ProcessPoolExecutor | None = None
        self._dead = False
        self._built = False            # first construction happened
        self._rebuilds_used = 0
        self._strikes: dict[str, int] = {}     # label -> pool-break count
        self._quarantined: set[str] = set()    # labels routed in-process
        self._sentinel_dir: str | None = None
        self._token_counter = 0

    # -- lifecycle ------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        if self._dead:
            return None
        if self._executor is not None:
            return self._executor
        rebuilding = self._built
        if rebuilding:
            if self._rebuilds_used >= self.policy.pool_rebuilds:
                self._dead = True
                METRICS.inc("fabric.pool.lost")
                self.health.record(
                    "pool_lost",
                    detail=(f"rebuild budget "
                            f"({self.policy.pool_rebuilds}) exhausted; "
                            f"remaining tasks run in-process"),
                )
                _LOG.warning("pool rebuild budget (%d) exhausted; "
                             "running everything in-process",
                             self.policy.pool_rebuilds)
                return None
            self._rebuilds_used += 1
        try:
            if self._sentinel_dir is None:
                self._sentinel_dir = tempfile.mkdtemp(prefix="repro-fabric-")
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=ctx,
                initializer=_init_pool_worker,
                initargs=self._initargs,
            )
        except Exception as exc:  # noqa: BLE001 — degrade, don't abort
            _LOG.warning("process pool unavailable (%s); "
                         "falling back to in-process execution", exc)
            self._dead = True
            return None
        self._built = True
        if rebuilding:
            METRICS.inc("fabric.pool.resurrected")
            self.health.record(
                "resurrect", attempt=self._rebuilds_used,
                detail=(f"broken pool rebuilt "
                        f"({self._rebuilds_used}/"
                        f"{self.policy.pool_rebuilds}); initializer re-run"),
            )
            _LOG.warning("broken process pool rebuilt (%d/%d)",
                         self._rebuilds_used, self.policy.pool_rebuilds)
        return self._executor

    def _kill_workers(self) -> None:
        """Hard-kill every live worker (deadline enforcement)."""
        executor = self._executor
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 — already gone
                pass

    def _teardown_executor(self) -> None:
        """Drop the current executor and reap its workers (bounded)."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        procs = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — broken pools may throw here
            pass
        self._reap(procs)

    @staticmethod
    def _reap(procs) -> None:
        """Join workers within :data:`SHUTDOWN_GRACE`; terminate, then
        kill — no orphaned children outlive the pool."""
        deadline = time.monotonic() + SHUTDOWN_GRACE
        for proc in procs:
            if proc.is_alive():
                proc.join(max(0.0, deadline - time.monotonic()))
        stragglers = [p for p in procs if p.is_alive()]
        for proc in stragglers:
            proc.terminate()
        for proc in stragglers:
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)

    def shutdown(self) -> None:
        self._teardown_executor()
        if self._sentinel_dir is not None:
            shutil.rmtree(self._sentinel_dir, ignore_errors=True)
            self._sentinel_dir = None

    def __enter__(self) -> "WorkPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    # -- ledger ---------------------------------------------------------
    def _next_token(self) -> str:
        self._token_counter += 1
        return f"t{self._token_counter}"

    def _had_started(self, token: str) -> bool:
        if self._sentinel_dir is None:
            return False
        return os.path.exists(os.path.join(self._sentinel_dir, token))

    def _drop_sentinel(self, token: str) -> None:
        if self._sentinel_dir is None:
            return
        try:
            os.unlink(os.path.join(self._sentinel_dir, token))
        except OSError:
            pass

    # -- bookkeeping ----------------------------------------------------
    def _degrade(self, shipped: list, index: int, label: str, code: str,
                 detail: str) -> None:
        """Task ``index`` falls off the ladder: it will run inline."""
        shipped[index] = _Fallback(code, detail)
        METRICS.inc("fabric.task.degraded")
        self.health.record("degraded", task=label, detail=detail)

    def _strike(self, label: str) -> bool:
        """One pool-break/timeout strike; True once ``label`` is poison."""
        self._strikes[label] = self._strikes.get(label, 0) + 1
        if (self._strikes[label] >= QUARANTINE_AFTER
                and label not in self._quarantined):
            self._quarantined.add(label)
            METRICS.inc("fabric.task.quarantined")
            self.health.record(
                "quarantine", task=label,
                detail=(f"broke the pool {self._strikes[label]} time(s); "
                        f"routed in-process for the rest of the run"),
            )
            _LOG.warning("task %s quarantined after %d pool break(s)",
                         label, self._strikes[label])
        return label in self._quarantined

    # -- mapping --------------------------------------------------------
    def run_one(self, fn, task, inline, describe=str,
                timeout: float | None = None):
        """Run a single task; the serve layer's submission hook.

        A :meth:`map` of one, keeping the whole resilience ladder per
        submission.  ``timeout`` overrides the policy's
        ``task_timeout`` for this call only — how :mod:`repro.serve`
        rides a *per-request* deadline on the shared ladder.
        """
        return self.map(fn, [task], inline, describe, timeout)[0]

    def map(self, fn, tasks: list, inline, describe=str,
            timeout: float | None = None) -> list:
        """Run ``fn`` over ``tasks``; one result per task, in task order.

        Results come back in task order with each worker's metrics
        replayed and spans adopted at its task's position; a task that
        fell off the ladder is replaced, at the same position, by
        ``inline(task, (code, detail))`` run in this process.
        ``describe(task)`` labels failure logs, health events and the
        quarantine ledger.  ``timeout``, when given, overrides
        ``policy.task_timeout`` for this call (0 disarms the deadline).
        """
        shipped = self._run(fn, tasks, [describe(t) for t in tasks],
                            timeout)
        results = []
        for task, item in zip(tasks, shipped):
            if isinstance(item, _Fallback):
                results.append(inline(task, item))
                continue
            result, metrics, spans, pid = item
            METRICS.merge_raw(metrics)
            if spans and TRACER.enabled:
                TRACER.adopt(spans, tid=pid, worker=pid)
            results.append(result)
        return results

    def _run(self, fn, tasks: list, labels: list[str],
             timeout: float | None) -> list:
        """Climb the ladder: each entry ends shipped home or a fallback."""
        shipped: list = [None] * len(tasks)
        queue: list[int] = []
        for i, label in enumerate(labels):
            if label in self._quarantined:
                self._degrade(shipped, i, label, "quarantine",
                              "task is quarantined; running in-process")
            else:
                queue.append(i)
        transient = {i: 0 for i in queue}   # transient-retry budget used
        isolation: set[int] = set()         # suspects: run one at a time
        drawn: set[int] = set()             # chaos draw consumed

        while queue:
            executor = self._ensure_executor()
            if executor is None:
                for i in queue:
                    self._degrade(shipped, i, labels[i], "pool_lost",
                                  "no usable process pool; "
                                  "running in-process")
                break
            suspects = [i for i in queue if i in isolation]
            batch = [suspects[0]] if suspects else list(queue)
            submitted: dict[int, tuple] = {}   # index -> (future, token)
            for i in batch:
                mode, arg = None, 0.0
                if self.chaos is not None and i not in drawn:
                    drawn.add(i)
                    fault = self.chaos.draw()
                    if fault is not None:
                        mode, arg = fault
                        _LOG.warning("chaos: injecting %r into %s",
                                     mode, labels[i])
                payload = tasks[i]
                if mode == "corrupt":
                    payload, mode = Unpicklable(payload), None
                token = self._next_token()
                try:
                    future = executor.submit(
                        _tracked_call, self._sentinel_dir, token,
                        fn, payload, mode, arg,
                    )
                except Exception as exc:  # noqa: BLE001 — pool broke
                    _LOG.warning("task submission failed (%s); "
                                 "rebuilding the pool", exc)
                    break
                submitted[i] = (future, token)
            queue = [i for i in queue if i not in submitted]
            if not submitted:
                # the very first submission failed: the pool is gone;
                # tearing it down costs a rebuild life, which bounds
                # this loop by the policy's resurrection budget
                self._teardown_executor()
                continue
            requeue = self._collect(submitted, labels, transient,
                                    isolation, shipped, timeout)
            queue = sorted(set(queue) | set(requeue))
        return shipped

    def _collect(
        self,
        submitted: dict[int, tuple],
        labels: list[str],
        transient: dict[int, int],
        isolation: set[int],
        shipped: list,
        timeout_override: float | None = None,
    ) -> list[int]:
        """Resolve one submitted batch; returns indices to re-queue.

        Futures resolve in submission order.  With a deadline armed,
        each future gets up to ``task_timeout`` seconds *from the
        moment the parent starts waiting on it* — a conservative
        per-task budget (waits overlap siblings' execution, so nothing
        is killed early) whose worst-case stall per hung chain is one
        budget, because an expiry kills the pool and costs a
        resurrection life.
        """
        timeout = self.policy.task_timeout if timeout_override is None \
            else timeout_override
        requeue: list[int] = []
        killed_by_deadline = False
        broke = False
        for i in sorted(submitted):
            future, token = submitted[i]
            label = labels[i]
            if timeout > 0 and not future.done():
                done, _ = futures_wait([future], timeout=timeout)
                if not done:
                    METRICS.inc("fabric.task.timeout")
                    self.health.record(
                        "timeout", task=label,
                        detail=(f"exceeded the {timeout:g}s wall-clock "
                                f"budget; workers killed"),
                    )
                    _LOG.warning("task %s exceeded its %gs deadline; "
                                 "killing workers and running it "
                                 "in-process", label, timeout)
                    self._strike(label)
                    self._degrade(
                        shipped, i, label, "timeout",
                        f"task exceeded its {timeout:g}s deadline; "
                        f"ran in-process",
                    )
                    self._drop_sentinel(token)
                    self._kill_workers()
                    killed_by_deadline = True
                    broke = True
                    continue
            try:
                shipped[i] = future.result()
            except Exception as exc:  # noqa: BLE001 — classified below
                self._resolve_failure(
                    i, label, token, exc, transient, isolation, requeue,
                    killed_by_deadline, shipped,
                )
                if isinstance(exc, BrokenProcessPool):
                    broke = True
            else:
                self._drop_sentinel(token)
        if broke:
            self._teardown_executor()
        return requeue

    def _resolve_failure(
        self,
        i: int,
        label: str,
        token: str,
        exc: Exception,
        transient: dict[int, int],
        isolation: set[int],
        requeue: list[int],
        killed_by_deadline: bool,
        shipped: list,
    ) -> None:
        """Classify one failed future onto the resilience ladder."""
        started = self._had_started(token)
        self._drop_sentinel(token)
        if isinstance(exc, BrokenProcessPool):
            if killed_by_deadline or not started:
                # collateral damage of a deadline kill, or never even
                # started: presumed innocent, re-queued for free (the
                # break itself already cost a resurrection life)
                METRICS.inc("fabric.task.retry")
                self.health.record(
                    "retry", task=label,
                    detail="re-queued after a pool break it did not cause",
                )
                requeue.append(i)
            elif self._strike(label):
                self._degrade(shipped, i, label, "quarantine",
                              "task broke the pool repeatedly; "
                              "quarantined and ran in-process")
            else:
                # started-but-unfinished at the break: suspect.  Re-run
                # solo so a second break convicts it without ever
                # blaming an innocent co-runner.
                isolation.add(i)
                METRICS.inc("fabric.task.retry")
                self.health.record(
                    "retry", task=label, attempt=self._strikes.get(label, 0),
                    detail="suspected of breaking the pool; "
                           "re-queued in isolation",
                )
                requeue.append(i)
        elif isinstance(exc, pickle.PicklingError):
            transient[i] = transient.get(i, 0) + 1
            if transient[i] <= self.policy.task_retries:
                METRICS.inc("fabric.task.retry")
                self.health.record(
                    "retry", task=label, attempt=transient[i],
                    detail=f"transient submission failure ({exc}); "
                           f"re-submitting",
                )
                requeue.append(i)
            else:
                self._degrade(
                    shipped, i, label, "fault",
                    f"submission kept failing "
                    f"({exc.__class__.__name__}: {exc}); ran in-process",
                )
        else:
            _LOG.warning("worker failed on %s (%s: %s)",
                         label, exc.__class__.__name__, exc)
            self._degrade(
                shipped, i, label, "fault",
                f"worker failed ({exc.__class__.__name__}: {exc}); "
                f"ran in-process",
            )
