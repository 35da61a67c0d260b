"""The execution fabric's resilience knobs.

A :class:`FabricPolicy` bundles the three budgets a caller sets on
:class:`repro.parallel.WorkPool`: the per-task wall-clock deadline,
the retry budget for transient submission/payload failures, and how
many times a broken pool may be rebuilt per run.  Retries are
immediate; the quarantine threshold and the shutdown grace are fixed
constants of :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FabricPolicy:
    """Deadline / retry / resurrection budgets for a run."""

    #: Per-task wall-clock budget in seconds; ``0`` disables deadlines.
    #: On expiry the pool's workers are killed, the task degrades to
    #: in-process execution, and the run keeps its bound of
    #: ``(pool_rebuilds + 1) * task_timeout`` on pool-side stalls.
    task_timeout: float = 0.0
    #: Re-submissions allowed per task for transient payload failures
    #: (unpicklable payloads, failed submissions).  Worker-death retries
    #: are budgeted separately, by ``pool_rebuilds``: every pool break
    #: consumes a pool life, so they cannot loop unboundedly.
    task_retries: int = 1
    #: Times a broken pool may be rebuilt per run before the fabric
    #: gives up and routes everything in-process.
    pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.task_timeout < 0:
            raise ValueError(
                f"task_timeout must be >= 0 (0 disables), "
                f"got {self.task_timeout}"
            )
        if self.task_retries < 0:
            raise ValueError(
                f"task_retries must be >= 0, got {self.task_retries}"
            )
        if self.pool_rebuilds < 0:
            raise ValueError(
                f"pool_rebuilds must be >= 0, got {self.pool_rebuilds}"
            )

    @classmethod
    def from_flow_config(cls, config) -> "FabricPolicy":
        """The policy a :class:`~repro.cts.framework.FlowConfig` asks for.

        Reads the execution-fabric fields (``task_timeout``,
        ``task_retries``, ``pool_rebuilds``) and validates them; any
        object carrying those attributes works.
        """
        return cls(
            task_timeout=float(getattr(config, "task_timeout", 0.0)),
            task_retries=int(getattr(config, "task_retries", 1)),
            pool_rebuilds=int(getattr(config, "pool_rebuilds", 2)),
        )
