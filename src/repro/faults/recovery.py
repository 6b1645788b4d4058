"""Recovery policies: what the parent does when a worker fails.

The HOGWILD! line of work argues lock-free SGD is robust to
interference; this module extends that robustness from *races* to
*failures*.  A :class:`RecoveryPolicy` bounds how hard the supervised
epoch loop of the measured backends
(:func:`repro.faults.supervise.supervise_epochs`) tries to keep a run
alive:

* a pool member's **death** is recovered by rebuilding the pool —
  re-partitioning its examples over the survivors
  (``mode="repartition"``, the default: capacity degrades, coverage
  does not) or respawning at full strength (``mode="respawn"``);
* an epoch **timeout** (a stalled member — no corpse to identify) is
  always recovered by a full respawn;
* a **non-finite model snapshot** (poisoned gradients) is scrubbed from
  the last finite snapshot and the epoch is recorded as degraded;
* a **lost server** (parameter-server backend) is failed over.

Every action consumes one unit of the shared ``max_restarts`` budget,
and each rebuild multiplies the epoch timeout by ``backoff`` (a slow
machine that caused one timeout gets more headroom, not a retry
storm).  Past the budget the next failure raises exactly as an
un-recovered run would, with the pool reaped and the backend closed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.errors import ConfigurationError

__all__ = ["RECOVERY_MODES", "RecoveryPolicy", "CellRetryPolicy"]

#: How a dead worker's partition is handled on rebuild.
RECOVERY_MODES: tuple[str, ...] = ("repartition", "respawn")


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded-retry recovery for the measured backends (shm and ps).

    Attributes
    ----------
    max_restarts:
        Total recovery budget: respawns + repartitions + NaN scrubs +
        server failovers (a run that restarts its server once has one
        fewer worker rebuild left).
        ``0`` disables recovery — identical to passing no policy.
    backoff:
        Epoch-timeout multiplier applied at every pool rebuild
        (exponential backoff; ``1.0`` keeps the timeout constant).
    mode:
        ``"repartition"`` shrinks the pool by the dead worker and
        round-robins its examples over the survivors; ``"respawn"``
        rebuilds at the original worker count.
    scrub_nans:
        Restore non-finite model coordinates from the last finite
        snapshot instead of declaring divergence (consumes budget).
    """

    max_restarts: int = 1
    backoff: float = 2.0
    mode: str = "repartition"
    scrub_nans: bool = True

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.mode not in RECOVERY_MODES:
            raise ConfigurationError(
                f"unknown recovery mode {self.mode!r}; available: {RECOVERY_MODES}"
            )


@dataclass(frozen=True)
class CellRetryPolicy:
    """Bounded-retry recovery for the experiment-grid executor.

    The grid-level sibling of :class:`RecoveryPolicy`: the same
    philosophy — a shared recovery budget, exponential backoff, keep
    making progress — applied to whole grid cells instead of pool
    workers.  Used by :class:`repro.experiments.executor.GridExecutor`
    in keep-going mode; see docs/RESILIENCE.md.

    Attributes
    ----------
    max_attempts:
        Executions one cell may consume, including the first
        (``1`` disables retries for the cell).
    max_restarts:
        Shared grid-wide retry budget: every re-submission — crash,
        stall, worker exception or divergence backoff — consumes one
        unit, exactly like :class:`RecoveryPolicy.max_restarts`.  When
        it runs out, further failures quarantine immediately.
    backoff:
        Re-submission delay multiplier (exponential backoff over the
        cell's retry count; ``1.0`` keeps the delay constant).
    base_delay:
        Delay (seconds) before the first re-submission of a cell.
    deadline:
        Wall-clock budget (seconds) for one attempt of one cell;
        ``None`` disables the deadline.
    heartbeat_timeout:
        Maximum silence (seconds) from a worker's heartbeat before the
        watchdog declares it wedged and kills it; ``None`` disables
        heartbeat monitoring.
    divergence_retries:
        Step-size-backoff retries granted to a cell whose result came
        back with non-finite losses (the divergence sentinel).
    step_backoff:
        Step-size multiplier applied on each divergence retry.
    """

    max_attempts: int = 3
    max_restarts: int = 8
    backoff: float = 2.0
    base_delay: float = 0.05
    deadline: float | None = None
    heartbeat_timeout: float | None = 60.0
    divergence_retries: int = 1
    step_backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.base_delay < 0:
            raise ConfigurationError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(f"deadline must be positive, got {self.deadline}")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ConfigurationError(
                f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        if self.divergence_retries < 0:
            raise ConfigurationError(
                f"divergence_retries must be >= 0, got {self.divergence_retries}"
            )
        if not 0 < self.step_backoff < 1:
            raise ConfigurationError(
                f"step_backoff must be in (0, 1), got {self.step_backoff}"
            )

    @property
    def watchdog_window(self) -> float | None:
        """The tightest stall-detection bound this policy guarantees."""
        bounds = [b for b in (self.deadline, self.heartbeat_timeout) if b is not None]
        return min(bounds) if bounds else None

    def retry_delay(self, retries_so_far: int) -> float:
        """Backoff delay before the ``retries_so_far + 1``-th retry."""
        return self.base_delay * self.backoff**retries_so_far
