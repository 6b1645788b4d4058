"""Deterministic fault injection and recovery for the measured backends.

``repro.faults`` makes failure a *scenario the system measures and
survives* instead of a crash: :class:`FaultPlan` schedules seeded,
reproducible faults (worker kills, stalls, late barrier arrivals, NaN
poisoning) into a measured run, and :class:`RecoveryPolicy` bounds how
the parent recovers — repartition onto survivors or respawn, with
exponential timeout backoff and a shared retry budget.  The policy is
interpreted in one place, the supervised epoch loop both measured
backends run (:mod:`repro.faults.supervise`; imported by the backends,
not from here).  Recovery actions surface as ``fault.*`` telemetry
counters and a per-run recovery trajectory in the manifest (see
``docs/RESILIENCE.md`` and ``docs/OBSERVABILITY.md``).

The same machinery extends one layer up: grid-level fault kinds
(``cell-kill`` / ``cell-stall`` / ``cell-nan``) chaos-test the
experiment-grid executor, and :class:`CellRetryPolicy` bounds how hard
the grid retries a failing cell before quarantining it
(see ``docs/RESILIENCE.md``) — and one layer out: node-level kinds
(``node-kill`` / ``node-stall``) target whole worker processes of the
distributed parameter-server backend (see ``docs/DISTRIBUTED.md``),
server-level kinds (``server-kill`` / ``server-stall``) target the
shard server itself, and wire-level kinds (``conn-drop`` /
``frame-delay`` / ``frame-corrupt``) target one worker's connection
through the seeded lossy-wire wrapper.
"""

from .plan import (
    ALL_FAULT_KINDS,
    FAULT_KINDS,
    GRID_FAULT_KINDS,
    NODE_FAULT_KINDS,
    SERVER_FAULT_KINDS,
    WIRE_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from .recovery import RECOVERY_MODES, CellRetryPolicy, RecoveryPolicy

__all__ = [
    "FAULT_KINDS",
    "GRID_FAULT_KINDS",
    "NODE_FAULT_KINDS",
    "SERVER_FAULT_KINDS",
    "WIRE_FAULT_KINDS",
    "ALL_FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "RECOVERY_MODES",
    "RecoveryPolicy",
    "CellRetryPolicy",
]
