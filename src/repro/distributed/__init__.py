"""Distributed parameter-server backend: sharded, asynchronous, measured.

Where :mod:`repro.parallel` shares the model through one memory buffer,
this package splits it into shards owned by a server process and moves
every read and write over a length-prefixed binary TCP protocol — the
multi-node half of the paper's synchronous-vs-asynchronous question,
in the lineage of Keuper & Pfreundt's distributed ASGD and Zhao & Li's
fast-async parameter server.  A bounded-staleness gate spans the space
between the two regimes: ``max_staleness=0`` is lock-step (and, with
one worker, bit-identical to serial SGD), ``None`` is unbounded
fast-async.

The tier survives its own server: :class:`CheckpointPolicy` makes the
:class:`ShardServer` persist atomic versioned shard snapshots,
:class:`RemoteServerHandle` supervises a server in its own process and
answers a crash (``server-kill``) or wedge (``server-stall``) with
checkpoint-restore failover, and the workers heal dropped, delayed or
CRC-rejected frames (:class:`~repro.distributed.lossy.FaultyWire`) by
reconnect-and-resume.

Entry points: :func:`train_ps` (surfaced as
``repro.train(..., backend="ps")``), :class:`PsSchedule`,
:class:`ShardServer` for tests and tools, and the wire protocol in
:mod:`repro.distributed.protocol`.  See ``docs/DISTRIBUTED.md``.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointPolicy,
    CheckpointState,
    load_latest,
    read_checkpoint,
    write_checkpoint,
)
from .lossy import WIRE_FAULT_IDENTS, FaultyWire
from .protocol import WireProtocolError
from .server import ShardServer, default_ps_shards, shard_bounds
from .supervisor import RemoteServerHandle
from .train import PsSchedule, PsTrainResult, default_ps_nodes, train_ps

__all__ = [
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointState",
    "FaultyWire",
    "PsSchedule",
    "PsTrainResult",
    "RemoteServerHandle",
    "ShardServer",
    "WIRE_FAULT_IDENTS",
    "WireProtocolError",
    "default_ps_nodes",
    "default_ps_shards",
    "shard_bounds",
    "train_ps",
    "load_latest",
    "read_checkpoint",
    "write_checkpoint",
]
