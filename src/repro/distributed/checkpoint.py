"""Atomic, versioned shard checkpoints for the parameter server.

A checkpoint is one self-validating binary file capturing a
*consistent cut* of the shard server: the float64 model, the per-shard
version vector, the released epoch, and every worker's work-item clock
— all captured in one critical section (the server's registry mutex),
so the file never mixes a pre-push model with a post-push clock.
That consistency is what makes crash-restart failover exact: a
restored server at worker clock *c* holds precisely the model those
*c* items produced, and the reconnecting worker rewinds to *c* and
replays forward — nothing is double-applied, nothing is silently lost
(with one lock-step node the replayed epoch stays bit-identical to
serial SGD).

Writes are atomic against crashes of the *writer*: the bytes go to a
``tempfile.mkstemp`` sibling in the checkpoint directory, are fsynced,
and land under their final name via ``os.replace`` — a reader can
never observe a half-written ``ckpt-*.ckpt`` file, and a writer killed
mid-write leaves only a ``.tmp`` orphan that the restore path ignores
and the next successful write sweeps (the chaos drill asserts the
directory ends clean).  Corruption of a *finished*
file (torn disk, bit rot) is caught by two CRC32s — one over the
header, one over the parameter payload — and :func:`load_latest`
simply falls back to the next-newest file that validates.

File layout (big-endian)::

    magic "PSCKPT01" | flags u8 | n_params u64 | n_shards u16
    | released_epoch u64 | n_clocks u16
    | versions u64[n_shards] | clocks (u16 id, u64 clock)[n_clocks]
    | header_crc u32 | params f64[n_params] | payload_crc u32

``flags`` bit 0 marks an *epoch-boundary* checkpoint: written while
every worker sat at the barrier, so the captured model is exactly the
end-of-epoch state the parent's loss curve recorded.
"""

from __future__ import annotations

import os
import re
import struct
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

from ..utils.errors import ConfigurationError, DataFormatError

__all__ = [
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointState",
    "checkpoint_path",
    "write_checkpoint",
    "read_checkpoint",
    "load_latest",
]

_MAGIC = b"PSCKPT01"
_FIXED = struct.Struct("!8sBQHQH")  # magic, flags, n_params, n_shards, epoch, n_clocks
_CLOCK_ENTRY = struct.Struct("!HQ")  # worker id, work-item clock
_CRC = struct.Struct("!I")

#: Epoch-boundary flag bit (quiescent barrier state; the preferred
#: restore point when the replayed epoch must stay serial-exact).
FLAG_BOUNDARY = 0x01

_NAME_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")


class CheckpointError(DataFormatError):
    """A checkpoint file that fails structural or checksum validation."""


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where the shard server's background writer persists.

    Attributes
    ----------
    dir:
        Directory checkpoints land in (created on first use).
    every_items:
        Write after this many pushes since the last checkpoint
        (``None`` = no item trigger).
    every_seconds:
        Write after this many seconds since the last checkpoint
        (``None`` = no time trigger).  With both triggers ``None`` the
        background writer stays idle and only the parent's
        epoch-boundary flushes persist.
    """

    dir: str
    every_items: int | None = None
    every_seconds: float | None = None

    def __post_init__(self) -> None:
        if not self.dir:
            raise ConfigurationError("checkpoint dir must be a non-empty path")
        if self.every_items is not None and self.every_items < 1:
            raise ConfigurationError(
                f"checkpoint every_items must be >= 1, got {self.every_items}"
            )
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ConfigurationError(
                f"checkpoint every_seconds must be positive, "
                f"got {self.every_seconds}"
            )


@dataclass
class CheckpointState:
    """One decoded checkpoint (plus where it came from)."""

    params: np.ndarray
    versions: list[int]
    released_epoch: int
    clocks: dict[int, int]
    boundary: bool
    seq: int
    path: str


def checkpoint_path(directory: str, seq: int) -> str:
    """Final on-disk name of checkpoint *seq* (sortable, monotonic)."""
    return os.path.join(directory, f"ckpt-{seq:08d}.ckpt")


def write_checkpoint(
    directory: str,
    seq: int,
    *,
    params: np.ndarray,
    versions: list[int],
    released_epoch: int,
    clocks: dict[int, int],
    boundary: bool = False,
) -> str:
    """Atomically persist one consistent cut; returns the final path.

    The caller owns consistency (capture everything under the server's
    registry mutex); this function owns atomicity: mkstemp in the target
    directory, write + fsync, ``os.replace`` onto the final name — the
    rename is atomic on POSIX, so a concurrent reader sees either the
    whole file or no file.
    """
    os.makedirs(directory, exist_ok=True)
    # Sweep orphans from a writer SIGKILLed mid-write.  The directory
    # has one write at a time (the server serialises its own writers,
    # and a failover replaces the server only after the old generation
    # is dead), so any .tmp here is a corpse's, never a peer's.
    for name in os.listdir(directory):
        if name.startswith("ckpt-") and name.endswith(".tmp"):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:  # pragma: no cover - racing cleanup
                pass
    params = np.ascontiguousarray(params, dtype=np.float64)
    if len(versions) > 0xFFFF or len(clocks) > 0xFFFF:
        raise ConfigurationError("checkpoint shard/clock table too large")
    head = _FIXED.pack(
        _MAGIC,
        FLAG_BOUNDARY if boundary else 0,
        params.shape[0],
        len(versions),
        released_epoch,
        len(clocks),
    )
    head += struct.pack(f"!{len(versions)}Q", *versions)
    for worker_id in sorted(clocks):
        head += _CLOCK_ENTRY.pack(worker_id, clocks[worker_id])
    payload = params.tobytes()
    blob = (
        head
        + _CRC.pack(zlib.crc32(head))
        + payload
        + _CRC.pack(zlib.crc32(payload))
    )
    fd, tmp = tempfile.mkstemp(dir=directory, prefix="ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        final = checkpoint_path(directory, seq)
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return final


def read_checkpoint(path: str) -> CheckpointState:
    """Decode and validate one checkpoint file.

    Raises :class:`CheckpointError` on any structural defect or CRC
    mismatch — a half-valid checkpoint is never partially applied.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if len(blob) < _FIXED.size + _CRC.size:
        raise CheckpointError(f"checkpoint {path} is truncated")
    magic, flags, n_params, n_shards, epoch, n_clocks = _FIXED.unpack_from(blob)
    if magic != _MAGIC:
        raise CheckpointError(f"checkpoint {path} has a bad magic {magic!r}")
    head_len = _FIXED.size + 8 * n_shards + _CLOCK_ENTRY.size * n_clocks
    need = head_len + _CRC.size + 8 * n_params + _CRC.size
    if len(blob) != need:
        raise CheckpointError(
            f"checkpoint {path} is {len(blob)} bytes, expected {need}"
        )
    head = blob[:head_len]
    (head_crc,) = _CRC.unpack_from(blob, head_len)
    if head_crc != zlib.crc32(head):
        raise CheckpointError(f"checkpoint {path} header checksum mismatch")
    payload = blob[head_len + _CRC.size : head_len + _CRC.size + 8 * n_params]
    (payload_crc,) = _CRC.unpack_from(blob, head_len + _CRC.size + 8 * n_params)
    if payload_crc != zlib.crc32(payload):
        raise CheckpointError(f"checkpoint {path} payload checksum mismatch")
    versions = list(struct.unpack_from(f"!{n_shards}Q", blob, _FIXED.size))
    clocks: dict[int, int] = {}
    off = _FIXED.size + 8 * n_shards
    for _ in range(n_clocks):
        worker_id, clock = _CLOCK_ENTRY.unpack_from(blob, off)
        clocks[worker_id] = clock
        off += _CLOCK_ENTRY.size
    match = _NAME_RE.match(os.path.basename(path))
    seq = int(match.group(1)) if match else 0
    return CheckpointState(
        params=np.frombuffer(payload, dtype=np.float64).copy(),
        versions=versions,
        released_epoch=epoch,
        clocks=clocks,
        boundary=bool(flags & FLAG_BOUNDARY),
        seq=seq,
        path=path,
    )


def load_latest(directory: str) -> CheckpointState | None:
    """The newest checkpoint in *directory* that validates, or ``None``.

    Scans final-named files in descending sequence order and returns
    the first that decodes cleanly — a corrupt or torn newest file
    (CRC mismatch) silently falls back to its predecessor, and
    writer-crash ``.tmp`` orphans are never considered.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    ranked = sorted(
        (m.group(1), name)
        for name in names
        if (m := _NAME_RE.match(name)) is not None
    )
    for _, name in reversed(ranked):
        try:
            return read_checkpoint(os.path.join(directory, name))
        except CheckpointError:
            continue
    return None
