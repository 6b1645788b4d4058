"""Resumable on-disk store of completed experiment-grid cells.

One file per completed cell, named by the SHA-256 of the cell's
canonical configuration: task, dataset, architecture, strategy, scale,
seed, step size, epoch budget and tolerance, plus every other
:class:`~repro.sgd.RunConfig` field moved off the cell's default, so
everything that changes the numbers.  A grid interrupted at cell k
restarts with ``--resume`` and replays cells 0..k-1 from disk instead of
recomputing them; any configuration change hashes to different keys, so
a stale store can never leak wrong results into a new grid.

Writes are atomic (temp file + ``os.replace`` in the store directory),
so a cell file is either absent or complete — a worker killed
mid-write leaves nothing behind that a resume could trip over.
Unreadable or corrupt files are treated as cache misses and the cell
is recomputed.

Quarantined cells (keep-going grids, docs/RESILIENCE.md) are recorded
next to the results as ``<key>.failure.json`` files holding the
structured :class:`~repro.experiments.resilience.CellFailure`.
Failure files are *post-mortems, not results*: ``load`` never returns
them, ``len()`` does not count them, and a resumed grid ignores them —
a failed cell is retried on resume, not skipped.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from ..sgd.runner import TrainResult
from ..sgd.serialize import result_from_dict, result_to_dict
from ..utils.errors import ConfigurationError
from .resilience import CellFailure

__all__ = ["ResultStore", "config_key"]

_STORE_SCHEMA = "repro.experiments/result-store/v1"
_FAILURE_SCHEMA = "repro.experiments/cell-failure/v1"
_REFERENCE_SCHEMA = "repro.experiments/reference-losses/v1"
_REFERENCE_FILE = "references.json"


def config_key(config: dict[str, Any]) -> str:
    """Stable hash of a cell configuration.

    The canonical form is JSON with sorted keys, so dict insertion
    order never changes the key; any value change does.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory of completed cells, keyed by configuration hash."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def contains(self, config: dict[str, Any]) -> bool:
        """True when a (readable) result for *config* is on disk."""
        return self.load(config) is not None

    def load(self, config: dict[str, Any]) -> TrainResult | None:
        """The stored result for *config*, or ``None`` on miss/corruption."""
        path = self._path(config_key(config))
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != _STORE_SCHEMA:
            return None
        try:
            return result_from_dict(doc["result"])
        except (KeyError, TypeError, ValueError, ConfigurationError):
            return None

    def save(
        self,
        config: dict[str, Any],
        result: TrainResult,
        *,
        include_trace: bool = False,
    ) -> Path:
        """Persist *result* under *config*'s key, atomically.

        ``include_trace=True`` keeps the epoch trace in the file — the
        executor needs it on synchronous base runs so a resumed grid
        can re-cost them for the other architectures.
        """
        key = config_key(config)
        path = self._path(key)
        doc = {
            "schema": _STORE_SCHEMA,
            "key": key,
            "config": config,
            "result": result_to_dict(result, include_trace=include_trace),
        }
        self._write_atomic(key, path, doc)
        return path

    def _failure_path(self, key: str) -> Path:
        return self.root / f"{key}.failure.json"

    def save_failure(self, config: dict[str, Any], failure: CellFailure) -> Path:
        """Persist a quarantine post-mortem under *config*'s key, atomically.

        Written next to the results so one directory is the complete
        record of a grid run — what finished and what was given up on.
        """
        key = config_key(config)
        path = self._failure_path(key)
        doc = {
            "schema": _FAILURE_SCHEMA,
            "key": key,
            "config": config,
            "failure": failure.describe(),
        }
        self._write_atomic(key, path, doc)
        return path

    def load_failure(self, config: dict[str, Any]) -> CellFailure | None:
        """The stored quarantine record for *config*, or ``None``."""
        path = self._failure_path(config_key(config))
        return self._read_failure(path)

    def failures(self) -> list[CellFailure]:
        """Every quarantine record in the store, in stable path order."""
        records = []
        for path in sorted(self.root.glob("*.failure.json")):
            failure = self._read_failure(path)
            if failure is not None:
                records.append(failure)
        return records

    def _read_failure(self, path: Path) -> CellFailure | None:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("schema") != _FAILURE_SCHEMA:
            return None
        try:
            return CellFailure.from_dict(doc["failure"])
        except (KeyError, TypeError, ValueError):
            return None

    # -- shared reference optima ------------------------------------------

    @property
    def _reference_path(self) -> Path:
        return self.root / _REFERENCE_FILE

    def references(self) -> dict[str, float]:
        """Every persisted reference optimum, keyed by reference key."""
        try:
            doc = json.loads(self._reference_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(doc, dict) or doc.get("schema") != _REFERENCE_SCHEMA:
            return {}
        refs = doc.get("references")
        if not isinstance(refs, dict):
            return {}
        return {
            str(k): float(v)
            for k, v in refs.items()
            if isinstance(v, (int, float))
        }

    def load_reference(self, key: str) -> float | None:
        """The persisted reference optimum for *key*, or ``None``."""
        return self.references().get(key)

    def save_reference(self, key: str, value: float) -> None:
        """Merge one reference optimum into ``references.json``, atomically.

        The grid dedupes per-cell reference solves through this file:
        step-size family members of one (task, dataset) share a single
        solve, and a resumed grid never re-solves at all.
        """
        merged = self.references()
        if merged.get(key) == value:
            return
        merged[key] = float(value)
        doc = {"schema": _REFERENCE_SCHEMA, "references": merged}
        self._write_atomic("references", self._reference_path, doc)

    def _write_atomic(self, key: str, path: Path, doc: dict[str, Any]) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=key[:16] + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """Completed results on disk (post-mortems and references excluded)."""
        return sum(
            1
            for path in self.root.glob("*.json")
            if not path.name.endswith(".failure.json")
            and path.name != _REFERENCE_FILE
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"
