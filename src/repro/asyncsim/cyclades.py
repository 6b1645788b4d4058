"""Cyclades: conflict-free asynchronous scheduling via graph partitioning.

The paper's related work surveys alternatives to raw Hogwild;
Cyclades [39] (Pan et al., 2016) is the conflict-*avoiding* one: build
the conflict graph over a sampled batch of examples (two examples
conflict when their sparse supports intersect), find its connected
components, and hand each component to one worker.  Within a batch,
workers then touch disjoint model coordinates, so the lock-free parallel
execution is **serially equivalent** — full hardware parallelism at
sequential statistical efficiency, at the price of the scheduling
computation and imbalanced components.

This module implements the scheduler on our CSR substrate (components
via a union-find over example supports; :func:`conflict_graph` builds
the explicit :mod:`networkx` graph for analysis) and a runner that
executes a Cyclades epoch through the same update machinery as the
Hogwild engine.  The serial-equivalence property is asserted by the
test suite — it is the algorithm's defining invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..linalg.csr import CSRMatrix
from ..models.base import Matrix, Model
from ..utils.errors import ConfigurationError, DivergenceError
from .engine import apply_updates

if TYPE_CHECKING:  # pragma: no cover - annotation only
    import networkx as nx

__all__ = ["CycladesBatch", "CycladesSchedule", "schedule_batch", "run_cyclades_epoch", "conflict_graph"]


class _UnionFind:
    """Union-find over example indices (path compression + rank)."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1


@dataclass(frozen=True)
class CycladesBatch:
    """One scheduled batch: conflict-free groups of example indices."""

    #: Example-index arrays; examples in different groups never share a
    #: model coordinate within this batch.
    groups: tuple[np.ndarray, ...]

    @property
    def n_examples(self) -> int:
        """Total examples scheduled in the batch."""
        return int(sum(g.size for g in self.groups))

    @property
    def max_group(self) -> int:
        """Largest group size — the batch's critical path."""
        return max((int(g.size) for g in self.groups), default=0)

    def parallel_efficiency(self, workers: int) -> float:
        """Fraction of ideal speedup this batch's balance permits.

        With *workers* executing groups greedily (longest first), the
        makespan is bounded below by ``max(max_group, n/workers)``.
        """
        if self.n_examples == 0:
            return 1.0
        ideal = self.n_examples / workers
        makespan = max(self.max_group, ideal)
        return ideal / makespan


@dataclass(frozen=True)
class CycladesSchedule:
    """Parameters of Cyclades execution."""

    #: Examples sampled per scheduling batch.
    batch_size: int = 512
    #: Workers the groups are distributed over (affects the efficiency
    #: accounting, not the numerics — execution is serially equivalent).
    workers: int = 56

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


def schedule_batch(X: CSRMatrix, rows: np.ndarray) -> CycladesBatch:
    """Partition *rows* into conflict-free groups (connected components).

    Union-find over the batch's bipartite example-feature incidence:
    every feature links all batch examples containing it, so two
    examples end in the same group iff they are connected through
    shared coordinates — exactly the conflict-graph components.
    """
    rows = np.asarray(rows, dtype=np.int64)
    uf = _UnionFind(rows.size)
    first_owner: dict[int, int] = {}
    for k, r in enumerate(rows):
        idx, _ = X.row(int(r))
        for j in idx:
            j = int(j)
            if j in first_owner:
                uf.union(first_owner[j], k)
            else:
                first_owner[j] = k
    components: dict[int, list[int]] = {}
    for k in range(rows.size):
        components.setdefault(uf.find(k), []).append(k)
    groups = tuple(
        rows[np.asarray(members, dtype=np.int64)]
        for members in sorted(components.values(), key=len, reverse=True)
    )
    return CycladesBatch(groups=groups)


def conflict_graph(X: CSRMatrix, rows: np.ndarray) -> "nx.Graph":
    """The explicit conflict graph of a batch (analysis/visualisation).

    Nodes are example indices; an edge joins two examples sharing at
    least one feature.  Built feature-by-feature as a union of cliques
    (represented sparsely as stars plus chain edges, which preserves
    connectivity — and hence components — without quadratic blowup).

    The only function here that needs :mod:`networkx`, so it imports it
    itself: the scheduler and ``import repro`` need NumPy alone.
    """
    import networkx as nx

    rows = np.asarray(rows, dtype=np.int64)
    g = nx.Graph()
    g.add_nodes_from(int(r) for r in rows)
    owners: dict[int, int] = {}
    for r in rows:
        idx, _ = X.row(int(r))
        for j in idx:
            j = int(j)
            if j in owners and owners[j] != int(r):
                g.add_edge(owners[j], int(r))
            else:
                owners[j] = int(r)
    return g


def run_cyclades_epoch(
    model: Model,
    X: Matrix,
    y: np.ndarray,
    params: np.ndarray,
    step: float,
    schedule: CycladesSchedule,
    rng: np.random.Generator,
) -> float:
    """One Cyclades epoch in place; returns the mean parallel efficiency.

    Each scheduling batch is partitioned into conflict-free groups;
    groups execute "in parallel" (order between groups is irrelevant —
    they are coordinate-disjoint) while updates inside a group are
    applied serially.  The numerical result is therefore identical to
    a serial pass in the scheduled order, which the tests assert.
    """
    if not isinstance(X, CSRMatrix):
        raise ConfigurationError(
            "Cyclades needs sparse supports; dense data is one giant conflict "
            "component (use the Hogwild engine instead)"
        )
    n = X.shape[0]
    order = rng.permutation(n)
    serial = getattr(model, "serial_sgd_epoch", None)
    efficiencies = []
    for start in range(0, n, schedule.batch_size):
        batch_rows = order[start : start + schedule.batch_size]
        batch = schedule_batch(X, batch_rows)
        efficiencies.append(batch.parallel_efficiency(schedule.workers))
        for group in batch.groups:
            # Serial execution *within* a group (its examples conflict);
            # groups are coordinate-disjoint, so any interleaving across
            # groups is equivalent to this order.
            if serial is not None:
                serial(X, y, group, params, step)
            else:
                for r in group:
                    updates = model.example_updates(
                        X, y, np.asarray([r]), params, step
                    )
                    apply_updates(params, updates)
    if not np.all(np.isfinite(params)):
        raise DivergenceError("parameters became non-finite during cyclades epoch")
    return float(np.mean(efficiencies)) if efficiencies else 1.0
