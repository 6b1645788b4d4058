"""Tests for the step-size protocol and the tuned table it writes."""

import math

import pytest

from repro.datasets import DATASET_NAMES
from repro.experiments import ExperimentContext, ResultStore, shutdown_grid_pool
from repro.experiments.steps import (
    TUNED_STEPS,
    GridPoint,
    GridSearchResult,
    grid_search,
    rank_steps,
    read_table,
)
from repro.models import TASK_NAMES
from repro.sgd import ARCHITECTURES, STRATEGIES, RunConfig
from repro.utils.errors import ConfigurationError


@pytest.fixture(autouse=True)
def no_warm_pool():
    """A keep-going probe runs on the warm pool: retire it, and its
    shared-memory segments, after each test."""
    yield
    shutdown_grid_pool()


class TestGridSearch:
    @pytest.fixture(scope="class")
    def result(self):
        return grid_search(
            "lr",
            "w8a",
            architecture="cpu-seq",
            strategy="asynchronous",
            tolerance=0.10,
            grid=(1e-3, 0.3, 1.0, 1e7),
            scale="tiny",
            max_epochs=60,
            seed=0,
        )

    def test_all_points_evaluated(self, result):
        assert [p.step_size for p in result.points] == [1e-3, 0.3, 1.0, 1e7]

    def test_best_is_finite_minimum(self, result):
        finite = [p for p in result.points if math.isfinite(p.time_to_convergence)]
        assert result.best.time_to_convergence == min(
            p.time_to_convergence for p in finite
        )

    def test_absurd_steps_rank_infinite(self, result):
        by_step = {p.step_size: p for p in result.points}
        assert math.isinf(by_step[1e-3].time_to_convergence)  # far too small
        assert math.isinf(by_step[1e7].time_to_convergence)  # diverges

    def test_any_converged(self, result):
        assert result.any_converged

    def test_tie_break_prefers_smaller_step(self):
        r = GridSearchResult(
            task="lr", dataset="d", architecture="a", strategy="s", tolerance=0.01
        )
        r.points = [
            GridPoint(step_size=1.0, time_to_convergence=5.0, epochs=5, diverged=False),
            GridPoint(step_size=0.1, time_to_convergence=5.0, epochs=5, diverged=False),
        ]
        assert r.best_step_size == 0.1

    def test_no_convergence_raises(self):
        r = GridSearchResult(
            task="lr", dataset="d", architecture="a", strategy="s", tolerance=0.01
        )
        r.points = [
            GridPoint(step_size=1.0, time_to_convergence=math.inf, epochs=None, diverged=True)
        ]
        assert not r.any_converged
        with pytest.raises(ConfigurationError, match="no step size converged"):
            _ = r.best

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="grid"):
            grid_search("lr", "w8a", grid=(), scale="tiny")

    def test_synchronous_tie_goes_to_smaller_step_on_cpu_seq_base(self):
        """Two steps reaching the tolerance in the same epoch tie
        exactly: a synchronous epoch costs the same at any step, so the
        table's cpu-seq base row keeps the smaller one."""
        r = grid_search(
            "lr",
            "w8a",
            architecture="cpu-seq",
            strategy="synchronous",
            tolerance=0.10,
            grid=(3000.0, 1000.0),
            scale="tiny",
            max_epochs=200,
            seed=0,
        )
        big, small = r.points
        assert big.epochs == small.epochs is not None
        assert big.time_to_convergence == small.time_to_convergence
        assert r.best_step_size == 1000.0


BASE = RunConfig(
    "lr",
    "w8a",
    "cpu-seq",
    "asynchronous",
    scale="tiny",
    seed=0,
    max_epochs=60,
    early_stop_tolerance=0.10,
)


class TestOnTheGridRunner:
    def test_points_resume_from_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        (first,) = rank_steps(ExperimentContext(store=store), [(BASE, (0.3, 1.0))])
        ctx = ExperimentContext(store=store, resume=True)
        (again,) = rank_steps(ctx, [(BASE, (0.3, 1.0))])
        assert again.points == first.points
        assert [r["source"] for r in ctx.grid_records] == ["resumed", "resumed"]
        steps = [r["manifest"]["config"]["step_size"] for r in ctx.grid_records]
        assert steps == [0.3, 1.0]

    def test_diverging_point_is_never_healed(self, tmp_path):
        """Keep-going's divergence sentinel would halve the step being
        searched: a probe quarantines the point as ``inf`` instead."""
        store = ResultStore(tmp_path)
        ctx = ExperimentContext(keep_going=True, store=store)
        (r,) = rank_steps(ctx, [(BASE, (1.0, 1e7))])
        good, bad = r.points
        assert math.isfinite(good.time_to_convergence)
        assert bad == GridPoint(1e7, math.inf, None, True, "divergence")
        assert r.best_step_size == 1.0
        executed, quarantined = ctx.grid_records
        assert (executed["source"], quarantined["source"]) == ("executed", "quarantined")
        assert quarantined["failure"]["attempts"] == 1  # no retry at a halved step
        assert not ctx.failures  # a step point never gaps out a table cell


#: The tuned table as committed: (task, dataset, strategy, architecture,
#: step), architecture ``*`` for the synchronous rows.
PINNED_STEPS = (
    ("lr", "covtype", "asynchronous", "cpu-par", 1.0),
    ("lr", "covtype", "asynchronous", "cpu-seq", 1.0),
    ("lr", "covtype", "asynchronous", "gpu", 0.3),
    ("lr", "covtype", "synchronous", "*", 300.0),
    ("lr", "news", "asynchronous", "cpu-par", 1.0),
    ("lr", "news", "asynchronous", "cpu-seq", 1.0),
    ("lr", "news", "asynchronous", "gpu", 0.3),
    ("lr", "news", "synchronous", "*", 300.0),
    ("lr", "rcv1", "asynchronous", "cpu-par", 3.0),
    ("lr", "rcv1", "asynchronous", "cpu-seq", 3.0),
    ("lr", "rcv1", "asynchronous", "gpu", 1.0),
    ("lr", "rcv1", "synchronous", "*", 1000.0),
    ("lr", "real-sim", "asynchronous", "cpu-par", 3.0),
    ("lr", "real-sim", "asynchronous", "cpu-seq", 3.0),
    ("lr", "real-sim", "asynchronous", "gpu", 1.0),
    ("lr", "real-sim", "synchronous", "*", 1000.0),
    ("lr", "w8a", "asynchronous", "cpu-par", 1.0),
    ("lr", "w8a", "asynchronous", "cpu-seq", 1.0),
    ("lr", "w8a", "asynchronous", "gpu", 0.3),
    ("lr", "w8a", "synchronous", "*", 300.0),
    ("mlp", "covtype", "asynchronous", "cpu-par", 3.0),
    ("mlp", "covtype", "asynchronous", "cpu-seq", 3.0),
    ("mlp", "covtype", "asynchronous", "gpu", 3.0),
    ("mlp", "covtype", "synchronous", "*", 3.0),
    ("mlp", "news", "asynchronous", "cpu-par", 1.0),
    ("mlp", "news", "asynchronous", "cpu-seq", 3.0),
    ("mlp", "news", "asynchronous", "gpu", 1.0),
    ("mlp", "news", "synchronous", "*", 3.0),
    ("mlp", "rcv1", "asynchronous", "cpu-par", 3.0),
    ("mlp", "rcv1", "asynchronous", "cpu-seq", 3.0),
    ("mlp", "rcv1", "asynchronous", "gpu", 3.0),
    ("mlp", "rcv1", "synchronous", "*", 10.0),
    ("mlp", "real-sim", "asynchronous", "cpu-par", 1.0),
    ("mlp", "real-sim", "asynchronous", "cpu-seq", 3.0),
    ("mlp", "real-sim", "asynchronous", "gpu", 1.0),
    ("mlp", "real-sim", "synchronous", "*", 10.0),
    ("mlp", "w8a", "asynchronous", "cpu-par", 1.0),
    ("mlp", "w8a", "asynchronous", "cpu-seq", 1.0),
    ("mlp", "w8a", "asynchronous", "gpu", 1.0),
    ("mlp", "w8a", "synchronous", "*", 1.0),
    ("svm", "covtype", "asynchronous", "cpu-par", 0.3),
    ("svm", "covtype", "asynchronous", "cpu-seq", 0.3),
    ("svm", "covtype", "asynchronous", "gpu", 0.1),
    ("svm", "covtype", "synchronous", "*", 100.0),
    ("svm", "news", "asynchronous", "cpu-par", 0.3),
    ("svm", "news", "asynchronous", "cpu-seq", 0.3),
    ("svm", "news", "asynchronous", "gpu", 0.1),
    ("svm", "news", "synchronous", "*", 100.0),
    ("svm", "rcv1", "asynchronous", "cpu-par", 1.0),
    ("svm", "rcv1", "asynchronous", "cpu-seq", 1.0),
    ("svm", "rcv1", "asynchronous", "gpu", 0.3),
    ("svm", "rcv1", "synchronous", "*", 300.0),
    ("svm", "real-sim", "asynchronous", "cpu-par", 1.0),
    ("svm", "real-sim", "asynchronous", "cpu-seq", 1.0),
    ("svm", "real-sim", "asynchronous", "gpu", 1.0),
    ("svm", "real-sim", "synchronous", "*", 300.0),
    ("svm", "w8a", "asynchronous", "cpu-par", 0.3),
    ("svm", "w8a", "asynchronous", "cpu-seq", 0.3),
    ("svm", "w8a", "asynchronous", "gpu", 0.1),
    ("svm", "w8a", "synchronous", "*", 100.0),
)


class TestTunedTable:
    def test_table_rows_are_pinned(self):
        assert tuple(sorted((*k, v) for k, v in TUNED_STEPS.items())) == PINNED_STEPS

    @pytest.mark.parametrize("task", TASK_NAMES)
    def test_every_cell_resolves_to_the_pinned_step(self, task):
        pinned = {row[:4]: row[4] for row in PINNED_STEPS}
        ctx = ExperimentContext()
        for dataset in DATASET_NAMES:
            for strategy in STRATEGIES:
                for arch in ARCHITECTURES:
                    row = "*" if strategy == "synchronous" else arch
                    step = pinned[(task, dataset, strategy, row)]
                    assert ctx.step_for(task, dataset, strategy, arch) == step
                    config = ctx.config_for(task, dataset, arch, strategy)
                    assert config.step_size == step

    def test_every_row_records_its_probe(self):
        rows = read_table()
        assert len(rows) == len(PINNED_STEPS)
        for key, row in rows.items():
            assert row["step"] in row["grid"], key
            assert row["max_epochs"] > 0 and row["epochs"] <= row["max_epochs"], key
