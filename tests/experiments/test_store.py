"""ResultStore: config hashing, atomic persistence, corruption tolerance."""

import json
import multiprocessing as mp

import numpy as np

from repro.experiments.resilience import CellFailure
from repro.experiments.store import ResultStore, config_key
from repro.sgd.convergence import LossCurve
from repro.sgd.runner import TrainResult


def make_result(**overrides):
    curve = LossCurve()
    curve.record(0, 1.0)
    curve.record(1, 0.5)
    curve.record(2, float("inf"))
    fields = dict(
        task="lr",
        dataset="w8a",
        architecture="cpu-seq",
        strategy="asynchronous",
        step_size=0.5,
        curve=curve,
        time_per_iter=0.125,
        optimal_loss=0.25,
        diverged=False,
        dataset_stats={"rows": 100, "features": 10},
    )
    fields.update(overrides)
    return TrainResult(**fields)


CONFIG = {"task": "lr", "dataset": "w8a", "seed": 0, "max_epochs": 50}


class TestConfigKey:
    def test_insertion_order_irrelevant(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert config_key(a) == config_key(b)

    def test_any_value_change_changes_key(self):
        assert config_key(CONFIG) != config_key({**CONFIG, "seed": 1})
        assert config_key(CONFIG) != config_key({**CONFIG, "extra": None})

    def test_nested_values_hashed(self):
        base = {"hw": {"cores": 28, "ghz": 2.0}}
        assert config_key(base) != config_key({"hw": {"cores": 28, "ghz": 2.6}})

    def test_planned_job_keys_are_pinned(self):
        """Golden keys: every resumable store on disk is addressed by
        these hashes, so reshaping the executor's payload / config (or
        a hardware-model default) must leave them byte-identical — or
        say out loud that old stores no longer resume."""
        from repro.experiments import ExperimentContext, GridCell, GridExecutor

        ctx = ExperimentContext(
            scale="tiny",
            seed=7,
            tolerance=0.05,
            sync_max_epochs=150,
            async_max_epochs=50,
        )
        async_job, sync_base = GridExecutor(ctx)._plan(
            [
                GridCell("lr", "covtype", "gpu", "asynchronous"),
                GridCell("lr", "covtype", "cpu-par", "synchronous"),
            ]
        )
        assert (async_job.kind, sync_base.kind) == ("async", "sync-base")
        assert "hardware" in sync_base.config
        assert config_key(async_job.config) == (
            "0ba83fb443906c2d077b60dcf2814fdb8ec63e2bacc1bc1c36222aef56a2dd40"
        )
        assert config_key(sync_base.config) == (
            "ddb878bdcba880b2b6372a7b0d5a54db2010592eead7536538b141e90b56cc23"
        )


class TestKeyCoversEveryField:
    """A field moved off the cell's default joins the store key, so two
    runs that differ only there never share one stored result."""

    @staticmethod
    def config(**overrides):
        from repro.sgd import RunConfig

        return RunConfig(
            "lr", "w8a", "cpu-par", "asynchronous", scale="tiny", max_epochs=5,
            **overrides,
        )

    def test_representation_twin_is_executed_not_resumed(self, tmp_path):
        from repro.experiments import ExperimentContext, GridExecutor
        from repro.sgd import run

        ctx = ExperimentContext(scale="tiny", store=ResultStore(tmp_path), resume=True)
        executor = GridExecutor(ctx)
        (auto,) = executor.run_configs([self.config()])
        (dense,) = executor.run_configs([self.config(representation="dense")])
        assert [r["source"] for r in executor.cell_records] == ["executed", "executed"]
        fresh = run(self.config(representation="dense"))
        assert dense.time_per_iter == fresh.time_per_iter != auto.time_per_iter
        assert dense.curve.losses == fresh.curve.losses

    def test_measured_key_names_its_backend_knobs(self):
        from repro.experiments import ExperimentContext, GridExecutor

        job = GridExecutor(ExperimentContext(scale="tiny"))._job(
            self.config(backend="shm", threads=2)
        )
        assert {"backend", "threads", "batch_size"} <= set(job.config)
        assert (job.config["backend"], job.config["threads"]) == ("shm", 2)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        store = ResultStore(tmp_path)
        result = make_result()
        store.save(CONFIG, result)
        loaded = store.load(CONFIG)
        assert loaded is not None
        assert loaded.curve.losses == result.curve.losses
        assert loaded.curve.epochs == result.curve.epochs
        assert loaded.time_per_iter == result.time_per_iter
        assert loaded.dataset_stats == result.dataset_stats
        assert loaded.epoch_trace is None

    def test_trace_preserved_when_requested(self, tmp_path):
        from repro.linalg.trace import OpKind, OpRecord, Trace

        trace = Trace()
        trace.add(
            OpRecord(
                name="csr_matvec",
                kind=OpKind.SPMV,
                flops=100.0,
                bytes_read=800.0,
                bytes_written=80.0,
                parallel_tasks=10,
                irregular=True,
                dispersion=1.5,
            )
        )
        store = ResultStore(tmp_path)
        store.save(CONFIG, make_result(epoch_trace=trace), include_trace=True)
        loaded = store.load(CONFIG)
        assert loaded.epoch_trace is not None
        assert len(loaded.epoch_trace) == 1
        op = loaded.epoch_trace.ops[0]
        assert op.kind is OpKind.SPMV
        assert op.flops == 100.0
        assert op.irregular and op.dispersion == 1.5

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).load(CONFIG) is None

    def test_nonfinite_losses_survive(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(CONFIG, make_result())
        loaded = store.load(CONFIG)
        assert np.isinf(loaded.curve.losses[-1])


class TestRobustness:
    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(CONFIG, make_result())
        path = store._path(config_key(CONFIG))
        path.write_text("{ not json", encoding="utf-8")
        assert store.load(CONFIG) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(CONFIG, make_result())
        path = store._path(config_key(CONFIG))
        doc = json.loads(path.read_text())
        doc["schema"] = "something/else"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert store.load(CONFIG) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in range(5):
            store.save({**CONFIG, "seed": seed}, make_result())
        assert not list(tmp_path.glob("*.tmp"))
        assert len(store) == 5

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(CONFIG, make_result(time_per_iter=1.0))
        store.save(CONFIG, make_result(time_per_iter=2.0))
        assert len(store) == 1
        assert store.load(CONFIG).time_per_iter == 2.0


def _write_many(root, worker, n):
    """Child-process body for the concurrent-writer tests."""
    store = ResultStore(root)
    for i in range(n):
        # Every worker hammers one shared key and owns some private ones.
        store.save(
            {**CONFIG, "shared": True}, make_result(time_per_iter=float(worker))
        )
        store.save({**CONFIG, "worker": worker, "i": i}, make_result())


class TestConcurrentWriters:
    """Keep-going grids persist from many processes at once; the atomic
    write protocol must never produce a torn or unreadable file."""

    WORKERS = 4
    WRITES = 5

    def test_parallel_writes_all_readable(self, tmp_path):
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        procs = [
            ctx.Process(target=_write_many, args=(tmp_path, w, self.WRITES))
            for w in range(self.WORKERS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ResultStore(tmp_path)
        # One shared key + WORKERS * WRITES private keys, no temp litter.
        assert len(store) == 1 + self.WORKERS * self.WRITES
        assert not list(tmp_path.glob("*.tmp"))
        # The contested key holds one writer's value, intact.
        shared = store.load({**CONFIG, "shared": True})
        assert shared is not None
        assert shared.time_per_iter in {float(w) for w in range(self.WORKERS)}
        for w in range(self.WORKERS):
            for i in range(self.WRITES):
                assert store.load({**CONFIG, "worker": w, "i": i}) is not None


def make_failure(**overrides):
    fields = dict(
        task="lr",
        dataset="w8a",
        architecture="cpu-seq",
        strategy="asynchronous",
        kind="crash",
        phase="train",
        attempts=2,
        error_chain=({"type": "WorkerCrash", "message": "exit 23", "attempt": 2},),
        elapsed_seconds=1.5,
        worker_pids=(101, 102),
        covers=("lr/w8a/cpu-seq/asynchronous",),
    )
    fields.update(overrides)
    return CellFailure(**fields)


class TestFailureRecords:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        failure = make_failure()
        store.save_failure(CONFIG, failure)
        assert store.load_failure(CONFIG) == failure
        assert store.failures() == [failure]

    def test_failures_do_not_count_or_load_as_results(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(CONFIG, make_result())
        store.save_failure({**CONFIG, "seed": 1}, make_failure())
        assert len(store) == 1
        # A resumed grid must retry the failed config, not replay it.
        assert store.load({**CONFIG, "seed": 1}) is None

    def test_missing_and_corrupt_failure_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load_failure(CONFIG) is None
        path = store.save_failure(CONFIG, make_failure())
        path.write_text("{ torn", encoding="utf-8")
        assert store.load_failure(CONFIG) is None
        assert store.failures() == []

    def test_result_and_failure_coexist_per_key(self, tmp_path):
        """A cell that failed once and later succeeded keeps both the
        post-mortem and the result under the same config key."""
        store = ResultStore(tmp_path)
        store.save_failure(CONFIG, make_failure())
        store.save(CONFIG, make_result())
        assert store.load(CONFIG) is not None
        assert store.load_failure(CONFIG) is not None
