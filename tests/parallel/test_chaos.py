"""Chaos tests: seeded fault injection against the shm backend.

Every test drives a real worker pool through a planned failure and
asserts three things the recovery layer guarantees: the run either
completes or raises a structured :class:`WorkerError`, the ``fault.*``
counters account for what happened, and nothing leaks — no live child
processes, no ``/dev/shm`` segments — on any path.
"""

import glob
import multiprocessing as mp

import numpy as np
import pytest

from repro.datasets import load
from repro.faults import FaultPlan, RecoveryPolicy
from repro.models import make_model
from repro.parallel import ShmSchedule, train_shm
from repro.sgd import RunConfig, SGDConfig, run, train
from repro.telemetry import Telemetry, build_manifest, keys
from repro.utils.errors import WorkerError
from repro.utils.rng import derive_rng


def _assert_no_leaks():
    assert not glob.glob("/dev/shm/psm_*")
    assert mp.active_children() == []


@pytest.fixture(scope="module", params=["covtype", "w8a"], ids=["dense", "sparse"])
def setup(request):
    ds = load(request.param, "tiny")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(7, "chaostest"))
    return model, ds, init


def _config(**kw):
    defaults = dict(step_size=0.05, max_epochs=4, seed=99)
    defaults.update(kw)
    return SGDConfig(**defaults)


class TestKillRecovery:
    def test_repartition_completes_the_run(self, setup):
        """A worker killed mid-epoch: its partition round-robins onto
        the survivor and the run finishes every epoch, degraded."""
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2),
            fault_plan=FaultPlan.single("kill", 2, worker=1),
            recovery=RecoveryPolicy(max_restarts=2, mode="repartition"),
        )
        assert res.epochs_run == 4
        assert not res.diverged
        assert np.all(np.isfinite(res.params))
        assert res.workers == 2 and res.workers_final == 1
        assert res.repartitions == 1 and res.restarts == 0
        assert res.counters[keys.FAULT_INJECTED] >= 1
        assert res.counters[keys.FAULT_REPARTITIONS] == 1
        assert res.counters[keys.FAULT_DEGRADED_EPOCHS] >= 1
        (entry,) = [e for e in res.recovery if e["action"] == "repartition"]
        assert entry["epoch"] == 2
        assert entry["cause"]["worker_id"] == 1
        assert entry["cause"]["exitcode"] == 23
        _assert_no_leaks()

    def test_respawn_mode_keeps_pool_size(self, setup):
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2),
            fault_plan=FaultPlan.single("kill", 2, worker=0),
            recovery=RecoveryPolicy(max_restarts=2, mode="respawn"),
        )
        assert res.epochs_run == 4 and not res.diverged
        assert res.workers_final == 2
        assert res.restarts == 1 and res.repartitions == 0
        assert res.counters[keys.FAULT_WORKER_RESTARTS] == 1
        _assert_no_leaks()

    def test_killed_workers_partial_pass_stays_counted(self, setup):
        """The half pass the victim wrote into the model before dying is
        in the totals: its locally tallied counters are flushed to the
        block before ``os._exit``, not lost with the process."""
        model, ds, init = setup
        n = ds.X.shape[0]
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2),
            fault_plan=FaultPlan.parse(["kill@2:w1"]),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        committed = len(range(1, n, 2)) // 2  # items before the kill, b=1
        assert res.epochs_run == 4
        assert res.counters[keys.UPDATES_APPLIED] >= 4 * n + committed
        assert res.counters[keys.ASYNC_ROUNDS] >= 4 * n + committed
        assert res.counters[keys.FAULT_INJECTED] >= 1
        _assert_no_leaks()

    def test_fail_fast_without_policy(self, setup):
        """No recovery policy = PR-2 behaviour: first death raises a
        structured WorkerError and tears everything down."""
        model, ds, init = setup
        with pytest.raises(WorkerError) as exc:
            train_shm(
                model, ds.X, ds.y, init,
                _config(),
                ShmSchedule(workers=2),
                fault_plan=FaultPlan.single("kill", 2, worker=0),
            )
        err = exc.value
        assert err.worker_id == 0
        assert err.epoch == 2
        assert err.exitcode == 23
        assert err.phase in ("epoch-start", "epoch-end")
        assert err.describe()["worker_id"] == 0
        _assert_no_leaks()

    def test_budget_exhaustion_raises(self, setup):
        """Two kills against a budget of one: the second failure must
        surface, not retry forever."""
        model, ds, init = setup
        with pytest.raises(WorkerError):
            train_shm(
                model, ds.X, ds.y, init,
                _config(),
                ShmSchedule(workers=2),
                fault_plan=FaultPlan.parse(["kill@2:w0", "kill@3:w0"]),
                recovery=RecoveryPolicy(max_restarts=1, mode="respawn"),
            )
        _assert_no_leaks()


class TestStallRecovery:
    def test_stall_past_watchdog_is_respawned(self, setup):
        """A stalled worker leaves no corpse; the parent times out at
        the barrier, rebuilds the pool at full strength with a longer
        timeout, and finishes the run."""
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2, epoch_timeout=1.0),
            fault_plan=FaultPlan.single("stall", 2, worker=0),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert res.epochs_run == 4 and not res.diverged
        assert res.restarts == 1
        assert res.workers_final == 2
        (entry,) = [e for e in res.recovery if e["action"] == "respawn"]
        assert entry["cause"]["worker_id"] is None  # timeout, not a death
        assert entry["epoch_timeout"] == pytest.approx(2.0)  # 1.0 x backoff 2.0
        _assert_no_leaks()


class TestDelayIsHealthy:
    def test_late_arrival_within_window_needs_no_recovery(self, setup):
        """A delay inside the watchdog window is absorbed: the fault is
        counted as injected, but no recovery action fires."""
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2),
            fault_plan=FaultPlan.single("delay", 2, worker=0, seconds=0.2),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert res.epochs_run == 4 and not res.diverged
        assert res.faults_injected == 1
        assert res.restarts == 0 and res.repartitions == 0
        assert res.recovery == []
        assert res.counters[keys.FAULT_DEGRADED_EPOCHS] == 0
        _assert_no_leaks()


class TestNanPoisoning:
    def test_scrub_restores_finite_model(self, setup):
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2),
            fault_plan=FaultPlan.single("nan", 2, worker=0),
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert not res.diverged
        assert np.all(np.isfinite(res.params))
        scrubs = [e for e in res.recovery if e["action"] == "nan_scrub"]
        assert scrubs and scrubs[0]["coordinates"] >= 1
        assert res.counters[keys.FAULT_DEGRADED_EPOCHS] >= 1
        _assert_no_leaks()

    def test_without_policy_poison_means_divergence(self, setup):
        """PR-2 semantics preserved: with no recovery, a poisoned model
        snapshot is recorded as divergence, not silently repaired."""
        model, ds, init = setup
        res = train_shm(
            model, ds.X, ds.y, init,
            _config(),
            ShmSchedule(workers=2),
            fault_plan=FaultPlan.single("nan", 2, worker=0),
        )
        assert res.diverged
        _assert_no_leaks()


class TestDeterminism:
    def test_recovery_trajectory_reproducible(self, setup):
        """Same (plan, seed, workers) → the same faults hit the same
        workers and the same recovery actions fire at the same epochs."""
        model, ds, init = setup

        def run():
            res = train_shm(
                model, ds.X, ds.y, init,
                _config(),
                ShmSchedule(workers=2),
                fault_plan=FaultPlan.single("kill", 2),  # seeded worker pick
                recovery=RecoveryPolicy(max_restarts=2),
            )
            return [(e["action"], e["epoch"]) for e in res.recovery]

        assert run() == run()
        _assert_no_leaks()

    def test_no_plan_and_empty_plan_bit_identical(self, setup):
        """The fault machinery must not perturb healthy runs: no plan,
        an empty plan, and an unused recovery policy all produce the
        bit-identical single-worker trajectory."""
        model, ds, init = setup
        base = train_shm(
            model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1)
        )
        empty = train_shm(
            model, ds.X, ds.y, init, _config(), ShmSchedule(workers=1),
            fault_plan=FaultPlan(specs=()),
            recovery=RecoveryPolicy(max_restarts=3),
        )
        assert np.array_equal(base.params, empty.params)
        assert base.curve.losses == empty.curve.losses
        assert empty.recovery == []
        _assert_no_leaks()


class TestFacadeAndManifest:
    def test_fault_counters_and_trajectory_in_manifest(self):
        """End to end through train(): a seeded kill recovers, and the
        manifest records the fault counters and recovery trajectory."""
        tel = Telemetry()
        config = RunConfig(
            "lr", "covtype", strategy="asynchronous", scale="tiny",
            step_size=0.05, max_epochs=4, early_stop_tolerance=None,
            backend="shm", threads=2,
            fault_plan=FaultPlan.single("kill", 2), max_restarts=2,
        )
        r = run(config, telemetry=tel)
        m = r.measured
        assert m["max_restarts"] == 2
        assert m["restarts"] + m["repartitions"] == 1
        assert m["fault_plan"] == [
            {"kind": "kill", "epoch": 2, "worker": None, "seconds": None}
        ]
        assert m["recovery"]  # trajectory recorded
        manifest = build_manifest(r, tel, config)
        assert manifest.config["backend"] == "shm"
        assert manifest.counters[keys.FAULT_INJECTED] >= 1
        assert (
            manifest.counters[keys.FAULT_WORKER_RESTARTS]
            + manifest.counters[keys.FAULT_REPARTITIONS]
        ) == 1
        measured = manifest.results["measured"]
        assert measured["recovery"] == m["recovery"]
        _assert_no_leaks()

    def test_cli_style_kill_run_recovers(self):
        """The CLI path: parsed spec strings drive the same machinery."""
        plan = FaultPlan.parse(["kill@2:w1"], seed=3)
        r = train(
            "lr", "w8a", strategy="asynchronous", scale="tiny",
            step_size=0.05, max_epochs=4, early_stop_tolerance=None,
            backend="shm", threads=2,
            fault_plan=plan, max_restarts=1,
        )
        assert r.measured["epochs_run"] == 4
        assert not r.diverged
        _assert_no_leaks()
