"""Tests for the distributed parameter-server backend.

With one worker and ``max_staleness=0`` the ordered TCP stream makes
the run *bit-identical* to serial incremental SGD (each push is
applied before the next pull is answered, and the pushed delta is the
IEEE-exact negation of the serial update); with several workers the
assertions are functional — convergence, counter accounting, staleness
bounds, fault recovery and teardown — because the interleaving is
genuinely asynchronous.
"""

import glob
import os

import numpy as np
import pytest

from repro.datasets import load
from repro.distributed import (
    PsSchedule,
    ShardServer,
    default_ps_nodes,
    default_ps_shards,
    shard_bounds,
    train_ps,
)
from repro.faults import FaultPlan, RecoveryPolicy
from repro.models import make_model
from repro.sgd import SGDConfig
from repro.telemetry import Telemetry, keys
from repro.utils.errors import ConfigurationError, WorkerError
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module", params=["covtype", "w8a"], ids=["dense", "sparse"])
def setup(request):
    ds = load(request.param, "tiny")
    model = make_model("lr", ds)
    init = model.init_params(derive_rng(7, "pstest"))
    return model, ds, init


def _config(**kw):
    defaults = dict(step_size=0.05, max_epochs=3, seed=99)
    defaults.update(kw)
    return SGDConfig(**defaults)


class TestScheduleValidation:
    def test_rejects_bad_nodes(self):
        with pytest.raises(ConfigurationError):
            PsSchedule(nodes=0)

    def test_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            PsSchedule(nodes=1, shards=0)

    def test_rejects_negative_staleness(self):
        with pytest.raises(ConfigurationError):
            PsSchedule(nodes=1, max_staleness=-1)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            PsSchedule(nodes=1, epoch_timeout=0.0)

    def test_rejects_unsupported_model(self, tiny_mlp_data):
        model = make_model("mlp", tiny_mlp_data)
        init = model.init_params(derive_rng(7, "pstest"))
        with pytest.raises(ConfigurationError):
            train_ps(
                model,
                tiny_mlp_data.X,
                tiny_mlp_data.y,
                init,
                _config(),
                PsSchedule(nodes=1),
            )

    def test_default_nodes_bounded_by_host(self):
        assert 1 <= default_ps_nodes() <= max(4, os.cpu_count() or 1)


class TestSharding:
    def test_bounds_cover_contiguously(self):
        bounds = shard_bounds(103, 8)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 103
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_params_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(3, 4)

    def test_default_shards_reasonable(self):
        assert default_ps_shards(4) == 1
        assert 1 <= default_ps_shards(54) <= 8
        assert default_ps_shards(10_000) == 8

    def test_server_snapshot_matches_init(self):
        init = np.linspace(-1, 1, 54)
        with ShardServer(init, 4) as server:
            assert np.array_equal(server.snapshot(), init)
            assert server.n_shards == 4


class TestSingleNodeDeterminism:
    def test_matches_serial_sgd_bit_exactly(self, setup):
        """One lock-step node = the serial trajectory, bit for bit:
        the ordered stream applies each push before the next pull and
        the negated delta is IEEE-exact."""
        model, ds, init = setup
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=1, max_staleness=0),
        )
        expected = init.copy()
        rng = derive_rng(99, "ps/1/0")
        part = np.arange(ds.X.shape[0], dtype=np.int64)
        for _ in range(res.epochs_run):
            order = part[rng.permutation(part.shape[0])]
            model.serial_sgd_epoch(ds.X, ds.y, order, expected, 0.05)
        assert np.array_equal(res.params, expected)

    def test_repeated_runs_identical(self, setup):
        model, ds, init = setup
        a = train_ps(model, ds.X, ds.y, init, _config(), PsSchedule(nodes=1))
        b = train_ps(model, ds.X, ds.y, init, _config(), PsSchedule(nodes=1))
        assert np.array_equal(a.params, b.params)
        assert a.curve.losses == b.curve.losses


class TestConcurrentIntegrity:
    def test_multi_node_learns(self, setup):
        model, ds, init = setup
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(max_epochs=5),
            PsSchedule(nodes=3, epoch_timeout=60.0),
        )
        assert res.nodes == 3
        assert not res.diverged
        assert np.all(np.isfinite(res.params))
        assert res.curve.final_loss < res.curve.initial_loss

    def test_counter_accounting(self, setup):
        """Every example is pushed exactly once per epoch, every work
        item costs at most one pull round-trip (the fused protocol),
        and the totals land in the registry."""
        model, ds, init = setup
        tel = Telemetry()
        epochs = 3
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(max_epochs=epochs),
            PsSchedule(nodes=2, epoch_timeout=60.0),
            tel,
        )
        n = ds.X.shape[0]
        assert res.counters[keys.UPDATES_APPLIED] == n * epochs
        assert res.counters[keys.PS_PUSHES] == n * epochs  # batch_size=1
        # Amortised wire: PULL_ALL opens the epoch, fused PUSH_PULL
        # covers the middle, the last item pushes without pulling —
        # exactly one round-trip per work item, never more.
        assert res.counters[keys.PS_PULL_ROUNDS] == n * epochs
        assert res.pull_rounds_per_update == 1.0
        # Fresh payloads + cached headers account for every shard of
        # every answered round.
        assert (
            res.counters[keys.PS_PULLS]
            + res.counters[keys.PS_SHARD_CACHE_HITS]
            == res.counters[keys.PS_PULL_ROUNDS] * res.shards
        )
        assert res.counters[keys.PS_BYTES_SENT] > 0
        assert res.counters[keys.PS_BYTES_RECEIVED] > 0
        counters = tel.counters()
        assert counters[keys.UPDATES_APPLIED] == n * epochs
        assert counters[keys.GRAD_EVALS] == n * epochs
        assert counters[keys.EPOCHS] == epochs
        assert counters[keys.LOSS_EVALS] == epochs + 1
        assert counters[keys.PS_PULLS] == res.counters[keys.PS_PULLS]
        gauges = tel.gauges()
        assert gauges[keys.PS_PULL_ROUNDS_PER_UPDATE] == 1.0

    def test_staleness_histogram_populated(self, setup):
        model, ds, init = setup
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(),
            PsSchedule(nodes=2, epoch_timeout=60.0),
        )
        buckets = {
            k: v
            for k, v in res.counters.items()
            if k.startswith(keys.PS_STALENESS_BUCKET_PREFIX)
        }
        assert buckets
        # One observation per answered round-trip.
        assert sum(buckets.values()) == res.counters[keys.PS_PULL_ROUNDS]

    def test_unbounded_staleness_never_waits(self, setup):
        model, ds, init = setup
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(),
            PsSchedule(nodes=2, max_staleness=None, epoch_timeout=60.0),
        )
        assert res.counters[keys.PS_PULL_WAITS] == 0

    def test_wall_clock_measured(self, setup):
        model, ds, init = setup
        tel = Telemetry()
        res = train_ps(
            model, ds.X, ds.y, init, _config(),
            PsSchedule(nodes=2, epoch_timeout=60.0), tel,
        )
        assert res.wall_seconds_total > 0
        assert res.wall_seconds_per_epoch == pytest.approx(
            res.wall_seconds_total / res.epochs_run
        )
        gauges = tel.gauges()
        assert gauges[keys.WALL_SECONDS_PER_EPOCH] == res.wall_seconds_per_epoch
        assert gauges[keys.WALL_SECONDS_TOTAL] == res.wall_seconds_total


class TestFaultsAndRecovery:
    def test_node_kill_without_recovery_raises(self, setup):
        model, ds, init = setup
        plan = FaultPlan.parse(["node-kill@2"])
        with pytest.raises(WorkerError) as exc:
            train_ps(
                model,
                ds.X,
                ds.y,
                init,
                _config(),
                PsSchedule(nodes=2, epoch_timeout=30.0),
                fault_plan=plan,
            )
        assert exc.value.epoch == 2

    def test_node_kill_recovers_by_respawn(self, setup):
        model, ds, init = setup
        plan = FaultPlan.parse(["node-kill@2"])
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(),
            PsSchedule(nodes=2, epoch_timeout=30.0),
            fault_plan=plan,
            recovery=RecoveryPolicy(max_restarts=2, mode="respawn"),
        )
        assert res.epochs_run == 3
        assert res.restarts == 1
        assert res.nodes_final == 2
        assert res.faults_injected >= 1
        assert res.counters[keys.PS_DEAD_WORKERS_REAPED] >= 1
        assert res.counters[keys.PS_RECONNECTS] >= 1
        assert res.recovery[0]["action"] == "respawn"
        assert res.recovery[0]["cause"]["exitcode"] == 23
        assert not res.diverged

    def test_node_kill_recovers_by_repartition(self, setup):
        model, ds, init = setup
        plan = FaultPlan.parse(["node-kill@2:w1"])
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(),
            PsSchedule(nodes=3, epoch_timeout=30.0),
            fault_plan=plan,
            recovery=RecoveryPolicy(max_restarts=2, mode="repartition"),
        )
        assert res.epochs_run == 3
        assert res.repartitions == 1
        assert res.nodes_final == 2
        assert res.degraded_epochs >= 1
        # The rebuilt 2-node pool still covers every example.
        assert res.counters[keys.UPDATES_APPLIED] >= ds.X.shape[0]
        assert not res.diverged

    def test_node_stall_times_out_then_respawns(self, setup):
        model, ds, init = setup
        plan = FaultPlan.parse(["node-stall@2:w0"])
        res = train_ps(
            model,
            ds.X,
            ds.y,
            init,
            _config(),
            PsSchedule(nodes=2, epoch_timeout=1.0),
            fault_plan=plan,
            recovery=RecoveryPolicy(max_restarts=2),
        )
        assert res.epochs_run == 3
        assert res.restarts == 1  # a stall leaves no corpse: full respawn
        assert res.recovery[0]["cause"]["worker_id"] is None
        assert not res.diverged

    def test_budget_exhaustion_raises(self, setup):
        model, ds, init = setup
        plan = FaultPlan.parse(["node-kill@1", "node-kill@2"])
        with pytest.raises(WorkerError):
            train_ps(
                model,
                ds.X,
                ds.y,
                init,
                _config(),
                PsSchedule(nodes=2, epoch_timeout=30.0),
                fault_plan=plan,
                recovery=RecoveryPolicy(max_restarts=1, mode="respawn"),
            )


class TestFacade:
    def test_train_backend_ps(self):
        from repro.sgd import train

        result = train(
            "lr",
            "w8a",
            scale="tiny",
            max_epochs=3,
            backend="ps",
            nodes=2,
            max_staleness=8,
            epoch_timeout=60.0,
            early_stop_tolerance=None,
        )
        assert result.backend == "ps"
        assert result.measured["nodes"] == 2
        assert result.measured["max_staleness"] == 8
        assert result.measured["workers"] == 2  # CLI-facing alias
        assert result.time_per_iter == result.measured["wall_seconds_per_epoch"]
        assert keys.PS_PULLS in result.measured["counters"]
        assert result.params is not None

    def test_a_run_is_its_nodes_plus_one_server_process(self, started_processes):
        """Two nodes and one supervised shard server, all reaped, no
        shared-memory segment left behind."""
        from repro.sgd import train

        # Solve the reference first: a cold solve fans out over a pool.
        train("lr", "w8a", scale="tiny", max_epochs=1, early_stop_tolerance=None)
        started_processes.clear()
        segments = set(glob.glob("/dev/shm/psm_*"))
        train(
            "lr", "w8a", scale="tiny", max_epochs=1, early_stop_tolerance=None,
            backend="ps", nodes=2,
        )
        names = sorted(p.name for p in started_processes)
        assert names == ["ps-node-0", "ps-node-1", "ps-server"]
        assert not [p for p in started_processes if p.is_alive()]
        assert set(glob.glob("/dev/shm/psm_*")) <= segments

    def test_ps_flags_rejected_on_other_backends(self):
        from repro.sgd import train

        with pytest.raises(ConfigurationError, match="ps backend"):
            train("lr", "w8a", scale="tiny", nodes=2)
        with pytest.raises(ConfigurationError, match="ps backend"):
            train("lr", "w8a", scale="tiny", backend="shm", max_staleness=1)

    def test_shm_flags_rejected_on_ps(self):
        from repro.sgd import train

        with pytest.raises(ConfigurationError, match="shm backend"):
            train("lr", "w8a", scale="tiny", backend="ps", threads=2)

    def test_ps_rejects_synchronous(self):
        from repro.sgd import train

        with pytest.raises(ConfigurationError):
            train("lr", "w8a", scale="tiny", backend="ps", strategy="synchronous")


class TestAllDatasetsConverge:
    def test_five_datasets_match_shm_tolerance(self):
        """Acceptance: 4 ps nodes train every LIBSVM task to within the
        shm backend's loss neighbourhood (same updates, different
        transport — the curves should be statistically equivalent)."""
        from repro.parallel import ShmSchedule, train_shm

        cfg = _config()
        for name in ("covtype", "w8a", "real-sim", "rcv1", "news"):
            ds = load(name, "tiny")
            model = make_model("lr", ds)
            init = model.init_params(derive_rng(7, "pstest"))
            ps = train_ps(
                model, ds.X, ds.y, init, cfg,
                PsSchedule(nodes=4, epoch_timeout=60.0),
            )
            shm = train_shm(
                model, ds.X, ds.y, init, cfg, ShmSchedule(workers=4)
            )
            assert not ps.diverged, name
            assert ps.curve.final_loss < ps.curve.initial_loss, name
            gain = shm.curve.initial_loss - shm.curve.final_loss
            assert abs(ps.curve.final_loss - shm.curve.final_loss) <= max(
                0.25 * gain, 5e-3
            ), name
