"""Properties of the supervised epoch loop, checked on a fake backend.

The backend here is a script, not a process pool: every ``run_epoch``
looks up ``(epoch, attempt)`` and either trains (adds one to the
model), poisons it, or raises the structured error a real transport
would.  No processes, no sleeps — so Hypothesis can throw arbitrary
failure schedules at :func:`supervise_epochs` and check what the
recovery layer promises under all of them.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RecoveryPolicy
from repro.faults.supervise import supervise_epochs
from repro.sgd import SGDConfig
from repro.utils.errors import ServerDiedError, WorkerError

EPOCH_TIMEOUT = 8.0
REBUILDS = ("respawn", "repartition", "server_failover")
BUDGETED = REBUILDS + ("nan_scrub",)
FAILURES = ("death", "timeout", "server")


class _Model:
    """Loss falls as the fake's epochs add to the model."""

    def loss(self, X, y, w):
        return 1.0 / (1.0 + float(np.abs(w).sum()))


class ScriptedBackend:
    unit = "workers"
    span = ("fake.optimize", {})
    epoch_timeout = EPOCH_TIMEOUT

    def __init__(self, script, width, assignments):
        self.script = script
        self.width = width
        self.assignments = assignments
        self.params = np.zeros(3)
        self.attempts = Counter()
        self.calls = []  # protocol calls, in order
        self.spawns = []  # (width, next_epoch, assignments)
        self.timeouts = []  # the timeout of every run_epoch
        self.raised = []  # every error run_epoch raised

    def spawn(self, width, next_epoch, assignments):
        self.calls.append("spawn")
        self.spawns.append((width, next_epoch, assignments))

    def run_epoch(self, epoch, timeout):
        self.calls.append("run_epoch")
        self.timeouts.append(timeout)
        self.attempts[epoch] += 1
        event = self.script.get((epoch, self.attempts[epoch]))
        if event == "death":
            err = WorkerError(
                "died", worker_id=0, epoch=epoch, phase="epoch", exitcode=23
            )
        elif event == "timeout":
            err = WorkerError("timed out", epoch=epoch, phase="epoch")
        elif event == "server":
            err = ServerDiedError("server died", phase="probe", epoch=epoch)
        else:
            self.params += 1.0
            if event == "nan":
                self.params[0] = np.nan
            return
        self.raised.append(err)
        raise err

    def failover(self, epoch, err):
        self.calls.append("failover")

    def teardown_pool(self):
        self.calls.append("teardown_pool")

    def snapshot(self):
        return self.params.copy()

    def write_params(self, params):
        self.calls.append("write_params")
        self.params[:] = params

    def finish(self, epochs_run, early, timeout):
        self.calls.append("finish")
        return self.params.copy(), []

    def counters(self):
        return {}

    def close(self):
        self.calls.append("close")


policies = st.none() | st.builds(
    RecoveryPolicy,
    max_restarts=st.integers(0, 5),
    backoff=st.sampled_from([1.0, 1.5, 2.0]),
    mode=st.sampled_from(["repartition", "respawn"]),
    scrub_nans=st.booleans(),
)
scripts = st.dictionaries(
    st.tuples(st.integers(1, 5), st.integers(1, 4)),
    st.sampled_from(FAILURES + ("nan",)),
    max_size=8,
)
fault_specs = st.lists(
    st.fixed_dictionaries(
        {
            "kind": st.just("kill"),
            "epoch": st.integers(1, 6),
            "seconds": st.just(0.0),
        }
    ),
    max_size=3,
)


def _run(script, epochs, width, policy, assignments=None):
    backend = ScriptedBackend(script, width, assignments or {})
    config = SGDConfig(step_size=0.1, max_epochs=epochs, seed=1)
    try:
        run = supervise_epochs(
            backend, _Model(), None, None, np.zeros(3), config, policy, None, None
        )
        return backend, run, None
    except (WorkerError, ServerDiedError) as err:
        return backend, None, err


@settings(max_examples=300, deadline=None)
@given(
    script=scripts,
    epochs=st.integers(1, 5),
    width=st.integers(1, 4),
    policy=policies,
    assignments=st.dictionaries(st.integers(0, 3), fault_specs, max_size=3),
)
def test_recovery_contract(script, epochs, width, policy, assignments):
    backend, run, err = _run(script, epochs, width, policy, assignments)
    budget = policy.max_restarts if policy is not None else 0
    backoff = policy.backoff if policy is not None else 1.0

    # One close on every path, and it is the last thing that happens.
    assert backend.calls.count("close") == 1
    assert backend.calls[-2:] == ["teardown_pool", "close"]

    if err is not None:
        # The original error, raised straight out of the failing epoch:
        # nothing but the one teardown + close happened after it.
        assert err is backend.raised[-1]
        last_run = len(backend.calls) - 1 - backend.calls[::-1].index("run_epoch")
        assert backend.calls[last_run + 1 :] == ["teardown_pool", "close"]
        # ... and it came exactly when the budget was spent.
        recovered = len(backend.raised) - 1 + backend.calls.count("write_params")
        assert recovered == budget
        return

    log = run["recovery"]
    # Every epoch recorded exactly once, in order, from the initial loss.
    assert run["curve"].epochs == list(range(run["epochs_run"] + 1))
    if not run["diverged"]:
        assert run["epochs_run"] == epochs
    assert backend.calls[-3] == "finish"

    # The shared budget covers every kind of action.
    assert sum(e["action"] in BUDGETED for e in log) <= budget
    assert run["restarts"] == sum(e["action"] == "respawn" for e in log)
    assert run["repartitions"] == sum(e["action"] == "repartition" for e in log)

    # timeout == epoch_timeout * backoff ** rebuilds, at every attempt.
    rebuilds = [e for e in log if e["action"] in REBUILDS]
    assert len(backend.timeouts) == run["epochs_run"] + len(rebuilds)
    expected = EPOCH_TIMEOUT
    epoch, attempts, failed = 1, Counter(), iter(rebuilds)
    for timeout in backend.timeouts:
        assert timeout == expected
        attempts[epoch] += 1
        if script.get((epoch, attempts[epoch])) in FAILURES:
            expected *= backoff
            entry = next(failed)
            assert (entry["epoch"], entry["epoch_timeout"]) == (epoch, expected)
        else:
            epoch += 1

    # Repartition needs a corpse, the mode, and someone left to share.
    pool = width
    for entry in rebuilds:
        cause = entry["cause"]
        if entry["action"] == "repartition":
            assert cause["worker_id"] is not None
            assert policy.mode == "repartition" and pool > 1
            pool -= 1
        elif entry["action"] == "respawn":
            assert (
                cause["worker_id"] is None or policy.mode == "respawn" or pool == 1
            )
        assert entry["workers"] == pool

    # A rebuilt pool never re-arms a fault at or before the epoch it
    # replays, and never loses a later one.
    assert backend.spawns[0] == (width, 1, assignments)
    pool_rebuilds = [e for e in rebuilds if e["action"] != "server_failover"]
    assert len(backend.spawns) == 1 + len(pool_rebuilds)
    for entry, (w, next_epoch, armed) in zip(pool_rebuilds, backend.spawns[1:]):
        assert (w, next_epoch) == (entry["workers"], entry["epoch"])
        for k, specs in assignments.items():
            assert armed[k] == [s for s in specs if s["epoch"] > entry["epoch"]]
    assert backend.calls.count("failover") == len(rebuilds) - len(pool_rebuilds)


@settings(max_examples=100, deadline=None)
@given(script=scripts, epochs=st.integers(1, 5), width=st.integers(1, 4))
def test_no_policy_is_fail_fast(script, epochs, width):
    """``recovery=None``: the first failed epoch raises, a poisoned
    snapshot is divergence — nothing is rebuilt, scrubbed or replayed."""
    backend, run, err = _run(script, epochs, width, None)
    first = {e: script.get((e, 1)) for e in range(1, epochs + 1)}
    fatal = next((e for e, ev in first.items() if ev is not None), None)
    assert backend.calls.count("spawn") == 1
    assert "write_params" not in backend.calls and "failover" not in backend.calls
    if fatal is None:
        assert err is None and run["epochs_run"] == epochs and not run["diverged"]
    elif first[fatal] == "nan":
        assert err is None and run["diverged"] and run["epochs_run"] == fatal
        assert run["recovery"] == []
    else:
        assert err is backend.raised[0] and len(backend.raised) == 1
        assert backend.timeouts == [EPOCH_TIMEOUT] * fatal


def test_scrub_draws_from_the_same_budget_as_a_rebuild():
    """Budget 1: the scrub at epoch 1 spends it, the death at epoch 2
    is the next failure — the original error, after one teardown."""
    script = {(1, 1): "nan", (2, 1): "death"}
    backend, run, err = _run(script, 3, 2, RecoveryPolicy(max_restarts=1))
    assert isinstance(err, WorkerError) and err is backend.raised[0]
    assert backend.calls.count("write_params") == 1
    assert backend.calls.count("teardown_pool") == 1


def test_timeout_on_a_repartition_policy_respawns_at_full_width():
    script = {(2, 1): "timeout", (2, 2): "death"}
    backend, run, err = _run(
        script, 3, 3, RecoveryPolicy(max_restarts=2, backoff=2.0)
    )
    assert err is None
    assert [(e["action"], e["epoch"], e["workers"]) for e in run["recovery"]] == [
        ("respawn", 2, 3),
        ("repartition", 2, 2),
    ]
    assert backend.timeouts == [8.0, 8.0, 16.0, 32.0, 32.0]
    assert run["degraded_epochs"] == 2


def test_failover_keeps_the_pool():
    script = {(1, 1): "server"}
    backend, run, err = _run(script, 2, 2, RecoveryPolicy(max_restarts=1))
    assert err is None and run["epochs_run"] == 2
    assert [e["action"] for e in run["recovery"]] == ["server_failover"]
    assert backend.calls.count("spawn") == 1
    # The finally's teardown is the only one.
    assert backend.calls.count("teardown_pool") == 1


def test_server_death_without_budget_reraises():
    backend, run, err = _run({(1, 1): "server"}, 2, 2, None)
    assert isinstance(err, ServerDiedError) and err is backend.raised[0]
    assert backend.calls[-2:] == ["teardown_pool", "close"]


@pytest.mark.parametrize("scrub", [True, False])
def test_poison_is_scrubbed_or_diverges(scrub):
    policy = RecoveryPolicy(max_restarts=2, scrub_nans=scrub)
    backend, run, err = _run({(2, 1): "nan"}, 3, 2, policy)
    assert err is None
    if scrub:
        assert not run["diverged"] and run["epochs_run"] == 3
        assert run["recovery"] == [
            {"action": "nan_scrub", "epoch": 2, "coordinates": 1}
        ]
        assert np.all(np.isfinite(run["params"]))
        assert run["degraded_epochs"] == 1
    else:
        assert run["diverged"] and run["epochs_run"] == 2
        assert run["curve"].losses[-1] == float("inf")


def test_clock_covers_successful_run_epoch_only(monkeypatch):
    """Time per iteration is the epoch between its barriers: the
    snapshot, the scrub write-back and a failed attempt are off it."""
    from types import SimpleNamespace

    from repro.faults import supervise

    now = [0.0]
    monkeypatch.setattr(
        supervise, "time", SimpleNamespace(perf_counter=lambda: now[0])
    )

    class Clocked(ScriptedBackend):
        def run_epoch(self, epoch, timeout):
            now[0] += 1.0
            try:
                super().run_epoch(epoch, timeout)
            except WorkerError:
                now[0] += 30.0
                raise

        def snapshot(self):
            now[0] += 50.0
            return super().snapshot()

        def write_params(self, params):
            now[0] += 70.0
            super().write_params(params)

    backend = Clocked({(1, 1): "nan", (2, 1): "timeout"}, 2, {})
    run = supervise_epochs(
        backend, _Model(), None, None, np.zeros(3),
        SGDConfig(step_size=0.1, max_epochs=3, seed=1),
        RecoveryPolicy(max_restarts=2), None, None,
    )
    assert run["epochs_run"] == 3
    assert run["wall_seconds_total"] == 3.0
    assert run["wall_seconds_per_epoch"] == 1.0
