"""The ``TrainResult.measured`` record, pinned key for key.

``_cmd_train``, ``table3.staleness_rows`` and the ``make chaos-ps*``
assertions read these fields out of run manifests by name; the facade builds the record once for both measured
backends, so a dropped or renamed key must fail here, not in a drill.
"""

import pytest

from repro.sgd import train

COMMON = {
    "workers",
    "workers_final",
    "batch_size",
    "epoch_timeout",
    "epochs_run",
    "wall_seconds_per_epoch",
    "wall_seconds_total",
    "counters",
    "restarts",
    "repartitions",
    "degraded_epochs",
    "recovery",
    "fault_plan",
    "max_restarts",
}
EXTRAS = {
    "shm": {"track_conflicts"},
    "ps": {
        "nodes",
        "nodes_final",
        "shards",
        "max_staleness",
        "checkpoint_dir",
        "server_failovers",
        "time_to_repair_seconds",
    },
}


@pytest.mark.parametrize(
    "backend, width_kw, n_keys", [("shm", "threads", 15), ("ps", "nodes", 21)]
)
def test_measured_key_set(backend, width_kw, n_keys):
    r = train(
        "lr", "w8a", strategy="asynchronous", scale="tiny", max_epochs=1,
        early_stop_tolerance=None, backend=backend, **{width_kw: 2},
    )
    assert set(r.measured) == COMMON | EXTRAS[backend]
    assert len(r.measured) == n_keys
    m = r.measured
    assert m["workers"] == m["workers_final"] == 2
    assert m["epochs_run"] == 1 and m["recovery"] == [] and m["fault_plan"] is None
    if backend == "ps":
        # The alias the shared reporting code reads, and the ps names.
        assert (m["nodes"], m["nodes_final"]) == (m["workers"], m["workers_final"])
        assert m["server_failovers"] == 0 and m["time_to_repair_seconds"] is None
