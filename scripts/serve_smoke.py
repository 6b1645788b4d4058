"""End-to-end smoke test of the train-and-serve path (``make serve-smoke``).

The full loop, with real processes and real sockets:

1. start ``repro train --backend shm --snapshot-out ... --model-out ...``
   (a short but multi-epoch run, so snapshots keep publishing);
2. start ``repro serve --snapshot ...`` against the *live* run and score
   canned requests throughout — across hot-swaps, tolerating only the
   structured retriable errors, requiring at least two distinct model
   versions in the answers;
3. after the trainer exits (segment unlinked), score again: the last
   published model must still be served;
4. shut the server down over the socket and assert the serving manifest
   carries the ``serve.*`` telemetry keys and a clean exit;
5. re-serve the exported model artifact (``repro serve --model``) and
   check scored margins against NumPy ``X.w`` on the artifact's own
   parameters; then send every canned request again, pipelined in one
   ``sendall`` on one connection, and require one reply per line, in
   order, each equal to that request's one-at-a-time reply apart from
   ``latency_ms``.

Every canned request is sent throughout: the well-formed ones (sparse,
unsorted sparse, ``(indices, values)`` pairs, dense, mixed in one
request) must be answered, the malformed ones (a duplicate index, a
``NaN``) refused with a non-retriable error naming the problem.

Exit code 0 means every step held.  The script is deliberately
assert-heavy and chatty: it is the CI step named ``serve-smoke``.

Usage: python scripts/serve_smoke.py [--epochs N]
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.serving import request_once  # noqa: E402

#: One request mixing every accepted form: an unsorted sparse example,
#: an ``(indices, values)`` pair and a dense one.
MIXED_REQUEST = {
    "op": "score",
    "examples": [
        {"indices": [17, 0, 5], "values": [1.0, -2.0, 0.5]},
        [[3, 1], [0.25, 4.0]],
        [0.0] * 290 + [1.5] + [0.0] * 8 + [-0.75],
    ],
}

#: ``(request, refusal)``: ``refusal`` is None for a request that must be
#: answered, else text the non-retriable error's message must contain.
CANNED_REQUESTS = [
    (
        {
            "op": "score",
            "examples": [{"indices": [0, 5, 17], "values": [1.0, 1.0, 1.0]}],
        },
        None,
    ),
    (
        {
            "op": "score",
            "examples": [
                {"indices": [2], "values": [2.5]},
                {"indices": [1, 3], "values": [-1.0, 0.5]},
            ],
        },
        None,
    ),
    ({"op": "score", "examples": [[0.0] * 300]}, None),
    (MIXED_REQUEST, None),
    (
        {"op": "score", "examples": [{"indices": [4, 4], "values": [1.0, 1.0]}]},
        "example 0: duplicate feature index 4",
    ),
    (
        {"op": "score", "examples": [{"indices": [0], "values": [float("nan")]}]},
        "example 0: feature values must be finite",
    ),
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    return env


def _spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
    )


def _server_address(proc: subprocess.Popen) -> tuple[str, int]:
    line = proc.stdout.readline().strip()
    assert line.startswith("serving "), f"unexpected server banner: {line!r}"
    host, port = line.rsplit(" ", 1)[1].split(":")
    return host, int(port)


def _score_until_ok(host: str, port: int, deadline_s: float = 60.0) -> dict:
    """Poll with the canned request, tolerating only retriable errors."""
    deadline = time.time() + deadline_s
    while True:
        reply = request_once(host, port, CANNED_REQUESTS[0][0])
        if reply.get("ok"):
            return reply
        err = reply["error"]
        assert err["retriable"], f"non-retriable serve error: {err}"
        assert err["type"] == "snapshot-unavailable", err
        assert time.time() < deadline, "server never left cold start"
        time.sleep(0.05)


def _assert_refused(reply: dict, refusal: str) -> None:
    """A malformed request gets a structured, non-retriable error."""
    assert reply.get("ok") is False, f"malformed request was answered: {reply}"
    err = reply["error"]
    assert err["retriable"] is False, err
    assert refusal in err["message"], (refusal, err)


def _pipelined(host: str, port: int, requests: list) -> list:
    """Every request in one ``sendall`` on one connection, then EOF; the
    replies, one per line, in the order they came."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reader:
            return [json.loads(line) for line in reader]


def _numpy_margins(examples: list, params: np.ndarray) -> np.ndarray:
    """X.w with X built from the examples in plain NumPy."""
    X = np.zeros((len(examples), params.shape[0]))
    for i, example in enumerate(examples):
        if isinstance(example, dict):
            X[i, example["indices"]] = example["values"]
        elif len(example) == 2:
            X[i, example[0]] = example[1]
        else:
            X[i] = example
    return X @ params


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--epochs",
        type=int,
        default=150,
        help="trainer epochs; long enough to observe live hot-swaps "
        "(default 150)",
    )
    args = parser.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="repro_serve_smoke_"))
    snap = tmp / "snapshot.json"
    model = tmp / "model.json"
    manifest_path = tmp / "serve_manifest.json"

    print("1. starting shm trainer with --snapshot-out ...", flush=True)
    trainer = _spawn(
        [
            "train",
            "--task",
            "lr",
            "--dataset",
            "w8a",
            "--backend",
            "shm",
            "--scale",
            "tiny",
            "--epochs",
            str(args.epochs),
            "--threads",
            "2",
            "--tolerance",
            "0.0001",
            "--snapshot-out",
            str(snap),
            "--model-out",
            str(model),
        ]
    )
    deadline = time.time() + 60
    while not snap.exists():
        assert time.time() < deadline, "trainer never wrote the descriptor"
        assert trainer.poll() is None, trainer.communicate()[1]
        time.sleep(0.05)

    print("2. attaching server to the live run ...", flush=True)
    server = _spawn(
        ["serve", "--snapshot", str(snap), "--manifest-out", str(manifest_path)]
    )
    host, port = _server_address(server)
    first = _score_until_ok(host, port)
    assert first["model_source"] == "shm", first
    print(f"   first answer at model version {first['model_version']}", flush=True)

    versions = {first["model_version"]}
    while trainer.poll() is None:
        for req, refusal in CANNED_REQUESTS:
            reply = request_once(host, port, req)
            if refusal is not None:
                _assert_refused(reply, refusal)
                continue
            if not reply.get("ok"):
                assert reply["error"]["retriable"], reply
                continue
            versions.add(reply["model_version"])
            # every example in one reply was scored under one version
            assert all("margin" in r for r in reply["results"]), reply
        time.sleep(0.01)
    assert trainer.returncode == 0, trainer.communicate()[1]
    assert len(versions) >= 2, (
        f"no hot-swap observed during training (versions: {sorted(versions)})"
    )
    print(
        f"   scored across {len(versions)} model versions during training",
        flush=True,
    )

    print("3. trainer gone; last snapshot must still serve ...", flush=True)
    reply = request_once(host, port, CANNED_REQUESTS[0][0])
    assert reply["ok"], reply
    stats = request_once(host, port, {"op": "stats"})["stats"]
    assert stats["hot_swaps"] >= 1, stats
    assert stats["requests"] > 0 and stats["model_source"] == "shm", stats

    print("4. socket shutdown + manifest assertions ...", flush=True)
    assert request_once(host, port, {"op": "shutdown"})["ok"]
    _, err = server.communicate(timeout=30)
    assert server.returncode == 0, (server.returncode, err)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema"] == "repro.telemetry/serve-manifest/v1"
    for key in (
        "serve.requests",
        "serve.examples",
        "serve.batches",
        "serve.hot_swaps",
        "serve.snapshot.reads",
    ):
        assert key in manifest["counters"], (
            f"{key} missing from serve manifest counters: "
            f"{sorted(manifest['counters'])}"
        )
    assert any(
        k.startswith("serve.batch_size_bucket.") for k in manifest["counters"]
    ), sorted(manifest["counters"])
    for key in (
        "serve.latency_p50_ms",
        "serve.latency_p99_ms",
        "serve.snapshot.version",
        "serve.requests_per_second",
    ):
        assert key in manifest["gauges"], sorted(manifest["gauges"])
    # no score traffic between the stats op and shutdown, so the
    # manifest's final engine stats must match what the socket reported
    assert manifest["serving"]["requests"] == stats["requests"], (
        manifest["serving"]["requests"],
        stats["requests"],
    )
    print("   manifest carries the serve.* keys", flush=True)

    print("5. serving the exported artifact ...", flush=True)
    artifact_server = _spawn(["serve", "--model", str(model), "--no-watch"])
    host, port = _server_address(artifact_server)
    doc = json.loads(model.read_text())
    params = np.array([float(v) for v in doc["results"][0]["params"]])
    singles = []
    for req, refusal in CANNED_REQUESTS:
        reply = request_once(host, port, req)
        singles.append(reply)
        if refusal is not None:
            _assert_refused(reply, refusal)
            continue
        assert reply["ok"] and reply["model_source"] == "artifact", reply
        got = np.array([r["margin"] for r in reply["results"]])
        want = _numpy_margins(req["examples"], params)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12), (got, want)
    print("   canned requests match NumPy X.w; malformed ones refused", flush=True)
    pipelined = _pipelined(host, port, [req for req, _ in CANNED_REQUESTS])
    assert len(pipelined) == len(singles), (len(pipelined), len(singles))
    for one, many in zip(singles, pipelined):
        one.pop("latency_ms", None)
        many.pop("latency_ms", None)
        assert many == one, (many, one)
    print("   pipelined on one connection: the same replies, in order", flush=True)
    assert request_once(host, port, {"op": "shutdown"})["ok"]
    artifact_server.communicate(timeout=30)
    assert artifact_server.returncode == 0

    print("serve-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
