"""Run hygiene and arithmetic shared by every workload.

Nothing here imports NumPy or ``repro``: :func:`prepare_environment`
must pin the BLAS thread pools *before* NumPy is first imported, so the
modules that need either are imported by the callers afterwards.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The tail metric is p90, taken inside one slice of the window (100
#: requests or more): the slice leaves 10 samples beyond the level.  (p99
#: over 1000-sample chunks was tried on serve-single and moved 38 % from
#: run to run on a shared 2-vCPU host, more than any bound may allow.)
TAIL_LEVEL = 90.0
TAIL_MIN_SAMPLES = 100


class BenchSetupError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, metrics, units and bounds."""
    return json.loads(SPEC_PATH.read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare_environment() -> None:
    """Pin BLAS to one thread and make ``repro`` importable, here and in
    every child process (fork children inherit both, ``python -m repro
    serve`` reads ``PYTHONPATH``)."""
    if not (SRC / "repro").is_dir():
        raise BenchSetupError(f"no program to measure: {SRC / 'repro'} is missing")
    for var in BLAS_PINS:
        os.environ[var] = "1"
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    if src not in (inherited or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    # The cold reference-loss sweep fans its members over processes when
    # asked; set-up uses the cores the workload itself is allowed.
    os.environ["REPRO_REFERENCE_JOBS"] = str(min(2, nproc()))


# -- statistics -------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def tail_latency(samples: list[float]) -> float:
    """The tail level of *samples* where they leave ten beyond it; else
    their median: a p90 of one train call would be the call itself, and
    the harness does not print a percentile the sample cannot support."""
    if len(samples) < TAIL_MIN_SAMPLES:
        return statistics.median(samples)
    return percentile(samples, TAIL_LEVEL)


def percentile(values: list[float], level: float) -> float:
    """Linear-interpolated percentile of *values* (0 <= level <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * level / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- host ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_ticks() -> tuple[int, int]:
    """(busy, total) jiffies of the whole host since boot."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    idle = fields[3] + fields[4]  # idle + iowait
    return sum(fields) - idle, sum(fields)


def others_busy_share(sample_s: float = 0.25) -> float:
    """Share of the host's CPUs somebody else keeps busy while this
    process sleeps.  The 1-min load average cannot say: in a back-to-back
    sequence it still carries the previous run."""
    busy0, total0 = _cpu_ticks()
    time.sleep(sample_s)
    busy1, total1 = _cpu_ticks()
    return (busy1 - busy0) / max(total1 - total0, 1)


def fingerprint() -> dict:
    """What a later reader needs to judge whether two result files are
    comparable.  Call after :func:`prepare_environment`."""
    import numpy

    from repro.telemetry.gitinfo import current_git_sha

    busy = others_busy_share()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": current_git_sha(ROOT),
        "loadavg_1m": os.getloadavg()[0],
        "others_busy_share": busy,
        # Half of nproc in use by others, as a load average above
        # nproc / 2 would say of a host this run had not loaded itself.
        "noisy_host": busy > 0.5,
    }


def warn_if_noisy(fp: dict) -> None:
    if fp["noisy_host"]:
        print(
            f"WARNING: noisy host: other processes keep {fp['others_busy_share']:.0%} of "
            f"{fp['nproc']} CPUs busy (1-min load average {fp['loadavg_1m']:.2f}); "
            "timings from this run are suspect",
            file=sys.stderr,
        )


def max_rss_mb(who: int) -> float:
    """``ru_maxrss`` of ``resource.RUSAGE_SELF`` or, for the largest child
    already waited for, ``RUSAGE_CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- the yardstick ------------------------------------------------------------------
#
# This host is a shared VM whose speed wanders by tens of percent over
# seconds to minutes (README, "Noise floor").  Every timing is therefore
# read against a fixed slice of the benchmark's own work, timed next to
# the operation it normalises: a host that runs the slice 30 % slower
# runs the computing part of the program 30 % slower.


def _yardstick_slice(X, w) -> float:
    """Seconds for a fixed run of NumPy-in-a-Python-loop SGD steps: the
    kind of code the program spends its time in, owned by the benchmark."""
    t0 = time.perf_counter()
    for x in X:
        w -= 1e-9 * float(x @ w) * x
    return time.perf_counter() - t0


def _yardstick_helper(conn, X, w) -> None:
    try:
        while conn.recv():
            conn.send(_yardstick_slice(X, w))
    except (EOFError, OSError):
        pass


class Yardstick:
    """Times the fixed slice on *cores* cores at once (this process plus
    ``cores - 1`` forked helpers), so that a neighbour taking one of two
    vCPUs slows the yardstick as it slows a two-process workload.  Create
    it before the workload starts any thread: the helpers are forked.

    ``sample()`` is called between operations, never during one; a timing
    taken from ``t0`` to ``t1`` is scaled by ``factor(t0, t1, share)`` to
    what it would read on a host that runs the slice in ``NOMINAL_MS``.
    """

    #: What the slice takes on this host in a quiet minute, by cores: two
    #: at once share one physical core's units.
    NOMINAL_MS = {1: 1.0, 2: 1.2}
    ROWS = 600
    #: Slices per sample.
    REPEATS = 2
    #: A timing is read against the mean of the samples taken during it
    #: and this long before and after: the host's speed moves over
    #: seconds, a single 1 ms slice is as noisy as what it corrects.
    PAD_S = 1.0

    def __init__(self, cores: int) -> None:
        import multiprocessing

        import numpy as np

        self.nominal_ms = self.NOMINAL_MS[cores]
        self._X = np.random.default_rng(0).standard_normal((self.ROWS, 54))
        self._w = np.zeros(54)
        self.samples_ms: list[float] = []
        self._times: list[float] = []
        #: Seconds spent sampling, so a caller can take them out of a
        #: timing that spans samples.
        self.spent_s = 0.0
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(cores - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(
                target=_yardstick_helper, args=(theirs, self._X, self._w), daemon=True
            )
            proc.start()
            theirs.close()
            self._helpers.append((proc, ours))

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            for _, conn in self._helpers:
                conn.send(True)
            times = [_yardstick_slice(self._X, self._w)]
            times += [conn.recv() for _, conn in self._helpers]
            self.samples_ms.append(statistics.mean(times) * 1e3)
            self._times.append(time.perf_counter())
        self.spent_s += time.perf_counter() - t0

    def factor(self, t0: float, t1: float, share: float) -> float:
        """What to multiply a time taken over ``[t0, t1]``
        (``time.perf_counter`` readings) by, when *share* of it is
        computing, which stretches with the host's slowdown, and the rest
        is timers and wake-ups, which do not.  Call once the samples after
        ``t1`` have been taken."""
        lo = bisect.bisect_left(self._times, t0 - self.PAD_S)
        hi = bisect.bisect_right(self._times, t1 + self.PAD_S)
        slowdown = statistics.mean(self.samples_ms[lo:hi]) / self.nominal_ms
        return 1.0 / (1.0 - share + share * slowdown)

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join()
            conn.close()
        self._helpers = []


# -- leak checks ----------------------------------------------------------------


def _live_children() -> list[int]:
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may hold spaces or parens.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state != "Z":
            kids.append(int(entry))
    return kids


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _stop_resource_tracker() -> None:
    """End multiprocessing's helper process (started on first use of
    shared memory) and wait for it: it is ours, not a leak, but this
    process must not exit before its children have."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Hygiene:
    """What a workload must not leave behind: processes, shared-memory
    segments, its temporary cache."""

    def __init__(self, tmp_root: Path) -> None:
        self.tmp_root = tmp_root
        self._segments = _shm_segments()
        tmp_root.mkdir(parents=True, exist_ok=True)

    def fresh_dir(self, name: str) -> Path:
        path = self.tmp_root / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def finish(self) -> list[str]:
        """Remove the temp tree and report every leak as one failure."""
        problems = []
        _stop_resource_tracker()
        orphans = _live_children()
        # A just-joined pool worker can take a moment to leave /proc.
        deadline = time.monotonic() + 2.0
        while orphans and time.monotonic() < deadline:
            time.sleep(0.05)
            orphans = _live_children()
        if orphans:
            problems.append(f"orphan child processes left running: {orphans}")
            for pid in orphans:
                try:
                    os.kill(pid, 9)
                    os.waitpid(pid, 0)
                except OSError:
                    pass
        leaked = _shm_segments() - self._segments
        if leaked:
            problems.append(f"shared-memory segments left in /dev/shm: {sorted(leaked)}")
        shutil.rmtree(self.tmp_root, ignore_errors=True)
        if self.tmp_root.exists():
            problems.append(f"temporary directory not removed: {self.tmp_root}")
        return problems


# -- the timed window -------------------------------------------------------------


@dataclass
class Slice:
    """One stretch of the window between two yardstick samples: one
    operation of a train or grid workload, a few hundred requests of a
    serving one.  Times are as measured; *factor* normalises them."""

    wall_s: float
    work: float
    #: Successful operations in the slice, and their latency: its median
    #: and its tail (:func:`tail_latency`).
    ops: int
    p50_ms: float
    tail_ms: float
    factor: float


@dataclass
class Window:
    """What one timed window produced.  Every timing it reports is the
    median over its slices of the slice's host-normalised value."""

    slices: list[Slice] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Why operations failed (capped: a broken server fails thousands).
    messages: list[str] = field(default_factory=list)

    def _median(self, value: Callable[[Slice], float]) -> float:
        return statistics.median(value(s) for s in self.slices)

    @property
    def has_tail(self) -> bool:
        """Whether every slice held enough operations for the tail level."""
        return min(s.ops for s in self.slices) >= TAIL_MIN_SAMPLES

    @property
    def work_per_s(self) -> float:
        return self._median(lambda s: s.work / (s.wall_s * s.factor))

    @property
    def latency_ms_p50(self) -> float:
        return self._median(lambda s: s.p50_ms * s.factor)

    @property
    def latency_ms_tail(self) -> float:
        return self._median(lambda s: s.tail_ms * s.factor)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def sequential_window(
    op: Callable[[], float], seconds: float, tracer, name: str, layer: str,
    yard: Yardstick, share: float,
) -> Window:
    """Call *op* back to back until *seconds* have passed (at least once),
    with a yardstick sample between calls; each call is one slice.

    *op* returns the units of work it completed and may itself sample the
    yardstick between its steps.  An exception counts the operation as
    failed and the loop goes on, so one bad call cannot hide behind a crash.
    """
    win = Window()
    done = []
    start = time.perf_counter()
    yard.sample()
    while True:
        t0, spent0 = time.perf_counter(), yard.spent_s
        win.attempted += 1
        try:
            with tracer.span(name, layer):
                units = op()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            win.fail(f"{name}: {type(exc).__name__}: {exc}")
            units = 0.0
        t1 = time.perf_counter()
        if units:
            done.append((t0, t1, (t1 - t0) - (yard.spent_s - spent0), units))
        yard.sample()
        if t1 - start >= seconds:
            break
    for t0, t1, wall, units in done:
        ms = wall * 1e3
        win.slices.append(Slice(wall, units, 1, ms, ms, yard.factor(t0, t1, share)))
    return win
