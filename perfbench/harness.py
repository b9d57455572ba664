"""Shared pieces of the workloads: results, input cache, environment, load.

The input cache lives in ``.perfbench_cache/`` at the root of the
checkout.  Inputs are generated from the seed alone, so a cached file is
only ever a faster way to get the same arrays; the cache key carries
``INPUT_VERSION`` so a change to a generator invalidates old files.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import stats

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"
OUT_DIR = ROOT / ".perfbench_out"

#: Bump when any workload's input generation changes.
INPUT_VERSION = 2
#: Percentile of per-sample rates reported as a CPU-bound throughput, and
#: ``100 -`` it of per-operation times reported as a CPU-bound latency.
RATE_LEVEL = 10.0
#: How long a load phase waits for its last replies before counting them failed.
REPLY_TIMEOUT_S = 60.0


@dataclass
class Metric:
    value: float
    unit: str
    #: sample count behind the value (1 for a single measurement).
    n: int = 1
    #: how the value was formed, e.g. "p99 of 7500 requests".
    note: str = ""


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: tokens the root operations processed: the per-layer metrics' denominator.
    tokens: int = 0
    #: failure messages, kept short; printed before the result line.
    errors: list[str] = field(default_factory=list)
    #: extra figures printed with the result (generator lateness, ...).
    details: dict[str, object] = field(default_factory=dict)
    #: per-sample values behind a percentile, kept for the run's report file.
    samples: dict[str, list[float]] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Count one oracle-checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def put(self, name: str, value: float, unit: str, n: int = 1, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, n, note)

    def put_rate(
        self, name: str, work: list[float], seconds: list[float], what: str, level: float = RATE_LEVEL
    ) -> None:
        """Tokens per second: the ``level`` percentile of the per-sample rates.

        A shared host's speed swings by up to 1.6x, within seconds and
        from one minute to the next.  Its fast spells come and go, but
        its busy floor holds: over ten runs the p10 of per-sample rates
        spread by 0.04-0.12 of its median where the ratio of totals spread
        by 0.14-0.19 and the p90 by 0.23-0.26.  The ratio of totals is
        kept in the note.
        """
        rates = [w / s for w, s in zip(work, seconds)]
        self.samples[name] = rates
        total = sum(work) / sum(seconds)
        self.put(name, stats.percentile(rates, level), "tok/s", len(rates),
                 f"p{level:g} of {len(rates)} {what}; total/time {total:.6g}")

    def put_time(self, name: str, seconds: list[float], what: str) -> None:
        """Milliseconds per operation: the ``100 - RATE_LEVEL`` percentile (see ``put_rate``)."""
        level = 100.0 - RATE_LEVEL
        ms = [s * 1e3 for s in seconds]
        self.samples[name] = ms
        self.put(name, stats.percentile(ms, level), "ms", len(ms),
                 f"p{level:g} of {len(ms)} {what}; median {stats.percentile(ms, 50.0):.6g}")

    def put_latency(self, prefix: str, samples_ms: list[float]) -> None:
        """``<prefix>_p50_ms`` as a metric and ``<prefix>_p99_ms`` as a detail.

        The "p99" is the highest percentile the sample supports, up to p99.
        It is printed with its level and count but carries no bound: on a
        shared host, seconds-long slow spells set open-loop tails, which
        then spread by 0.3-0.9 of their median from run to run.
        """
        mid = stats.median(samples_ms)
        self.put(f"{prefix}_p50_ms", mid.value, "ms", mid.n, f"p50 of {mid.n}")
        self.details[f"{prefix}_p99_ms"] = stats.tail(samples_ms).describe("ms")


# ------------------------------------------------------------------ #
# Input cache
# ------------------------------------------------------------------ #
def cached_inputs(
    workload: str, seed: int, build: Callable[[int], dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """The workload's inputs for ``seed``, built once and then read from disk."""
    path = CACHE_DIR / f"{workload}-seed{seed}-v{INPUT_VERSION}.npz"
    if path.is_file():
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    arrays = build(seed)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)
    return arrays


def split(concat: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """Cut a concatenated token array back into sequences."""
    return np.split(concat, np.cumsum(lengths)[:-1])


# ------------------------------------------------------------------ #
# Environment
# ------------------------------------------------------------------ #
def environment(seed: int) -> dict[str, object]:
    """Where and how the numbers were taken."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        dep = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, AttributeError):
        blas = {"name": "unknown", "version": None}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "executable": Path(sys.executable).name,
    }


# ------------------------------------------------------------------ #
# Open-loop load
# ------------------------------------------------------------------ #
def poisson_offsets(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """Arrival offsets (seconds from the start) of ``n`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


@dataclass
class LoadRun:
    """Per-request times of one load phase (``perf_counter`` seconds).

    ``done`` is 0 for a request that never completed; ``errors`` holds the
    exception of every refused or failed request, by index.
    """

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    results: list
    errors: dict[int, BaseException]

    def completed(self) -> np.ndarray:
        """Mask of requests that completed without an error."""
        mask = self.done > 0
        mask[list(self.errors)] = False
        return mask

    def latencies_ms(self) -> list[float]:
        """Due-to-completion latency of every completed request."""
        return ((self.done - self.due) * 1e3)[self.completed()].tolist()


def open_loop(
    offsets: np.ndarray,
    submit: Callable[[int], Future],
    refused_errors: tuple[type[BaseException], ...],
    keep: Callable[[object], object] = lambda result: result,
) -> LoadRun:
    """Send request ``i`` at ``offsets[i]`` regardless of earlier replies.

    One generator thread (the caller) sleeps until each due time; when it
    falls behind it sends at once, and the lateness shows in ``sent - due``.
    Completion is stamped by a done callback on whichever thread resolves
    the future, which stores ``keep(result)`` and lets the future go: the
    generator holds no per-request Python objects, so its own garbage does
    not grow the collector's pauses during the phase.  A submission
    refused with one of ``refused_errors`` is recorded as an error.
    """
    n = len(offsets)
    due = time.perf_counter() + np.asarray(offsets, dtype=np.float64)
    sent = np.zeros(n)
    done = np.zeros(n)
    results: list = [None] * n
    errors: dict[int, BaseException] = {}
    refused = 0

    def on_done(i: int, future: Future) -> None:
        now = time.perf_counter()
        error = future.exception()
        if error is None:
            results[i] = keep(future.result())
        else:
            errors[i] = error
        done[i] = now

    for i in range(n):
        wait = due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent[i] = time.perf_counter()
        try:
            future = submit(i)
        except refused_errors as exc:
            errors[i] = exc
            refused += 1
            continue
        future.add_done_callback(partial(on_done, i))
    expected = n - refused
    give_up = time.perf_counter() + REPLY_TIMEOUT_S
    while np.count_nonzero(done) < expected and time.perf_counter() < give_up:
        time.sleep(0.001)
    return LoadRun(due, sent, done, results, errors)


class Deadline:
    """A run's measuring budget: ``left()`` seconds remain of ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()

