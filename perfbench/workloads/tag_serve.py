"""``tag-serve``: the request path, from submit to tags.

The WSJ-like generator's true PoS model (K = 15, V = 10,000) is saved to a
``ModelRegistry`` and served by an in-process ``Router``; held-out
sentences from the same generator are the requests.  Phases:

* ``lone``   -- open loop, Poisson arrivals at 20 req/s: requests rarely
  overlap, so latency shows the ``max_wait_ms`` coalescing window;
* ``loaded`` -- open loop at a fixed 1,000 req/s, where micro-batches
  form: a quarter of the ~4,000 req/s at which the backlog starts to grow
  on a shared 2-vCPU host, so that a slow spell of that host (up to 1.6x
  slower for seconds at a time) does not tip the phase into saturation;
* ``burst``  -- submit a queue-capacity-sized chunk, wait for all of it,
  repeat: throughput;
* ``http``   -- closed loop, one request at a time over one keep-alive
  connection to a ``repro-serve serve`` subprocess: transport cost.

Open-loop latency runs from each request's due time, so a stalled
generator or dispatcher shows up in every request it delays; how late the
generator itself ran is reported with the results.  Every returned tag
sequence is compared with ``HMM.predict``, computed before any phase.
EM, the DPP prior and long-sequence decoding do no work here.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from perfbench import harness, stats
from perfbench.trace import Tracer, children_of, descendants

from repro.core.config import ServingConfig
from repro.datasets import generate_wsj_like_corpus
from repro.exceptions import QueueFullError
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.engine import InferenceEngine
from repro.hmm.model import HMM
from repro.serving import ModelRegistry, Router
from repro.serving import service as serving_service

INPUT_NAME = "pos-model"
SETUP_REPS = 5
ROOTS = ("tag-serve.request",)
#: The figures reported as the end-to-end ``tokens_per_s`` and ``latency_ms``.
HEADLINE = {"tokens_per_s": "burst_tokens_per_s", "latency_ms": "lone_p50_ms"}
CATEGORY = {
    "hmm.emissions.batch_score": "emissions",
    "hmm.engine.viterbi_batch": "recursion",
    "serving.router.submit": "orchestration",
    "serving.executor": "orchestration",
}

MODEL = "pos"
HELD_OUT_SENTENCES = 1000
LONE_RATE = 20.0
LOADED_RATE = 1000.0
#: Share of ``--seconds`` given to each phase; the rest covers checks and drains.
PHASE_SHARE = {"lone": 0.35, "loaded": 0.2, "burst": 0.25, "http": 0.1}
SERVER_START_TIMEOUT_S = 60.0


def make_inputs(seed: int) -> dict[str, np.ndarray]:
    """The generator's true model and held-out sentences drawn from it."""
    corpus = generate_wsj_like_corpus(n_sentences=HELD_OUT_SENTENCES, seed=seed)
    return {
        "words": np.concatenate(corpus.words),
        "tags": np.concatenate(corpus.tags),
        "lengths": np.array([len(s) for s in corpus.words], dtype=np.int64),
        "startprob": corpus.startprob,
        "transmat": corpus.transmat,
        "emission_probs": corpus.emission_probs,
    }


def true_model(inputs: dict[str, np.ndarray]) -> HMM:
    return HMM(
        inputs["startprob"], inputs["transmat"], CategoricalEmission(inputs["emission_probs"])
    )


def _registry(model: HMM, seed: int) -> str:
    """A registry holding ``model`` as version 1, saved once per seed."""
    path = harness.CACHE_DIR / f"{INPUT_NAME}-seed{seed}-v{harness.INPUT_VERSION}-registry"
    if not path.is_dir():
        harness.CACHE_DIR.mkdir(exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix="registry-", dir=harness.CACHE_DIR))
        ModelRegistry(staging).save(MODEL, model)
        os.replace(staging, path)
    return str(path)


def _server_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(harness.ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Bench:
    def __init__(self, inputs: dict[str, np.ndarray], seed: int, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.sentences = harness.split(inputs["words"], inputs["lengths"])
        self.gold = harness.split(inputs["tags"], inputs["lengths"])
        model = true_model(inputs)
        self.oracle = model.predict(self.sentences)
        self.order = np.random.default_rng([seed, 3]).permutation(len(self.sentences))
        self.registry_dir = _registry(model, seed)
        harness.OUT_DIR.mkdir(exist_ok=True)
        self.log_path = harness.OUT_DIR / f"tag-serve-seed{seed}-server.log"
        self.router = None
        self.server = None
        self.conn = None

    # -------------------------------------------------------------- #
    def setup(self) -> None:
        """Registry load + warm-up, then the HTTP server up until /healthz answers."""
        self.router = Router(ModelRegistry(self.registry_dir), config=ServingConfig())
        report = self.router.warm_up([MODEL])
        if not report.ok:
            raise RuntimeError(f"warm-up failed: {report.errors}")
        with open(self.log_path, "w") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.serving.cli", "serve",
                 "--registry", self.registry_dir, "--port", "0", "--warm-up", MODEL],
                stdout=subprocess.DEVNULL, stderr=log, env=_server_env(), cwd=harness.ROOT,
            )
        port = self._wait_for_port()
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.conn.request("GET", "/healthz")
        response = self.conn.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")

    def _wait_for_port(self) -> int:
        pattern = re.compile(r"on http://[^:]+:(\d+)")
        give_up = time.perf_counter() + SERVER_START_TIMEOUT_S
        while time.perf_counter() < give_up:
            found = pattern.search(self.log_path.read_text())
            if found:
                return int(found.group(1))
            if self.server.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"server did not start; log: {self.log_path.read_text()[-500:]}")

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
        if self.router is not None:
            self.router.close()
            self.router = None

    # -------------------------------------------------------------- #
    def _sentence(self, i: int) -> tuple[int, np.ndarray]:
        idx = int(self.order[i % len(self.order)])
        return idx, self.sentences[idx]

    def _submit(self, phase: str, i: int) -> Future:
        _, sentence = self._sentence(i)
        return self.router.submit_tag(MODEL, sentence, version=1, trace_id=f"{phase}-{i}")

    def _check_phase(self, out: harness.Outcome, phase: str, run: harness.LoadRun, first: int = 0) -> None:
        """Compare every reply with the oracle; request ``j`` of ``run`` is number ``first + j``."""
        completed = run.completed()
        for j, ok in enumerate(completed):
            idx, _ = self._sentence(first + j)
            if not ok:
                out.check(False, f"{phase} request {first + j}: {run.errors.get(j, 'no reply')!r}")
            else:
                tags = np.asarray(run.results[j])
                out.check(np.array_equal(tags, self.oracle[idx]),
                          f"{phase} request {first + j}: tags differ from HMM.predict")
                self.right += int(np.count_nonzero(tags == self.gold[idx]))
                self.served += len(tags)
        if self.tracer is not None:
            for j in np.flatnonzero(completed):
                self.tracer.record("tag-serve.request", run.sent[j], run.done[j],
                                   request_id=f"{phase}-{first + j}")

    def _open_loop(self, out: harness.Outcome, phase: str, rate: float, seconds: float, key: int):
        n = max(1, int(round(rate * seconds)))
        offsets = harness.poisson_offsets(np.random.default_rng([self.seed, key]), rate, n)
        run = harness.open_loop(offsets, lambda i: self._submit(phase, i), (QueueFullError,))
        self._check_phase(out, phase, run)
        out.details[f"{phase}_generator_lateness_ms"] = stats.lateness(run.due, run.sent).as_dict()
        return run

    def _burst(self, out: harness.Outcome, seconds: float) -> None:
        """Submit-all-then-wait in queue-capacity chunks until ``seconds`` pass."""
        chunk = self.router.config.queue_capacity or 1024
        runs: list[harness.LoadRun] = []
        elapsed: list[float] = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            base = len(runs) * chunk
            t0 = time.perf_counter()
            runs.append(harness.open_loop(
                np.zeros(chunk), lambda j, base=base: self._submit("burst", base + j), (QueueFullError,)
            ))
            elapsed.append(time.perf_counter() - t0)
        tokens = []
        for k, run in enumerate(runs):
            self._check_phase(out, "burst", run, first=k * chunk)
            tokens.append(sum(len(self._sentence(k * chunk + j)[1]) for j in np.flatnonzero(run.completed())))
        # The median chunk: a burst is two threads taking turns on the GIL,
        # and its slow chunks are turns gone wrong rather than the host's
        # floor (over ten runs the p10 spread by 0.19-0.32, the median by
        # 0.08-0.23).
        out.put_rate("burst_tokens_per_s", tokens, elapsed, f"chunks of {chunk} requests", level=50.0)

    def _http(self, out: harness.Outcome, seconds: float) -> list[float]:
        latencies: list[float] = []
        start = time.perf_counter()
        i = 0
        while not latencies or time.perf_counter() - start < seconds:
            idx, sentence = self._sentence(i)
            body = json.dumps({"sequence": sentence.tolist(), "version": 1})
            t0 = time.perf_counter()
            self.conn.request("POST", f"/v1/models/{MODEL}/tag", body,
                              {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            payload = response.read()
            elapsed = time.perf_counter() - t0
            ok = response.status == 200 and np.array_equal(json.loads(payload)["tags"], self.oracle[idx])
            out.check(ok, f"http request {i}: status {response.status}")
            if ok:
                latencies.append(elapsed * 1e3)
            i += 1
        return latencies

    def probe(self) -> None:
        futures = [self._submit("probe", i) for i in range(self.router.config.queue_capacity or 1024)]
        for future in futures:
            future.result(timeout=60)

    def measure(self, seconds: float) -> harness.Outcome:
        out = harness.Outcome()
        self.right = self.served = 0
        lone = self._open_loop(out, "lone", LONE_RATE, PHASE_SHARE["lone"] * seconds, 1)
        loaded = self._open_loop(out, "loaded", LOADED_RATE, PHASE_SHARE["loaded"] * seconds, 2)
        self._burst(out, PHASE_SHARE["burst"] * seconds)
        out.tokens = self.served
        http_ms = self._http(out, PHASE_SHARE["http"] * seconds)
        out.put("accuracy", self.right / max(self.served, 1), "share", self.served,
                "in-process replies' tags equal to the generator's, per token")
        out.put_latency("lone", lone.latencies_ms())
        out.put_latency("loaded", loaded.latencies_ms())
        mid = stats.median(http_ms)
        out.put("http_p50_ms", mid.value, "ms", mid.n, f"p50 of {mid.n} keep-alive requests")
        out.details["http_p99_ms"] = stats.tail(http_ms).describe("ms")
        snapshot = self.router.stats.snapshot()
        out.details["router"] = {
            key: snapshot[key] for key in ("n_requests", "n_batches", "mean_batch_size", "n_rejected", "n_expired", "n_shed")
        }
        return out


def instrument(tracer: Tracer) -> None:
    tracer.wrap(Router, "submit_tag", "serving.router.submit",
                request_id=lambda a, k: k.get("trace_id"))
    tracer.wrap(serving_service._ModelExecutor, "run", "serving.executor",
                annotate=lambda a, k, r: {"request_ids": [req.trace_id for req in a[1]]})
    tracer.wrap(CategoricalEmission, "log_likelihoods_batch", "hmm.emissions.batch_score")
    tracer.wrap(InferenceEngine, "viterbi_batch", "hmm.engine.viterbi_batch")


def layers(tracer: Tracer, outcome: harness.Outcome) -> dict[str, harness.Metric]:
    children = children_of(tracer.spans)
    executors = tracer.named("serving.executor")
    batch_of = {rid: span for span in executors for rid in span.attrs["request_ids"]}
    submit_of = {s.request_id: s for s in tracer.named("serving.router.submit")}
    result: dict[str, harness.Metric] = {}

    def put(name: str, samples: list[float], unit: str, what: str) -> None:
        if samples:
            mid = stats.median(samples)
            result[name] = harness.Metric(mid.value, unit, mid.n, f"median {what}")

    def phase_of(rid: str) -> str:
        return rid.split("-", 1)[0]

    waits: dict[str, list[float]] = {"lone": [], "loaded": [], "burst": []}
    for root in tracer.named("tag-serve.request"):
        batch = batch_of.get(root.request_id)
        submit = submit_of.get(root.request_id)
        if batch is None or submit is None:
            continue
        waits[phase_of(root.request_id)].append((root.duration - batch.duration) * 1e3)
        tracer.record("serving.scheduler.wait", submit.end, batch.start,
                      parent=root.span_id, request_id=root.request_id)

    loaded_batches = [s for s in executors if phase_of(s.attrs["request_ids"][0]) == "loaded"]
    in_loaded = [d for b in loaded_batches for d in descendants(children, b)]
    put("hmm.emissions.batch_score_ms",
        [s.duration * 1e3 for s in in_loaded if s.name == "hmm.emissions.batch_score"], "ms", "per loaded-phase batch")
    put("hmm.engine.viterbi_batch_ms",
        [s.duration * 1e3 for s in in_loaded if s.name == "hmm.engine.viterbi_batch"], "ms", "per loaded-phase batch")
    put("serving.router.submit_us", [s.duration * 1e6 for s in submit_of.values()], "us", "per submit")
    for phase, samples in waits.items():
        put(f"serving.scheduler.queue_wait_ms.{phase}", samples, "ms",
            f"{phase} router latency minus its batch's executor span")
    for phase in ("loaded", "burst"):
        sizes = [len(s.attrs["request_ids"]) for s in executors if phase_of(s.attrs["request_ids"][0]) == phase]
        if sizes:
            result[f"serving.scheduler.batch_size.{phase}"] = harness.Metric(
                float(np.mean(sizes)), "count", len(sizes), f"mean requests per executor call, {phase}")
    router = outcome.details["router"]
    result["serving.scheduler.failed"] = harness.Metric(
        float(router["n_rejected"] + router["n_expired"] + router["n_shed"] + outcome.failed),
        "count", router["n_requests"], "refused + expired + shed + failed checks")
    http = outcome.metrics["http_p50_ms"].value - outcome.metrics["lone_p50_ms"].value
    result["serving.http.overhead_ms"] = harness.Metric(
        http, "ms", outcome.metrics["http_p50_ms"].n, "http_p50_ms - lone_p50_ms")
    return result
