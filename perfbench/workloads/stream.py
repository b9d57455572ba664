"""``stream``: online tagging, token by token.

Two phases on the generator's true PoS model (K = 15, V = 10,000), the
decoder's split in halves run before and after the service's so that its
rate samples come from the whole run rather than one stretch of a shared
host:

* ``service`` -- 32 ``StreamingService`` streams (lag 32) fed by an open
  loop at a fixed 500 pushes/s in aggregate, round-robin over the
  streams; push latency runs from each push's due time;
* ``decoder`` -- one ``StreamingDecoder`` (lag 32, ``keep_history=False``)
  pushed closed-loop over a long token stream: tokens per second, one
  sample per ``CLOCK_EVERY`` pushes.

The token stream is the held-out sentences concatenated, cycled when a
run outlasts it.  Oracles: every service stream's finalized labels equal
a lone ``StreamingDecoder``'s at the same lag over the same tokens, and
the closed-loop decoder's finalized labels equal a history-keeping
decoder's over a prefix.  Only the streaming sessions do work here.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import harness, stats
from perfbench.trace import Tracer
from perfbench.workloads import tag_serve

from repro.exceptions import QueueFullError
from repro.hmm.backends import BatchedStreamingSession, StreamingSession
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.serving import StreamingDecoder, StreamingService
from repro.serving.streaming_service import ServiceStream

INPUT_NAME = tag_serve.INPUT_NAME
make_inputs = tag_serve.make_inputs
SETUP_REPS = 21
ROOTS = ("stream.decoder",)
#: Roots of the per-layer metrics: the service phase too, whose work runs on
#: the service's thread and so is no root's descendant.
SCOPE = ROOTS + ("stream.service",)
#: The figures reported as the end-to-end ``tokens_per_s`` and ``latency_ms``.
HEADLINE = {"tokens_per_s": "stream_tokens_per_s", "latency_ms": "push_p50_ms"}
CATEGORY = {
    "hmm.emissions.score": "emissions",
    "serving.streaming.step": "recursion",
    "serving.streaming_service.tick": "recursion",
    "serving.streaming.push": "orchestration",
}

LAG = 32
N_STREAMS = 32
PUSH_RATE = 500.0
PHASE_SHARE = {"service": 0.2, "decoder": 0.72}
#: Leading tokens of the closed-loop decoder checked against a reference decoder.
DECODER_CHECK_TOKENS = 4000
#: Closed-loop pushes between clock reads: one rate sample (~0.1 s).
CLOCK_EVERY = 1024


class Bench:
    def __init__(self, inputs: dict[str, np.ndarray], seed: int, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.model = tag_serve.true_model(inputs)
        self.tokens = inputs["words"]
        self.gold = inputs["tags"]
        self.service = None
        self.streams: list[ServiceStream] = []

    def setup(self) -> None:
        """Service start plus opening the streams."""
        self.service = StreamingService(self.model, lag=LAG, keep_history=True)
        self.streams = [self.service.open() for _ in range(N_STREAMS)]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        self.streams = []

    @staticmethod
    def _stream_tokens(values: np.ndarray, n_pushes: int) -> list[np.ndarray]:
        """``values`` cycled to ``n_pushes`` and dealt out to the streams in runs."""
        per_stream = -(-n_pushes // N_STREAMS)
        stream = np.resize(values, per_stream * N_STREAMS)
        return [stream[j * per_stream:(j + 1) * per_stream] for j in range(N_STREAMS)]

    def _service_phase(self, out: harness.Outcome, seconds: float) -> list[float]:
        n = max(N_STREAMS, int(round(PUSH_RATE * seconds)))
        tokens = self._stream_tokens(self.tokens, n)
        gold = self._stream_tokens(self.gold, n)
        offsets = harness.poisson_offsets(np.random.default_rng([self.seed, 4]), PUSH_RATE, n)

        def submit(i: int):
            return self.streams[i % N_STREAMS].submit_push(tokens[i % N_STREAMS][i // N_STREAMS])

        def load():
            return harness.open_loop(offsets, submit, (QueueFullError,), keep=lambda step: None)

        run = load() if self.tracer is None else self.tracer.call("stream.service", load)
        out.details["service_generator_lateness_ms"] = stats.lateness(run.due, run.sent).as_dict()
        for i, ok in enumerate(run.completed()):
            out.check(bool(ok), f"service push {i}: {run.errors.get(i, 'no reply')!r}")
        pushed = [len(range(j, n, N_STREAMS)) for j in range(N_STREAMS)]
        out.tokens += n
        for j, stream in enumerate(self.streams):
            result = stream.finish()
            self.right += int(np.count_nonzero(result.path == gold[j][:pushed[j]]))
            self.labelled += pushed[j]
            reference = StreamingDecoder(self.model, lag=LAG)
            reference.push_many(tokens[j][:pushed[j]])
            out.check(np.array_equal(result.path, reference.finish().path),
                      f"service stream {j}: labels differ from a lone StreamingDecoder")
        return run.latencies_ms()

    def _decoder_loop(self, seconds: float):
        """Push until ``seconds`` pass; the time of every ``CLOCK_EVERY`` pushes."""
        decoder = StreamingDecoder(self.model, lag=LAG, keep_history=False)
        n_tokens = len(self.tokens)
        finalized: list[tuple[int, int]] = []
        chunks: list[float] = []
        pushed = 0
        start = last = time.perf_counter()
        while last - start < seconds:
            for _ in range(CLOCK_EVERY):
                step = decoder.push(self.tokens[pushed % n_tokens])
                if pushed < DECODER_CHECK_TOKENS + LAG:
                    finalized.extend(step.finalized)
                pushed += 1
            now = time.perf_counter()
            chunks.append(now - last)
            last = now
        return chunks, finalized

    def _decoder_phase(self, out: harness.Outcome, seconds: float) -> list[float]:
        if self.tracer is None:
            chunks, finalized = self._decoder_loop(seconds)
        else:
            chunks, finalized = self.tracer.call("stream.decoder", self._decoder_loop, seconds)
        out.tokens += CLOCK_EVERY * len(chunks)
        reference = StreamingDecoder(self.model, lag=LAG)
        steps = reference.push_many(self.tokens[: DECODER_CHECK_TOKENS + LAG])
        expected = [pair for step in steps for pair in step.finalized if pair[0] < DECODER_CHECK_TOKENS]
        got = [pair for pair in finalized if pair[0] < DECODER_CHECK_TOKENS]
        out.check(got == expected, "closed-loop decoder labels differ from a history-keeping decoder")
        return chunks

    def probe(self) -> None:
        for j, stream in enumerate(self.streams):
            stream.push_many(self.tokens[j * 64:(j + 1) * 64])
        decoder = StreamingDecoder(self.model, lag=LAG, keep_history=False)
        decoder.push_many(self.tokens[:4096])

    def measure(self, seconds: float) -> harness.Outcome:
        out = harness.Outcome()
        self.right = self.labelled = 0
        half = PHASE_SHARE["decoder"] * seconds / 2
        first = self._decoder_phase(out, half)
        out.put_latency("push", self._service_phase(out, PHASE_SHARE["service"] * seconds))
        second = self._decoder_phase(out, half)
        chunks = first + second
        out.put_rate("stream_tokens_per_s", [CLOCK_EVERY] * len(chunks), chunks,
                     f"closed-loop decoder chunks of {CLOCK_EVERY} pushes")
        out.put("accuracy", self.right / self.labelled, "share", self.labelled,
                "service streams' finalized labels equal to the generator's tags, per token")
        return out


def instrument(tracer: Tracer) -> None:
    tracer.wrap(StreamingDecoder, "push", "serving.streaming.push")
    tracer.wrap(StreamingSession, "step", "serving.streaming.step",
                annotate=lambda a, k, r: {"finalized": len(r.finalized)})
    tracer.wrap(CategoricalEmission, "log_likelihoods", "hmm.emissions.score")
    tracer.wrap(BatchedStreamingSession, "step_many", "serving.streaming_service.tick",
                annotate=lambda a, k, r: {"tick_size": len(r)})
    tracer.wrap(ServiceStream, "finish", "serving.streaming_service.finish")


def layers(tracer: Tracer, outcome: harness.Outcome) -> dict[str, harness.Metric]:
    loops = tracer.named("stream.decoder")
    in_loop = [s for s in tracer.spans if any(r.start <= s.start and s.end <= r.end for r in loops)]
    result: dict[str, harness.Metric] = {}

    def put(name: str, samples: list[float], unit: str, what: str) -> None:
        if samples:
            mid = stats.median(samples)
            result[name] = harness.Metric(mid.value, unit, mid.n, f"median {what}")

    steps = [s for s in in_loop if s.name == "serving.streaming.step"]
    put("serving.streaming.push_us",
        [s.duration * 1e6 for s in in_loop if s.name == "serving.streaming.push"], "us", "decoder push per token")
    put("serving.streaming.step_us",
        [s.duration * 1e6 for s in steps if s.attrs["finalized"]], "us",
        "session step that finalizes a label (recursion + fixed-lag backtrack)")
    put("serving.streaming.fill_step_us",
        [s.duration * 1e6 for s in steps if not s.attrs["finalized"]], "us",
        "session step while the lag window fills (recursion only)")
    put("serving.streaming.emission_us",
        [s.duration * 1e6 for s in in_loop if s.name == "hmm.emissions.score"], "us", "emission scoring per token")
    ticks = tracer.named("serving.streaming_service.tick")
    if ticks:
        sizes = [s.attrs["tick_size"] for s in ticks]
        result["serving.streaming_service.tick_size"] = harness.Metric(
            float(np.mean(sizes)), "count", len(sizes), "mean pushes per step_many")
    put("serving.streaming_service.tick_ms", [s.duration * 1e3 for s in ticks], "ms", "per step_many")
    put("serving.streaming_service.finish_ms",
        [s.duration * 1e3 for s in tracer.named("serving.streaming_service.finish")], "ms",
        "per stream finish (final window backtrack)")
    return result
