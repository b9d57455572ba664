"""``long-decode``: one genome-scale sequence through ``hmm.longseq``.

A K = 8 categorical HMM is cut from the WSJ-like generator's model (the
first eight tag groups, rows renormalized) and one T = 1,000,000 token
sequence is sampled from it.  Each pass runs ``HMM.decode_long`` on the
whole sequence ``DECODES_PER_PASS`` times (261 windows of 4,096, decoded
64 at a time), then the streaming ``log_likelihood_long`` and the
checkpointed ``posteriors_long`` on a T = 50,000 prefix.  Only this workload exercises the chunked
decoder, the stitcher and the block emission source.

Oracles per pass: the decode's ``log_joint`` equals a ``score_path``
rescoring of its path, its stitch counts add up to the window joins, the
repeated decodes return the same path and joint, and the streamed
log-likelihood equals the posteriors' to a relative 1e-8.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from perfbench import harness, stats
from perfbench.trace import Tracer, children_of, descendants

from repro.datasets import generate_wsj_like_corpus
from repro.hmm import longseq
from repro.hmm.backends import ScaledBatchedBackend
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.engine import InferenceEngine
from repro.hmm.longseq import EmissionSource
from repro.hmm.model import HMM

INPUT_NAME = "long-decode"
SETUP_REPS = 101
ROOTS = ("long-decode.decode", "long-decode.score", "long-decode.posteriors")
#: The figures reported as the end-to-end ``tokens_per_s`` and ``latency_ms``.
HEADLINE = {"tokens_per_s": "decode_tokens_per_s", "latency_ms": "decode_p90_ms"}
CATEGORY = {
    "hmm.longseq.emission_fetch": "emissions",
    "hmm.engine.viterbi_bucket": "recursion",
    "hmm.longseq.score": "recursion",
    "hmm.longseq.posteriors": "recursion",
    "hmm.longseq.decode": "orchestration",
    "hmm.longseq.rescore": "orchestration",
}

N_STATES = 8
LENGTH = 1_000_000
PREFIX = 50_000
#: decode_long calls per pass: the headline figures' samples.
DECODES_PER_PASS = 4


def make_inputs(seed: int) -> dict[str, np.ndarray]:
    """The K = 8 model and one sequence sampled from it."""
    source = generate_wsj_like_corpus(n_sentences=1, seed=seed)
    k = N_STATES
    startprob = source.startprob[:k] / source.startprob[:k].sum()
    transmat = source.transmat[:k, :k] / source.transmat[:k, :k].sum(axis=1, keepdims=True)
    emission = source.emission_probs[:k]
    emission = emission / emission.sum(axis=1, keepdims=True)
    rng = np.random.default_rng([seed, 5])
    # Markov chain by inverse-CDF draws (a Python loop over bisect is ~1 s at
    # T = 1M, where HMM.sample's per-step rng.choice takes minutes).
    uniforms = rng.random(LENGTH).tolist()
    cdf_rows = [np.cumsum(row).tolist() for row in transmat]
    state = min(bisect.bisect_right(np.cumsum(startprob).tolist(), uniforms[0]), k - 1)
    states = [state]
    for u in uniforms[1:]:
        state = min(bisect.bisect_right(cdf_rows[state], u), k - 1)
        states.append(state)
    path = np.asarray(states, dtype=np.int8)
    tokens = np.empty(LENGTH, dtype=np.int64)
    cdf_emission = np.cumsum(emission, axis=1)
    for s in range(k):
        at = np.flatnonzero(path == s)
        draws = np.searchsorted(cdf_emission[s], rng.random(at.size), side="right")
        tokens[at] = np.minimum(draws, emission.shape[1] - 1)
    return {
        "tokens": tokens.astype(np.uint16),
        "states": path,
        "startprob": startprob,
        "transmat": transmat,
        "emission_probs": emission,
    }


class Bench:
    def __init__(self, inputs: dict[str, np.ndarray], seed: int, tracer: Tracer | None) -> None:
        self.inputs = inputs
        self.states = inputs["states"]
        self.tracer = tracer
        self.model = None

    def setup(self) -> None:
        """Source construction: the model, and the token file as a block source."""
        inputs = self.inputs
        self.model = HMM(
            inputs["startprob"], inputs["transmat"], CategoricalEmission(inputs["emission_probs"])
        )
        self.tokens = inputs["tokens"].astype(np.int64)
        self.source = EmissionSource(self.model.emissions, self.tokens)
        self.prefix = EmissionSource(self.model.emissions, self.tokens[:PREFIX])

    def teardown(self) -> None:
        self.model = self.tokens = self.source = self.prefix = None

    def _run(self, root: str, fn, *args):
        start = time.perf_counter()
        result = fn(*args) if self.tracer is None else self.tracer.call(root, fn, *args)
        return result, time.perf_counter() - start

    def _pass(self):
        model = self.model
        engine = model.inference_engine
        decoded, decode_s = self._run("long-decode.decode", model.decode_long, self.tokens)
        times, repeats_agree = [decode_s], []
        for _ in range(DECODES_PER_PASS - 1):
            again, decode_s = self._run("long-decode.decode", model.decode_long, self.tokens)
            times.append(decode_s)
            repeats_agree.append(
                np.array_equal(again.path, decoded.path) and again.log_joint == decoded.log_joint
            )
        ll, score_s = self._run(
            "long-decode.score", engine.log_likelihood_long, model.startprob, model.transmat, self.prefix
        )
        post, post_s = self._run(
            "long-decode.posteriors", engine.posteriors_long, model.startprob, model.transmat, self.prefix
        )
        return (decoded, times, repeats_agree), (ll, score_s), (post, post_s)

    def probe(self) -> None:
        self._pass()

    def measure(self, seconds: float) -> harness.Outcome:
        out = harness.Outcome()
        deadline = harness.Deadline(seconds)
        decode_time: list[float] = []
        score_time: list[float] = []
        post_time: list[float] = []
        log_pi = np.log(self.model.startprob)
        log_a = np.log(self.model.transmat)
        cycle = 0.0
        while not decode_time or deadline.left() >= cycle:
            started = time.perf_counter()
            (decoded, times, repeats_agree), (ll, score_s), (post, post_s) = self._pass()
            cycle = time.perf_counter() - started
            decode_time.extend(times)
            score_time.append(score_s)
            post_time.append(post_s)
            rescored = longseq.score_path(log_pi, log_a, self.source, decoded.path)
            out.check(
                decoded.path.shape == (LENGTH,)
                and math.isclose(decoded.log_joint, rescored, rel_tol=1e-12)
                and decoded.n_agreement_stitches + decoded.n_fallback_stitches == decoded.n_windows - 1,
                f"decode: log_joint {decoded.log_joint} vs score_path {rescored}",
            )
            for agree in repeats_agree:
                out.check(agree, "decode: a repeated decode_long differs from the pass's first")
            out.check(
                math.isclose(ll, post.log_likelihood, rel_tol=1e-8),
                f"score: streamed log-likelihood {ll} vs posteriors {post.log_likelihood}",
            )
        n = len(score_time)
        out.tokens = len(decode_time) * LENGTH + n * 2 * PREFIX
        out.put_rate("decode_tokens_per_s", [LENGTH] * len(decode_time), decode_time,
                     f"decode_long calls at T={LENGTH}")
        out.put_time("decode_p90_ms", decode_time, f"decode_long calls at T={LENGTH}")
        out.put("accuracy", float(np.mean(decoded.path == self.states)), "share", LENGTH,
                "decoded states equal to the sampled ones, per token")
        # Printed but not bounded: these per-timestep Python recursions track
        # a shared 2-vCPU host's speed so closely that their spread over ten
        # seeds reached 0.31-0.36 of the median, above the largest bound, 0.25.
        for name, seconds in (("score_tokens_per_s", score_time), ("posterior_tokens_per_s", post_time)):
            out.details[name] = f"{PREFIX * n / sum(seconds):.6g} tok/s (n={n} calls at T={PREFIX})"
        out.details["stitching"] = {
            "windows": decoded.n_windows,
            "fallback_stitches": decoded.n_fallback_stitches,
            "max_windows_resident": decoded.max_windows_resident,
        }
        return out


def instrument(tracer: Tracer) -> None:
    tracer.wrap(HMM, "decode_long", "hmm.longseq.decode",
                annotate=lambda a, k, r: {"windows": r.n_windows, "fallbacks": r.n_fallback_stitches})
    tracer.wrap(longseq, "score_path", "hmm.longseq.rescore")
    tracer.wrap(ScaledBatchedBackend, "_viterbi_bucket", "hmm.engine.viterbi_bucket")
    tracer.wrap(EmissionSource, "fetch", "hmm.longseq.emission_fetch")
    tracer.wrap(InferenceEngine, "log_likelihood_long", "hmm.longseq.score")
    tracer.wrap(InferenceEngine, "posteriors_long", "hmm.longseq.posteriors")


def layers(tracer: Tracer, outcome: harness.Outcome) -> dict[str, harness.Metric]:
    children = children_of(tracer.spans)
    result: dict[str, harness.Metric] = {}

    def put(name: str, samples: list[float], unit: str, what: str) -> None:
        mid = stats.median(samples)
        result[name] = harness.Metric(mid.value, unit, mid.n, f"median {what}")

    def per_root(root: str, layer: str) -> list[float]:
        return [
            sum(s.duration for s in descendants(children, r) if s.name == layer)
            for r in tracer.named(root)
        ]

    decodes = tracer.named("hmm.longseq.decode")
    put("hmm.longseq.decode_s", [s.duration for s in decodes], "s", "per decode_long")
    put("hmm.longseq.rescore_s", per_root("long-decode.decode", "hmm.longseq.rescore"), "s", "score_path per decode")
    put("hmm.longseq.emission_fetch_s",
        per_root("long-decode.decode", "hmm.longseq.emission_fetch"), "s", "EmissionSource.fetch per decode")
    put("hmm.longseq.fallback_ratio",
        [s.attrs["fallbacks"] / max(s.attrs["windows"] - 1, 1) for s in decodes], "ratio",
        "fallback stitches per stitch")
    put("hmm.longseq.score_s", [s.duration for s in tracer.named("hmm.longseq.score")], "s", "per log_likelihood_long")
    put("hmm.longseq.posteriors_s",
        [s.duration for s in tracer.named("hmm.longseq.posteriors")], "s", "per posteriors_long")
    return result
