"""``pos-fit``: the paper's unsupervised PoS experiment at paper scale.

A dHMM (alpha = 100) is fitted by MAP-EM on the default WSJ-like corpus
(3,828 sentences, ~85K tokens, K = 15, V = 10,000) for a fixed number of
EM iterations (tolerance 0, so every fit does the same number of E- and
M-steps), then the corpus is Viterbi-decoded and scored by 1-to-1
accuracy.  This is the training path: emission scoring, the batched
recursions and the DPP M-step do nearly all the work; serving does none.

Fit ``i`` of every run starts from the same random initialization (seeded
by ``i`` alone), and accuracy is the mean over the first
``ACCURACY_RESTARTS`` fits, which every run completes whatever its time
budget: the seed varies the corpus, not the restarts, so accuracy moves
with the program and the corpus rather than with one restart's luck
(single restarts range over about 0.15-0.30).
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import harness, stats
from perfbench.trace import Tracer, children_of, descendants

from repro.core.config import DHMMConfig
from repro.core import transition_prior
from repro.core.diversified_hmm import DiversifiedHMM
from repro.datasets import generate_wsj_like_corpus
from repro.hmm.baum_welch import BaumWelchTrainer
from repro.hmm.corpus import CompiledCorpus
from repro.hmm.emissions.categorical import CategoricalEmission
from repro.hmm.engine import InferenceEngine
from repro.hmm.model import HMM
from repro.metrics.accuracy import one_to_one_accuracy

INPUT_NAME = "pos-fit"
SETUP_REPS = 41
ROOTS = ("pos-fit.fit", "pos-fit.decode")
#: The figures reported as the end-to-end ``tokens_per_s`` and ``latency_ms``.
HEADLINE = {"tokens_per_s": "fit_tokens_per_s", "latency_ms": "decode_p90_ms"}
CATEGORY = {
    "hmm.emissions.score": "emissions",
    "hmm.emissions.m_step": "emissions",
    "hmm.engine.posteriors_corpus": "recursion",
    "hmm.engine.viterbi_corpus": "recursion",
    "hmm.baum_welch.fit": "orchestration",
    "core.transition_prior.update": "orchestration",
    "core.transition_prior.log_prior": "orchestration",
    "core.transition_prior.gradient": "orchestration",
    "optim.projected_gradient": "orchestration",
}

ALPHA = 100.0
EM_ITERATIONS = 15
N_TAGS = 15
DECODES_PER_FIT = 8
ACCURACY_RESTARTS = 4
#: Sentences whose scaled-backend Viterbi paths are checked against the log reference.
ORACLE_SENTENCES = 200


def make_inputs(seed: int) -> dict[str, np.ndarray]:
    corpus = generate_wsj_like_corpus(seed=seed)
    return {
        "words": np.concatenate(corpus.words),
        "tags": np.concatenate(corpus.tags),
        "lengths": np.array([len(s) for s in corpus.words], dtype=np.int64),
        "vocabulary_size": np.array(corpus.vocabulary_size),
    }


class IterationClock:
    """Stamps each ``CompiledCorpus.score`` call while in its ``with`` block.

    A fit scores the corpus once per EM iteration, at the start of the
    E-step, so the stamps split the fit into its iterations without a
    tracer: iteration ``k`` runs from stamp ``k`` to stamp ``k + 1`` (the
    last to the fit's end).  A stamp is one clock read per iteration.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def __enter__(self) -> "IterationClock":
        # Whatever the class holds now (a tracer's wrapper, in a traced run).
        self._original = original = CompiledCorpus.__dict__["score"]
        stamps = self.stamps

        def score(*args, **kwargs):
            stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        CompiledCorpus.score = score
        return self

    def __exit__(self, *exc) -> None:
        CompiledCorpus.score = self._original


def padding_ratio(corpus: CompiledCorpus) -> float:
    """Padded cells per real token over the compiled length-buckets."""
    padded = sum(b.positions.size - int(b.lengths.sum()) for b in corpus.buckets)
    return padded / corpus.n_tokens


def _valid_distribution(matrix: np.ndarray) -> bool:
    rows = np.atleast_2d(matrix)
    return bool(
        np.all(np.isfinite(rows))
        and np.all(rows >= 0)
        and np.allclose(rows.sum(axis=1), 1.0, atol=1e-8)
    )


class Bench:
    def __init__(self, inputs: dict[str, np.ndarray], seed: int, tracer: Tracer | None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.words = harness.split(inputs["words"], inputs["lengths"])
        self.tags = harness.split(inputs["tags"], inputs["lengths"])
        self.vocabulary_size = int(inputs["vocabulary_size"])
        self.n_tokens = int(inputs["lengths"].sum())
        self.config = DHMMConfig(alpha=ALPHA, max_em_iter=EM_ITERATIONS, em_tol=0.0)
        rng = np.random.default_rng([seed, 7])
        self.oracle_idx = rng.choice(len(self.words), size=ORACLE_SENTENCES, replace=False)

    def _run(self, root: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(root, fn, *args)

    def setup(self) -> None:
        """Compile the corpus and initialize the model (what a fit needs first)."""
        self.corpus = InferenceEngine().compile(self.words)
        self.emissions = CategoricalEmission.random_init(
            N_TAGS, self.vocabulary_size, seed=[self.seed, 0]
        )

    def teardown(self) -> None:
        self.corpus = None
        self.emissions = None

    def _fit(self, index: int):
        """One fit, and the duration of each of its EM iterations."""
        estimator = DiversifiedHMM(self.emissions, self.config, seed=[0, index + 1])
        with IterationClock() as clock:
            result = self._run("pos-fit.fit", estimator.fit, self.corpus)
            end = time.perf_counter()
        return estimator, result, list(np.diff(clock.stamps + [end]))

    def _decode(self, estimator: DiversifiedHMM):
        start = time.perf_counter()
        paths = self._run("pos-fit.decode", estimator.predict_corpus, self.corpus)
        return paths, time.perf_counter() - start

    def probe(self) -> None:
        estimator, _, _ = self._fit(0)
        self._decode(estimator)

    def measure(self, seconds: float) -> harness.Outcome:
        out = harness.Outcome()
        deadline = harness.Deadline(seconds)
        iteration_time: list[float] = []
        decode_time: list[float] = []
        accuracies: list[float] = []
        fitted = []
        cycle = 0.0
        while len(fitted) < ACCURACY_RESTARTS or deadline.left() >= cycle:
            started = time.perf_counter()
            estimator, result, iterations = self._fit(len(fitted))
            out.check(len(iterations) == result.n_iter,
                      f"fit: {len(iterations)} E-step scorings for {result.n_iter} EM iterations")
            iteration_time.extend(iterations)
            for _ in range(DECODES_PER_FIT):
                paths, decode_s = self._decode(estimator)
                decode_time.append(decode_s)
            accuracies.append(one_to_one_accuracy(self.tags, paths, n_states=N_TAGS))
            fitted.append((estimator, result, paths))
            cycle = time.perf_counter() - started

        sample = [self.words[i] for i in self.oracle_idx]
        for estimator, result, paths in fitted:
            model = estimator.model_
            out.check(
                result.n_iter == EM_ITERATIONS
                and _valid_distribution(model.startprob)
                and _valid_distribution(model.transmat)
                and _valid_distribution(model.emissions.emission_probs),
                f"fit: {result.n_iter} iterations or parameters not distributions",
            )
            reference = HMM(
                model.startprob, model.transmat, model.emissions,
                engine=InferenceEngine(backend="log"),
            ).predict(sample)
            scaled = model.predict(sample)
            corpus_paths = [paths[i] for i in self.oracle_idx]
            out.check(
                all(np.array_equal(a, b) for a, b in zip(scaled, reference))
                and all(np.array_equal(a, b) for a, b in zip(corpus_paths, reference)),
                "decode: scaled-backend Viterbi paths differ from the log reference",
            )
        accuracy = float(np.mean(accuracies[:ACCURACY_RESTARTS]))
        out.put_rate("fit_tokens_per_s", [self.n_tokens] * len(iteration_time), iteration_time,
                     f"EM iterations in {len(fitted)} fits")
        out.put_rate("decode_tokens_per_s", [self.n_tokens] * len(decode_time), decode_time, "corpus decodes")
        out.put_time("decode_p90_ms", decode_time, "corpus decodes")
        out.tokens = self.n_tokens * (len(iteration_time) + len(decode_time))
        out.put("accuracy", accuracy, "share", ACCURACY_RESTARTS,
                f"mean 1-to-1 accuracy of the first {ACCURACY_RESTARTS} restarts")
        out.details["corpus"] = {"sentences": len(self.words), "tokens": self.n_tokens}
        out.details["accuracies"] = accuracies
        return out


def instrument(tracer: Tracer) -> None:
    tracer.wrap(InferenceEngine, "compile", "hmm.corpus.compile",
                annotate=lambda a, k, r: {"padding_ratio": padding_ratio(r)})
    tracer.wrap(CompiledCorpus, "score", "hmm.emissions.score")
    tracer.wrap(CategoricalEmission, "m_step_compiled", "hmm.emissions.m_step")
    tracer.wrap(InferenceEngine, "posteriors_corpus", "hmm.engine.posteriors_corpus")
    tracer.wrap(InferenceEngine, "viterbi_corpus", "hmm.engine.viterbi_corpus")
    tracer.wrap(BaumWelchTrainer, "fit", "hmm.baum_welch.fit",
                annotate=lambda a, k, r: {"iterations": r.n_iter})
    tracer.wrap(transition_prior.DiversityTransitionUpdater, "update", "core.transition_prior.update")
    tracer.wrap(transition_prior.DPPTransitionPrior, "log_prior", "core.transition_prior.log_prior")
    tracer.wrap(transition_prior.DPPTransitionPrior, "gradient", "core.transition_prior.gradient")
    tracer.wrap(transition_prior, "maximize_rowwise_simplex", "optim.projected_gradient",
                annotate=lambda a, k, r: {"inner_iters": r.n_iter})


def layers(tracer: Tracer, outcome: harness.Outcome) -> dict[str, harness.Metric]:
    children = children_of(tracer.spans)
    fits = tracer.named("pos-fit.fit")
    decodes = tracer.named("pos-fit.decode")

    def per_root(roots, name, value=lambda s: s.duration) -> list[float]:
        return [sum(value(s) for s in descendants(children, r) if s.name == name) for r in roots]

    result: dict[str, harness.Metric] = {}

    def put(name: str, samples: list[float], unit: str, what: str) -> None:
        mid = stats.median(samples)
        result[name] = harness.Metric(mid.value, unit, mid.n, f"median {what}")

    compiles = tracer.named("hmm.corpus.compile")
    put("hmm.corpus.compile_s", [s.duration for s in compiles], "s", "per compile")
    put("hmm.corpus.padding_ratio", [s.attrs["padding_ratio"] for s in compiles], "ratio", "padded cells per token")
    put("hmm.emissions.score_s", per_root(fits, "hmm.emissions.score"), "s", "per fit")
    put("hmm.emissions.m_step_s", per_root(fits, "hmm.emissions.m_step"), "s", "per fit")
    put("hmm.engine.posteriors_corpus_s", per_root(fits, "hmm.engine.posteriors_corpus"), "s", "per fit")
    put("hmm.engine.viterbi_corpus_s", per_root(decodes, "hmm.engine.viterbi_corpus"), "s", "per decode")
    put("hmm.baum_welch.iterations",
        per_root(fits, "hmm.baum_welch.fit", lambda s: s.attrs["iterations"]), "count", "per fit")
    put("core.transition_prior.update_s", per_root(fits, "core.transition_prior.update"), "s", "per fit")
    put("core.transition_prior.log_prior_calls",
        per_root(fits, "core.transition_prior.log_prior", lambda s: 1), "count", "per fit")
    put("core.transition_prior.gradient_calls",
        per_root(fits, "core.transition_prior.gradient", lambda s: 1), "count", "per fit")
    put("optim.projected_gradient.inner_iters",
        per_root(fits, "optim.projected_gradient", lambda s: s.attrs["inner_iters"]), "count", "per fit")
    return result
