"""Inference backends: batched scaled-domain and per-sequence log-domain.

The engine (:mod:`repro.hmm.engine`) delegates all forward-backward, Viterbi
and likelihood computations to an :class:`InferenceBackend`.  Every backend
entry point runs over a :class:`~repro.hmm.corpus.CompiledCorpus` and its
``(n_tokens + 1, K)`` emission table; the engine compiles a list of
per-sequence tables into a corpus before calling in.  Two backends are
provided:

* :class:`ScaledBatchedBackend` — the default.  Runs the forward-backward
  recursions in the probability domain with Rabiner's per-timestep scaling,
  so no ``logsumexp`` appears in any inner loop, over the corpus' padded
  length-buckets, so every timestep is a single ``(B, K) @ (K, K)`` matmul
  over the whole bucket.  Each bucket's emission tensor is one
  :meth:`~repro.hmm.corpus.CompiledCorpus.gather`, and the pairwise
  posteriors ``xi_sum`` are accumulated with matmuls instead of a Python
  loop over ``T``.  Viterbi decoding runs batched in the *log* domain (its
  recursion is max-only, so no scaling is needed) as one length-sorted
  sweep over the corpus, bit-identical to the reference — see
  :func:`_viterbi_block`.
  Sequences compiled into long-sequence window plans
  (``corpus.long_windows``) run through the chunked / checkpointed kernels
  of :mod:`repro.hmm.longseq` instead of a padded bucket row.
* :class:`LogDomainBackend` — the original per-sequence log-space
  recursions over ``corpus.tables(scores_ext)``, kept as the exact
  reference so equivalence of the scaled engine is testable (see
  ``tests/test_hmm_engine.py``).

Scaling scheme
--------------
For each timestep the per-state observation log-likelihoods are shifted by
their row maximum ``m_t = max_i log b_i(y_t)`` before exponentiation, so the
probability-domain observation weights lie in ``[0, 1]``.  The forward
messages are renormalized to sum to one after every step; the normalizers
``c_t`` (together with the shifts ``m_t``) recover the exact log marginal
likelihood as ``sum_t (log c_t + m_t)``.  The backward messages reuse the
same ``c_t``, which makes ``gamma_t = alpha_hat_t * beta_hat_t`` and

    xi_t[i, j] = alpha_hat_{t-1}[i] * A[i, j] * obs_t[j] * beta_hat_t[j] / c_t

exactly normalized — identical (up to rounding) to the log-domain reference.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm.corpus import (
    CompiledCorpus,
    CorpusPosteriors,
    LongSequenceWindows,
    bucket_indices,
)
from repro.hmm.forward_backward import (
    SequencePosteriors,
    compute_posteriors_from_log,
    log_forward,
)
from repro.hmm.longseq import (
    _TINY,
    ArraySource,
    LongDecodeResult,
    _obs_weights,
    checkpointed_posteriors,
    chunked_viterbi,
    streaming_log_likelihood,
)
from repro.hmm.viterbi import check_viterbi_scores, viterbi_decode_from_log
from repro.utils.maths import logsumexp, safe_log

__all__ = [  # noqa: F822 - bucket_indices is re-exported for backward compat
    "InferenceBackend",
    "ScaledBatchedBackend",
    "LogDomainBackend",
    "StreamingSession",
    "BatchedStreamingSession",
    "StreamStep",
    "available_backends",
    "build_backend",
    "bucket_indices",
    "viterbi_backpointer_dtype",
]


def viterbi_backpointer_dtype(n_states: int) -> np.dtype:
    """Smallest unsigned integer dtype that can index ``n_states`` states.

    Viterbi backpointer tensors have shape ``(B, L_max, K)``; storing them
    as int64 wastes 8 bytes per entry when the state space is tiny (the
    paper's workloads have K <= 45).  uint8 covers K <= 256, uint16 covers
    K <= 65536; beyond that the int64 of the reference implementation is
    kept.
    """
    if n_states < 1:
        raise ValidationError(f"n_states must be positive, got {n_states}")
    if n_states - 1 <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if n_states - 1 <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class InferenceBackend(abc.ABC):
    """Strategy object performing HMM inference over a compiled corpus.

    Every method takes probability-domain parameters, a
    :class:`~repro.hmm.corpus.CompiledCorpus` and its ``(n_tokens + 1, K)``
    emission table (:meth:`CompiledCorpus.score` /
    :meth:`CompiledCorpus.extend_scores`), plus the engine's cached
    ``log(pi)`` / ``log(A)`` when available, and returns results in corpus
    order.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def forward_backward_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> CorpusPosteriors:
        """Stacked posterior statistics over a whole compiled corpus."""

    @abc.abstractmethod
    def forward_backward_sequences(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[SequencePosteriors]:
        """Posterior statistics (gamma, xi_sum, log-likelihood) per corpus sequence."""

    @abc.abstractmethod
    def viterbi_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[tuple[np.ndarray, float]]:
        """Most likely path and joint log-probability per corpus sequence."""

    @abc.abstractmethod
    def log_likelihood_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> np.ndarray:
        """Log marginal likelihood of every corpus sequence (1-D array)."""

    @abc.abstractmethod
    def viterbi_long(
        self, startprob, transmat, source, *, window, overlap, group_size=None,
        log_startprob=None, log_transmat=None,
    ) -> LongDecodeResult:
        """Chunked Viterbi over one long sequence (see :func:`chunked_viterbi`)."""


def _check_params(startprob: np.ndarray, transmat: np.ndarray) -> None:
    if startprob.ndim != 1:
        raise DimensionMismatchError(
            f"start distribution must be 1-D, got shape {startprob.shape}"
        )
    n_states = startprob.shape[0]
    if transmat.shape != (n_states, n_states):
        raise DimensionMismatchError(
            f"transition matrix shape {transmat.shape} does not match "
            f"{n_states} states"
        )


def _check_corpus(
    startprob, transmat, corpus: CompiledCorpus, scores_ext
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float64 parameters and score table, shape-checked against the corpus.

    An un-extended ``(n_tokens, K)`` table would silently shift every split
    boundary and truncate the last sequence; insist on the
    ``(n_tokens + 1, K)`` shape that :meth:`CompiledCorpus.score` /
    :meth:`CompiledCorpus.extend_scores` produce.
    """
    startprob = np.asarray(startprob, dtype=np.float64)
    transmat = np.asarray(transmat, dtype=np.float64)
    _check_params(startprob, transmat)
    scores_ext = np.asarray(scores_ext, dtype=np.float64)
    expected = (corpus.n_tokens + 1, startprob.shape[0])
    if scores_ext.shape != expected:
        raise DimensionMismatchError(
            f"corpus score table must have shape {expected} "
            f"(CompiledCorpus.score output), got {scores_ext.shape}"
        )
    return startprob, transmat, scores_ext


def _log_params(startprob, transmat, log_startprob, log_transmat):
    """``(log pi, log A)``, reusing the engine's cached logs when given."""
    if log_startprob is None:
        log_startprob = safe_log(startprob)
    if log_transmat is None:
        log_transmat = safe_log(transmat)
    return log_startprob, log_transmat


def _window_source(scores_ext: np.ndarray, lw: LongSequenceWindows) -> ArraySource:
    """Block source over a long sequence's slice of the corpus score table."""
    return ArraySource(scores_ext[lw.offset : lw.offset + lw.length])


def _reference_log_likelihood(log_pi, log_A, log_obs) -> float:
    """Log marginal likelihood by the log-domain forward recursion."""
    return float(logsumexp(log_forward(log_pi, log_A, log_obs)[-1]))


def _underflow_repairs(
    startprob: np.ndarray,
    transmat: np.ndarray,
    log_b: np.ndarray,
    lengths: np.ndarray,
    underflow: np.ndarray,
    reference=compute_posteriors_from_log,
) -> list:
    """Log-domain reference results for the bucket rows that underflowed.

    A forward message summing to exactly zero means the probability domain
    underflowed (a genuinely impossible sequence, or a >700-nat spread only
    the log domain can represent).  Such rows are recomputed with the
    log-domain ``reference`` (posteriors by default, or
    :func:`_reference_log_likelihood`), so the scaled backend never
    misreports them; returns ``(row, result)`` pairs, empty in the common
    case.
    """
    if not underflow.any():
        return []
    log_pi, log_A = safe_log(startprob), safe_log(transmat)
    return [
        (int(b), reference(log_pi, log_A, log_b[b, : lengths[b]]))
        for b in np.flatnonzero(underflow)
    ]


#: Active rows from which a Viterbi step finds its backpointers by
#: equality with the step's max instead of ``argmax``.  ``argmax`` over the
#: source-state axis copies the step to a transposed buffer and makes one
#: C call per (target state, row) pair; equality, ranks and a max-reduce
#: are four contiguous passes with a larger fixed cost.  Measured at
#: K = 15 (one core, numpy 2.4): 1.4 µs against 5.8 µs at one row, 7.1
#: against 9.1 at 12 rows, even between 16 and 20 rows, 18 against 11.6
#: at 32.  A block with fewer rows never reaches the equality step, and
#: backtracks row by row through scalar lookups: with so few rows per
#: step that beats a numpy call per step.
_EQUALITY_MIN_ROWS = 16

#: Target size of a sweep block's ``(K, K, n)`` float64 step buffer, which
#: sets the block's row count: ~580 rows at K = 15.
_SWEEP_STEP_BYTES = 1 << 20

#: Steps of emission rows a sweep block gathers per ``np.take``.
_GATHER_STEPS = 4

#: Most tokens in one sweep block.  A block's index, backpointer and path
#: storage grow with its tokens, so this bounds them for long rows.
_SWEEP_BLOCK_TOKENS = 1 << 18


def _sweep_blocks(lengths: np.ndarray, n_states: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` row ranges of a sweep over length-sorted rows.

    A block holds at most ``_SWEEP_STEP_BYTES // (8 K^2)`` rows and, past
    its first row, at most ``_SWEEP_BLOCK_TOKENS`` tokens.
    """
    max_rows = max(1, _SWEEP_STEP_BYTES // (8 * n_states * n_states))
    ends = np.cumsum(lengths)
    blocks = []
    lo, done = 0, 0
    while lo < lengths.shape[0]:
        hi = int(np.searchsorted(ends, done + _SWEEP_BLOCK_TOKENS, side="right"))
        hi = min(max(hi, lo + 1), lo + max_rows)
        blocks.append((lo, hi))
        lo, done = hi, int(ends[hi - 1])
    return blocks


def _viterbi_block(  # repro: hot-path
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    table: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    paths: np.ndarray,
    bp_dtype: np.dtype,
) -> np.ndarray:
    """Batch-last Viterbi over length-sorted rows of a score table.

    Row ``r`` is ``table[starts[r] : starts[r] + lengths[r]]`` and
    ``lengths`` ascends, so the rows still running at step ``t`` are a
    suffix ``first[t]:``.  Its path goes to the same slice of ``paths``;
    the joint log-probabilities are returned in row order.

    The recursion runs in the log domain (it is max-only, so nothing needs
    scaling) with the rows on the last, contiguous axis: the messages are
    ``(K, n)``.  Each step is one broadcast add into a reused
    ``(K_i, K_j, n)`` buffer, ``scores[i, j, r] = delta[i, r] + log A[i,
    j]``, and one ``np.maximum.reduce`` over ``i`` for the new message.
    The backpointer is the *first* ``i`` reaching that max: the equality
    mask times the ranks ``K - 1 - i`` (which fit the backpointer dtype),
    max-reduced over ``i``, gives ``K - 1 - i``.  Every float operation
    is the one :func:`viterbi_decode_from_log` performs, and first-index
    ties resolve as its ``argmax`` does, so paths and joints are
    bit-identical to the reference.  Below ``_EQUALITY_MIN_ROWS`` active
    rows one ``argmax`` is cheaper and takes over, and a block with fewer
    rows than that backtracks row by row through scalar lookups.

    Tokens are handled in step-major order: ``idx[ptr[t] + k]`` is the
    table row of row ``first[t] + k`` at step ``t``.  Emission rows are
    gathered through that index ``_GATHER_STEPS`` steps at a time, and
    backpointers and the decoded path are stored in the same packed order,
    so no padded tensor exists.
    """
    n_rows = lengths.shape[0]
    n_states = log_startprob.shape[0]
    max_len = int(lengths[-1])
    first_arr = np.searchsorted(lengths, np.arange(max_len), side="right")
    counts = n_rows - first_arr
    ptr_arr = np.zeros(max_len + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr_arr[1:])
    n_packed = int(ptr_arr[-1])
    # Packed position minus the row's offset in its step is the row.
    rows = np.repeat(ptr_arr[:-1] - first_arr, counts)
    np.subtract(np.arange(n_packed), rows, out=rows)
    idx = starts[rows]
    del rows
    idx += np.repeat(np.arange(max_len), counts)
    first, ptr = first_arr.tolist(), ptr_arr.tolist()

    backpointers = np.empty((n_states, n_packed), dtype=bp_dtype)
    trans = log_transmat[:, :, None]
    ranks = np.arange(n_states - 1, -1, -1).astype(bp_dtype)[:, None, None]
    top = bp_dtype.type(n_states - 1)
    cube = n_states * n_states * n_rows
    step_buf = np.empty(cube)
    equal_buf = np.empty(cube, dtype=bool)
    rank_buf = np.empty(cube, dtype=bp_dtype)
    message_bufs = (np.empty(n_states * n_rows), np.empty(n_states * n_rows))
    final = np.empty((n_states, n_rows))
    chunk = min(n_packed, _GATHER_STEPS * n_rows)
    obs_buf = np.empty((chunk, n_states))
    np.take(table, idx[:chunk], axis=0, out=obs_buf)
    gathered = 0  # packed position of obs_buf[0]

    delta = message_bufs[0].reshape(n_states, n_rows)
    np.add(log_startprob[:, None], obs_buf[:n_rows].T, out=delta)
    n_active = 0
    for t in range(1, max_len):  # repro: loop-ok[inherent time recursion]
        p, q = ptr[t], ptr[t + 1]
        if q - p != n_active:
            # Rows that ended at t - 1 keep their last message; the step
            # buffers shrink to the rows still running.
            lo, n_active = first[t], q - p
            ended = delta.shape[1] - n_active
            final[:, lo - ended : lo] = delta[:, :ended]
            delta = delta[:, ended:]
            shape = (n_states, n_states, n_active)
            cells = n_states * n_states * n_active
            scores = step_buf[:cells].reshape(shape)
            hits = equal_buf[:cells].reshape(shape)
            ranked = rank_buf[:cells].reshape(shape)
            messages = [buf[: n_states * n_active].reshape(shape[1:]) for buf in message_bufs]
        np.add(delta[:, None, :], trans, out=scores)
        new = messages[t & 1]
        np.maximum.reduce(scores, axis=0, out=new)
        back = backpointers[:, p:q]
        if n_active >= _EQUALITY_MIN_ROWS:
            np.equal(scores, new, out=hits)
            np.multiply(hits, ranks, out=ranked)
            np.maximum.reduce(ranked, axis=0, out=back)
            np.subtract(top, back, out=back)
        else:
            back[...] = scores.argmax(axis=0)
        if q > gathered + chunk:
            gathered = p
            stop = min(n_packed, p + chunk)
            np.take(table, idx[p:stop], axis=0, out=obs_buf[: stop - p])
        np.add(new, obs_buf[p - gathered : q - gathered].T, out=new)
        delta = new
    final[:, n_rows - delta.shape[1] :] = delta

    state = final.argmax(axis=0)
    log_joints = final[state, np.arange(n_rows)]
    if n_rows < _EQUALITY_MIN_ROWS:
        # Few rows: walking each row back through scalar lookups costs
        # less than the numpy calls of a batched step.
        for r, length in enumerate(lengths.tolist()):  # repro: loop-ok[fewer than _EQUALITY_MIN_ROWS rows]
            s = int(state[r])
            row = [s] * length
            for t in range(length - 1, 0, -1):  # repro: loop-ok[inherent backtrack recursion]
                s = backpointers.item(s, ptr[t] + r - first[t])
                row[t - 1] = s
            paths[starts[r] : starts[r] + length] = row
        return log_joints
    packed = np.empty(n_packed, dtype=bp_dtype)
    packed[ptr[-2] :] = state[first[-1] :]
    for t in range(max_len - 1, 0, -1):  # repro: loop-ok[inherent backtrack recursion]
        # Rows running at t step back through their backpointers; rows
        # that ended at t - 1 start from their final state.
        lo, p, q, before = first[t], ptr[t], ptr[t + 1], ptr[t - 1]
        ended = lo - first[t - 1]
        packed[before + ended : p] = backpointers[packed[p:q], np.arange(p, q)]
        if ended:
            packed[before : before + ended] = state[lo - ended : lo]
    paths[idx] = packed
    return log_joints


class ScaledBatchedBackend(InferenceBackend):
    """Rabiner-scaled probability-domain recursions over padded buckets.

    Parameters
    ----------
    bucket_size:
        Maximum number of sequences processed together in one padded
        ``(B, L_max, K)`` tensor; :meth:`repro.hmm.engine.InferenceEngine.compile`
        buckets corpora with it.  Sequences are sorted by length first, so
        buckets are nearly rectangular.
    """

    name = "scaled"

    def __init__(self, bucket_size: int = 64) -> None:
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be positive, got {bucket_size}")
        self.bucket_size = bucket_size
        #: dtype of the most recent Viterbi backpointer allocation;
        #: introspection hook for the benchmark's memory-footprint gate.
        self.last_backpointer_dtype: np.dtype | None = None

    # -------------------------------------------------------------- #
    # Bucket kernels
    # -------------------------------------------------------------- #
    def _forward_bucket(  # repro: hot-path
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Scaled forward pass over one padded bucket.

        Returns ``(alpha_hat, c, obs, shift, log_likelihoods, underflow)``
        where ``alpha_hat[b, t]`` is the normalized forward message,
        ``c[b, t]`` its normalizer (1 in the padded region), ``obs``/``shift``
        the max-shifted observation weights, and ``underflow`` a boolean mask
        of sequences whose forward message vanished in the probability
        domain (their results must be recomputed by
        :func:`_underflow_repairs`).
        """
        batch, max_len, _ = log_b.shape
        obs, shift = _obs_weights(log_b)

        alpha_hat = np.empty_like(obs)
        scale = np.ones((batch, max_len))

        alpha = startprob[None, :] * obs[:, 0]
        raw = alpha.sum(axis=1)
        underflow = raw < _TINY
        c0 = np.maximum(raw, _TINY)
        alpha = alpha / c0[:, None]
        alpha_hat[:, 0] = alpha
        scale[:, 0] = c0

        for t in range(1, max_len):  # repro: loop-ok[inherent time recursion]
            active = t < lengths
            propagated = (alpha @ transmat) * obs[:, t]
            raw = propagated.sum(axis=1)
            underflow |= active & (raw < _TINY)
            c_t = np.where(active, np.maximum(raw, _TINY), 1.0)
            alpha = np.where(active[:, None], propagated / c_t[:, None], alpha)
            alpha_hat[:, t] = alpha
            scale[:, t] = c_t

        mask = np.arange(max_len)[None, :] < lengths[:, None]
        log_likelihoods = (
            np.log(scale)  # repro: ignore[hot-path-unguarded-log] -- scale is clamped to _TINY by the recursion above
            + np.where(mask, shift, 0.0)
        ).sum(axis=1)
        return alpha_hat, scale, obs, shift, log_likelihoods, underflow

    def _posterior_bucket_arrays(  # repro: hot-path
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Shared forward-backward pass over one padded bucket.

        Returns ``(alpha_hat, gamma, xi_weight, log_likelihoods, underflow)``;
        per-sequence and corpus-level assemblies build on the same arrays.
        """
        batch, max_len, n_states = log_b.shape
        alpha_hat, scale, obs, _, log_likelihoods, underflow = self._forward_bucket(
            startprob, transmat, log_b, lengths
        )

        # Underflowed rows are recomputed by the log-domain reference later;
        # their pass through here can legitimately overflow (scale clamped to
        # _TINY), so silence the spurious warnings in that case only.
        errstate = (
            {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
            if underflow.any()
            else {}
        )
        with np.errstate(**errstate):
            beta_hat = np.empty_like(obs)
            beta = np.ones((batch, n_states))
            beta_hat[:, max_len - 1] = beta
            for t in range(max_len - 2, -1, -1):  # repro: loop-ok[inherent backward time recursion]
                update = (t + 1) < lengths
                weighted = obs[:, t + 1] * beta
                propagated = (weighted @ transmat.T) / scale[:, t + 1, None]
                beta = np.where(update[:, None], propagated, beta)
                beta_hat[:, t] = beta

            gamma = alpha_hat * beta_hat
            gamma /= np.maximum(gamma.sum(axis=2, keepdims=True), _TINY)
            # xi weight w[b, t, j] = obs * beta_hat / c_t; xi_sum is then a
            # single (K, T-1) @ (T-1, K) matmul per sequence, elementwise-
            # scaled by A.
            xi_weight = obs * beta_hat / scale[:, :, None]
        return alpha_hat, gamma, xi_weight, log_likelihoods, underflow

    def _fb_corpus_bucket(  # repro: hot-path
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Corpus-flavoured forward-backward over one padded bucket.

        Returns ``(gamma, xi_part, start_part, log_likelihoods)`` where
        ``gamma`` is the padded ``(B, L, K)`` posterior tensor (ready to
        scatter through the bucket's position map) and ``xi_part`` /
        ``start_part`` are the bucket's contributions to the corpus-level
        transition and start statistics — computed with two stacked matmuls
        instead of a Python loop over the bucket's sequences.  Underflowed
        rows are repaired in place with the log-domain reference.
        """
        batch, max_len, n_states = log_b.shape
        alpha_hat, gamma, xi_weight, log_likelihoods, underflow = (
            self._posterior_bucket_arrays(startprob, transmat, log_b, lengths)
        )

        ok = ~underflow
        if max_len > 1:
            # Mask invalid (padded / underflowed) timestep pairs by
            # *assignment*, not multiplication: an underflowed row can hold
            # inf in xi_weight, and inf * 0 would poison the shared matmul
            # with NaN.
            valid = np.arange(1, max_len)[None, :] < lengths[:, None]
            pair_ok = (valid & ok[:, None])[:, :, None]
            a = np.where(pair_ok, alpha_hat[:, :-1, :], 0.0)
            w = np.where(pair_ok, xi_weight[:, 1:, :], 0.0)
            xi_part = transmat * (
                a.reshape(-1, n_states).T @ w.reshape(-1, n_states)
            )
        else:
            xi_part = np.zeros((n_states, n_states))
        start_part = (
            gamma[ok, 0, :].sum(axis=0) if ok.any() else np.zeros(n_states)
        )

        repairs = _underflow_repairs(startprob, transmat, log_b, lengths, underflow)
        for b, ref in repairs:  # repro: loop-ok[rare underflow repair]
            gamma[b, : lengths[b]] = ref.gamma
            xi_part += ref.xi_sum
            start_part = start_part + ref.gamma[0]
            log_likelihoods[b] = ref.log_likelihood
        return gamma, xi_part, start_part, log_likelihoods

    # -------------------------------------------------------------- #
    # Compiled-corpus entry points (zero per-sequence Python on the hot path)
    # -------------------------------------------------------------- #
    def forward_backward_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> CorpusPosteriors:
        startprob, transmat, scores_ext = _check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        n_states = startprob.shape[0]
        # One sentinel row absorbs every padded scatter position.
        gamma_ext = np.empty((corpus.n_tokens + 1, n_states))
        start_counts = np.zeros(n_states)
        xi_sum = np.zeros((n_states, n_states))
        lls = np.empty(corpus.n_sequences)
        for bucket in corpus.buckets:
            gamma, xi_part, start_part, ll_part = self._fb_corpus_bucket(
                startprob, transmat, corpus.gather(scores_ext, bucket),
                bucket.lengths,
            )
            gamma_ext[bucket.positions] = gamma
            xi_sum += xi_part
            start_counts += start_part
            lls[bucket.idx] = ll_part
        for lw in corpus.long_windows:
            # Long sequences bypass the padded buckets: sqrt-checkpointed
            # forward-backward over a view of the corpus score table keeps
            # the working set O(sqrt(T) * K) per sequence.
            r = checkpointed_posteriors(
                startprob, transmat, _window_source(scores_ext, lw)
            )
            gamma_ext[lw.offset : lw.offset + lw.length] = r.gamma
            xi_sum += r.xi_sum
            start_counts += r.gamma[0]
            lls[lw.seq_index] = r.log_likelihood
        return CorpusPosteriors(
            gamma_concat=gamma_ext[:-1],
            start_counts=start_counts,
            xi_sum=xi_sum,
            log_likelihoods=lls,
        )

    def forward_backward_sequences(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[SequencePosteriors]:
        """Per-sequence posteriors from the same bucket kernel as the corpus E-step.

        Unlike :meth:`forward_backward_corpus` each sequence keeps its own
        ``xi_sum`` (one ``(K, T-1) @ (T-1, K)`` matmul per sequence).
        """
        startprob, transmat, scores_ext = _check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        results: list[SequencePosteriors] = [None] * corpus.n_sequences
        for bucket in corpus.buckets:
            log_b = corpus.gather(scores_ext, bucket)
            lengths = bucket.lengths
            alpha_hat, gamma, xi_weight, lls, underflow = (
                self._posterior_bucket_arrays(startprob, transmat, log_b, lengths)
            )
            for b, j in enumerate(bucket.idx):
                length = int(lengths[b])
                results[j] = SequencePosteriors(
                    gamma=gamma[b, :length].copy(),
                    xi_sum=transmat
                    * (alpha_hat[b, : length - 1].T @ xi_weight[b, 1:length]),
                    log_likelihood=float(lls[b]),
                )
            for b, ref in _underflow_repairs(
                startprob, transmat, log_b, lengths, underflow
            ):
                results[bucket.idx[b]] = ref
        for lw in corpus.long_windows:
            results[lw.seq_index] = checkpointed_posteriors(
                startprob, transmat, _window_source(scores_ext, lw)
            )
        return results

    def viterbi_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[tuple[np.ndarray, float]]:
        """Decode every corpus sequence in one length-sorted sweep.

        The buckets' rows, concatenated, are already sorted by length, so
        they feed :meth:`_viterbi_sweep` as they are, each row starting at
        its first token (``positions[:, 0]``) of the score table.  Paths
        are written into one flat ``(n_tokens,)`` array and returned as
        per-sequence copies, so a kept path does not pin the whole array.
        """
        startprob, transmat, scores_ext = _check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        check_viterbi_scores(scores_ext)
        log_pi, log_A = self._viterbi_log_params(
            startprob, transmat, log_startprob, log_transmat
        )
        paths = np.empty(corpus.n_tokens, dtype=np.int64)
        log_joints = np.empty(corpus.n_sequences)
        if corpus.buckets:
            rows = np.concatenate([b.idx for b in corpus.buckets])
            log_joints[rows] = self._viterbi_sweep(
                log_pi,
                log_A,
                scores_ext,
                np.concatenate([b.positions[:, 0] for b in corpus.buckets]),
                np.concatenate([b.lengths for b in corpus.buckets]),
                paths,
            )
        for lw in corpus.long_windows:
            # Long sequences decode through the chunked stitcher instead of
            # one row as long as the sequence.
            long_res = self.viterbi_long(
                startprob,
                transmat,
                _window_source(scores_ext, lw),
                window=lw.window,
                overlap=lw.overlap,
                log_startprob=log_startprob,
                log_transmat=log_transmat,
            )
            paths[lw.offset : lw.offset + lw.length] = long_res.path
            log_joints[lw.seq_index] = long_res.log_joint
        bounds = corpus.offsets.tolist()
        return [
            (paths[a:b].copy(), log_joint)
            for a, b, log_joint in zip(bounds[:-1], bounds[1:], log_joints.tolist())
        ]

    def log_likelihood_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> np.ndarray:
        startprob, transmat, scores_ext = _check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        lls = np.empty(corpus.n_sequences)
        for bucket in corpus.buckets:
            log_b = corpus.gather(scores_ext, bucket)
            _, _, _, _, bucket_lls, underflow = self._forward_bucket(
                startprob, transmat, log_b, bucket.lengths
            )
            for b, ll in _underflow_repairs(
                startprob, transmat, log_b, bucket.lengths, underflow,
                reference=_reference_log_likelihood,
            ):
                bucket_lls[b] = ll
            lls[bucket.idx] = bucket_lls
        for lw in corpus.long_windows:
            # Forward-only streamed scoring: O(K) state per long sequence.
            lls[lw.seq_index] = streaming_log_likelihood(
                startprob, transmat, _window_source(scores_ext, lw)
            )
        return lls

    def _viterbi_sweep(
        self,
        log_startprob: np.ndarray,
        log_transmat: np.ndarray,
        table: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        paths: np.ndarray,
    ) -> np.ndarray:
        """Viterbi-decode length-sorted rows of a score table, block by block.

        Row ``r`` is ``table[starts[r] : starts[r] + lengths[r]]``, and
        ``lengths`` ascends.  Each row's path is written into
        ``paths[starts[r] : starts[r] + lengths[r]]``; the joint
        log-probabilities are returned in row order.  The rows run through
        :func:`_viterbi_block` in consecutive blocks (see
        :func:`_sweep_blocks`).
        """
        n_states = log_startprob.shape[0]
        bp_dtype = viterbi_backpointer_dtype(n_states)
        self.last_backpointer_dtype = bp_dtype
        log_joints = np.empty(lengths.shape[0])
        for lo, hi in _sweep_blocks(lengths, n_states):  # repro: loop-ok[a few bounded-memory row blocks]
            log_joints[lo:hi] = _viterbi_block(
                log_startprob,
                log_transmat,
                table,
                starts[lo:hi],
                lengths[lo:hi],
                paths,
                bp_dtype,
            )
        return log_joints

    def _viterbi_bucket(
        self,
        log_startprob: np.ndarray,
        log_transmat: np.ndarray,
        log_b: np.ndarray,
        lengths: np.ndarray,
    ) -> list[tuple[np.ndarray, float]]:
        """Decode one padded ``(B, L, K)`` bucket; one ``(path, log_joint)`` per row.

        The bucket is read as a flat ``(B * L, K)`` table whose row ``b``
        starts at ``b * L``, and runs through :meth:`_viterbi_sweep` in
        length order (the window groups of :meth:`viterbi_long` arrive
        sorted; any other order is sorted here).
        """
        batch, max_len, n_states = log_b.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        order = np.argsort(lengths, kind="stable")
        paths = np.empty(batch * max_len, dtype=np.int64)
        log_joints = np.empty(batch)
        log_joints[order] = self._viterbi_sweep(
            log_startprob,
            log_transmat,
            log_b.reshape(batch * max_len, n_states),
            order * max_len,
            lengths[order],
            paths,
        )
        return [
            (paths[b * max_len : b * max_len + length].copy(), log_joint)
            for b, (length, log_joint) in enumerate(
                zip(lengths.tolist(), log_joints.tolist())
            )
        ]

    def _viterbi_log_params(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        log_startprob: np.ndarray | None,
        log_transmat: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(log pi, log A)`` as :meth:`_viterbi_bucket` takes them."""
        return _log_params(startprob, transmat, log_startprob, log_transmat)

    def viterbi_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        *,
        window: int,
        overlap: int,
        group_size: int | None = None,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi feeding window groups straight to the sweep kernel.

        Each group of windows becomes one padded ``(G, window, K)`` bucket
        decoded by :meth:`_viterbi_bucket` — no per-window repack, no
        length sorting (all windows have equal length).  ``group_size``
        defaults to the backend's ``bucket_size``.
        """
        startprob = np.asarray(startprob, dtype=np.float64)
        transmat = np.asarray(transmat, dtype=np.float64)
        _check_params(startprob, transmat)
        log_pi, log_A = self._viterbi_log_params(
            startprob, transmat, log_startprob, log_transmat
        )
        if group_size is None:
            group_size = self.bucket_size

        def decode_bucket(start_log, padded, lengths):
            return self._viterbi_bucket(start_log, log_A, padded, lengths)

        return chunked_viterbi(
            log_pi,
            log_A,
            source,
            window=window,
            overlap=overlap,
            group_size=group_size,
            decode_bucket=decode_bucket,
        )


class LogDomainBackend(InferenceBackend):
    """Reference backend: the original per-sequence log-space recursions.

    Runs :func:`~repro.hmm.forward_backward.compute_posteriors_from_log` /
    :func:`~repro.hmm.viterbi.viterbi_decode_from_log` over
    ``corpus.tables(scores_ext)`` sequence by sequence — numerically
    identical to calling them on each table, with ``log(pi)`` / ``log(A)``
    taken from the engine's cache instead of once per sequence.  As the
    exact oracle it does not route long sequences through the chunked
    kernels.
    """

    name = "log"

    @staticmethod
    def _prepare(startprob, transmat, corpus, scores_ext, log_startprob, log_transmat):
        startprob, transmat, scores_ext = _check_corpus(
            startprob, transmat, corpus, scores_ext
        )
        log_pi, log_A = _log_params(startprob, transmat, log_startprob, log_transmat)
        return log_pi, log_A, corpus.tables(scores_ext)

    def forward_backward_sequences(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[SequencePosteriors]:
        log_pi, log_A, tables = self._prepare(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        return [compute_posteriors_from_log(log_pi, log_A, table) for table in tables]

    def forward_backward_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> CorpusPosteriors:
        results = self.forward_backward_sequences(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        return CorpusPosteriors(
            gamma_concat=np.concatenate([r.gamma for r in results], axis=0),
            start_counts=sum(r.gamma[0] for r in results),
            xi_sum=sum(r.xi_sum for r in results),
            log_likelihoods=np.array([r.log_likelihood for r in results]),
        )

    def viterbi_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> list[tuple[np.ndarray, float]]:
        log_pi, log_A, tables = self._prepare(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        check_viterbi_scores(scores_ext)
        return [viterbi_decode_from_log(log_pi, log_A, table) for table in tables]

    def log_likelihood_corpus(
        self, startprob, transmat, corpus, scores_ext,
        log_startprob=None, log_transmat=None,
    ) -> np.ndarray:
        log_pi, log_A, tables = self._prepare(
            startprob, transmat, corpus, scores_ext, log_startprob, log_transmat
        )
        return np.array(
            [_reference_log_likelihood(log_pi, log_A, table) for table in tables]
        )

    def viterbi_long(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        source,
        *,
        window: int,
        overlap: int,
        group_size: int | None = None,
        log_startprob: np.ndarray | None = None,
        log_transmat: np.ndarray | None = None,
    ) -> LongDecodeResult:
        """Chunked Viterbi decoding each window with the reference recursion."""
        startprob = np.asarray(startprob, dtype=np.float64)
        transmat = np.asarray(transmat, dtype=np.float64)
        _check_params(startprob, transmat)
        log_pi, log_A = _log_params(startprob, transmat, log_startprob, log_transmat)

        def decode_bucket(start_log, padded, lengths):
            return [
                viterbi_decode_from_log(start_log, log_A, row[:length])
                for row, length in zip(padded, lengths)
            ]

        return chunked_viterbi(
            log_pi,
            log_A,
            source,
            window=window,
            overlap=overlap,
            group_size=64 if group_size is None else group_size,
            decode_bucket=decode_bucket,
        )


# ------------------------------------------------------------------ #
# Streaming (incremental) inference
# ------------------------------------------------------------------ #
@dataclass
class StreamStep:
    """Result of pushing one observation into a :class:`StreamingSession`.

    Attributes
    ----------
    t:
        Zero-based index of the timestep just consumed.
    filtering:
        Filtering posterior ``p(x_t | y_1..t)`` of length ``K``.
    log_likelihood:
        Running log marginal likelihood ``log P(y_1..t)``.
    finalized:
        Newly finalized ``(position, state)`` pairs from the fixed-lag
        Viterbi window (empty until the window exceeds the lag).
    """

    t: int
    filtering: np.ndarray
    log_likelihood: float
    finalized: list[tuple[int, int]] = field(default_factory=list)


class StreamingSession:
    """Incremental single-sequence inference: filtering + fixed-lag Viterbi.

    The session consumes one emission log-likelihood row per call to
    :meth:`step` and maintains two recursions in the log domain:

    * the forward (filtering) recursion, yielding the posterior
      ``p(x_t | y_1..t)`` and the running log marginal likelihood after
      every step — the quantities an online tagger shows per token;
    * the Viterbi recursion over a sliding window of ``lag`` backpointer
      columns.  Once ``lag`` further observations have arrived, the label
      of a position is *finalized* by backtracking from the current best
      state; :meth:`finish` flushes the remaining window with a full
      backtrack.

    With ``lag >= T`` (or ``lag=None``, the "infinite lag" default) no
    label is finalized before :meth:`finish`, and the emitted path is
    bit-identical to :func:`~repro.hmm.viterbi.viterbi_decode_from_log` on
    the whole sequence — the recursion and tie-breaking are the same ops.

    The per-step cost is ``O(K^2)``; sessions are deliberately
    single-sequence (online arrivals cannot be length-bucketed), which is
    why the batched backends are unaffected.
    """

    def __init__(
        self,
        log_startprob: np.ndarray,
        log_transmat: np.ndarray,
        lag: int | None = None,
    ) -> None:
        if lag is not None and lag < 1:
            raise ValidationError(f"lag must be at least 1, got {lag}")
        self._log_pi = np.asarray(log_startprob, dtype=np.float64)
        self._log_A = np.asarray(log_transmat, dtype=np.float64)
        n_states = self._log_pi.shape[0]
        if self._log_A.shape != (n_states, n_states):
            raise DimensionMismatchError(
                f"transition matrix shape {self._log_A.shape} does not match "
                f"{n_states} states"
            )
        self.n_states = n_states
        self.lag = lag
        self._log_alpha: np.ndarray | None = None
        self._log_delta: np.ndarray | None = None
        #: backpointer columns for times (next_emit, t]; _bp[i] belongs to
        #: time _next_emit + 1 + i.
        self._bp: deque[np.ndarray] = deque()
        self._t = -1
        self._next_emit = 0
        self._finished = False

    @property
    def t(self) -> int:
        """Index of the last consumed timestep (-1 before the first step)."""
        return self._t

    def _backtrack(self, down_to: int) -> list[tuple[int, int]]:
        """States of positions ``down_to .. t`` on the current best path."""
        assert self._log_delta is not None
        state = int(np.argmax(self._log_delta))
        states = [state]
        # self._bp holds columns for times (next_emit, t]; walk back from t.
        for tau in range(self._t, down_to, -1):
            state = int(self._bp[tau - self._next_emit - 1][state])
            states.append(state)
        states.reverse()
        return list(zip(range(down_to, self._t + 1), states))

    def step(self, log_obs_t: np.ndarray) -> StreamStep:
        """Consume one ``(K,)`` emission log-likelihood row."""
        if self._finished:
            raise ValidationError("cannot step a finished StreamingSession")
        row = np.asarray(log_obs_t, dtype=np.float64).reshape(-1)
        if row.shape[0] != self.n_states:
            raise DimensionMismatchError(
                f"expected a log-likelihood row of length {self.n_states}, "
                f"got shape {np.asarray(log_obs_t).shape}"
            )
        self._t += 1
        if self._t == 0:
            self._log_alpha = self._log_pi + row
            self._log_delta = self._log_pi + row
        else:
            self._log_alpha = row + logsumexp(
                self._log_alpha[:, None] + self._log_A, axis=0
            )
            scores = self._log_delta[:, None] + self._log_A
            backpointer = np.argmax(scores, axis=0)
            self._log_delta = (
                scores[backpointer, np.arange(self.n_states)] + row
            )
            self._bp.append(backpointer)

        log_likelihood = float(logsumexp(self._log_alpha))
        filtering = np.exp(self._log_alpha - log_likelihood)
        filtering /= filtering.sum()

        finalized: list[tuple[int, int]] = []
        if self.lag is not None and self._t - self._next_emit >= self.lag:
            last = self._t - self.lag  # newest position leaving the window
            finalized = self._backtrack(self._next_emit)[: last - self._next_emit + 1]
            self._next_emit = last + 1
            while len(self._bp) > self._t - self._next_emit:
                self._bp.popleft()
        return StreamStep(
            t=self._t,
            filtering=filtering,
            log_likelihood=log_likelihood,
            finalized=finalized,
        )

    def finish(self) -> list[tuple[int, int]]:
        """Finalize the remaining window; returns ``(position, state)`` pairs.

        After ``finish`` the session rejects further :meth:`step` calls.
        When no label was finalized early (``lag >= T`` or ``lag=None``) the
        concatenation of all finalized pairs is exactly the full-sequence
        Viterbi path.
        """
        if self._finished:
            return []
        self._finished = True
        if self._t < 0:
            return []
        remaining = self._backtrack(self._next_emit)
        self._bp.clear()
        self._next_emit = self._t + 1
        return remaining

    def peek_tail(self) -> list[tuple[int, int]]:
        """Current best labels of the not-yet-finalized window, non-destructively.

        Returns the same ``(position, state)`` pairs :meth:`finish` would
        emit right now, but keeps the session open: the window is not
        flushed, and further :meth:`step` calls may still revise these
        labels (they are provisional, exactly like the tail of a chunked
        decode window before its overlap is stitched).
        """
        if self._finished or self._t < 0:
            return []
        return self._backtrack(self._next_emit)

    @property
    def log_joint(self) -> float:
        """Joint log-probability of the current best (Viterbi) path."""
        if self._log_delta is None:
            raise ValidationError("no observations consumed yet")
        return float(np.max(self._log_delta))


@dataclass
class _StreamSlot:
    """Bookkeeping of one stream inside a :class:`BatchedStreamingSession`."""

    lag: int | None
    t: int = -1
    next_emit: int = 0
    bp: deque = field(default_factory=deque)
    finished: bool = False


class BatchedStreamingSession:
    """Many concurrent streaming sessions stepped together per tick.

    :class:`StreamingSession` pays ``O(K^2)`` *plus several Python-level
    numpy calls* per token per stream; serving B concurrent online streams
    that way costs B separate session steps per tick.  This session keeps
    the forward and Viterbi messages of all streams stacked as ``(B, K)``
    arrays, so one tick over the active streams runs the ``K x K``
    propagation as a single vectorized ``(B, K, K)`` broadcast/reduction —
    the batched-matmul shape of the offline backends, applied to online
    traffic.

    Per-stream results are **bit-identical** to :class:`StreamingSession`:
    every elementary operation (broadcast add against ``log(A)``, axis
    max/argmax with first-index tie-breaking, the ``logsumexp``
    reductions, posterior normalization) reduces over the same ``K``
    values in the same order as the single-stream recursion, and the
    fixed-lag window bookkeeping (backpointer deque, backtracking) is the
    same code shape per stream.  Equivalence is asserted exactly in
    ``tests/test_hmm_streaming_batch.py``.

    Streams are independent: they may have different lags, start at
    different times (:meth:`add_stream` mid-flight), advance on different
    ticks (pass an explicit ``streams`` subset to :meth:`step_many`) and
    finish independently (:meth:`finish` frees the slot for reuse).
    """

    def __init__(
        self,
        log_startprob: np.ndarray,
        log_transmat: np.ndarray,
        lags: Sequence[int | None] = (),
    ) -> None:
        self._log_pi = np.asarray(log_startprob, dtype=np.float64)
        self._log_A = np.asarray(log_transmat, dtype=np.float64)
        n_states = self._log_pi.shape[0]
        if self._log_A.shape != (n_states, n_states):
            raise DimensionMismatchError(
                f"transition matrix shape {self._log_A.shape} does not match "
                f"{n_states} states"
            )
        self.n_states = n_states
        self._slots: list[_StreamSlot] = []
        self._free: list[int] = []
        self._log_alpha = np.zeros((0, n_states))
        self._log_delta = np.zeros((0, n_states))
        for lag in lags:
            self.add_stream(lag)

    # -------------------------------------------------------------- #
    @property
    def n_streams(self) -> int:
        """Number of active (unfinished) streams."""
        return sum(1 for slot in self._slots if not slot.finished)

    def active_streams(self) -> list[int]:
        """Ids of all unfinished streams, in id order."""
        return [i for i, slot in enumerate(self._slots) if not slot.finished]

    def add_stream(self, lag: int | None = None) -> int:
        """Open one more stream; returns its id (finished slots are reused)."""
        if lag is not None and lag < 1:
            raise ValidationError(f"lag must be at least 1, got {lag}")
        if self._free:
            i = self._free.pop()
            self._slots[i] = _StreamSlot(lag=lag)
            self._log_alpha[i] = 0.0
            self._log_delta[i] = 0.0
            return i
        self._slots.append(_StreamSlot(lag=lag))
        pad = np.zeros((1, self.n_states))
        self._log_alpha = np.concatenate([self._log_alpha, pad])
        self._log_delta = np.concatenate([self._log_delta, pad])
        return len(self._slots) - 1

    def _slot(self, i: int) -> _StreamSlot:
        if not 0 <= i < len(self._slots):
            raise ValidationError(f"unknown stream id {i}")
        return self._slots[i]

    # -------------------------------------------------------------- #
    def _backtrack(
        self, i: int, down_to: int, best_state: int | None = None
    ) -> list[tuple[int, int]]:
        """States of positions ``down_to .. t`` on stream ``i``'s best path.

        ``best_state`` is the (precomputed) argmax of the stream's current
        Viterbi message; stepping passes the batched per-tick argmax so the
        per-stream bookkeeping loop does no numpy calls.
        """
        slot = self._slots[i]
        state = int(np.argmax(self._log_delta[i])) if best_state is None else best_state
        states = [state]
        for tau in range(slot.t, down_to, -1):
            state = int(slot.bp[tau - slot.next_emit - 1][state])
            states.append(state)
        states.reverse()
        return list(zip(range(down_to, slot.t + 1), states))

    def step_many(  # repro: hot-path
        self,
        log_obs_rows: np.ndarray,
        streams: Sequence[int] | None = None,
    ) -> list[StreamStep]:
        """Advance several streams by one token each, as one batched tick.

        Parameters
        ----------
        log_obs_rows:
            ``(M, K)`` emission log-likelihood rows, one per advancing
            stream, aligned with ``streams``.
        streams:
            Ids of the streams consuming a token this tick; defaults to
            every active stream (in id order).

        Returns one :class:`StreamStep` per advanced stream, in order.
        """
        rows = np.asarray(log_obs_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n_states:
            raise DimensionMismatchError(
                f"expected log-likelihood rows of shape (M, {self.n_states}), "
                f"got {rows.shape}"
            )
        if streams is None:
            streams = self.active_streams()
        streams = [int(i) for i in streams]
        if len(streams) != rows.shape[0]:
            raise ValidationError(
                f"{rows.shape[0]} rows for {len(streams)} streams"
            )
        if len(set(streams)) != len(streams):
            raise ValidationError("duplicate stream ids in one tick")
        for i in streams:  # repro: loop-ok[pre-flight validation, M small]
            if self._slot(i).finished:
                raise ValidationError(f"cannot step finished stream {i}")
        if not streams:
            return []

        idx = np.asarray(streams, dtype=np.int64)
        fresh = np.array([self._slots[i].t < 0 for i in streams])
        backpointers: np.ndarray | None = None
        if not fresh.any():
            # Fast path (the steady state of a long-running pool): no mask
            # gather/scatter, just the batched recursion over all M rows.
            new_alpha = rows + logsumexp(
                self._log_alpha[idx][:, :, None] + self._log_A[None, :, :], axis=1
            )
            scores = self._log_delta[idx][:, :, None] + self._log_A[None, :, :]
            backpointers = np.argmax(scores, axis=1)
            best = np.take_along_axis(scores, backpointers[:, None, :], axis=1)[:, 0, :]
            new_delta = best + rows
        else:
            ongoing = ~fresh
            new_alpha = np.empty_like(rows)
            new_delta = np.empty_like(rows)
            start = self._log_pi[None, :] + rows[fresh]
            new_alpha[fresh] = start
            new_delta[fresh] = start
            if ongoing.any():
                sub_rows = rows[ongoing]
                alpha = self._log_alpha[idx[ongoing]]
                new_alpha[ongoing] = sub_rows + logsumexp(
                    alpha[:, :, None] + self._log_A[None, :, :], axis=1
                )
                scores = (
                    self._log_delta[idx[ongoing]][:, :, None] + self._log_A[None, :, :]
                )
                backpointers = np.argmax(scores, axis=1)
                best = np.take_along_axis(
                    scores, backpointers[:, None, :], axis=1
                )[:, 0, :]
                new_delta[ongoing] = best + sub_rows
        self._log_alpha[idx] = new_alpha
        self._log_delta[idx] = new_delta

        log_likelihoods = logsumexp(new_alpha, axis=1)
        filtering = np.exp(new_alpha - log_likelihoods[:, None])
        filtering /= filtering.sum(axis=1, keepdims=True)
        # One batched argmax feeds every stream's fixed-lag backtrack this
        # tick (identical tie-breaking to the per-row argmax).
        best_states = np.argmax(new_delta, axis=1)

        steps: list[StreamStep] = []
        ongoing_row = 0
        for m, i in enumerate(streams):  # repro: loop-ok[per-stream step assembly]
            slot = self._slots[i]
            slot.t += 1
            if not fresh[m]:
                assert backpointers is not None
                slot.bp.append(backpointers[ongoing_row])
                ongoing_row += 1
            finalized: list[tuple[int, int]] = []
            if slot.lag is not None and slot.t - slot.next_emit >= slot.lag:
                last = slot.t - slot.lag
                finalized = self._backtrack(
                    i, slot.next_emit, best_state=int(best_states[m])
                )[: last - slot.next_emit + 1]
                slot.next_emit = last + 1
                while len(slot.bp) > slot.t - slot.next_emit:  # repro: loop-ok[bounded window trim]
                    slot.bp.popleft()
            steps.append(
                StreamStep(
                    t=slot.t,
                    filtering=filtering[m].copy(),
                    log_likelihood=float(log_likelihoods[m]),
                    finalized=finalized,
                )
            )
        return steps

    def step(self, stream: int, log_obs_t: np.ndarray) -> StreamStep:
        """Advance one stream by one token (a one-row :meth:`step_many`)."""
        row = np.asarray(log_obs_t, dtype=np.float64).reshape(1, -1)
        return self.step_many(row, [stream])[0]

    def finish(self, stream: int) -> list[tuple[int, int]]:
        """Finalize one stream's remaining window and free its slot.

        Returns the remaining ``(position, state)`` pairs, exactly as
        :meth:`StreamingSession.finish` would for the same inputs.
        """
        slot = self._slot(stream)
        if slot.finished:
            return []
        slot.finished = True
        remaining: list[tuple[int, int]] = []
        if slot.t >= 0:
            remaining = self._backtrack(stream, slot.next_emit)
        slot.bp.clear()
        slot.next_emit = slot.t + 1
        self._free.append(stream)
        return remaining

    def peek_tail(self, stream: int) -> list[tuple[int, int]]:
        """One stream's provisional tail labels, without finalizing it.

        The batched analogue of :meth:`StreamingSession.peek_tail`: the
        pairs :meth:`finish` would emit for ``stream`` right now, with the
        stream left open and its window intact.
        """
        slot = self._slot(stream)
        if slot.finished or slot.t < 0:
            return []
        return self._backtrack(stream, slot.next_emit)


_BACKENDS = {
    ScaledBatchedBackend.name: ScaledBatchedBackend,
    LogDomainBackend.name: LogDomainBackend,
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered inference backends."""
    return tuple(sorted(_BACKENDS))


def build_backend(name: str, bucket_size: int = 64) -> InferenceBackend:
    """Instantiate a backend by name (``"scaled"`` or ``"log"``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown inference backend {name!r}; available: {available_backends()}"
        ) from None
    if cls is ScaledBatchedBackend:
        return cls(bucket_size=bucket_size)
    return cls()
