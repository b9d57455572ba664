"""Long-sequence inference: chunked Viterbi with overlap stitching, and
checkpointed forward-backward with O(sqrt(T) * K) working memory.

Every batched inference path in :mod:`repro.hmm.backends` materializes
``O(T * K)`` recursion tensors per sequence.  At sentence scale that is the
point — one padded bucket, one matmul per timestep — but a single
chromosome-scale annotation track (T in the millions) either exhausts
memory or degenerates into one serial ``(1, K) @ (K, K)`` recursion with
Python-loop overhead per timestep.  This module provides the genome-scale
counterparts:

* :func:`chunked_viterbi` — split the sequence into overlapping windows of
  ``decode_window`` tokens, decode a whole *group* of windows batched as
  one bucket through the batched log-domain Viterbi kernel (turning the
  serial O(T) recursion into B-way data parallelism over windows), then
  stitch adjacent windows' paths at a high-confidence agreement run inside
  the overlap.  Window 0 starts from the true ``log pi``; later windows
  start uniform — exactly the situation of the fixed-lag streaming
  sessions, whose stabilization property (Viterbi decisions become
  independent of the start vector after a bounded lag) is what makes the
  stitch exact once the overlap exceeds the model's mixing lag.  When no
  agreement run exists (adversarial low-self-transition models), the
  overlap's labels fall back to the posterior argmax over a context
  window, and the stitch is counted as a fallback.
* :func:`checkpointed_posteriors` — exact scaled-domain forward-backward
  whose working set is ``O(sqrt(T) * K)``: the forward pass stores one
  ``(K,)`` checkpoint per ``sqrt(T)`` block, and the backward pass
  recomputes each block's forward messages from its checkpoint.  The
  ``(T, K)`` gamma output is the result itself; no other O(T * K) tensor
  exists at any point.
* :func:`streaming_log_likelihood` — forward-only scoring in ``O(K)``
  state plus one fetched block at a time.

Observations are consumed through a *source* (:class:`ArraySource` over a
precomputed table, or :class:`EmissionSource` scoring raw observations on
demand), so peak memory is bounded by the window/block size — independent
of T — whenever the caller avoids materializing the full emission table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm.forward_backward import (
    SequencePosteriors,
    compute_posteriors_from_log,
)
from repro.hmm.viterbi import check_viterbi_scores

__all__ = [
    "ArraySource",
    "EmissionSource",
    "LongDecodeResult",
    "as_source",
    "chunked_viterbi",
    "checkpointed_posteriors",
    "plan_windows",
    "score_path",
    "streaming_log_likelihood",
]

#: Smallest admissible scaling constant; prevents division by zero when an
#: entire forward message underflows (mirrors ``LOG_EPS`` of the reference).
#: Shared with the batched kernels of :mod:`repro.hmm.backends`.
_TINY = 1e-300


# ------------------------------------------------------------------ #
# Observation sources
# ------------------------------------------------------------------ #
class ArraySource:
    """Block source over a precomputed ``(T, K)`` emission log-likelihood table.

    ``fetch`` returns views, so wrapping an existing table adds no copies;
    peak memory is whatever the caller already holds.
    """

    def __init__(self, log_obs: np.ndarray) -> None:
        table = np.asarray(log_obs, dtype=np.float64)
        if table.ndim != 2:
            raise DimensionMismatchError(
                f"emission table must be 2-D (T, K), got shape {table.shape}"
            )
        if table.shape[0] < 1:
            raise ValidationError("sequences must have at least one timestep")
        self._table = table

    @property
    def length(self) -> int:
        return self._table.shape[0]

    @property
    def n_states(self) -> int:
        return self._table.shape[1]

    def fetch(self, start: int, stop: int) -> np.ndarray:  # repro: hot-path
        """``(stop - start, K)`` float64 view of rows ``start .. stop``."""
        return self._table[start:stop]


class EmissionSource:
    """Block source scoring a raw observation sequence on demand.

    The full ``(T, K)`` emission table never exists: each ``fetch`` scores
    only the requested block through the emission family's vectorized
    scorer, so decoding a genome-scale track peaks at
    ``O(window * K)`` — the bounded-memory path for
    :meth:`repro.hmm.model.HMM.decode_long`.
    """

    def __init__(self, emissions, sequence) -> None:
        self._emissions = emissions
        self._sequence = np.asarray(sequence)
        if self._sequence.shape[0] < 1:
            raise ValidationError("sequences must have at least one timestep")

    @property
    def length(self) -> int:
        return int(self._sequence.shape[0])

    @property
    def n_states(self) -> int:
        return int(self._emissions.n_states)

    def fetch(self, start: int, stop: int) -> np.ndarray:  # repro: hot-path
        """Score rows ``start .. stop`` (one vectorized emission call)."""
        return self._emissions.log_likelihoods(self._sequence[start:stop])


def as_source(source) -> "ArraySource | EmissionSource":
    """Coerce a ``(T, K)`` array into an :class:`ArraySource`; pass sources through."""
    if hasattr(source, "fetch") and hasattr(source, "length"):
        return source
    return ArraySource(source)


# ------------------------------------------------------------------ #
# Window planning
# ------------------------------------------------------------------ #
def plan_windows(length: int, window: int, overlap: int) -> list[tuple[int, int]]:
    """Overlapping window spans covering ``[0, length)``.

    Windows start every ``window - overlap`` tokens; when the stride does
    not divide evenly, one final window is pinned to ``length - window`` so
    every token is covered and all windows (except a short single-window
    sequence) have exactly ``window`` tokens.  Consecutive windows overlap
    by at least ``overlap``.
    """
    if window < 2 * overlap:
        raise ValidationError(
            f"window must be at least 2 * overlap ({2 * overlap}), got {window}"
        )
    if overlap < 1:
        raise ValidationError(f"overlap must be at least 1, got {overlap}")
    if length < 1:
        raise ValidationError(f"length must be at least 1, got {length}")
    if length <= window:
        return [(0, length)]
    stride = window - overlap
    starts = list(range(0, length - window + 1, stride))
    if starts[-1] + window < length:
        starts.append(length - window)
    return [(s, s + window) for s in starts]


# ------------------------------------------------------------------ #
# Stitching
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class LongDecodeResult:
    """Outcome of one chunked long-sequence Viterbi decode.

    Attributes
    ----------
    path:
        ``(T,)`` int64 stitched state path.
    log_joint:
        Exact joint log-probability ``log P(path, Y)`` of the *stitched*
        path (computed by streaming re-scoring, so it is meaningful even
        for fallback stitches; on agreement stitches it matches the full
        Viterbi optimum).
    n_windows:
        Number of decode windows (1 means the sequence fit one window and
        the decode was the ordinary exact kernel).
    n_agreement_stitches / n_fallback_stitches:
        How many window joins found an agreement run inside the overlap vs
        fell back to the posterior-argmax tiebreak.  Their sum is
        ``n_windows - 1``.
    max_windows_resident:
        Largest number of windows materialized simultaneously (the padded
        decode group) — the deterministic memory-ceiling introspection the
        long-sequence benchmark gates on.
    window / overlap:
        The effective knobs used for this decode.
    """

    path: np.ndarray
    log_joint: float
    n_windows: int
    n_agreement_stitches: int
    n_fallback_stitches: int
    max_windows_resident: int
    window: int
    overlap: int

    @property
    def exact_stitch(self) -> bool:
        """True when every join stitched at an agreement run (no fallbacks)."""
        return self.n_fallback_stitches == 0


def _find_agreement_cut(prev_seg: np.ndarray, cur_seg: np.ndarray) -> int | None:
    """Index (into the overlap) of the best agreement point, or None.

    Agreement positions are grouped into consecutive runs; the longest run
    wins (ties break toward the overlap's middle, where both windows have
    the most context) and the cut lands at the run's midpoint.
    """
    agree = prev_seg == cur_seg
    idx = np.flatnonzero(agree)
    if idx.size == 0:
        return None
    breaks = np.flatnonzero(np.diff(idx) > 1)
    run_starts = np.concatenate(([0], breaks + 1))
    run_ends = np.concatenate((breaks, [idx.size - 1]))
    run_lengths = run_ends - run_starts + 1
    middles = (idx[run_starts] + idx[run_ends]) / 2.0
    center = (agree.size - 1) / 2.0
    # longest run first; among equals the one whose middle is most central
    order = np.lexsort((np.abs(middles - center), -run_lengths))
    best = order[0]
    return int((idx[run_starts[best]] + idx[run_ends[best]]) // 2)


def _posterior_fallback(
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    source,
    ov_start: int,
    ov_stop: int,
) -> np.ndarray:
    """Posterior-argmax labels for an overlap with no agreement run.

    The posteriors are computed over the overlap plus an equal-sized
    context margin on both sides (clipped to the sequence), with the true
    ``log pi`` when the context reaches position 0 and a uniform start
    otherwise — the best bounded-memory estimate available locally.
    """
    context = ov_stop - ov_start
    c0 = max(ov_start - context, 0)
    c1 = min(ov_stop + context, source.length)
    block = source.fetch(c0, c1)
    start = log_startprob if c0 == 0 else np.zeros_like(log_startprob)
    posteriors = compute_posteriors_from_log(start, log_transmat, block)
    return posteriors.gamma[ov_start - c0 : ov_stop - c0].argmax(axis=1)


def score_path(  # repro: hot-path
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    source,
    path: np.ndarray,
    block: int = 65536,
) -> float:
    """Exact joint log-probability of a given state path, streamed in blocks.

    ``log pi[x_0] + sum_t log A[x_{t-1}, x_t] + sum_t log b_{x_t}(y_t)``
    evaluated with ``O(block * K)`` peak memory regardless of T.
    """
    length = int(path.shape[0])
    total = float(log_startprob[path[0]])
    for b0 in range(0, length, block):  # repro: loop-ok[streamed block scoring]
        b1 = min(b0 + block, length)
        rows = source.fetch(b0, b1)
        seg = path[b0:b1]
        total += float(rows[np.arange(b1 - b0), seg].sum())
        t0 = max(b0, 1)
        if t0 < b1:
            total += float(log_transmat[path[t0 - 1 : b1 - 1], path[t0:b1]].sum())
    return total


def chunked_viterbi(  # repro: hot-path
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    source,
    *,
    window: int,
    overlap: int,
    group_size: int,
    decode_bucket: Callable[[np.ndarray, np.ndarray, np.ndarray], Sequence],
) -> LongDecodeResult:
    """Chunked long-sequence Viterbi: batched windows, stitched overlaps.

    Parameters
    ----------
    log_startprob / log_transmat:
        Log-domain model parameters.
    source:
        Block source of emission log-likelihood rows (see :func:`as_source`).
    window / overlap:
        Window plan knobs (see :func:`plan_windows`).
    group_size:
        Windows decoded together as one padded bucket; the peak working
        tensor is ``(group_size, window, K)`` — the memory ceiling.
    decode_bucket:
        ``decode_bucket(log_startprob, log_b, lengths)`` returning one
        ``(path, log_joint)`` per bucket row — the backend's batched Viterbi
        kernel.  The true ``log pi`` is folded into window 0's first
        emission row, so a zero (uniform) start vector is passed for every
        window; adding 0.0 is exact, keeping the single-window case
        bit-identical to the unchunked kernel.
    """
    if group_size < 1:
        raise ValidationError(f"group_size must be at least 1, got {group_size}")
    source = as_source(source)
    length = source.length
    n_states = source.n_states
    spans = plan_windows(length, window, overlap)
    n_windows = len(spans)

    path = np.empty(length, dtype=np.int64)
    zero_start = np.zeros(n_states)
    n_agreement = 0
    n_fallback = 0
    max_resident = 0
    single_log_joint = 0.0
    prev_path: np.ndarray | None = None
    prev_start = 0
    prev_from = 0  # first position whose label window w-1 still owns

    for g0 in range(0, n_windows, group_size):  # repro: loop-ok[sequential window groups bound peak memory]
        g1 = min(g0 + group_size, n_windows)
        span_start = spans[g0][0]
        span_stop = spans[g1 - 1][1]
        block = source.fetch(span_start, span_stop)
        # Window groups cover the whole sequence, so checking each fetched
        # block rejects a NaN anywhere without a pass per step.
        check_viterbi_scores(block)
        wlen = spans[g0][1] - spans[g0][0]
        padded = np.empty((g1 - g0, wlen, n_states))
        for g in range(g0, g1):  # repro: loop-ok[window views into the padded bucket]
            s, e = spans[g]
            padded[g - g0] = block[s - span_start : e - span_start]
        if g0 == 0:
            padded[0, 0] += log_startprob
        lengths = np.full(g1 - g0, wlen, dtype=np.int64)
        decoded = decode_bucket(zero_start, padded, lengths)
        max_resident = max(max_resident, g1 - g0)

        for g, (window_path, window_lj) in zip(range(g0, g1), decoded):  # repro: loop-ok[stitch bookkeeping per window]
            cur_start, cur_stop = spans[g]
            if n_windows == 1:
                single_log_joint = float(window_lj)
            if prev_path is None:
                prev_path, prev_start, prev_from = window_path, cur_start, 0
                continue
            prev_stop = prev_start + prev_path.shape[0]
            ov_len = prev_stop - cur_start
            prev_seg = prev_path[cur_start - prev_start :]
            cur_seg = window_path[:ov_len]
            cut = _find_agreement_cut(prev_seg, cur_seg)
            if cut is not None:
                abs_cut = cur_start + cut
                path[prev_from : abs_cut + 1] = prev_path[
                    prev_from - prev_start : abs_cut + 1 - prev_start
                ]
                cur_from = abs_cut + 1
                n_agreement += 1
            else:
                labels = _posterior_fallback(
                    log_startprob, log_transmat, source, cur_start, prev_stop
                )
                path[prev_from:cur_start] = prev_path[
                    prev_from - prev_start : cur_start - prev_start
                ]
                path[cur_start:prev_stop] = labels
                cur_from = prev_stop
                n_fallback += 1
            prev_path, prev_start, prev_from = window_path, cur_start, cur_from

    assert prev_path is not None
    path[prev_from:] = prev_path[prev_from - prev_start :]

    if n_windows == 1:
        log_joint = single_log_joint
    else:
        log_joint = score_path(log_startprob, log_transmat, source, path)
    return LongDecodeResult(
        path=path,
        log_joint=log_joint,
        n_windows=n_windows,
        n_agreement_stitches=n_agreement,
        n_fallback_stitches=n_fallback,
        max_windows_resident=max_resident,
        window=window,
        overlap=overlap,
    )


# ------------------------------------------------------------------ #
# Checkpointed forward-backward
# ------------------------------------------------------------------ #
def _obs_weights(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted observation weights ``exp(log_b - m)`` and the shifts ``m``.

    The shift is the maximum over the last (state) axis, so this serves a
    ``(T, K)`` block and a padded ``(B, L, K)`` bucket alike.
    """
    shift = np.max(log_b, axis=-1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(log_b - shift[..., None]), shift


def checkpointed_posteriors(  # repro: hot-path
    startprob: np.ndarray,
    transmat: np.ndarray,
    source,
    checkpoint: int | None = None,
) -> SequencePosteriors:
    """Exact forward-backward with sqrt-checkpointing of the backward pass.

    The forward sweep stores one normalized ``(K,)`` message per block of
    ``checkpoint`` (default ``ceil(sqrt(T))``) timesteps; the backward
    sweep recomputes each block's forward messages from its checkpoint, so
    the working set is ``O(sqrt(T) * K)`` — only the returned gamma is
    O(T * K), and that is the result itself.  The recursions are the same
    Rabiner-scaled operations as the batched backend, so the posteriors
    match :meth:`~repro.hmm.backends.ScaledBatchedBackend.forward_backward_sequences`
    to floating-point reassociation (tested at 1e-8).
    """
    source = as_source(source)
    length = source.length
    n_states = source.n_states
    startprob = np.asarray(startprob, dtype=np.float64)
    transmat = np.asarray(transmat, dtype=np.float64)
    if checkpoint is None:
        checkpoint = max(int(np.ceil(np.sqrt(length))), 1)
    if checkpoint < 1:
        raise ValidationError(f"checkpoint must be at least 1, got {checkpoint}")
    transmat_T = np.ascontiguousarray(transmat.T)
    block_starts = list(range(0, length, checkpoint))

    # Forward sweep: carry-in checkpoints + the exact log-likelihood.
    carries: list[np.ndarray | None] = []
    alpha: np.ndarray | None = None
    log_likelihood = 0.0
    for b0 in block_starts:  # repro: loop-ok[forward checkpoint sweep]
        b1 = min(b0 + checkpoint, length)
        carries.append(None if alpha is None else alpha.copy())
        obs, shift = _obs_weights(source.fetch(b0, b1))
        scales = np.empty(b1 - b0)
        for i in range(b1 - b0):  # repro: loop-ok[inherent time recursion]
            if b0 + i == 0:
                raw = startprob * obs[0]
            else:
                raw = (alpha @ transmat) * obs[i]
            scales[i] = max(float(raw.sum()), _TINY)
            alpha = raw / scales[i]
        log_likelihood += float(
            np.log(np.maximum(scales, _TINY)).sum() + shift.sum()
        )

    # Backward sweep: recompute each block's forward messages from its
    # checkpoint, run the scaled backward recursion across it, and
    # accumulate gamma / xi on the way.
    gamma = np.empty((length, n_states))
    xi_sum = np.zeros((n_states, n_states))
    w_carry: np.ndarray | None = None  # obs[b1] * beta_hat[b1] / c[b1]
    for j in range(len(block_starts) - 1, -1, -1):  # repro: loop-ok[backward checkpoint sweep]
        b0 = block_starts[j]
        b1 = min(b0 + checkpoint, length)
        n_rows = b1 - b0
        obs, _ = _obs_weights(source.fetch(b0, b1))
        alpha_hat = np.empty((n_rows, n_states))
        scales = np.empty(n_rows)
        alpha = carries[j]
        for i in range(n_rows):  # repro: loop-ok[forward recomputation within block]
            if b0 + i == 0:
                raw = startprob * obs[0]
            else:
                raw = (alpha @ transmat) * obs[i]
            scales[i] = max(float(raw.sum()), _TINY)
            alpha = raw / scales[i]
            alpha_hat[i] = alpha
        beta_hat = np.empty((n_rows, n_states))
        if b1 == length:
            beta_hat[n_rows - 1] = 1.0
        else:
            assert w_carry is not None
            beta_hat[n_rows - 1] = w_carry @ transmat_T
        for i in range(n_rows - 2, -1, -1):  # repro: loop-ok[inherent backward recursion]
            beta_hat[i] = (obs[i + 1] * beta_hat[i + 1] / scales[i + 1]) @ transmat_T
        block_gamma = alpha_hat * beta_hat
        block_gamma /= np.maximum(block_gamma.sum(axis=1, keepdims=True), _TINY)
        gamma[b0:b1] = block_gamma
        xi_weight = obs * beta_hat / scales[:, None]
        if n_rows > 1:
            xi_sum += transmat * (alpha_hat[:-1].T @ xi_weight[1:])
        if b0 > 0:
            carry_in = carries[j]
            assert carry_in is not None
            xi_sum += transmat * np.outer(carry_in, xi_weight[0])
        w_carry = xi_weight[0]

    return SequencePosteriors(
        gamma=gamma, xi_sum=xi_sum, log_likelihood=log_likelihood
    )


def streaming_log_likelihood(  # repro: hot-path
    startprob: np.ndarray,
    transmat: np.ndarray,
    source,
    block: int = 65536,
) -> float:
    """Log marginal likelihood via a forward-only sweep in ``O(K)`` state.

    The same scaled forward recursion as :func:`checkpointed_posteriors`,
    without checkpoints: nothing is retained beyond the running message
    and one fetched block, so scoring is memory-bounded at any T.
    """
    source = as_source(source)
    length = source.length
    startprob = np.asarray(startprob, dtype=np.float64)
    transmat = np.asarray(transmat, dtype=np.float64)
    alpha: np.ndarray | None = None
    log_likelihood = 0.0
    for b0 in range(0, length, block):  # repro: loop-ok[streamed block sweep]
        b1 = min(b0 + block, length)
        obs, shift = _obs_weights(source.fetch(b0, b1))
        scales = np.empty(b1 - b0)
        for i in range(b1 - b0):  # repro: loop-ok[inherent time recursion]
            if b0 + i == 0:
                raw = startprob * obs[0]
            else:
                raw = (alpha @ transmat) * obs[i]
            scales[i] = max(float(raw.sum()), _TINY)
            alpha = raw / scales[i]
        log_likelihood += float(
            np.log(np.maximum(scales, _TINY)).sum() + shift.sum()
        )
    return log_likelihood
