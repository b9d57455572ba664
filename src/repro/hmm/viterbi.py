"""Viterbi decoding of the most likely hidden state sequence."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.utils.maths import safe_log


def check_viterbi_scores(scores: np.ndarray) -> None:
    """Reject an emission score table holding NaN or ``+inf``.

    Max-product decoding is only defined over scores in ``[-inf, inf)``:
    a NaN poisons every max it meets, and ``+inf`` turns into NaN the
    moment it meets a ``-inf`` transition or emission.  One max-reduction
    covers both (NaN propagates through it, and neither compares below
    ``inf``); ``-inf`` entries (impossible states) stay legal.
    """
    scores = np.asarray(scores)
    if scores.size and not np.max(scores) < np.inf:
        raise ValidationError(
            "emission log-likelihoods must not contain NaN or +inf"
        )


def viterbi_decode(
    startprob: np.ndarray, transmat: np.ndarray, log_obs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Most probable state path and its joint log-probability.

    Solves ``argmax_X log P(X, Y | pi, A, B)`` by dynamic programming.

    Parameters
    ----------
    startprob:
        Initial state distribution ``pi`` (probability domain).
    transmat:
        Row-stochastic transition matrix ``A`` (probability domain).
    log_obs:
        Per-state observation log-likelihoods, shape ``(T, K)``.

    Returns
    -------
    (path, log_joint):
        ``path`` is the length-``T`` integer state sequence, ``log_joint``
        the log-probability of the decoded path together with the
        observations.
    """
    log_pi = safe_log(np.asarray(startprob, dtype=np.float64))
    log_A = safe_log(np.asarray(transmat, dtype=np.float64))
    return viterbi_decode_from_log(log_pi, log_A, log_obs)


def viterbi_decode_from_log(
    log_startprob: np.ndarray, log_transmat: np.ndarray, log_obs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Viterbi decoding from *log-domain* parameters.

    Identical to :func:`viterbi_decode` but takes ``log(pi)`` and ``log(A)``
    directly, so callers decoding many sequences can precompute the logs
    once (the inference engine caches them across decode calls).
    """
    log_obs = np.asarray(log_obs, dtype=np.float64)
    if log_obs.ndim != 2:
        raise DimensionMismatchError(f"log_obs must be 2-D, got shape {log_obs.shape}")
    T, n_states = log_obs.shape
    if log_startprob.shape[0] != n_states or log_transmat.shape != (n_states, n_states):
        raise DimensionMismatchError(
            "startprob/transmat dimensions do not match observation likelihoods"
        )

    delta = np.full((T, n_states), -np.inf)
    backpointers = np.zeros((T, n_states), dtype=np.int64)
    delta[0] = log_startprob + log_obs[0]
    for t in range(1, T):
        scores = delta[t - 1][:, None] + log_transmat
        backpointers[t] = np.argmax(scores, axis=0)
        delta[t] = scores[backpointers[t], np.arange(n_states)] + log_obs[t]

    path = np.zeros(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta[-1]))
    for t in range(T - 2, -1, -1):
        path[t] = backpointers[t + 1, path[t + 1]]
    return path, float(delta[-1, path[-1]])
