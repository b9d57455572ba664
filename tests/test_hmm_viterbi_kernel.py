"""Hard-path tests for the fused batched Viterbi kernel.

The fused kernel runs the Viterbi recursion in the log domain with the same
elementary operations (broadcast add against ``log A``, first-index argmax
over source states) as :func:`repro.hmm.viterbi.viterbi_decode_from_log`,
so decoded paths must be *bit-identical* to the log reference — including
on deliberately tie-heavy models, where a probability-domain kernel could
legitimately break ties differently.  The ``_TINY`` underflow fallback of
the forward-backward path must likewise reproduce the reference exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.hmm import (
    CategoricalEmission,
    CompiledCorpus,
    InferenceEngine,
    LogDomainBackend,
    ScaledBatchedBackend,
    viterbi_backpointer_dtype,
)
from repro.hmm import backends as backends_module
from repro.hmm.viterbi import viterbi_decode, viterbi_decode_from_log


def _engines(bucket_size=3):
    return (
        InferenceEngine(backend="scaled", bucket_size=bucket_size),
        InferenceEngine(backend="log"),
    )


class TestViterbiTieBreaking:
    def test_uniform_model_decodes_all_zeros_in_both_backends(self):
        # Fully uniform model: every path ties, so the decoded path is
        # determined purely by tie-breaking (first index wins everywhere).
        k = 4
        startprob = np.full(k, 1.0 / k)
        transmat = np.full((k, k), 1.0 / k)
        emissions = CategoricalEmission(np.full((k, 6), 1.0 / 6))
        sequences = [np.array([0, 3, 1, 5, 2]), np.array([1]), np.array([2, 2, 4] * 7)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, np.zeros_like(g_path))
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj

    def test_duplicate_states_tie_break_identically(self):
        # Two pairs of interchangeable states (identical emission rows,
        # identical transition rows): the argmax sees exact ties between
        # them at every timestep in both backends.
        rng = np.random.default_rng(0)
        base = rng.dirichlet(np.ones(5), size=2)
        emissions = CategoricalEmission(np.vstack([base[0], base[0], base[1], base[1]]))
        startprob = np.full(4, 0.25)
        transmat = np.tile(np.array([[0.3, 0.3, 0.2, 0.2]]), (4, 1))
        sequences = [rng.integers(0, 5, size=n) for n in (1, 4, 9, 30, 2)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj
            # the tie must resolve to the lower-indexed state of each pair
            assert set(np.unique(g_path)).issubset({0, 2})

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_models_decode_bit_identically(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        emissions = CategoricalEmission(rng.dirichlet(np.ones(7), size=k))
        startprob = rng.dirichlet(np.ones(k))
        transmat = rng.dirichlet(np.ones(k), size=k)
        sequences = [rng.integers(0, 7, size=n) for n in (1, 2, 5, 17, 40)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj), table in zip(got, want, tables):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj
        # and both match the standalone reference decoder
        for (g_path, g_lj), table in zip(got, tables):
            ref_path, ref_lj = viterbi_decode(startprob, transmat, table)
            np.testing.assert_array_equal(g_path, ref_path)
            assert g_lj == ref_lj

    def test_unsorted_bucket_lengths_are_handled(self):
        # The kernel's active-suffix optimization assumes length-sorted
        # buckets; calling it directly with unsorted lengths must re-sort
        # defensively and return results in the caller's order.
        rng = np.random.default_rng(3)
        k = 3
        emissions = CategoricalEmission(rng.dirichlet(np.ones(4), size=k))
        startprob = rng.dirichlet(np.ones(k))
        transmat = rng.dirichlet(np.ones(k), size=k)
        sequences = [rng.integers(0, 4, size=n) for n in (9, 2, 6)]
        tables = emissions.log_likelihoods_batch(sequences)
        scaled, reference = _engines()
        backend = scaled.backend
        from repro.utils.maths import safe_log

        log_pi, log_AT = backend._viterbi_log_params(startprob, transmat, None, None)
        padded = np.zeros((3, 9, k))
        for row, table in enumerate(tables):
            padded[row, : table.shape[0]] = table
        got = backend._viterbi_bucket(
            log_pi, log_AT, padded, np.array([9, 2, 6])
        )
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj


class TestUnderflowFallback:
    def test_long_low_probability_sequence_matches_reference_exactly(self):
        # A long low-probability sequence whose forward mass vanishes at one
        # timestep (>745-nat spread underflows the probability domain even
        # though the sequence is possible) must be recomputed with the
        # log-domain reference and match it bit-for-bit, while an ordinary
        # sequence in the same bucket stays on the fast path.
        startprob = np.array([1.0, 0.0])
        transmat = np.eye(2)
        hard = np.full((150, 2), [-5.0, -750.0])
        hard[75] = [-800.0, 0.0]
        fine = np.full((149, 2), [-1.0, -2.0])
        tables = [hard, fine]
        scaled, reference = _engines(bucket_size=8)

        got = scaled.posteriors_batch(startprob, transmat, tables)
        want = reference.posteriors_batch(startprob, transmat, tables)
        assert np.isfinite(want[0].log_likelihood)
        # the underflowed sequence is recomputed by the reference recursion
        np.testing.assert_array_equal(got[0].gamma, want[0].gamma)
        np.testing.assert_array_equal(got[0].xi_sum, want[0].xi_sum)
        assert got[0].log_likelihood == want[0].log_likelihood
        # the healthy bucket-mate stays on the scaled fast path, within atol
        np.testing.assert_allclose(got[1].gamma, want[1].gamma, atol=1e-8)
        assert abs(got[1].log_likelihood - want[1].log_likelihood) < 1e-8

        got_ll = scaled.log_likelihood_batch(startprob, transmat, tables)
        want_ll = reference.log_likelihood_batch(startprob, transmat, tables)
        assert got_ll[0] == want_ll[0]
        assert abs(got_ll[1] - want_ll[1]) < 1e-8

        # Viterbi runs in the log domain: bit-identical with no fallback.
        got_v = scaled.viterbi_batch(startprob, transmat, tables)
        want_v = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got_v, want_v):
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj

    def test_impossible_timestep_matches_reference_exactly(self):
        # A timestep where every state is impossible (-inf row): -inf
        # likelihood and Viterbi score, exactly as the reference reports.
        startprob = np.array([0.6, 0.4])
        transmat = np.array([[0.7, 0.3], [0.2, 0.8]])
        log_obs = np.array([[-0.5, -1.0], [-np.inf, -np.inf], [-0.3, -0.9]])
        scaled, reference = _engines()
        got = scaled.posteriors(startprob, transmat, log_obs)
        want = reference.posteriors(startprob, transmat, log_obs)
        assert got.log_likelihood == want.log_likelihood == -np.inf
        np.testing.assert_array_equal(got.gamma, want.gamma)
        got_path, got_lj = scaled.viterbi(startprob, transmat, log_obs)
        want_path, want_lj = reference.viterbi(startprob, transmat, log_obs)
        np.testing.assert_array_equal(got_path, want_path)
        assert got_lj == want_lj == -np.inf


class TestBackpointerDtype:
    @pytest.mark.parametrize(
        "n_states, expected",
        [
            (1, np.uint8),
            (2, np.uint8),
            (256, np.uint8),
            (257, np.uint16),
            (65_536, np.uint16),
            (65_537, np.int64),
        ],
    )
    def test_smallest_dtype_that_fits(self, n_states, expected):
        assert viterbi_backpointer_dtype(n_states) == np.dtype(expected)

    def test_rejects_non_positive_state_counts(self):
        with pytest.raises(ValidationError):
            viterbi_backpointer_dtype(0)

    def test_paths_survive_small_dtype_round_trip(self):
        # 300 states forces uint16 backpointers; decoding must still agree
        # with the log reference bit-for-bit.
        rng = np.random.default_rng(11)
        k = 300
        startprob = rng.dirichlet(np.ones(k))
        transmat = rng.dirichlet(np.ones(k), size=k)
        tables = [rng.normal(size=(n, k)) for n in (1, 4, 7)]
        scaled, reference = _engines()
        got = scaled.viterbi_batch(startprob, transmat, tables)
        want = reference.viterbi_batch(startprob, transmat, tables)
        for (g_path, g_lj), (w_path, w_lj) in zip(got, want):
            assert g_path.max() < k
            np.testing.assert_array_equal(g_path, w_path)
            assert g_lj == w_lj


# ------------------------------------------------------------------ #
# Batch-last sweep kernel: edge cases against the log reference
# ------------------------------------------------------------------ #
def _assert_sweep_matches_reference(log_pi, log_A, tables, bucket_size=64):
    """Decode ``tables`` through the scaled backend's corpus sweep with the
    given log parameters and check every path and joint bit for bit."""
    n_states = log_pi.shape[0]
    backend = ScaledBatchedBackend(bucket_size=bucket_size)
    corpus = CompiledCorpus(tables, bucket_size=bucket_size)
    got = backend.viterbi_corpus(
        np.full(n_states, 1.0 / n_states),
        np.full((n_states, n_states), 1.0 / n_states),
        corpus,
        corpus.extend_scores(corpus.concat),
        log_startprob=log_pi,
        log_transmat=log_A,
    )
    assert len(got) == len(tables)
    for (path, log_joint), table in zip(got, tables):
        ref_path, ref_log_joint = viterbi_decode_from_log(log_pi, log_A, table)
        np.testing.assert_array_equal(path, ref_path)
        assert log_joint == ref_log_joint
    return backend


def _random_log_params(rng, n_states):
    log_pi = np.log(rng.dirichlet(np.ones(n_states)))
    log_A = np.log(rng.dirichlet(np.ones(n_states), size=n_states))
    return log_pi, log_A


class TestSweepKernelEdgeCases:
    def test_integer_scores_tie_heavily_and_break_like_the_reference(self):
        # Log scores and log A rounded to integers: most max-reductions see
        # several exact ties, so any tie-breaking other than first-index
        # shows up as a different path.
        rng = np.random.default_rng(5)
        for n_states in (3, 7, 15):
            log_pi = np.round(rng.uniform(-3, 0, size=n_states))
            log_A = np.round(rng.uniform(-3, 0, size=(n_states, n_states)))
            lengths = rng.integers(1, 30, size=40)
            tables = [np.round(rng.uniform(-4, 0, size=(n, n_states))) for n in lengths]
            _assert_sweep_matches_reference(log_pi, log_A, tables)

    def test_neg_inf_entries_match_the_reference(self):
        # Impossible emissions, impossible transitions and whole -inf rows:
        # equality with a -inf max must resolve exactly as argmax does.
        rng = np.random.default_rng(6)
        n_states = 6
        log_pi, log_A = _random_log_params(rng, n_states)
        log_A[rng.random((n_states, n_states)) < 0.3] = -np.inf
        log_pi[0] = -np.inf
        tables = []
        for n in rng.integers(1, 25, size=30):
            table = rng.normal(size=(n, n_states))
            table[rng.random(table.shape) < 0.25] = -np.inf
            if n > 3:
                table[n // 2] = -np.inf
            tables.append(table)
        _assert_sweep_matches_reference(log_pi, log_A, tables)

    @pytest.mark.parametrize("n_states", [1, 2, 255, 256, 257])
    def test_state_counts_across_the_uint8_boundary(self, n_states):
        rng = np.random.default_rng(n_states)
        log_pi, log_A = _random_log_params(rng, n_states)
        tables = [rng.normal(size=(n, n_states)) for n in (1, 3, 4, 6)]
        backend = _assert_sweep_matches_reference(log_pi, log_A, tables)
        assert backend.last_backpointer_dtype == viterbi_backpointer_dtype(n_states)

    @pytest.mark.parametrize("n_states", [2, 255, 256, 257])
    def test_equality_step_across_the_uint8_boundary(self, n_states):
        # At these K the block budget keeps blocks below the crossover, so
        # drive the kernel directly with enough rows for the equality and
        # rank step; the ranks K - 1 - i leave uint8 at K = 257.
        rng = np.random.default_rng(1000 + n_states)
        log_pi, log_A = _random_log_params(rng, n_states)
        lengths = np.sort(rng.integers(1, 5, size=backends_module._EQUALITY_MIN_ROWS + 3))
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        table = rng.normal(size=(int(lengths.sum()), n_states))
        paths = np.empty(table.shape[0], dtype=np.int64)
        log_joints = backends_module._viterbi_block(
            log_pi, log_A, table, starts, lengths, paths,
            viterbi_backpointer_dtype(n_states),
        )
        for row, (start, length) in enumerate(zip(starts, lengths)):
            ref_path, ref_log_joint = viterbi_decode_from_log(
                log_pi, log_A, table[start : start + length]
            )
            np.testing.assert_array_equal(paths[start : start + length], ref_path)
            assert log_joints[row] == ref_log_joint

    def test_active_rows_either_side_of_the_crossover(self):
        rng = np.random.default_rng(7)
        n_states = 15
        log_pi, log_A = _random_log_params(rng, n_states)
        crossover = backends_module._EQUALITY_MIN_ROWS
        for n_rows in (crossover - 1, crossover, crossover + 1, 2 * crossover):
            # Lengths spread out so the active suffix shrinks through the
            # crossover during the sweep.
            tables = [rng.normal(size=(n, n_states)) for n in rng.integers(1, 40, size=n_rows)]
            _assert_sweep_matches_reference(log_pi, log_A, tables)

    def test_row_counts_either_side_of_the_block_size(self):
        rng = np.random.default_rng(8)
        n_states = 15
        log_pi, log_A = _random_log_params(rng, n_states)
        block = backends_module._SWEEP_STEP_BYTES // (8 * n_states * n_states)
        for n_rows in (block - 1, block, block + 1):
            tables = [rng.normal(size=(n, n_states)) for n in rng.integers(1, 6, size=n_rows)]
            _assert_sweep_matches_reference(log_pi, log_A, tables)

    def test_token_budget_splits_blocks_exactly(self, monkeypatch):
        # A small token budget forces many blocks, including one-row ones.
        monkeypatch.setattr(backends_module, "_SWEEP_BLOCK_TOKENS", 20)
        rng = np.random.default_rng(9)
        n_states = 4
        log_pi, log_A = _random_log_params(rng, n_states)
        tables = [rng.normal(size=(n, n_states)) for n in rng.integers(1, 30, size=25)]
        _assert_sweep_matches_reference(log_pi, log_A, tables)

    def test_sweep_blocks_cover_rows_within_budgets(self):
        rng = np.random.default_rng(10)
        n_states = 15
        max_rows = backends_module._SWEEP_STEP_BYTES // (8 * n_states * n_states)
        budget = backends_module._SWEEP_BLOCK_TOKENS
        for lengths in (
            np.sort(rng.integers(1, 60, size=2000)),
            np.sort(rng.integers(100, 3000, size=400)),
            np.array([budget + 5]),
            np.array([1, 2, budget, budget]),
        ):
            blocks = backends_module._sweep_blocks(lengths, n_states)
            assert blocks[0][0] == 0 and blocks[-1][1] == lengths.size
            for (lo, hi), (next_lo, _) in zip(blocks, blocks[1:]):
                assert hi == next_lo
            for lo, hi in blocks:
                assert 1 <= hi - lo <= max_rows
                assert hi - lo == 1 or lengths[lo:hi].sum() <= budget

    def test_length_one_sequences(self):
        rng = np.random.default_rng(11)
        n_states = 5
        log_pi, log_A = _random_log_params(rng, n_states)
        only_ones = [rng.normal(size=(1, n_states)) for _ in range(20)]
        _assert_sweep_matches_reference(log_pi, log_A, only_ones)
        mixed = only_ones[:7] + [rng.normal(size=(n, n_states)) for n in (2, 9, 17)]
        _assert_sweep_matches_reference(log_pi, log_A, mixed)

    def test_corpus_mixing_short_rows_and_long_windows(self):
        # Short rows go through the sweep, long ones through the chunked
        # decoder; each must match its reference in the same call.
        rng = np.random.default_rng(12)
        n_states = 4
        startprob = rng.dirichlet(np.ones(n_states))
        transmat = 0.85 * np.eye(n_states) + 0.15 * rng.dirichlet(
            np.ones(n_states), size=n_states
        )
        transmat /= transmat.sum(axis=1, keepdims=True)
        tables = [rng.normal(size=(n, n_states)) for n in (5, 80, 12, 1, 150, 30)]
        corpus = CompiledCorpus(
            tables, bucket_size=4, long_threshold=40, decode_window=32, decode_overlap=8
        )
        assert sorted(lw.seq_index for lw in corpus.long_windows) == [1, 4]
        scores_ext = corpus.extend_scores(corpus.concat)
        got = ScaledBatchedBackend(bucket_size=4).viterbi_corpus(
            startprob, transmat, corpus, scores_ext
        )
        log_pi, log_A = np.log(startprob), np.log(transmat)
        long_reference = LogDomainBackend()
        for j, ((path, log_joint), table) in enumerate(zip(got, tables)):
            if j in (1, 4):
                ref = long_reference.viterbi_long(
                    startprob, transmat, table, window=32, overlap=8
                )
                ref_path, ref_log_joint = ref.path, ref.log_joint
            else:
                ref_path, ref_log_joint = viterbi_decode_from_log(log_pi, log_A, table)
            np.testing.assert_array_equal(path, ref_path)
            assert log_joint == ref_log_joint


class TestNonFiniteScores:
    @staticmethod
    def _model(n_states=3):
        rng = np.random.default_rng(13)
        return (
            rng.dirichlet(np.ones(n_states)),
            rng.dirichlet(np.ones(n_states), size=n_states),
        )

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_pos_inf_score_raises_on_corpus_decode(self, backend, bad):
        startprob, transmat = self._model()
        table = np.log(np.full((3, 3), 0.5))
        table[1, 2] = bad
        engine = InferenceEngine(backend=backend)
        with pytest.raises(ValidationError):
            engine.viterbi_batch(startprob, transmat, [np.zeros((2, 3)), table])
        corpus = engine.compile([table])
        with pytest.raises(ValidationError):
            engine.viterbi_corpus(
                startprob, transmat, corpus, corpus.extend_scores(corpus.concat)
            )

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    def test_nan_score_raises_on_long_decode(self, backend):
        startprob, transmat = self._model()
        table = np.random.default_rng(14).normal(size=(100, 3))
        table[77, 0] = np.nan
        engine = InferenceEngine(backend=backend)
        with pytest.raises(ValidationError):
            engine.viterbi_long(startprob, transmat, table, window=32, overlap=8)

    @pytest.mark.parametrize("backend", ["scaled", "log"])
    def test_neg_inf_rows_stay_legal_and_match_the_reference(self, backend):
        startprob, transmat = self._model()
        rng = np.random.default_rng(15)
        impossible = np.full((3, 3), -np.inf)
        partly = rng.normal(size=(6, 3))
        partly[2] = -np.inf
        partly[4, :2] = -np.inf
        tables = [impossible, partly, rng.normal(size=(4, 3))]
        got = InferenceEngine(backend=backend).viterbi_batch(startprob, transmat, tables)
        log_pi, log_A = np.log(startprob), np.log(transmat)
        for (path, log_joint), table in zip(got, tables):
            ref_path, ref_log_joint = viterbi_decode_from_log(log_pi, log_A, table)
            np.testing.assert_array_equal(path, ref_path)
            assert log_joint == ref_log_joint
        assert got[0][1] == -np.inf
        np.testing.assert_array_equal(got[0][0], [0, 0, 0])
