"""Invalid inputs fail loudly at the engine and emission boundaries.

Parameters are validated once per parameter change by the engine's
parameter cache, so every entry point — batched decode and scoring,
posteriors, streaming sessions and long-sequence decode — rejects a
mis-shaped, negative or non-finite ``pi`` / ``A``, including one mutated in
place after the model was built.  Categorical emissions reject non-integer
tokens instead of failing deep inside numpy indexing.
"""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError, ValidationError
from repro.hmm import HMM, CategoricalEmission, InferenceEngine


def _model(seed=0, n_states=3, n_symbols=5):
    rng = np.random.default_rng(seed)
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states)),
    )


def _every_entry_point(model, sequence):
    """Each model-level entry point, as a zero-argument call."""
    return {
        "predict": lambda: model.predict([sequence]),
        "score": lambda: model.score([sequence]),
        "posteriors": lambda: model.posteriors_batch([sequence]),
        "stream": lambda: model.inference_engine.start_stream(
            model.startprob, model.transmat, lag=2
        ),
        "decode_long": lambda: model.decode_long(sequence),
    }


class TestParameterValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_transmat_mutated_in_place_raises_everywhere(self, bad):
        model = _model()
        sequence = np.array([0, 1, 2])
        for call in _every_entry_point(model, sequence).values():
            call()  # warm the parameter cache with valid parameters
        model.transmat[0, 1] = bad
        for name, call in _every_entry_point(model, sequence).items():
            with pytest.raises(ValidationError, match="transmat"):
                call()

    def test_startprob_mutated_in_place_raises(self):
        model = _model()
        sequence = np.array([0, 1, 2])
        model.predict([sequence])
        model.startprob[0] = np.nan
        for call in _every_entry_point(model, sequence).values():
            with pytest.raises(ValidationError, match="startprob"):
                call()

    def test_valid_parameters_decode_again_after_repair(self):
        model = _model()
        sequence = np.array([0, 1, 2])
        want = model.predict([sequence])[0]
        saved = model.transmat[0, 1]
        model.transmat[0, 1] = np.nan
        with pytest.raises(ValidationError):
            model.predict([sequence])
        model.transmat[0, 1] = saved
        np.testing.assert_array_equal(model.predict([sequence])[0], want)

    def test_wrong_shapes_raise_dimension_mismatch(self):
        engine = InferenceEngine()
        table = np.zeros((4, 3))
        with pytest.raises(DimensionMismatchError):
            engine.viterbi(np.full((1, 3), 1.0 / 3.0), np.full((3, 3), 1.0 / 3.0), table)
        with pytest.raises(DimensionMismatchError):
            engine.start_stream(np.full(3, 1.0 / 3.0), np.full((3, 2), 0.5))


class TestCategoricalTokens:
    def test_float_tokens_raise(self):
        emissions = _model().emissions
        for score in (emissions.log_likelihoods, emissions.log_likelihoods_concat):
            with pytest.raises(ValidationError, match="integer tokens"):
                score(np.array([0.0, 1.5]))
            with pytest.raises(ValidationError, match="integer tokens"):
                score(np.array([0.0, 1.0]))

    def test_float_tokens_raise_through_the_model(self):
        model = _model()
        tokens = np.array([0.0, 1.5])
        with pytest.raises(ValidationError):
            model.predict([tokens])
        with pytest.raises(ValidationError):
            model.decode(tokens)
        with pytest.raises(ValidationError):
            model.predict_corpus(model.compile([tokens]))

    def test_integer_tokens_of_any_width_score(self):
        emissions = _model().emissions
        want = emissions.log_likelihoods(np.array([0, 4, 2]))
        for dtype in (np.uint8, np.int32, np.int64):
            tokens = np.array([0, 4, 2], dtype=dtype)
            np.testing.assert_array_equal(emissions.log_likelihoods(tokens), want)
            np.testing.assert_array_equal(emissions.log_likelihoods_concat(tokens), want)
