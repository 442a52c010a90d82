"""The OCR channel's fast paths match their reference implementations.

``ConfusionModel.corrupt_line`` walks a block of pre-drawn doubles and
then rewinds the generator; it must return what the one-draw-per-check
walk returns *and* leave the generator in the same state, or every
draw after the OCR channel (confidence noise, the next line, the next
document) would shift.  ``OcrCorrector`` memoizes its word repair; the
memo must never change a repaired line.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ocr import ConfusionModel, OcrCorrector

from .ocr_oracles import scalar_corrupt_line, uncached_correct_line

#: Characters that hit every branch of the walk: digraph sources
#: (``rn``, ``cl``), single sources, letters that can only be dropped,
#: digits, protected separators and non-ASCII.
CHANNEL_ALPHABET = "clrnmdO0l1Ii5SeaothuvxyzQ .,:/-|;—\t\nıé"

#: A table where ``c``, ``cl`` and ``l`` have several replacements, so
#: ``_pick`` draws from the generator mid-line.
MULTI_OPTION_CONFUSIONS = (
    ("cl", "d", 1.0), ("cl", "a", 2.0),
    ("c", "e", 1.0), ("c", "o", 0.5), ("c", "(", 0.25),
    ("l", "1", 1.0), ("l", "|", 1.0),
    ("rn", "m", 1.0), ("O", "0", 1.0),
)

MODELS = {
    "default": ConfusionModel(),
    "multi-option": ConfusionModel(confusions=MULTI_OPTION_CONFUSIONS),
    "aggressive": ConfusionModel(
        confusions=MULTI_OPTION_CONFUSIONS, base_rate=0.9,
        drop_rate=0.5),
}


def _generator(seed: int, pending_uint32: bool) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    if pending_uint32:
        # A 32-bit draw leaves half a uint64 buffered in PCG64.
        rng.integers(1, 31)
    return rng


def _same_state(left, right) -> bool:
    """Bit-generator states equal, arrays (MT19937's key) included."""
    if isinstance(left, dict):
        return (left.keys() == right.keys()
                and all(_same_state(left[k], right[k]) for k in left))
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def _assert_same_walk(model: ConfusionModel, line: str, quality: float,
                      seed: int, pending_uint32: bool) -> None:
    block_rng = _generator(seed, pending_uint32)
    scalar_rng = _generator(seed, pending_uint32)
    assert (model.corrupt_line(line, quality, block_rng)
            == scalar_corrupt_line(model, line, quality, scalar_rng))
    assert (block_rng.bit_generator.state
            == scalar_rng.bit_generator.state)
    # The buffered uint32 and the stream both carry on identically.
    assert (block_rng.integers(1, 31, size=4).tolist()
            == scalar_rng.integers(1, 31, size=4).tolist())


class TestBlockWalkExactness:
    @given(line=st.text(alphabet=CHANNEL_ALPHABET, max_size=120),
           quality=st.one_of(
               st.just(1.0), st.just(1e-9), st.just(0.0),
               st.floats(min_value=0.0, max_value=1.0)),
           model=st.sampled_from(sorted(MODELS)),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           pending_uint32=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_walk(self, line, quality, model, seed,
                                 pending_uint32):
        _assert_same_walk(MODELS[model], line, quality, seed,
                          pending_uint32)

    @pytest.mark.parametrize("pending_uint32", [False, True])
    @pytest.mark.parametrize("quality", [1.0 - 1e-12, 0.5, 1e-9])
    def test_three_draws_per_position(self, quality, pending_uint32):
        # Every ``c`` in ``clclcl`` takes a digraph, a substitution and
        # a drop check when nothing fires: 15 draws over 6 characters,
        # past a ``2 * len + 2`` block.
        model = MODELS["default"]
        _assert_same_walk(model, "clclcl", quality, 3, pending_uint32)
        rng = np.random.default_rng(3)
        model.corrupt_line("clclcl", 1.0 - 1e-12, rng)
        expected = np.random.default_rng(3)
        expected.random(15)
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_multi_option_pick_draws_mid_line(self, seed):
        model = MODELS["aggressive"]
        line = "clean cell, cool clock; rn OlO clc " * 3
        _assert_same_walk(model, line, 0.05, seed, seed % 2 == 1)
        text, corruptions = model.corrupt_line(
            line, 0.05, np.random.default_rng(seed))
        # At quality 0.05 the aggressive table fires ~86% of checks,
        # so multi-option picks draw from the generator many times a
        # line.
        assert corruptions > 0 and text != line

    def test_perfect_quality_draws_nothing(self):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        assert (MODELS["default"].corrupt_line("clclcl O0", 1.0, rng)
                == ("clclcl O0", 0))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bit_generator", [
        np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators(self, bit_generator):
        model = MODELS["multi-option"]
        line = "Software module froze; driver took control cl rn O0 " * 2
        for seed in range(10):
            block_rng = np.random.Generator(bit_generator(seed))
            scalar_rng = np.random.Generator(bit_generator(seed))
            assert (model.corrupt_line(line, 0.2, block_rng)
                    == scalar_corrupt_line(model, line, 0.2,
                                           scalar_rng))
            assert _same_state(block_rng.bit_generator.state,
                               scalar_rng.bit_generator.state)


def _case_variants(word: str) -> list[str]:
    return [word, word.upper(), word.capitalize(), word.swapcase()]


class TestRepairMemo:
    @pytest.fixture(scope="class")
    def corrector(self):
        return OcrCorrector()

    @pytest.fixture(scope="class")
    def noisy_lines(self, corrector):
        channel = ConfusionModel()
        rng = np.random.default_rng(2018)
        words = sorted(corrector.lexicon)
        lines = []
        for start in range(0, len(words), 8):
            clean = " ".join(
                variant for word in words[start:start + 8]
                for variant in _case_variants(word))
            lines.append(clean)
            for quality in (0.9, 0.6, 0.3):
                lines.append(channel.corrupt_line(clean, quality, rng)[0])
        return lines

    def test_memoized_lines_match_uncached_repair(self, noisy_lines):
        corrector = OcrCorrector()
        expected = [uncached_correct_line(corrector, line)
                    for line in noisy_lines]
        # Twice through one corrector: the second pass is all memo
        # hits, the first fills the memo across case variants.
        assert corrector.correct_lines(noisy_lines) == expected
        assert corrector.correct_lines(noisy_lines) == expected

    @given(word=st.text(alphabet="abcdeilmnorstuCDEILMNORSTU",
                        min_size=3, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_case_variants_repair_independently(self, corrector, word):
        for variant in _case_variants(word):
            assert (corrector.correct_line(variant)
                    == uncached_correct_line(corrector, variant))
