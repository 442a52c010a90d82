"""Reference implementations of the OCR channel's hot paths.

``scalar_corrupt_line`` is the character confusion walk with one scalar
``rng.random()`` call per check, and ``uncached_correct_line`` is the
post-OCR repair with no per-word memo.  The optimised code in
:mod:`repro.ocr` must match them exactly: same output and, for the
confusion walk, the same generator state afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.ocr.confusion import PROTECTED_CHARACTERS, ConfusionModel
from repro.ocr.correction import (
    _DIGIT_IN_WORD_RE,
    _DIGRAPH_SWAPS,
    _NUMERIC_SPAN_RE,
    _DIGIT_FIX,
    _WORD_RE,
    OcrCorrector,
    _match_case,
    _single_edits,
)


def scalar_corrupt_line(model: ConfusionModel, line: str, quality: float,
                        rng: np.random.Generator) -> tuple[str, int]:
    """``ConfusionModel.corrupt_line`` drawing one double per check."""
    severity = max(0.0, 1.0 - quality)
    sub_p = model.base_rate * severity
    drop_p = model.drop_rate * severity
    if severity <= 0.0:
        return line, 0
    by_source = model._by_source
    out: list[str] = []
    corruptions = 0
    i = 0
    while i < len(line):
        digraph = line[i:i + 2]
        if (len(digraph) == 2 and digraph in by_source
                and rng.random() < sub_p):
            out.append(model._pick(digraph, rng))
            corruptions += 1
            i += 2
            continue
        char = line[i]
        if char in PROTECTED_CHARACTERS:
            out.append(char)
        elif char in by_source and rng.random() < sub_p:
            out.append(model._pick(char, rng))
            corruptions += 1
        elif char.isalpha() and rng.random() < drop_p:
            corruptions += 1
        else:
            out.append(char)
        i += 1
    return "".join(out), corruptions


def uncached_repair_word(corrector: OcrCorrector, word: str) -> str:
    """One word through the lexicon repair, recomputed every call."""
    lexicon = corrector.lexicon
    lowered = word.lower()
    if lowered in lexicon:
        return word
    for source, target in _DIGRAPH_SWAPS:
        if source in lowered:
            candidate = lowered.replace(source, target, 1)
            if candidate in lexicon:
                return _match_case(word, candidate)
    candidates = [c for c in _single_edits(lowered) if c in lexicon]
    if len(candidates) == 1:
        return _match_case(word, candidates[0])
    return word


def uncached_correct_line(corrector: OcrCorrector, line: str) -> str:
    """``OcrCorrector.correct_line`` with no per-word memo."""
    line = _NUMERIC_SPAN_RE.sub(
        lambda m: m.group().translate(_DIGIT_FIX), line)
    line = _DIGIT_IN_WORD_RE.sub(corrector._repair_digit_word, line)
    return _WORD_RE.sub(
        lambda m: uncached_repair_word(corrector, m.group()), line)
