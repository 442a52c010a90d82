"""Character-confusion model for the OCR noise channel.

Models the classic Tesseract failure modes on low-quality scans:
visually similar glyph substitutions (``O``/``0``, ``l``/``1``,
``rn``/``m``), occasional character drops, and spurious specks read as
punctuation.  Confusions are weighted: a degraded page substitutes
more aggressively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: (source, replacement, relative weight).  Multi-character sources
#: model digraph confusions.
DEFAULT_CONFUSIONS: tuple[tuple[str, str, float], ...] = (
    ("O", "0", 1.0), ("0", "O", 1.0),
    ("l", "1", 1.0), ("1", "l", 0.6),
    ("I", "1", 0.8), ("i", "ı", 0.1),
    ("S", "5", 0.6), ("5", "S", 0.5),
    ("B", "8", 0.5), ("8", "B", 0.4),
    ("Z", "2", 0.5), ("2", "Z", 0.3),
    ("g", "9", 0.3), ("9", "g", 0.2),
    ("rn", "m", 0.8), ("m", "rn", 0.5),
    ("cl", "d", 0.4), ("d", "cl", 0.2),
    ("e", "c", 0.4), ("c", "e", 0.3),
    ("a", "o", 0.3), ("o", "a", 0.2),
    ("t", "f", 0.3), ("f", "t", 0.2),
    ("h", "b", 0.2), ("u", "v", 0.3),
)

#: Characters the channel never touches, to keep table structure
#: recoverable the way the authors' manual normalization did: field
#: separators survive scanning far better than glyph interiors.
PROTECTED_CHARACTERS = frozenset("—|;—\n\t")


@dataclass
class ConfusionModel:
    """Samplable character-confusion table."""

    confusions: tuple[tuple[str, str, float], ...] = DEFAULT_CONFUSIONS
    #: Probability scale of a confusion firing at quality 0.
    base_rate: float = 0.25
    #: Probability of dropping a character entirely at quality 0.
    drop_rate: float = 0.01
    _by_source: dict[str, list[tuple[str, float]]] = field(
        init=False, default_factory=dict, repr=False)
    #: The two-character sources, the only multi-character ones the
    #: walk ever checks.
    _digraphs: frozenset[str] = field(
        init=False, default=frozenset(), repr=False)

    def __post_init__(self) -> None:
        for source, replacement, weight in self.confusions:
            self._by_source.setdefault(source, []).append(
                (replacement, weight))
        self._digraphs = frozenset(
            source for source in self._by_source if len(source) == 2)

    def corrupt_line(self, line: str, quality: float,
                     rng: np.random.Generator) -> tuple[str, int]:
        """Pass ``line`` through the channel at the given ``quality``.

        Returns the corrupted line and the number of corruptions
        applied (used by the engine to compute confidence).

        Draws are consumed exactly as one scalar ``rng.random()`` per
        check would consume them, left to right: at each position a
        digraph check (if the two characters are a source), then a
        substitution check (if the character is a source) and a drop
        check (if it is a letter), at most three draws per position.
        The walk reads a block of ``3 * len`` doubles drawn up front,
        then rewinds the generator and draws exactly the ``used``
        values again, so the stream and every buffered bit (PCG64's
        pending uint32) end where the scalar loop leaves them.  A
        source with several replacements draws its pick from ``rng``
        itself: the walk stops there, settles the block, picks, and
        starts a fresh block for the rest of the line.
        """
        severity = max(0.0, 1.0 - quality)
        sub_p = self.base_rate * severity
        drop_p = self.drop_rate * severity
        if severity <= 0.0:
            return line, 0
        by_source = self._by_source
        digraphs = self._digraphs
        out: list[str] = []
        append = out.append
        corruptions = 0
        i, n = 0, len(line)
        while i < n:
            saved = rng.bit_generator.state
            block = rng.random(3 * (n - i)).tolist()
            used = 0
            pending = None  # a source whose pick draws from ``rng``
            while i < n:
                # Digraph confusions get first shot.
                if line[i:i + 2] in digraphs:
                    used += 1
                    if block[used - 1] < sub_p:
                        digraph = line[i:i + 2]
                        i += 2
                        corruptions += 1
                        options = by_source[digraph]
                        if len(options) > 1:
                            pending = digraph
                            break
                        append(options[0][0])
                        continue
                char = line[i]
                i += 1
                if char in PROTECTED_CHARACTERS:
                    append(char)
                    continue
                if char in by_source:
                    used += 1
                    if block[used - 1] < sub_p:
                        corruptions += 1
                        options = by_source[char]
                        if len(options) > 1:
                            pending = char
                            break
                        append(options[0][0])
                        continue
                if char.isalpha():
                    # Real engines substitute glyphs far more often
                    # than they delete them, and deletions concentrate
                    # in letter strokes; digits and punctuation survive.
                    used += 1
                    if block[used - 1] < drop_p:
                        corruptions += 1  # dropped
                        continue
                append(char)
            rng.bit_generator.state = saved
            if used:
                rng.random(used)
            if pending is not None:
                append(self._pick(pending, rng))
        return "".join(out), corruptions

    def _pick(self, source: str, rng: np.random.Generator) -> str:
        options = self._by_source[source]
        if len(options) == 1:
            return options[0][0]
        weights = np.array([w for _, w in options])
        weights = weights / weights.sum()
        return options[int(rng.choice(len(options), p=weights))][0]
