"""Triplet melody token language: triplets <-> `|<F#3>,<125>,<79>|` strings.

Each note is a ``<pitch_name>,<duration_bin>,<rest_bin>`` triplet: its pitch,
its duration, and the silence after it. Durations and rests are quantized
linearly over 0..6.3 s into 512 bins (bin = floor(t / 6.3 * 512), clamped).
Pitch names use sharps only, octave convention MIDI 0 = "C-1" (so 60 = "C4").
A melody is a plain tuple of ``MelodyTriplet``s (``Melody``). In memory a
triplet holds its pitch as a MIDI number; pitch names exist only in token
strings, which ``parse_tokens`` reads and ``render_tokens`` writes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError, RangeError, ValidationError

MAX_SECONDS = 6.3
N_BINS = 512
BIN_SECONDS = MAX_SECONDS / N_BINS

_SHARP_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
_LETTER_SEMITONE = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_PITCH_RE = re.compile(r"^([A-G])(#?)(-?\d+)$")


@dataclass(frozen=True)
class MelodyTriplet:
    pitch: int  # MIDI 0..127
    duration_bin: int
    rest_bin: int

    def __post_init__(self):
        for label, v, hi in (("pitch", self.pitch, 127),
                             ("duration_bin", self.duration_bin, N_BINS - 1),
                             ("rest_bin", self.rest_bin, N_BINS - 1)):
            if not (0 <= v <= hi):
                raise RangeError(f"{label} outside 0..{hi}", v)


Melody = tuple[MelodyTriplet, ...]


def bin_duration(t: float) -> int:
    """Quantize a duration in seconds to a 0..511 bin (linear, clamped)."""
    if isinstance(t, float) and math.isnan(t):
        raise ValidationError("duration is NaN")
    if t < 0:
        raise ValidationError(f"duration must be >= 0, got {t}")
    return min(int(t / MAX_SECONDS * N_BINS), N_BINS - 1)


def pitch_name(p: int) -> str:
    if not (0 <= p <= 127):
        raise ValidationError(f"pitch {p} outside 0..127")
    return f"{_SHARP_NAMES[p % 12]}{p // 12 - 1}"


def parse_pitch(s: str) -> int:
    """Inverse of pitch_name; also accepts sharps on E/B (e.g. "B#3" = 60)."""
    m = _PITCH_RE.match(s)
    if m is None:
        for i, ch in enumerate(s):
            if i == 0 and ch not in _LETTER_SEMITONE:
                raise ParseError(f"invalid note letter {ch!r} in {s!r}", i)
            if i == 1 and ch not in "#-0123456789":
                raise ParseError(f"unexpected character {ch!r} in {s!r}", i)
        raise ParseError(f"malformed pitch name {s!r}", 0)
    letter, sharp, octave = m.groups()
    p = (int(octave) + 1) * 12 + _LETTER_SEMITONE[letter] + (1 if sharp else 0)
    if not (0 <= p <= 127):
        raise RangeError(f"pitch name {s!r} maps outside MIDI 0..127", p)
    return p


def render_tokens(seq: Melody) -> str:
    """`|<P>,<d>,<r>|...|` with leading and trailing separators, no spaces."""
    parts = ["|"]
    for t in seq:
        parts.append(f"<{pitch_name(t.pitch)}>,<{t.duration_bin}>,<{t.rest_bin}>|")
    return "".join(parts)


class _Scanner:
    def __init__(self, s: str):
        self.s = s
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.s)

    def expect(self, ch: str) -> None:
        if self.eof():
            raise ParseError(f"expected {ch!r} but input ended", self.pos)
        got = self.s[self.pos]
        if got != ch:
            raise ParseError(f"expected {ch!r}, found {got!r}", self.pos)
        self.pos += 1

    def until(self, ch: str) -> str:
        start = self.pos
        end = self.s.find(ch, start)
        if end < 0:
            raise ParseError(f"expected {ch!r} before end of input", len(self.s))
        self.pos = end
        return self.s[start:end]


def parse_tokens(s: str) -> Melody:
    """Strict inverse of render_tokens. Reports the byte offset of the first
    syntax error and the value of the first out-of-range bin."""
    sc = _Scanner(s)
    sc.expect("|")
    triplets = []
    while not sc.eof():
        pitch_pos = sc.pos
        sc.expect("<")
        name = sc.until(">")
        try:
            pitch = parse_pitch(name)
        except ParseError as e:
            raise ParseError(str(e).rsplit(" (at offset", 1)[0], pitch_pos + 1 + e.position) from None
        sc.expect(">")
        bins = []
        for label in ("duration", "rest"):
            sc.expect(",")
            sc.expect("<")
            digits_pos = sc.pos
            digits = sc.until(">")
            if not digits.isdigit():
                raise ParseError(f"{label} bin must be an unsigned integer, found {digits!r}", digits_pos)
            value = int(digits)
            if value >= N_BINS:
                raise RangeError(f"{label} bin outside 0..{N_BINS - 1}", value)
            sc.expect(">")
            bins.append(value)
        sc.expect("|")
        triplets.append(MelodyTriplet(pitch, bins[0], bins[1]))
    return tuple(triplets)
