"""Procedural corpus of aligned (text, melody, waveform) triples.

Every record realizes an archetype — pattern x register x tempo x timbre —
as a short melody, renders it to audio with the matching harmonic preset,
and captions it from templates that name all four archetype fields plus the
starting note. That makes the archetype (and the approximate pitch content)
recoverable from each modality on its own, which is what gives the
alignment and retrieval tests something real to measure.

Layout on disk: a JSON Lines manifest plus one 16-bit mono WAV per record
under ``wav/``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import smallnet
from .clmp import tokenize
from .config import SignalConfig
from .errors import MelodyGenError, ValidationError
from .melody_codec import (
    Melody,
    MelodyTriplet,
    bin_duration,
    parse_tokens,
    pitch_name,
    render_tokens,
)
from .signal import Waveform, read_wav, synthesize_melody, write_wav

PATTERNS = ("scale_run", "arpeggio", "drone", "alternating")
REGISTERS = ("low", "mid", "high")
TEMPOS = ("slow", "fast")
TIMBRES = ("pure", "bright", "mellow")

# harmonic stacks kept well below the fundamental so timbre reads as a level
# offset on harmonic bins rather than extra melody pitches
TIMBRE_WEIGHTS = {
    "pure": (1.0,),
    "bright": (1.0, 0.28, 0.14, 0.07),
    "mellow": (1.0, 0.11),
}
# start pitches are drawn as a register's lowest start pitch plus one of
# these scale-degree offsets
BASE_OFFSETS = (0, 2, 4, 5, 7, 9)
# register band (lo, hi): the lowest and highest start pitch of a melody in
# that register (low 58-67, mid 72-81, high 86-95). Start bands are disjoint
# across registers, but a pattern climbs up to an octave above its start, so
# whole-melody ranges reach hi + 12 and overlap (low 58-79, mid 72-93,
# high 86-107)
REGISTER_BASE = {
    register: (lo, lo + max(BASE_OFFSETS))
    for register, lo in (("low", 58), ("mid", 72), ("high", 86))
}
# slow is legato (no gaps); fast is staccato (short notes with rests), so
# tempo also imprints on the duty cycle of every active bin
TEMPO_NOTE_SECONDS = {"slow": 0.55, "fast": 0.18}
TEMPO_REST_SECONDS = {"slow": 0.0, "fast": 0.08}

# per-record mix level: realistic loudness nuisance that audio carries but
# text and melody never mention (what cross-modal alignment must discard)
GAIN_RANGE = (0.03, 1.0)

# ascending interval steps, relative to the base pitch, cycled as needed
_PATTERN_STEPS = {
    "scale_run": (0, 2, 4, 5, 7, 9, 11, 12),
    "arpeggio": (0, 4, 7, 12),
    "drone": (0,),
    "alternating": (0, 7),
}

_TEXT_TEMPLATES = (
    "A {tempo} {pattern} in a {register} register with a {timbre} timbre, starting on {note}.",
    "{tempo} {pattern} around {note}, {register} register, {timbre} timbre.",
    "This is a {timbre}-timbre {pattern} at a {tempo} pace in the {register} register, from {note}.",
)
_PATTERN_PHRASE = {
    "scale_run": "scale run",
    "arpeggio": "arpeggio",
    "drone": "drone",
    "alternating": "alternating figure",
}


@dataclass(frozen=True)
class Archetype:
    pattern: str
    register: str
    tempo: str
    timbre: str

    def __post_init__(self):
        for value, allowed, name in (
            (self.pattern, PATTERNS, "pattern"),
            (self.register, REGISTERS, "register"),
            (self.tempo, TEMPOS, "tempo"),
            (self.timbre, TIMBRES, "timbre"),
        ):
            if value not in allowed:
                raise ValidationError(f"unknown {name} {value!r}")

    @property
    def label(self) -> str:
        return f"{self.pattern}|{self.register}|{self.tempo}|{self.timbre}"

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern,
            "register": self.register,
            "tempo": self.tempo,
            "timbre": self.timbre,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Archetype":
        return cls(d["pattern"], d["register"], d["tempo"], d["timbre"])


@dataclass
class CorpusRecord:
    id: str
    text: str
    melody: Melody
    wav_path: str  # relative to the manifest directory
    archetype: Archetype
    wav_sha256: str | None = None  # of the WAV file's bytes, set by load_corpus


@dataclass
class RecordError:
    record_id: str
    message: str


@dataclass
class CorpusLoadResult:
    records: list[CorpusRecord] = field(default_factory=list)
    errors: list[RecordError] = field(default_factory=list)


def _melody_for(archetype: Archetype, rng: np.random.Generator) -> Melody:
    lo, _ = REGISTER_BASE[archetype.register]
    base = lo + BASE_OFFSETS[int(rng.integers(0, len(BASE_OFFSETS)))]
    steps = _PATTERN_STEPS[archetype.pattern]
    n_notes = int(rng.integers(8, 13))
    note_s = TEMPO_NOTE_SECONDS[archetype.tempo]
    rest_s = TEMPO_REST_SECONDS[archetype.tempo]
    triplets = []
    for i in range(n_notes):
        pitch = min(base + steps[i % len(steps)], 127)
        dur = note_s * float(rng.uniform(0.9, 1.1))
        triplets.append(MelodyTriplet(pitch, bin_duration(dur), bin_duration(rest_s)))
    return tuple(triplets)


def _text_for(archetype: Archetype, melody: Melody, rng: np.random.Generator) -> str:
    template = _TEXT_TEMPLATES[int(rng.integers(0, len(_TEXT_TEMPLATES)))]
    return template.format(
        tempo=archetype.tempo,
        pattern=_PATTERN_PHRASE[archetype.pattern],
        register=archetype.register,
        timbre=archetype.timbre,
        note=pitch_name(melody[0].pitch),
    )


def _fit_length(w: Waveform, n_samples: int) -> Waveform:
    s = w.samples
    if len(s) >= n_samples:
        s = s[:n_samples]
    else:
        s = np.concatenate([s, np.zeros(n_samples - len(s))])
    return Waveform(s, sample_rate=w.sample_rate)


def make_record(index: int, seed: int, sample_rate: int,
                clip_samples: int | None) -> tuple[CorpusRecord, Waveform]:
    """Deterministically build record ``index`` of the corpus for ``seed``; its
    waveform is cut or zero-padded to ``clip_samples`` unless that is None."""
    rng = smallnet.spawn_rng(seed, 909, index)
    archetype = Archetype(
        pattern=PATTERNS[int(rng.integers(0, len(PATTERNS)))],
        register=REGISTERS[int(rng.integers(0, len(REGISTERS)))],
        tempo=TEMPOS[int(rng.integers(0, len(TEMPOS)))],
        timbre=TIMBRES[int(rng.integers(0, len(TIMBRES)))],
    )
    melody = _melody_for(archetype, rng)
    text = _text_for(archetype, melody, rng)
    wave = synthesize_melody(melody, TIMBRE_WEIGHTS[archetype.timbre], sr=sample_rate)
    gain = float(rng.uniform(*GAIN_RANGE))
    wave = Waveform(wave.samples * gain, sample_rate=wave.sample_rate)
    if clip_samples is not None:
        wave = _fit_length(wave, clip_samples)
    record = CorpusRecord(
        id=f"rec{index:05d}",
        text=text,
        melody=melody,
        wav_path=f"wav/rec{index:05d}.wav",
        archetype=archetype,
    )
    return record, wave


def generate_corpus(n: int, seed: int, out_dir,
                    sample_rate: int = SignalConfig.sample_rate,
                    clip_samples: int | None = None) -> list[CorpusRecord]:
    """Write n records (manifest.jsonl + wav files) under out_dir."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    out = Path(out_dir)
    (out / "wav").mkdir(parents=True, exist_ok=True)
    records, lines = [], []
    for i in range(n):
        record, wave = make_record(i, seed, sample_rate, clip_samples)
        write_wav(out / record.wav_path, wave)
        lines.append(json.dumps({
            "id": record.id,
            "text": record.text,
            "melody": render_tokens(record.melody),
            "wav": record.wav_path,
            "archetype": record.archetype.to_dict(),
        }, sort_keys=True) + "\n")
        records.append(record)
    smallnet.write_atomic(out / "manifest.jsonl", ["".join(lines).encode("utf-8")])
    return records


# the type of each manifest field; a record that breaks one is named by line
_FIELD_TYPES = {"id": str, "text": str, "melody": str, "wav": str, "archetype": dict}


def load_corpus(manifest_path) -> CorpusLoadResult:
    """Read and validate a manifest; bad records are reported, good ones kept.

    Each kept record carries the SHA-256 of its WAV file. A record whose id an
    earlier line already holds is reported, naming both lines.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ValidationError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    result = CorpusLoadResult()
    id_lines: dict[str, int] = {}  # the line that first holds each id
    with open(manifest_path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            record_id = f"line {line_no}"
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValidationError(f"record is a JSON {type(doc).__name__}, "
                                          "not an object")
                for key, kind in _FIELD_TYPES.items():
                    if not isinstance(doc[key], kind):
                        raise ValidationError(f"field {key!r} must be a {kind.__name__}, "
                                              f"got {doc[key]!r}")
                first = id_lines.setdefault(doc["id"], line_no)
                if first != line_no:
                    raise ValidationError(f"id {doc['id']!r} is already held by line {first}")
                record_id = doc["id"]
                archetype = Archetype.from_dict(doc["archetype"])
                if not tokenize(doc["text"]):
                    raise ValidationError(f"field 'text' has no tokens: {doc['text']!r}")
                record = CorpusRecord(
                    id=doc["id"],
                    text=doc["text"],
                    melody=parse_tokens(doc["melody"]),
                    wav_path=doc["wav"],
                    archetype=archetype,
                )
                if not record.melody:
                    raise ValidationError("field 'melody' has no notes")
                wav_file = base / record.wav_path
                if not wav_file.is_file():
                    raise ValidationError(f"no wav file at {record.wav_path}")
                raw = wav_file.read_bytes()
                read_wav(raw)
                record.wav_sha256 = hashlib.sha256(raw).hexdigest()
            except (MelodyGenError, KeyError, json.JSONDecodeError) as e:
                msg = f"missing field {e}" if isinstance(e, KeyError) else str(e)
                result.errors.append(RecordError(record_id=str(record_id), message=msg))
                continue
            result.records.append(record)
    return result
