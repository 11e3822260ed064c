"""Mel-spectrogram analysis, deterministic tone synthesis, and WAV I/O.

Analysis: Hann-windowed magnitude STFT, scaled so a full-scale sine peaks
near 0 dB, then an HTK-scale triangular mel filterbank spanning 0 Hz to
Nyquist, and power-dB with a floor at -80 dB (the package-wide "silence"
value).

A mel grid is a plain (T, F) float64 array of dB values (frames x mel
bins, floored at -80). The signal parameters have no defaults here: the
analysis takes its ``config.SignalConfig``, waveforms carry their sample
rate, and the vocoder takes a grid's framing as arguments.

Synthesis is additive in both directions and uses no randomness. Melody
triplets drive harmonic stacks at equal-temperament frequencies. Mel grids
are resynthesized by an oscillator bank at the filterbank center
frequencies, evaluated one interpolation segment (one hop) at a time: by
the angle-addition identity each segment's sines are the segment-start
phases times the within-segment phases, so the bank is two small matrix
products rather than one sine per bin per sample. Its float samples match
the direct per-sample sum to ~1e-11 (rounding only, see
``mel_to_waveform``); the WAV bytes it writes are identical, and they are
what the tests pin.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import smallnet
from .config import SignalConfig
from .errors import FormatError, ValidationError
from .melody_codec import BIN_SECONDS, Melody

DB_FLOOR = -80.0
_POWER_FLOOR = 10.0 ** (DB_FLOOR / 10.0)

_FADE_SECONDS = 0.010


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValidationError("waveform samples must be 1-D")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValidationError(f"sample_rate must be > 0, got {self.sample_rate}")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int):
    """Triangular filters on the HTK mel scale, spanning 0 Hz to sample_rate / 2.

    Returns (weights, centers_hz): weights is (n_mels, n_fft//2 + 1) with each
    triangle peaking at 1.0 and zero outside its support. Results are cached
    per argument tuple and shared between callers, so both arrays are
    read-only.
    """
    if n_mels < 1:
        raise ValidationError("n_mels must be >= 1")
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    fft_freqs = np.linspace(0.0, sample_rate / 2.0, n_fft // 2 + 1)
    weights = np.zeros((n_mels, len(fft_freqs)))
    for m in range(n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        weights[m] = np.clip(np.minimum(up, down), 0.0, None)
    centers = hz_pts[1:-1]
    weights.setflags(write=False)
    centers.setflags(write=False)
    return weights, centers


def _hann(n: int) -> np.ndarray:
    # periodic Hann
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_spectrogram(w: Waveform, signal: SignalConfig) -> np.ndarray:
    """The (T, F) mel grid (dB) of ``w`` under ``signal``, whose sample rate
    ``w`` must have."""
    n_fft, hop = signal.n_fft, signal.hop
    if w.sample_rate != signal.sample_rate:
        raise ValidationError(f"waveform is sampled at {w.sample_rate} Hz, but "
                              f"signal.sample_rate is {signal.sample_rate}")
    if hop <= 0:
        raise ValidationError(f"hop must be > 0, got {hop}")
    if len(w.samples) < n_fft:
        raise ValidationError(
            f"waveform has {len(w.samples)} samples, need at least n_fft={n_fft}"
        )
    window = _hann(n_fft)
    scale = window.sum() / 2.0  # full-scale sine -> magnitude ~1 -> ~0 dB
    # frame t is samples[t * hop : t * hop + n_fft], a strided view, not a gather
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, n_fft)[::hop] * window
    spectrum = np.fft.rfft(frames, axis=1)
    # |X / scale|^2 without complex temporaries: dividing a complex by a real
    # multiplies both parts by 1 / scale, and x ** 2 is x * x, bit for bit
    spectrum.view(np.float64)[...] *= 1.0 / scale
    power = np.abs(spectrum)
    power *= power
    fb, _ = mel_filterbank(signal.n_mels, n_fft, w.sample_rate)
    mel_power = power @ fb.T
    return 10.0 * np.log10(np.maximum(mel_power, _POWER_FLOOR))


def pitch_to_hz(p: int) -> float:
    """Equal temperament, A4 = 440 Hz at MIDI 69."""
    return 440.0 * 2.0 ** ((p - 69) / 12.0)


def synthesize_melody(seq: Melody, timbre: list[float] | tuple[float, ...],
                      sr: int) -> Waveform:
    """Render a triplet sequence as an additive-harmonic tone sequence.

    Each triplet produces duration_bin * (6.3/512) seconds of tone (harmonic
    weights from ``timbre``, 10 ms linear fades) followed by rest_bin bins of
    exact silence. Segment boundaries are placed on the cumulative-time grid,
    so total length is the rounded total duration. The result is
    peak-normalized once at the end (rests stay exactly zero).

    Each distinct pitch's harmonic sum is rendered once, at the length of
    that pitch's longest note, and every note of the pitch copies the prefix
    it needs before its fades are applied to the copy. This is exact: the
    time axis, the phase ``2 pi h f t`` and ``np.sin`` are all elementwise,
    so a shorter note's tone is bit for bit a prefix of the longest one.
    """
    if len(seq) == 0:
        raise ValidationError("cannot synthesize an empty melody")
    timbre = np.asarray(timbre, dtype=np.float64)
    if timbre.ndim != 1 or timbre.size == 0:
        raise ValidationError("timbre must be a non-empty list of harmonic weights")

    events = []  # (start_sample, end_sample, freq) for tones
    t = 0.0
    for trip in seq:
        t_on = t
        t += trip.duration_bin * BIN_SECONDS
        events.append((round(t_on * sr), round(t * sr), pitch_to_hz(trip.pitch)))
        t += trip.rest_bin * BIN_SECONDS
    total = round(t * sr)
    out = np.zeros(max(total, 1))
    longest = {}
    for start, end, freq in events:
        longest[freq] = max(longest.get(freq, 0), end - start)
    tones = {}
    for freq, n in longest.items():
        tt = np.arange(n) / sr
        tones[freq] = tone = np.zeros(n)
        for h, weight in enumerate(timbre, start=1):
            tone += weight * np.sin(2.0 * np.pi * h * freq * tt)
    fade_n = int(_FADE_SECONDS * sr)
    for start, end, freq in events:
        n = end - start
        if n <= 0:
            continue
        # the shared tone is read by later notes of its pitch: fade the copy
        note = out[start:end]
        note[:] = tones[freq][:n]
        k = min(fade_n, n // 2)
        if k > 0:
            ramp = np.arange(1, k + 1) / k
            note[:k] *= ramp
            note[-k:] *= ramp[::-1]
    peak = np.max(np.abs(out))
    if peak > 0:
        out /= peak
    return Waveform(out, sample_rate=sr)


def _segments(n_fft: int, hop: int) -> tuple[int, int, int]:
    """Samples before the first frame center; whole segments before it and from the last on."""
    head = (n_fft + 1) // 2
    return head, -(-head // hop), -(-(n_fft - head) // hop)


@functools.lru_cache(maxsize=16)
def oscillator_bank(n_mels: int, n_fft: int, sample_rate: int, hop: int, n_frames: int):
    """(seg_sin, seg_cos, off_sin, off_cos): the sin and cos of each bin's
    phase at ``mel_to_waveform``'s segment starts on grids of ``n_frames``
    frames, (segments, n_mels), and at the offsets in a segment, (hop, n_mels).
    Each column depends on its bin alone. Cached and shared like
    ``mel_filterbank``'s results, so all four arrays are read-only."""
    _, centers = mel_filterbank(n_mels, n_fft, sample_rate)
    head, n_before, n_after = _segments(n_fft, hop)
    starts = head + hop * np.arange(-n_before, n_frames - 1 + n_after, dtype=np.float64)
    t = np.concatenate([starts, np.arange(hop, dtype=np.float64)])
    cycles = np.multiply.outer(t, centers / sample_rate)  # centers in cycles per sample
    angle = 2.0 * np.pi * (cycles - np.floor(cycles))  # reduced modulo one cycle
    sin, cos = np.sin(angle), np.cos(angle)
    tables = sin[:len(starts)], cos[:len(starts)], sin[len(starts):], cos[len(starts):]
    for table in tables:
        table.setflags(write=False)
    return tables


def mel_to_waveform(values: np.ndarray, frame_hop: int, n_fft: int,
                    sample_rate: int) -> Waveform:
    """Oscillator-bank resynthesis of the (T, F) mel grid ``values`` (dB),
    whose frames start ``frame_hop`` samples apart and span ``n_fft`` samples
    at ``sample_rate``: one sinusoid per mel bin at its center frequency,
    amplitude 10^(dB/20) interpolated linearly between frame centers. Bins
    at the -80 dB floor are treated as silent. Peak-normalized; an all-floor
    grid comes back as exact silence.

    The bank is evaluated one interpolation segment of hop samples at a
    time. Sample t = T_j + o (0 <= o < hop) of bin b has phase 2*pi*f_b*t,
    with f_b = center_b / sr cycles per sample, and by angle addition

        sin(2*pi*f_b*t) = sin(2*pi*f_b*T_j) cos(2*pi*f_b*o)
                          + cos(2*pi*f_b*T_j) sin(2*pi*f_b*o).

    The amplitude is affine in o within a segment, so all samples come from
    two (segments, 2B) x (2B, hop) matrix products over the B active bins.
    Their sines and cosines depend only on the grid's geometry:
    ``oscillator_bank`` builds them once per geometry for every bin, and a
    grid takes its active bins' columns, bit-equal to building them alone.

    Tolerance: the samples are not bit-equal to the direct sum of
    sin(2*pi*c_b*t / sr), which rounds its argument differently. After peak
    normalization they differ from it by about 1e-11 at most on grids of
    the pipeline's size (tests check 1e-10), and lie closer than it does to
    an extended-precision evaluation. That is far below half a PCM16 step, so
    the WAV bytes are unchanged, and they are what the tests pin.
    """
    n_frames, n_mels = values.shape
    n_out = n_fft + frame_hop * (n_frames - 1)
    amps = np.where(values <= DB_FLOOR + 1e-9, 0.0, 10.0 ** (values / 20.0))
    active = np.flatnonzero(np.any(amps > 0, axis=0))
    bank = oscillator_bank(n_mels, n_fft, sample_rate, frame_hop, n_frames)
    # generate's decoded grids have had every bin active and use the tables
    # uncopied. take keeps C order; a fancy-indexed column subset would be in
    # Fortran order, and the products below would round differently.
    if len(active) < n_mels:
        amps, bank = amps[:, active], [table.take(active, axis=1) for table in bank]
    seg_sin, seg_cos, off_sin, off_cos = bank

    # Amplitudes follow np.interp between frame centers: amps[j] + slope_j *
    # (t - center_j) in segment j, which starts at the first sample on or after
    # center_j, and constant before the first center and from the last on.
    # Those constant stretches are covered by whole segments of slope 0, so
    # every sample comes from the same two products.
    head, n_before, n_after = _segments(n_fft, frame_hop)
    level = np.concatenate([np.repeat(amps[:1], n_before, axis=0), amps[:-1],
                            np.repeat(amps[-1:], n_after, axis=0)])
    slope = np.zeros_like(level)
    slope[n_before:n_before + n_frames - 1] = np.diff(amps, axis=0) / frame_hop
    within = np.hstack([off_cos, off_sin]).T  # (2B, frame_hop)
    offsets = np.arange(head, head + frame_hop) - n_fft / 2.0  # t - center_j in every segment
    base = np.hstack([level * seg_sin, level * seg_cos]) @ within
    ramp = np.hstack([slope * seg_sin, slope * seg_cos]) @ within
    first = n_before * frame_hop - head  # the row-major position of sample 0
    out = (base + offsets * ramp).ravel()[first:first + n_out]

    peak = np.max(np.abs(out))
    if peak > 1e-12:
        out /= peak
    else:
        out = np.zeros(n_out)
    return Waveform(out, sample_rate=sample_rate)


# --- WAV I/O (PCM16 mono little-endian) ----------------------------------

_PCM16_MAX = 32767


def write_wav(path, w: Waveform) -> None:
    """16-bit mono PCM, clipped to [-1, 1] and written atomically."""
    data = np.clip(w.samples, -1.0, 1.0)
    pcm = np.round(data * _PCM16_MAX).astype("<i2")
    payload = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        w.sample_rate,
        w.sample_rate * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    smallnet.write_atomic(path, [header, payload])


def read_wav(source) -> Waveform:
    """Decode a WAV file, given its path or its bytes."""
    if isinstance(source, bytes):
        raw = source
    else:
        with open(source, "rb") as f:
            raw = f.read()
    if len(raw) < 12:
        raise FormatError("file too short for a RIFF header", len(raw))
    if raw[0:4] != b"RIFF":
        raise FormatError(f"bad magic {raw[0:4]!r}, expected b'RIFF'", 0)
    if raw[8:12] != b"WAVE":
        raise FormatError(f"bad RIFF form {raw[8:12]!r}, expected b'WAVE'", 8)

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise FormatError(
                f"chunk {chunk_id.decode('ascii', 'replace')!r} truncated "
                f"(wants {size} bytes, has {len(body)})",
                pos,
            )
        if chunk_id == b"fmt ":
            if size < 16:
                raise FormatError("'fmt ' chunk shorter than 16 bytes", pos)
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = (body, pos)
        pos += 8 + size + (size % 2)  # chunks are word-aligned

    if fmt is None:
        raise FormatError("missing 'fmt ' chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise FormatError(f"unsupported encoding {audio_format} in 'fmt ' chunk (PCM only)")
    if channels != 1:
        raise FormatError(f"unsupported channel count {channels} in 'fmt ' chunk (mono only)")
    if bits != 16:
        raise FormatError(f"unsupported bit depth {bits} in 'fmt ' chunk (16-bit only)")
    if data is None:
        raise FormatError("missing 'data' chunk")
    body, dpos = data
    if len(body) % 2 != 0:
        raise FormatError("'data' chunk has an odd byte count", dpos)
    samples = np.frombuffer(body, dtype="<i2").astype(np.float64) / _PCM16_MAX
    return Waveform(samples, sample_rate=sample_rate)
