import inspect

import numpy as np
import pytest

from conftest import FRAMING, SIGNAL
from melodygen import corpus
from melodygen import signal as sig
from melodygen.config import SignalConfig
from melodygen.errors import FormatError, ValidationError
from melodygen.melody_codec import BIN_SECONDS, Melody, MelodyTriplet, bin_duration, parse_pitch


def sine(freq, seconds=1.0, sr=16000, amp=1.0):
    t = np.arange(int(seconds * sr)) / sr
    return sig.Waveform(amp * np.sin(2 * np.pi * freq * t), sample_rate=sr)


class TestMelSpectrogram:
    def test_440hz_argmax_is_nearest_center(self):
        m = sig.mel_spectrogram(sine(440.0), SIGNAL)
        _, centers = sig.mel_filterbank(64, 1024, 16000)
        expected_bin = int(np.argmin(np.abs(centers - 440.0)))
        argmax = np.argmax(m, axis=1)
        assert np.all(argmax == expected_bin)

    def test_all_zero_waveform_hits_floor(self):
        m = sig.mel_spectrogram(sig.Waveform(np.zeros(4000), 16000), SIGNAL)
        assert np.all(m == sig.DB_FLOOR)

    def test_doubling_amplitude_adds_6db(self):
        quiet = sig.mel_spectrogram(sine(440.0, amp=0.25), SIGNAL)
        loud = sig.mel_spectrogram(sine(440.0, amp=0.5), SIGNAL)
        above = quiet > sig.DB_FLOOR + 12.0  # stay clear of the clamp
        diff = loud[above] - quiet[above]
        assert np.allclose(diff, 20 * np.log10(2), atol=0.05)

    def test_too_short_input(self):
        with pytest.raises(ValidationError):
            sig.mel_spectrogram(sig.Waveform(np.zeros(100), 16000), SignalConfig(n_fft=1024))

    def test_bad_hop(self):
        with pytest.raises(ValidationError):
            sig.mel_spectrogram(sig.Waveform(np.zeros(4000), 16000), SignalConfig(hop=0))

    def test_other_sample_rate_rejected_naming_the_field(self):
        with pytest.raises(ValidationError, match="signal.sample_rate is 8000"):
            sig.mel_spectrogram(sine(440.0), SignalConfig(sample_rate=8000))

    def test_frame_count(self):
        m = sig.mel_spectrogram(sig.Waveform(np.zeros(1024 + 256 * 9), 16000), SIGNAL)
        assert m.shape == (10, SIGNAL.n_mels)

    def test_filterbank_rows_positive_and_triangular(self):
        fb, centers = sig.mel_filterbank(64, 1024, 16000)
        assert fb.shape == (64, 513)
        assert np.all(fb.sum(axis=1) > 0)
        assert np.all(fb >= 0)
        fft_freqs = np.linspace(0, 8000, 513)
        mel_pts = sig.mel_to_hz(np.linspace(sig.hz_to_mel(0.0), sig.hz_to_mel(8000.0), 66))
        for m_i in (0, 31, 63):
            outside = (fft_freqs < mel_pts[m_i]) | (fft_freqs > mel_pts[m_i + 2])
            assert np.all(fb[m_i][outside] == 0)


def reference_mel_spectrogram(w: sig.Waveform, n_mels: int, n_fft: int, hop: int) -> np.ndarray:
    """The analysis with frames gathered by a fancy index, one row per frame, and
    the power spectrum as |X / scale|^2 through complex temporaries."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    n_frames = 1 + (len(w.samples) - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = w.samples[idx] * window
    power = np.abs(np.fft.rfft(frames, axis=1) / (window.sum() / 2.0)) ** 2
    fb, _ = sig.mel_filterbank(n_mels, n_fft, w.sample_rate)
    return 10.0 * np.log10(np.maximum(power @ fb.T, 10.0 ** (sig.DB_FLOOR / 10.0)))


@pytest.mark.parametrize("n_samples, n_fft, hop", [
    (1024, 1024, 256),             # one frame
    (1024 + 256 * 9, 1024, 256),   # frames tile the clip exactly
    (1024 + 256 * 9 + 100, 1024, 256),  # (len - n_fft) % hop != 0
    (5000, 512, 300),
    (777, 64, 1),
    (4000, 256, 1000),             # hop longer than the window
])
def test_mel_spectrogram_matches_gather_reference(n_samples, n_fft, hop):
    w = sig.Waveform(np.random.default_rng(n_samples).standard_normal(n_samples), 16000)
    m = sig.mel_spectrogram(w, SignalConfig(n_mels=32, n_fft=n_fft, hop=hop))
    assert np.array_equal(m, reference_mel_spectrogram(w, 32, n_fft, hop))


def test_mel_spectrogram_of_corpus_clips_matches_reference():
    """Clips with exact-zero rests and a wide range of levels, as the corpus has."""
    for index in range(12):
        _, w = corpus.make_record(index, 7, SIGNAL.sample_rate, SIGNAL.clip_samples)
        m = sig.mel_spectrogram(w, SIGNAL)
        assert np.array_equal(m, reference_mel_spectrogram(w, SIGNAL.n_mels,
                                                           SIGNAL.n_fft, SIGNAL.hop))


class TestSynthesizeMelody:
    def test_a4_sine_duration_and_frequency(self):
        seq = (MelodyTriplet("A4", bin_duration(0.5), 0),)
        w = sig.synthesize_melody(seq, (1.0,), 16000)
        target = bin_duration(0.5) * BIN_SECONDS
        assert abs(len(w.samples) / 16000 - target) <= 1 / 16000 + 1e-9
        spec = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(len(w.samples), 1 / 16000)
        assert abs(freqs[np.argmax(spec)] - 440.0) <= freqs[1]

    def test_rest_bins_are_exact_zeros(self):
        seq = (MelodyTriplet("C4", 40, 40), MelodyTriplet("E4", 40, 0))
        w = sig.synthesize_melody(seq, (1.0,), 16000)
        start = round(40 * BIN_SECONDS * 16000)
        end = round(80 * BIN_SECONDS * 16000)
        assert np.all(w.samples[start:end] == 0.0)

    def test_tone_segments_hit_equal_temperament_freqs(self):
        seq = (MelodyTriplet("C4", 60, 0), MelodyTriplet("G4", 60, 0))
        sr = 16000
        w = sig.synthesize_melody(seq, (1.0,), sr)
        seg = round(60 * BIN_SECONDS * sr)
        for i, expected in enumerate((261.6256, 391.9954)):
            chunk = w.samples[i * seg:(i + 1) * seg]
            spec = np.abs(np.fft.rfft(chunk))
            freqs = np.fft.rfftfreq(len(chunk), 1 / sr)
            assert abs(freqs[np.argmax(spec)] - expected) <= freqs[1]

    def test_total_duration_is_bin_sum(self):
        seq = tuple(MelodyTriplet("C4", d, r) for d, r in [(17, 5), (33, 0), (90, 12)])
        w = sig.synthesize_melody(seq, (1.0,), 16000)
        expected = (17 + 5 + 33 + 0 + 90 + 12) * BIN_SECONDS
        assert abs(len(w.samples) - expected * 16000) <= 1

    def test_peak_normalized(self):
        seq = (MelodyTriplet("A4", 100, 0),)
        w = sig.synthesize_melody(seq, (0.01,), 16000)
        assert np.max(np.abs(w.samples)) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sig.synthesize_melody((), (1.0,), 16000)

    @pytest.mark.parametrize("timbre", corpus.TIMBRES)
    def test_corpus_melodies_are_bit_equal_to_per_note_rendering(self, timbre):
        weights = corpus.TIMBRE_WEIGHTS[timbre]
        records = [corpus.make_record(i, seed, SIGNAL.sample_rate, None)[0]
                   for seed in (3, 31, 2601) for i in range(16)]
        assert {r.archetype.pattern for r in records} == set(corpus.PATTERNS)
        for r in records:
            got = sig.synthesize_melody(r.melody, weights, SIGNAL.sample_rate).samples
            assert np.array_equal(got, per_note_synthesize(r.melody, weights, SIGNAL.sample_rate))

    @pytest.mark.parametrize("notes", [
        [("C4", 90, 0), ("C4", 20, 5), ("E4", 30, 0), ("C4", 45, 0)],  # longest first
        [("C4", 20, 0), ("C4", 45, 3), ("E4", 30, 2), ("C4", 90, 0)],  # longest last
        [("C4", 0, 4), ("E4", 30, 0), ("C4", 25, 0), ("G4", 0, 0), ("E4", 0, 3)],  # zero-length
        [("A4", 1, 0), ("A4", 60, 1), ("A4", 1, 2), ("B4", 1, 0)],  # shorter than two fades
        [("A4", 70, 6)],
        [("A4", 0, 6)],
    ])
    @pytest.mark.parametrize("sr", [8000, 16000, 22050])
    def test_edge_melodies_are_bit_equal_to_per_note_rendering(self, notes, sr):
        seq = tuple(MelodyTriplet(*n) for n in notes)
        weights = corpus.TIMBRE_WEIGHTS["bright"]
        got = sig.synthesize_melody(seq, weights, sr).samples
        assert np.array_equal(got, per_note_synthesize(seq, weights, sr))


def per_note_synthesize(seq: Melody, timbre, sr: int) -> np.ndarray:
    """synthesize_melody as it was before each pitch was rendered once: every
    note computes its own harmonic sum and fades it in place."""
    t, events = 0.0, []
    for trip in seq:
        t_on = t
        t += trip.duration_bin * BIN_SECONDS
        freq = sig.pitch_to_hz(parse_pitch(trip.pitch_token))
        events.append((round(t_on * sr), round(t * sr), freq))
        t += trip.rest_bin * BIN_SECONDS
    out = np.zeros(max(round(t * sr), 1))
    fade_n = int(0.010 * sr)
    for start, end, freq in events:
        n = end - start
        if n <= 0:
            continue
        tt = np.arange(n) / sr
        tone = np.zeros(n)
        for h, weight in enumerate(timbre, start=1):
            tone += weight * np.sin(2.0 * np.pi * h * freq * tt)
        k = min(fade_n, n // 2)
        if k > 0:
            ramp = np.arange(1, k + 1) / k
            tone[:k] *= ramp
            tone[-k:] *= ramp[::-1]
        out[start:end] = tone
    peak = np.max(np.abs(out))
    if peak > 0:
        out /= peak
    return out


class TestMelToWaveform:
    def test_single_active_bin_is_pure_tone(self):
        fb, centers = sig.mel_filterbank(64, 1024, 16000)
        values = np.full((40, 64), sig.DB_FLOOR)
        values[:, 20] = -6.0
        w = sig.mel_to_waveform(values, *FRAMING)
        spec = np.abs(np.fft.rfft(w.samples))
        freqs = np.fft.rfftfreq(len(w.samples), 1 / 16000)
        assert abs(freqs[np.argmax(spec)] - centers[20]) <= 2 * freqs[1]

    def test_all_floor_is_silence(self):
        w = sig.mel_to_waveform(np.full((16, 64), sig.DB_FLOOR), *FRAMING)
        assert np.all(w.samples == 0.0)

    def test_roundtrip_recovers_sparse_argmax(self):
        values = np.full((32, 64), sig.DB_FLOOR)
        values[:, 33] = -3.0
        w = sig.mel_to_waveform(values, *FRAMING)
        back = sig.mel_spectrogram(w, SIGNAL)
        assert np.all(np.argmax(back, axis=1) == 33)

    def test_output_length(self):
        w = sig.mel_to_waveform(np.full((10, 64), sig.DB_FLOOR), *FRAMING)
        assert len(w.samples) == 1024 + 256 * 9


class TestFilterbankCache:
    ARGS = (64, 1024, 16000)

    def test_cached_result_is_bit_equal_to_a_fresh_build(self):
        weights, centers = sig.mel_filterbank(*self.ARGS)
        fresh_w, fresh_c = sig.mel_filterbank.__wrapped__(*self.ARGS)
        assert weights is not fresh_w
        assert np.array_equal(weights, fresh_w) and np.array_equal(centers, fresh_c)

    def test_repeat_call_returns_the_cached_arrays(self):
        assert sig.mel_filterbank(*self.ARGS)[0] is sig.mel_filterbank(*self.ARGS)[0]

    def test_cached_arrays_are_read_only(self):
        weights, centers = sig.mel_filterbank(*self.ARGS)
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            centers[0] = 1.0

    def test_invalid_arguments_still_rejected(self):
        with pytest.raises(ValidationError):
            sig.mel_filterbank(0, 1024, 16000)


class TestOscillatorBankCache:
    ARGS = (64, 1024, 16000, 256, 128)  # n_mels, n_fft, sample_rate, hop, n_frames

    def test_cached_bank_is_bit_equal_to_a_fresh_build(self):
        sig.oscillator_bank.cache_clear()
        bank = sig.oscillator_bank(*self.ARGS)
        fresh = sig.oscillator_bank.__wrapped__(*self.ARGS)
        assert [t.shape for t in bank] == [(131, 64), (131, 64), (256, 64), (256, 64)]
        for cached, built in zip(bank, fresh, strict=True):
            assert cached is not built and np.array_equal(cached, built)

    def test_repeat_call_returns_the_cached_arrays(self):
        first, again = sig.oscillator_bank(*self.ARGS), sig.oscillator_bank(*self.ARGS)
        assert all(a is b for a, b in zip(first, again, strict=True))

    def test_cached_arrays_are_read_only(self):
        for table in sig.oscillator_bank(*self.ARGS):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    @pytest.mark.parametrize("other", [(64, 1024, 8000, 256, 128), (64, 1024, 16000, 200, 128),
                                       (64, 1024, 16000, 256, 16), (32, 1024, 16000, 256, 128)],
                             ids=["sample_rate", "hop", "n_frames", "n_mels"])
    def test_geometries_do_not_collide(self, other):
        bank, other_bank = sig.oscillator_bank(*self.ARGS), sig.oscillator_bank(*other)
        for args, tables in ((self.ARGS, bank), (other, other_bank)):
            for cached, built in zip(tables, sig.oscillator_bank.__wrapped__(*args), strict=True):
                assert np.array_equal(cached, built)
        assert any(a.shape != b.shape or not np.array_equal(a, b)
                   for a, b in zip(bank, other_bank, strict=True))

    @pytest.mark.parametrize("seed,frames,n_mels,n_fft,hop,sr", [
        (0, 128, 64, 1024, 256, 16000),
        (1, 7, 16, 512, 128, 8000),
        (3, 5, 8, 255, 100, 16000),
        (4, 1, 16, 256, 200, 16000),
    ])
    def test_column_subset_is_bit_equal_to_the_uncached_vocoder(self, seed, frames, n_mels,
                                                                n_fft, hop, sr):
        m = random_grid(seed, frames, n_mels, n_fft, hop, sr)
        active = np.sum(np.any(m[0] > sig.DB_FLOOR, axis=0))
        assert 0 < active < n_mels  # floor bins: the grid takes a column subset
        got = sig.mel_to_waveform(*m).samples
        assert got.tobytes() == uncached_mel_to_waveform(*m).tobytes()

    def test_grid_with_every_bin_active_is_bit_equal_to_the_uncached_vocoder(self):
        """Such a grid, as generate decodes, uses the cached tables uncopied."""
        values = np.random.default_rng(5).uniform(-60.0, 0.0, (16, 64))
        m = (values, 256, 1024, 16000)
        assert sig.mel_to_waveform(*m).samples.tobytes() == uncached_mel_to_waveform(*m).tobytes()

    def test_sweep_is_bit_equal_to_the_uncached_vocoder(self):
        for m in sweep_grids():
            assert sig.mel_to_waveform(*m).samples.tobytes() == uncached_mel_to_waveform(*m).tobytes()


def uncached_mel_to_waveform(values, hop, n_fft, sr) -> np.ndarray:
    """The vocoder before its oscillator bank was cached: the same angle-addition
    products, with the sines and cosines built per grid for its active bins
    alone."""
    n_frames, n_mels = values.shape
    _, centers = sig.mel_filterbank.__wrapped__(n_mels, n_fft, sr)
    n_out = n_fft + hop * (n_frames - 1)
    amps = np.where(values <= sig.DB_FLOOR + 1e-9, 0.0, 10.0 ** (values / 20.0))
    active = np.flatnonzero(np.any(amps > 0, axis=0))
    amps = amps[:, active]
    freqs = centers[active] / sr

    def oscillators(t):
        cycles = np.multiply.outer(t, freqs)
        angle = 2.0 * np.pi * (cycles - np.floor(cycles))
        return np.sin(angle), np.cos(angle)

    head = (n_fft + 1) // 2
    n_before, n_after = -(-head // hop), -(-(n_fft - head) // hop)
    level = np.concatenate([np.repeat(amps[:1], n_before, axis=0), amps[:-1],
                            np.repeat(amps[-1:], n_after, axis=0)])
    slope = np.zeros_like(level)
    slope[n_before:n_before + n_frames - 1] = np.diff(amps, axis=0) / hop
    starts = head + hop * np.arange(-n_before, n_frames - 1 + n_after, dtype=np.float64)
    seg_sin, seg_cos = oscillators(starts)
    off_sin, off_cos = oscillators(np.arange(hop, dtype=np.float64))
    within = np.hstack([off_cos, off_sin]).T
    offsets = np.arange(head, head + hop) - n_fft / 2.0
    base = np.hstack([level * seg_sin, level * seg_cos]) @ within
    ramp = np.hstack([slope * seg_sin, slope * seg_cos]) @ within
    first = n_before * hop - head
    out = (base + offsets * ramp).ravel()[first:first + n_out]
    peak = np.max(np.abs(out))
    return out / peak if peak > 1e-12 else np.zeros(n_out)


def reference_mel_to_waveform(values, hop, n_fft, sr) -> np.ndarray:
    """The vocoder as first written: np.interp and one sine per active bin
    per sample, sin(2 pi c_b t / sr)."""
    n_frames, n_mels = values.shape
    _, centers = sig.mel_filterbank.__wrapped__(n_mels, n_fft, sr)
    n_out = n_fft + hop * (n_frames - 1)
    amps = np.where(values <= sig.DB_FLOOR + 1e-9, 0.0, 10.0 ** (values / 20.0))
    out = np.zeros(n_out)
    frame_centers = hop * np.arange(n_frames) + n_fft / 2.0
    sample_t = np.arange(n_out)
    for b in range(n_mels):
        if not np.any(amps[:, b] > 0):
            continue
        amp_t = np.interp(sample_t, frame_centers, amps[:, b])
        out += amp_t * np.sin(2.0 * np.pi * centers[b] * sample_t / sr)
    peak = np.max(np.abs(out))
    if peak > 1e-12:
        out /= peak
    else:
        out = np.zeros(n_out)
    return out


# x86's 80-bit long double carries 11 more mantissa bits than float64; where
# long double is float64 the extended reference is no better than the others.
HAS_EXTENDED = np.finfo(np.longdouble).nmant >= 63


def extended_mel_to_waveform(values, hop, n_fft, sr) -> np.ndarray:
    """The vocoder's formula summed sample by sample in long double, phases
    and amplitudes alike: the yardstick for both float64 evaluations."""
    ld = np.longdouble
    n_frames, n_mels = values.shape
    _, centers = sig.mel_filterbank.__wrapped__(n_mels, n_fft, sr)
    amps = np.where(values <= sig.DB_FLOOR + 1e-9, 0.0, 10.0 ** (values / 20.0))
    t = np.arange(n_fft + hop * (n_frames - 1), dtype=ld)
    # linear between frame centers, constant before the first and after the last
    pos = np.clip((t - ld(n_fft) / 2) / hop, 0, n_frames - 1)
    j = np.minimum(pos.astype(int), max(n_frames - 2, 0))
    nxt, frac = np.minimum(j + 1, n_frames - 1), pos - j
    two_pi = 8 * np.arctan(ld(1))
    out = np.zeros(len(t), dtype=ld)
    for b in np.flatnonzero(np.any(amps > 0, axis=0)):
        a = amps[:, b].astype(ld)
        cycles = ld(centers[b]) * t / sr
        out += (a[j] + (a[nxt] - a[j]) * frac) * np.sin(two_pi * (cycles - np.floor(cycles)))
    peak = np.max(np.abs(out))
    return (out / peak).astype(np.float64) if peak > 1e-12 else np.zeros(len(t))


def random_values(rng, frames, n_mels):
    """Uniform dB values with a third of the bins and a fifth of the cells at the floor."""
    values = rng.uniform(sig.DB_FLOOR, 0.0, (frames, n_mels))
    values[:, rng.choice(n_mels, n_mels // 3, replace=False)] = sig.DB_FLOOR
    values[rng.random(values.shape) < 0.2] = sig.DB_FLOOR
    return values


def random_grid(seed, frames, n_mels, n_fft, hop, sr):
    """(values, hop, n_fft, sr): a random grid and its framing, as
    ``mel_to_waveform`` takes them."""
    return random_values(np.random.default_rng(seed), frames, n_mels), hop, n_fft, sr


def sweep_grids(count=50, seed=16):
    """Random (values, hop, n_fft, sr) grids; of each five, one has an odd n_fft, one hop > n_fft, one
    a single frame, one a single active bin and one only floor values."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        frames, n_mels = int(rng.integers(2, 24)), int(rng.integers(1, 49))
        n_fft, hop = 2 * int(rng.integers(8, 350)), int(rng.integers(1, 300))
        sr = int(rng.choice([8000, 16000, 22050]))
        if k % 5 == 0:
            n_fft += 1
        elif k % 5 == 1:
            hop = n_fft + int(rng.integers(1, 200))
        elif k % 5 == 2:
            frames = 1
        values = random_values(rng, frames, n_mels)
        if k % 5 >= 3:
            values[:] = sig.DB_FLOOR
        if k % 5 == 3:
            values[:, rng.integers(n_mels)] = rng.uniform(-60.0, 0.0, frames)
        yield values, hop, n_fft, sr


def assert_matches_references(m, tmp_path):
    """Within 1e-10 of the formula as first written, within 1e-11 of the
    long-double sum, and the same WAV bytes as the former, for the grid
    ``m = (values, hop, n_fft, sr)``."""
    got = sig.mel_to_waveform(*m).samples
    old = reference_mel_to_waveform(*m)
    assert got.shape == old.shape
    assert np.max(np.abs(got - old)) <= 1e-10
    if HAS_EXTENDED:
        assert np.max(np.abs(got - extended_mel_to_waveform(*m))) <= 1e-11
    sig.write_wav(tmp_path / "got.wav", sig.Waveform(got, m[3]))
    sig.write_wav(tmp_path / "old.wav", sig.Waveform(old, m[3]))
    assert (tmp_path / "got.wav").read_bytes() == (tmp_path / "old.wav").read_bytes()


class TestMelToWaveformMatchesReference:
    """Angle addition rounds differently from one sine per sample, so the
    float samples are held to a tolerance and the WAV bytes to equality."""

    @pytest.mark.parametrize("seed,frames,n_mels,n_fft,hop,sr", [
        (0, 128, 64, 1024, 256, 16000),
        (1, 7, 16, 512, 128, 8000),
        (2, 1, 32, 256, 64, 16000),
        (3, 5, 8, 255, 100, 16000),  # odd n_fft: frame centers fall between samples
        (4, 1, 16, 256, 200, 16000),  # one frame, hop longer than the half window
    ])
    def test_random_grid_with_floor_bins(self, seed, frames, n_mels, n_fft, hop, sr, tmp_path):
        assert_matches_references(random_grid(seed, frames, n_mels, n_fft, hop, sr), tmp_path)

    def test_all_floor_grid(self, tmp_path):
        m = (np.full((12, 64), sig.DB_FLOOR), *FRAMING)
        assert_matches_references(m, tmp_path)
        assert np.all(sig.mel_to_waveform(*m).samples == 0.0)

    def test_random_shapes(self, tmp_path):
        for m in sweep_grids():
            assert_matches_references(m, tmp_path)

    def test_sweep_covers_the_edge_shapes(self):
        grids = list(sweep_grids())
        active = [int(np.sum(np.any(values > sig.DB_FLOOR, axis=0))) for values, *_ in grids]
        assert any(n_fft % 2 for _, _, n_fft, _ in grids)
        assert any(hop > n_fft for _, hop, n_fft, _ in grids)
        assert any(len(values) == 1 for values, *_ in grids)
        assert 1 in active and 0 in active


class TestWav:
    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(3)
        w = sig.Waveform(rng.uniform(-1, 1, 1000), 16000)
        path = tmp_path / "x.wav"
        sig.write_wav(path, w)
        back = sig.read_wav(path)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - w.samples)) <= 1 / 32767

    def test_bytes_decode_as_the_file_does(self, tmp_path):
        path = tmp_path / "x.wav"
        sig.write_wav(path, sig.Waveform(np.random.default_rng(4).uniform(-1, 1, 300), 8000))
        from_bytes, from_path = sig.read_wav(path.read_bytes()), sig.read_wav(path)
        assert from_bytes.sample_rate == from_path.sample_rate == 8000
        assert np.array_equal(from_bytes.samples, from_path.samples)

    def test_golden_bytes(self, tmp_path):
        # 3 samples [0, 0.5, -0.5] at 16 kHz: canonical 44-byte header + 6 bytes.
        # Constructed independently here per the RIFF/PCM layout and frozen.
        import struct
        golden = (
            b"RIFF" + struct.pack("<I", 36 + 6) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
            + b"data" + struct.pack("<I", 6)
            + struct.pack("<hhh", 0, 16384, -16384)
        )
        assert len(golden) == 50
        path = tmp_path / "g.wav"
        sig.write_wav(path, sig.Waveform(np.array([0.0, 0.5, -0.5]), 16000))
        assert path.read_bytes() == golden

    def test_truncated_file_reports_header_error(self, tmp_path):
        path = tmp_path / "t.wav"
        sig.write_wav(path, sig.Waveform(np.zeros(100), 16000))
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(FormatError):
            sig.read_wav(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError) as e:
            sig.read_wav(path)
        assert e.value.offset == 0

    def test_unsupported_encoding_reports_chunk(self, tmp_path):
        import struct
        body = (b"RIFF" + struct.pack("<I", 36) + b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
                + b"data" + struct.pack("<I", 0))
        path = tmp_path / "f32.wav"
        path.write_bytes(body)
        with pytest.raises(FormatError) as e:
            sig.read_wav(path)
        assert "fmt" in str(e.value) and "3" in str(e.value)

    def test_failed_write_keeps_previous_file(self, tmp_path, disk_full):
        path = tmp_path / "w.wav"
        path.write_bytes(b"previous take")
        with pytest.raises(OSError):
            sig.write_wav(path, sig.Waveform(np.zeros(100), 16000))
        assert path.read_bytes() == b"previous take"
        assert [p.name for p in tmp_path.iterdir()] == ["w.wav"]

    def test_clipping_on_write(self, tmp_path):
        path = tmp_path / "c.wav"
        sig.write_wav(path, sig.Waveform(np.array([2.0, -2.0]), 16000))
        back = sig.read_wav(path)
        assert np.allclose(back.samples, [1.0, -1.0])


SIGNAL_PARAMETERS = {"sample_rate", "sr", "n_fft", "hop", "frame_hop", "n_mels"}


def test_signal_parameters_have_no_default_outside_signal_config():
    """``config.SignalConfig`` is the one home of the signal parameters: no
    public function or dataclass of ``melodygen.signal``, and no parameter of
    ``corpus.make_record``, restates one as a default."""
    public = {name: obj for name, obj in vars(sig).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == sig.__name__}
    assert {"Waveform", "mel_filterbank", "mel_spectrogram", "mel_to_waveform",
            "synthesize_melody"} <= public.keys()
    public["corpus.make_record"] = corpus.make_record
    defaulted = [f"{name}({p.name}={p.default!r})" for name, obj in public.items()
                 for p in inspect.signature(obj).parameters.values()
                 if p.name in SIGNAL_PARAMETERS and p.default is not p.empty]
    assert defaulted == []
    generate_rate = inspect.signature(corpus.generate_corpus).parameters["sample_rate"]
    assert generate_rate.default == SignalConfig().sample_rate
