import hashlib
import json
import struct

import numpy as np
import pytest

from melodygen import corpus, signal
from melodygen.config import SignalConfig
from melodygen.errors import FormatError, ValidationError
from melodygen.melody_codec import pitch_name


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        corpus.generate_corpus(12, seed=5, out_dir=a)
        corpus.generate_corpus(12, seed=5, out_dir=b)
        assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
        for wav in sorted((a / "wav").iterdir()):
            assert wav.read_bytes() == (b / "wav" / wav.name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        corpus.generate_corpus(6, seed=1, out_dir=a)
        corpus.generate_corpus(6, seed=2, out_dir=b)
        assert (a / "manifest.jsonl").read_bytes() != (b / "manifest.jsonl").read_bytes()

    def test_melody_tokens_roundtrip(self, tmp_path):
        records = corpus.generate_corpus(20, seed=7, out_dir=tmp_path)
        assert all(len(r.melody) >= 1 for r in records)
        loaded = corpus.load_corpus(tmp_path / "manifest.jsonl").records
        assert [r.melody for r in loaded] == [r.melody for r in records]

    def test_text_names_all_archetype_fields(self, tmp_path):
        records = corpus.generate_corpus(40, seed=8, out_dir=tmp_path)
        phrase = {"scale_run": "scale run", "arpeggio": "arpeggio",
                  "drone": "drone", "alternating": "alternating"}
        for r in records:
            lower = r.text.lower()
            assert r.archetype.tempo in lower
            assert r.archetype.register in lower
            assert r.archetype.timbre in lower
            assert phrase[r.archetype.pattern] in lower

    def test_text_names_start_note(self, tmp_path):
        records = corpus.generate_corpus(20, seed=9, out_dir=tmp_path)
        for r in records:
            assert pitch_name(r.melody[0].pitch).lower() in r.text.lower()

    def test_register_orders_mean_active_mel_bin(self, tmp_path):
        records = corpus.generate_corpus(60, seed=10, out_dir=tmp_path)
        by_register = {"low": [], "high": []}
        for r in records:
            if r.archetype.register not in by_register:
                continue
            w = signal.read_wav(tmp_path / r.wav_path)
            m = signal.mel_spectrogram(w, SignalConfig())
            active = m > signal.DB_FLOOR + 20.0
            bins = np.where(active.any(axis=0))[0]
            weights = active.sum(axis=0)[bins]
            by_register[r.archetype.register].append(float(np.average(bins, weights=weights)))
        assert by_register["low"] and by_register["high"]
        assert np.mean(by_register["high"]) > np.mean(by_register["low"])

    def test_melody_pitch_range_matches_register(self, tmp_path):
        records = corpus.generate_corpus(60, seed=11, out_dir=tmp_path)
        for r in records:
            pitches = [t.pitch for t in r.melody]
            lo, hi = corpus.REGISTER_BASE[r.archetype.register]
            assert min(pitches) >= lo
            assert max(pitches) <= min(hi + 12, 127)  # patterns span up to an octave

    def test_start_pitch_in_disjoint_register_band(self, tmp_path):
        bands = sorted(corpus.REGISTER_BASE.values())
        for (_, hi), (next_lo, _) in zip(bands, bands[1:]):
            assert hi < next_lo
        records = corpus.generate_corpus(60, seed=11, out_dir=tmp_path)
        assert {r.archetype.register for r in records} == set(corpus.REGISTERS)
        for r in records:
            start = r.melody[0].pitch
            lo, hi = corpus.REGISTER_BASE[r.archetype.register]
            assert lo <= start <= hi

    def test_failed_write_keeps_previous_manifest(self, tmp_path, disk_full):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("previous manifest\n")
        with pytest.raises(OSError):
            corpus.generate_corpus(3, seed=5, out_dir=tmp_path)
        assert manifest.read_text() == "previous manifest\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_clip_length_enforced(self, tmp_path):
        records = corpus.generate_corpus(4, seed=12, out_dir=tmp_path, clip_samples=20000)
        for r in records:
            w = signal.read_wav(tmp_path / r.wav_path)
            assert len(w.samples) == 20000

    def test_n_zero_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            corpus.generate_corpus(0, seed=0, out_dir=tmp_path)


class TestLoad:
    def test_load_returns_all_valid(self, tmp_path):
        corpus.generate_corpus(10, seed=13, out_dir=tmp_path)
        result = corpus.load_corpus(tmp_path / "manifest.jsonl")
        assert len(result.records) == 10
        assert result.errors == []

    def test_missing_wav_flags_record_others_load(self, tmp_path):
        records = corpus.generate_corpus(6, seed=14, out_dir=tmp_path)
        (tmp_path / records[2].wav_path).unlink()
        result = corpus.load_corpus(tmp_path / "manifest.jsonl")
        assert len(result.records) == 5
        assert len(result.errors) == 1
        assert result.errors[0].record_id == records[2].id
        assert "wav" in result.errors[0].message

    def test_wav_naming_a_directory_flags_record_others_load(self, tmp_path):
        records = corpus.generate_corpus(6, seed=14, out_dir=tmp_path)
        (tmp_path / records[2].wav_path).unlink()
        (tmp_path / records[2].wav_path).mkdir()
        result = corpus.load_corpus(tmp_path / "manifest.jsonl")
        assert [r.id for r in result.records] == [r.id for i, r in enumerate(records) if i != 2]
        assert [(e.record_id, e.message) for e in result.errors] == [
            (records[2].id, f"no wav file at {records[2].wav_path}")]

    @pytest.mark.parametrize("field, value, message", [
        ("melody", "|<C4>,<999>,<0>|", "999"),
        ("melody", "|<G#9>,<1>,<0>|", "pitch name 'G#9' maps outside MIDI 0..127"),
        ("melody", "|", "field 'melody' has no notes"),
        ("text", "!!! ...", "field 'text' has no tokens"),
    ], ids=["melody_bin_out_of_range", "melody_pitch_out_of_range", "melody_without_notes",
            "text_without_tokens"])
    def test_unusable_field_reported_by_id(self, tmp_path, field, value, message):
        records = corpus.generate_corpus(4, seed=15, out_dir=tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        doc = json.loads(lines[1])
        doc[field] = value
        lines[1] = json.dumps(doc)
        manifest.write_text("\n".join(lines) + "\n")
        result = corpus.load_corpus(manifest)
        assert len(result.records) == 3
        assert result.errors[0].record_id == records[1].id
        assert message in result.errors[0].message

    def test_records_carry_their_wav_digest(self, tmp_path):
        corpus.generate_corpus(3, seed=18, out_dir=tmp_path)
        for r in corpus.load_corpus(tmp_path / "manifest.jsonl").records:
            digest = hashlib.sha256((tmp_path / r.wav_path).read_bytes()).hexdigest()
            assert r.wav_sha256 == digest

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError):
            corpus.load_corpus(tmp_path / "nope.jsonl")

    def test_bad_json_line_collected(self, tmp_path):
        corpus.generate_corpus(3, seed=16, out_dir=tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        with open(manifest, "a") as f:
            f.write("{not json}\n")
        result = corpus.load_corpus(manifest)
        assert len(result.records) == 3
        assert len(result.errors) == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [1, 2], "JSON list"),
        (lambda doc: {**doc, "text": 5}, "'text' must be a str"),
        (lambda doc: {**doc, "archetype": "x"}, "'archetype' must be a dict"),
        (lambda doc: {k: v for k, v in doc.items() if k != "wav"}, "missing field 'wav'"),
        (lambda doc: {**doc, "id": "rec00000"}, "id 'rec00000' is already held by line 1"),
    ], ids=["not_an_object", "text_not_a_string", "archetype_not_an_object", "no_wav",
            "duplicate_id"])
    def test_malformed_line_reported_by_line_number(self, tmp_path, edit, message):
        corpus.generate_corpus(3, seed=17, out_dir=tmp_path)
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        manifest.write_text("\n".join(lines) + "\n")
        result = corpus.load_corpus(manifest)
        assert [r.id for r in result.records] == ["rec00000", "rec00002"]
        assert len(result.errors) == 1
        assert result.errors[0].record_id == "line 2"
        assert message in result.errors[0].message

    # Each edit of a valid WAV's bytes breaks one check of read_wav; the
    # fmt chunk spans bytes 12..36 and the data chunk header 36..44.
    @pytest.mark.parametrize("edit, problem", [
        (lambda raw: b"JUNK" + raw[4:], "bad magic"),
        (lambda raw: raw[:8] + b"WAVX" + raw[12:], "bad RIFF form"),
        (lambda raw: raw[:-10], "truncated"),
        (lambda raw: raw[:12] + raw[36:], "missing 'fmt ' chunk"),
        (lambda raw: raw[:36], "missing 'data' chunk"),
        (lambda raw: raw[:20] + struct.pack("<H", 3) + raw[22:], "unsupported encoding 3"),
        (lambda raw: raw[:22] + struct.pack("<H", 2) + raw[24:], "channel count 2"),
        (lambda raw: raw[:34] + struct.pack("<H", 24) + raw[36:], "bit depth 24"),
        (lambda raw: raw[:40] + struct.pack("<I", len(raw) - 45) + raw[44:-1],
         "odd byte count"),
    ], ids=["bad_magic", "wrong_form", "truncated_chunk", "no_fmt_chunk", "no_data_chunk",
            "not_pcm", "stereo", "24_bit", "odd_data_bytes"])
    def test_malformed_wav_reported_by_id_others_load(self, tmp_path, edit, problem):
        records = corpus.generate_corpus(3, seed=19, out_dir=tmp_path, clip_samples=512)
        wav = tmp_path / records[1].wav_path
        wav.write_bytes(edit(wav.read_bytes()))
        with pytest.raises(FormatError) as e:
            signal.read_wav(wav)
        assert problem in str(e.value)
        result = corpus.load_corpus(tmp_path / "manifest.jsonl")
        assert [r.id for r in result.records] == [records[0].id, records[2].id]
        assert result.errors == [corpus.RecordError(records[1].id, str(e.value))]


class TestArchetype:
    def test_labels_roundtrip(self):
        a = corpus.Archetype("arpeggio", "high", "fast", "bright")
        assert corpus.Archetype.from_dict(a.to_dict()) == a

    def test_invalid_field_rejected(self):
        with pytest.raises(ValidationError):
            corpus.Archetype("waltz", "high", "fast", "bright")
