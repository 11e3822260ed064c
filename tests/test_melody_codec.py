import pytest
from hypothesis import given, settings, strategies as st

from melodygen import melody_codec as mc
from melodygen.errors import ParseError, RangeError, ValidationError


class TestBinDuration:
    def test_zero(self):
        assert mc.bin_duration(0.0) == 0

    def test_clamp_at_and_beyond_range_end(self):
        assert mc.bin_duration(6.3) == 511
        assert mc.bin_duration(100.0) == 511

    def test_1_54_seconds(self):
        # floor(1.54 / 6.3 * 512) = floor(125.15...)
        assert mc.bin_duration(1.54) == 125

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            mc.bin_duration(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            mc.bin_duration(float("nan"))

    def test_monotone_over_bin_edges(self):
        edges = [k * 6.3 / 512 for k in range(513)]
        values = [mc.bin_duration(t) for t in edges]
        assert values == sorted(values)

    @given(st.floats(min_value=0, max_value=20, allow_nan=False))
    def test_range_invariant(self, t):
        assert 0 <= mc.bin_duration(t) <= 511


class TestPitchNames:
    def test_c4_convention(self):
        assert mc.pitch_name(60) == "C4"

    def test_f_sharp_3(self):
        assert mc.pitch_name(54) == "F#3"

    def test_bijection_over_all_128(self):
        for p in range(128):
            assert mc.parse_pitch(mc.pitch_name(p)) == p

    def test_b_sharp_is_next_semitone(self):
        assert mc.parse_pitch("B#3") == 60

    def test_bad_letter_reports_position(self):
        with pytest.raises(ParseError) as e:
            mc.parse_pitch("H4")
        assert e.value.position == 0

    def test_out_of_midi_range(self):
        with pytest.raises(RangeError):
            mc.parse_pitch("G#9")  # MIDI 128
        with pytest.raises(RangeError):
            mc.parse_pitch("C-2")  # MIDI -12


def triplet_strategy():
    return st.builds(
        mc.MelodyTriplet,
        pitch_token=st.integers(min_value=0, max_value=127).map(mc.pitch_name),
        duration_bin=st.integers(min_value=0, max_value=511),
        rest_bin=st.integers(min_value=0, max_value=511),
    )


class TestTokens:
    def test_render_example_string(self):
        seq = (mc.MelodyTriplet("F#3", 125, 79), mc.MelodyTriplet("B#3", 129, 17))
        assert mc.render_tokens(seq) == "|<F#3>,<125>,<79>|<B#3>,<129>,<17>|"

    def test_render_empty(self):
        assert mc.render_tokens(()) == "|"

    def test_parse_simple(self):
        assert mc.parse_tokens("|<C4>,<0>,<0>|") == (mc.MelodyTriplet("C4", 0, 0),)

    def test_parse_empty(self):
        assert mc.parse_tokens("|") == ()

    def test_bad_note_letter_is_syntax_error_with_offset(self):
        with pytest.raises(ParseError) as e:
            mc.parse_tokens("|<H4>,<0>,<0>|")
        assert e.value.position == 2  # the 'H'

    def test_bin_512_is_range_error_with_value(self):
        with pytest.raises(RangeError) as e:
            mc.parse_tokens("|<C4>,<512>,<0>|")
        assert e.value.value == 512

    def test_missing_separator_rejected(self):
        with pytest.raises(ParseError):
            mc.parse_tokens("<C4>,<0>,<0>|")
        with pytest.raises(ParseError):
            mc.parse_tokens("|<C4>,<0>,<0>")

    def test_whitespace_rejected(self):
        with pytest.raises(ParseError):
            mc.parse_tokens("|<C4>, <0>,<0>|")

    @settings(max_examples=200)
    @given(st.lists(triplet_strategy(), max_size=20).map(tuple))
    def test_roundtrip(self, seq):
        parsed = mc.parse_tokens(mc.render_tokens(seq))
        assert type(parsed) is tuple and parsed == seq
