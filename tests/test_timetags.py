import re

import numpy as np
import pytest

from pairlock import timetags
from pairlock.timetags import (
    MAX_TICKS,
    TICK_SECONDS,
    TICKS_PER_SECOND,
    ChannelCode,
    InvalidChannelError,
    Station,
    TagFileError,
    TagStream,
    decode_words,
    encode_words,
    iter_tagfile,
    read_tagfile,
    seconds_to_ticks,
    ticks_to_seconds,
    write_tagfile,
)


def test_tick_constants():
    assert TICKS_PER_SECOND == 8_000_000_000
    assert TICK_SECONDS == 125e-12
    # 8 ticks is exactly a nanosecond in double precision
    assert ticks_to_seconds(8) == 1e-9
    assert ticks_to_seconds(TICKS_PER_SECOND) == 1.0


def test_seconds_to_ticks_rounds_to_nearest():
    assert seconds_to_ticks(7e-9) == 56
    assert seconds_to_ticks(1.0) == TICKS_PER_SECOND
    # 100 ps is 0.8 ticks and rounds up
    assert seconds_to_ticks(100e-12) == 1


def test_word_layout():
    # ticks occupy the high 60 bits, channel the low nibble
    words = encode_words(np.array([1, 0]), np.array([ChannelCode.CH2, ChannelCode.CH0]))
    assert words.tolist() == [(1 << 4) | 2, 0]
    ticks, channels = decode_words(np.array([(123456 << 4) | 0xF], dtype=np.uint64))
    assert ticks.tolist() == [123456]
    assert channels.tolist() == [ChannelCode.GPS_MARKER]


def test_round_trip_vectorized():
    rng = np.random.default_rng(11)
    ticks = np.sort(rng.integers(0, 2**59, size=500))
    channels = rng.choice([0, 1, 2, 3, 15], size=500).astype(np.uint8)
    words = encode_words(ticks, channels)
    back_ticks, back_channels = decode_words(words)
    assert np.array_equal(back_ticks, ticks)
    assert np.array_equal(back_channels, channels)


def test_invalid_channel_rejected():
    for nibble in (4, 7, 9, 0xE):
        with pytest.raises(InvalidChannelError):
            decode_words(np.array([(5 << 4) | nibble], dtype=np.uint64))
        with pytest.raises(InvalidChannelError):
            TagStream(Station.ALICE, np.array([5]), np.array([nibble]))


def test_tick_range_enforced():
    top = np.array([MAX_TICKS - 1], dtype=np.int64)
    ticks, _ = decode_words(encode_words(top, np.array([0])))
    assert ticks.tolist() == [MAX_TICKS - 1]
    TagStream(Station.ALICE, top, np.array([0]))
    with pytest.raises(ValueError):
        TagStream(Station.ALICE, np.array([MAX_TICKS]), np.array([0]))
    with pytest.raises(ValueError):
        TagStream(Station.ALICE, np.array([-1]), np.array([0]))


def _stream(station=Station.ALICE, ticks=(10, 20, 20, 35), channels=(0, 1, 15, 3)):
    return TagStream(station, np.array(ticks, dtype=np.int64),
                     np.array(channels, dtype=np.uint8))


def test_stream_validation():
    with pytest.raises(ValueError):
        _stream(ticks=(20, 10, 30, 40))
    with pytest.raises(ValueError):
        _stream(ticks=(-1, 10, 20, 30))
    with pytest.raises(InvalidChannelError):
        _stream(channels=(0, 1, 2, 9))
    with pytest.raises(ValueError):
        TagStream(Station.BOB, np.zeros((2, 2)), np.zeros(4, dtype=np.uint8))


def test_stream_accessors():
    s = _stream()
    assert len(s) == 4
    assert np.array_equal(s.detector_mask, [True, True, False, True])
    assert s.marker_seconds() == pytest.approx([20 * TICK_SECONDS])


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ticks = np.sort(rng.integers(0, 2**48, size=1000))
    channels = rng.choice([0, 1, 2, 3, 15], size=1000).astype(np.uint8)
    stream = TagStream(Station.BOB, ticks, channels)
    path = tmp_path / "bob.ettag"
    write_tagfile(path, stream)
    back = read_tagfile(path)
    assert back.station is Station.BOB
    assert np.array_equal(back.ticks, ticks)
    assert np.array_equal(back.channels, channels)


def test_empty_file_round_trip(tmp_path):
    stream = TagStream(Station.ALICE, np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.uint8))
    path = tmp_path / "empty.ettag"
    write_tagfile(path, stream)
    assert len(read_tagfile(path)) == 0


def test_file_header_errors(tmp_path):
    stream = _stream()
    path = tmp_path / "a.ettag"
    write_tagfile(path, stream)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.ettag"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(TagFileError):
        read_tagfile(bad)

    raw2 = bytearray(raw)
    raw2[4] = 99  # version
    bad.write_bytes(bytes(raw2))
    with pytest.raises(TagFileError):
        read_tagfile(bad)

    bad.write_bytes(bytes(raw[:-8]))  # truncated payload
    with pytest.raises(TagFileError):
        read_tagfile(bad)

    bad.write_bytes(bytes(raw[:10]))  # truncated header
    with pytest.raises(TagFileError):
        read_tagfile(bad)


def test_file_rejects_unsorted_payload(tmp_path):
    stream = _stream()
    path = tmp_path / "a.ettag"
    write_tagfile(path, stream)
    raw = bytearray(path.read_bytes())
    # swap the first two words
    raw[16:24], raw[24:32] = raw[24:32], raw[16:24]
    path.write_bytes(bytes(raw))
    with pytest.raises(TagFileError):
        read_tagfile(path)


def _chunked_file(tmp_path, monkeypatch, n=1000, chunk=64):
    """A Bob file of n sorted tags, decoded chunk tags at a time."""
    monkeypatch.setattr(timetags, "_CHUNK_WORDS", chunk)
    rng = np.random.default_rng(17)
    ticks = np.sort(rng.integers(0, 2**59, size=n))
    channels = rng.choice([0, 1, 2, 3, 15], size=n).astype(np.uint8)
    path = tmp_path / "bob.ettag"
    write_tagfile(path, TagStream(Station.BOB, ticks, channels))
    return path, ticks, channels


def test_chunked_decode_equals_a_one_shot_decode(tmp_path, monkeypatch):
    path, ticks, channels = _chunked_file(tmp_path, monkeypatch)
    station, count, chunks = iter_tagfile(path)
    chunks = list(chunks)
    assert (station, count, len(chunks)) == (Station.BOB, 1000, 16)
    assert all(len(t) == 64 for t, _ in chunks[:-1])
    words = np.frombuffer(path.read_bytes(), dtype="<u8", offset=16)
    one_shot = decode_words(words)
    for got, want in zip((np.concatenate(c) for c in zip(*chunks)), one_shot):
        assert np.array_equal(got, want)
    back = read_tagfile(path)
    assert back.station is Station.BOB
    assert np.array_equal(back.ticks, ticks)
    assert np.array_equal(back.channels, channels)


@pytest.mark.parametrize("first", [3 * 64 + 10, 3 * 64 - 1], ids=["inside", "across"])
def test_chunked_decode_rejects_a_tag_out_of_order(first, tmp_path, monkeypatch):
    # swapping words first and first + 1 puts a later tick before an
    # earlier one inside a chunk, or across the edge of chunks 3 and 4
    path, _, _ = _chunked_file(tmp_path, monkeypatch)
    raw = bytearray(path.read_bytes())
    lo = 16 + 8 * first
    raw[lo:lo + 8], raw[lo + 8:lo + 16] = raw[lo + 8:lo + 16], raw[lo:lo + 8]
    path.write_bytes(bytes(raw))
    with pytest.raises(TagFileError, match=re.escape(f"{path}: tags must be sorted")):
        read_tagfile(path)
