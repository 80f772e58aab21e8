"""Time-tag data model and binary codecs.

A detection is stored as one 64-bit word: the high 60 bits count 125 ps
ticks since the stream epoch, the low 4 bits carry the channel code.
Numeric order of encoded words therefore follows time order. Codes 0..3
are the four analyzer outputs of a station; 0xF marks the once-per-second
GPS reference pulse that the hardware injects into the same stream. Every
other nibble is invalid and rejected on decode.

Tag files (".ettag") are little-endian:

    offset  size  field
    0       4     magic "ETTG"
    4       2     format version (currently 1)
    6       1     station id (0 = Alice, 1 = Bob)
    7       1     reserved, zero
    8       8     tag count
    16      8*n   encoded tag words, sorted by tick value
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

TICK_SECONDS = 125e-12
TICKS_PER_SECOND = 8_000_000_000
MAX_TICKS = 1 << 60

FILE_MAGIC = b"ETTG"
FILE_VERSION = 1
_HEADER = struct.Struct("<4sHBBQ")


class ChannelCode(IntEnum):
    """Channel nibble of a tag word."""

    CH0 = 0
    CH1 = 1
    CH2 = 2
    CH3 = 3
    GPS_MARKER = 0xF


DETECTOR_CODES = (ChannelCode.CH0, ChannelCode.CH1, ChannelCode.CH2, ChannelCode.CH3)
_VALID_CODES = frozenset(int(c) for c in ChannelCode)


class Station(IntEnum):
    ALICE = 0
    BOB = 1


class InvalidChannelError(ValueError):
    """A tag word carries a channel nibble with no assigned meaning."""


class TagFileError(ValueError):
    """A ".ettag" file violates the on-disk format."""


@dataclass(frozen=True)
class TimeTag:
    """One detection: tick count since stream epoch plus channel code."""

    ticks: int
    channel: ChannelCode

    def __post_init__(self) -> None:
        if not 0 <= self.ticks < MAX_TICKS:
            raise ValueError(f"ticks {self.ticks} outside the 60-bit range")
        if int(self.channel) not in _VALID_CODES:
            raise InvalidChannelError(f"channel code {self.channel} is not assigned")


def ticks_to_seconds(ticks):
    """Convert 125 ps ticks to seconds.

    Division by the exact integer tick rate keeps round tick counts exact
    in double precision (8 ticks -> 1e-9, 8e9 ticks -> 1.0). Accepts
    scalars or numpy arrays.
    """
    return ticks / TICKS_PER_SECOND


def seconds_to_ticks(seconds):
    """Nearest tick count for a time in seconds (scalar or array)."""
    if isinstance(seconds, np.ndarray):
        return np.rint(seconds * TICKS_PER_SECOND).astype(np.int64)
    return int(round(seconds * TICKS_PER_SECOND))


def _unassigned(channels: np.ndarray) -> np.ndarray:
    """Mask of the codes with no meaning: above the detectors, not a marker."""
    return (channels > int(ChannelCode.CH3)) & (channels != int(ChannelCode.GPS_MARKER))


def encode_tag(tag: TimeTag) -> int:
    """Pack a tag into its 64-bit word."""
    return (tag.ticks << 4) | int(tag.channel)


def decode_tag(word: int) -> TimeTag:
    """Unpack a 64-bit word; raises InvalidChannelError on a bad nibble."""
    if not 0 <= word < 1 << 64:
        raise ValueError(f"word {word:#x} is not a 64-bit value")
    code = word & 0xF
    if code not in _VALID_CODES:
        raise InvalidChannelError(f"channel nibble {code:#x} is not assigned")
    return TimeTag(ticks=word >> 4, channel=ChannelCode(code))


def encode_words(ticks: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """Vector form of encode_tag, returns uint64 words."""
    return (ticks.astype(np.uint64) << np.uint64(4)) | channels.astype(np.uint64)


def decode_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of decode_tag, returns (ticks int64, channels uint8)."""
    channels = (words & np.uint64(0xF)).astype(np.uint8)
    bad = _unassigned(channels)
    if bad.any():
        first = int(channels[bad][0])
        raise InvalidChannelError(f"channel nibble {first:#x} is not assigned")
    # Shifted words are below 2**60, so their int64 view is exact.
    ticks = (words >> np.uint64(4)).view(np.int64)
    return ticks, channels


@dataclass(frozen=True)
class TagStream:
    """A station's tag list, sorted by tick value.

    Backed by parallel numpy arrays rather than TimeTag objects so that
    realistic stream lengths (millions of tags) stay cheap. The arrays are
    treated as immutable. Tags with equal ticks keep their input order.
    """

    station: Station
    ticks: np.ndarray
    channels: np.ndarray
    epoch_label: str = ""

    def __post_init__(self) -> None:
        ticks = np.asarray(self.ticks, dtype=np.int64)
        channels = np.asarray(self.channels, dtype=np.uint8)
        if ticks.shape != channels.shape or ticks.ndim != 1:
            raise ValueError("ticks and channels must be matching 1-d arrays")
        if len(ticks) and (ticks[0] < 0 or ticks[-1] >= MAX_TICKS):
            raise ValueError("tick values outside the 60-bit range")
        if np.any(ticks[1:] < ticks[:-1]):
            raise ValueError("tags must be sorted by ticks")
        if _unassigned(channels).any():
            raise InvalidChannelError("stream contains unassigned channel codes")
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "channels", channels)

    def __len__(self) -> int:
        return len(self.ticks)

    def __getitem__(self, i: int) -> TimeTag:
        return TimeTag(int(self.ticks[i]), ChannelCode(int(self.channels[i])))

    def __iter__(self):
        for t, c in zip(self.ticks, self.channels):
            yield TimeTag(int(t), ChannelCode(int(c)))

    @property
    def detector_mask(self) -> np.ndarray:
        return self.channels != int(ChannelCode.GPS_MARKER)

    def detector_channels(self) -> np.ndarray:
        return self.channels[self.detector_mask]

    def marker_seconds(self) -> np.ndarray:
        """GPS marker times in seconds."""
        return ticks_to_seconds(self.ticks[~self.detector_mask])

    def span(self) -> tuple[float, float]:
        if not len(self):
            raise ValueError("empty stream has no span")
        return ticks_to_seconds(int(self.ticks[0])), ticks_to_seconds(int(self.ticks[-1]))


def merge_streams(a: TagStream, b: TagStream) -> TagStream:
    """Merge two streams of the same station into one sorted stream.

    Stable: ties keep a's tags ahead of b's.
    """
    if a.station != b.station:
        raise ValueError("cannot merge streams from different stations")
    ticks = np.concatenate([a.ticks, b.ticks])
    channels = np.concatenate([a.channels, b.channels])
    order = np.argsort(ticks, kind="stable")
    label = a.epoch_label or b.epoch_label
    return TagStream(a.station, ticks[order], channels[order], label)


def write_tagfile(path: str | Path, stream: TagStream) -> None:
    words = encode_words(stream.ticks, stream.channels)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FILE_MAGIC, FILE_VERSION, int(stream.station), 0, len(words)))
        fh.write(words.astype("<u8").tobytes())


def read_tagfile(path: str | Path) -> TagStream:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise TagFileError(f"{path}: truncated header")
    magic, version, station, _reserved, count = _HEADER.unpack_from(raw)
    if magic != FILE_MAGIC:
        raise TagFileError(f"{path}: bad magic {magic!r}")
    if version != FILE_VERSION:
        raise TagFileError(f"{path}: unsupported version {version}")
    if station not in (0, 1):
        raise TagFileError(f"{path}: unknown station id {station}")
    body_size = len(raw) - _HEADER.size
    if body_size != 8 * count:
        raise TagFileError(f"{path}: expected {count} tags, found {body_size // 8}")
    words = np.frombuffer(raw, dtype="<u8", count=count, offset=_HEADER.size)
    ticks, channels = decode_words(words)
    try:
        return TagStream(Station(station), ticks, channels, epoch_label=path.stem)
    except ValueError as exc:
        raise TagFileError(f"{path}: {exc}") from exc
