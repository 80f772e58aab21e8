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

import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

TICK_SECONDS = 125e-12
TICKS_PER_SECOND = 8_000_000_000
MAX_TICKS = 1 << 60

FILE_MAGIC = b"ETTG"
FILE_VERSION = 1
_HEADER = struct.Struct("<4sHBBQ")
# Tags per checked or decoded chunk (2 MB of words): a chunk's
# temporaries stay small however long the stream.
_CHUNK_WORDS = 1 << 18


class ChannelCode(IntEnum):
    """Channel nibble of a tag word."""

    CH0 = 0
    CH1 = 1
    CH2 = 2
    CH3 = 3
    GPS_MARKER = 0xF


class Station(IntEnum):
    ALICE = 0
    BOB = 1


class InvalidChannelError(ValueError):
    """A tag word carries a channel nibble with no assigned meaning."""


class TagFileError(ValueError):
    """A ".ettag" file violates the on-disk format."""


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


def encode_words(ticks: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """Pack ticks and channel codes into uint64 tag words."""
    words = ticks.astype(np.uint64)
    words <<= np.uint64(4)
    np.bitwise_or(words, channels, out=words, dtype=np.uint64, casting="unsafe")
    return words


def decode_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack tag words into (ticks int64, channels uint8); raises
    InvalidChannelError on an unassigned nibble."""
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

    Backed by parallel numpy arrays so that realistic stream lengths
    (millions of tags) stay cheap. The arrays are treated as immutable.
    Tags with equal ticks keep their input order.
    """

    station: Station
    ticks: np.ndarray
    channels: np.ndarray

    def __post_init__(self) -> None:
        ticks = np.asarray(self.ticks, dtype=np.int64)
        channels = np.asarray(self.channels, dtype=np.uint8)
        if ticks.shape != channels.shape or ticks.ndim != 1:
            raise ValueError("ticks and channels must be matching 1-d arrays")
        if len(ticks) and (ticks[0] < 0 or ticks[-1] >= MAX_TICKS):
            raise ValueError("tick values outside the 60-bit range")
        for i in range(0, len(ticks), _CHUNK_WORDS):
            # One tag of overlap checks the order across chunk edges.
            seg = ticks[i:i + _CHUNK_WORDS + 1]
            if np.any(seg[1:] < seg[:-1]):
                raise ValueError("tags must be sorted by ticks")
            if _unassigned(channels[i:i + _CHUNK_WORDS]).any():
                raise InvalidChannelError("stream contains unassigned channel codes")
        object.__setattr__(self, "ticks", ticks)
        object.__setattr__(self, "channels", channels)

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def detector_mask(self) -> np.ndarray:
        return self.channels != int(ChannelCode.GPS_MARKER)

    def marker_seconds(self) -> np.ndarray:
        """GPS marker times in seconds."""
        return ticks_to_seconds(self.ticks[~self.detector_mask])


def write_tagfile(path: str | Path, stream: TagStream) -> None:
    words = encode_words(stream.ticks, stream.channels)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FILE_MAGIC, FILE_VERSION, int(stream.station), 0, len(words)))
        fh.write(words.astype("<u8", copy=False).data)


def iter_tagfile(path: str | Path) -> tuple[Station, int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Check a tag file's header and size; return its station, its tag
    count and an iterator that decodes its words a chunk at a time into
    (ticks int64, channels uint8), checking that the ticks never fall
    within a chunk or from one chunk to the next."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        body_size = os.fstat(fh.fileno()).st_size - _HEADER.size
    if len(head) < _HEADER.size:
        raise TagFileError(f"{path}: truncated header")
    magic, version, station, _reserved, count = _HEADER.unpack(head)
    if magic != FILE_MAGIC:
        raise TagFileError(f"{path}: bad magic {magic!r}")
    if version != FILE_VERSION:
        raise TagFileError(f"{path}: unsupported version {version}")
    if station not in (0, 1):
        raise TagFileError(f"{path}: unknown station id {station}")
    if body_size != 8 * count:
        raise TagFileError(f"{path}: expected {count} tags, found {body_size // 8}")
    return Station(station), count, _decode_chunks(path, count)


def _decode_chunks(path: Path, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        last = 0
        for done in range(0, count, _CHUNK_WORDS):
            n = min(_CHUNK_WORDS, count - done)
            words = np.fromfile(fh, dtype="<u8", count=n)
            if len(words) != n:
                raise TagFileError(f"{path}: expected {count} tags, found {done + len(words)}")
            ticks, channels = decode_words(words)
            if ticks[0] < last or np.any(ticks[1:] < ticks[:-1]):
                raise TagFileError(f"{path}: tags must be sorted by ticks")
            last = ticks[-1]
            yield ticks, channels


def read_tagfile(path: str | Path) -> TagStream:
    station, count, chunks = iter_tagfile(path)
    ticks = np.empty(count, dtype=np.int64)
    channels = np.empty(count, dtype=np.uint8)
    done = 0
    for chunk_ticks, chunk_channels in chunks:
        ticks[done:done + len(chunk_ticks)] = chunk_ticks
        channels[done:done + len(chunk_ticks)] = chunk_channels
        done += len(chunk_ticks)
    return TagStream(station, ticks, channels)
