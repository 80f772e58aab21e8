"""Clock recovery and CHSH analysis for independently time-tagged photon pairs.

Two stations record single-photon detections against free-running local
clocks. This package simulates such records, recovers the relative clock
offset and drift from the correlations themselves (helped by once-per-
second marker tags when available), extracts coincident pairs, and turns
the channel statistics into a CHSH estimate with uncertainties. A small
TCP transport streams one station's tags to the other for live operation.
"""

from .bell import (
    S_QUANTUM_MAX,
    BellReport,
    CoincidenceMatrix,
    EmptyBasisError,
    accumulate,
    bell_report,
    chsh_s,
    correlation_e,
    qber_from_s,
    visibility_from_s,
)
from .config import ConfigError, RunConfig, load_run_config
from .simulate import (
    ClockModel,
    InvalidConfigError,
    LinkDetectorConfig,
    MeasurementSettings,
    PolarizationModel,
    generate_streams,
    joint_outcome_probabilities,
    reference_clocks,
    reference_link,
    reference_polarization,
    relative_offset_at,
)
from .sync import (
    BlockStatus,
    Coincidences,
    CorrelatorConfig,
    EmptyBlockError,
    LockMode,
    LockState,
    NoLockError,
    OffsetEstimate,
    SyncError,
    SyncPipeline,
    acquire_lock,
    cross_correlate,
    extract_coincidences,
    locked_seconds_from_timeline,
    pair_difference_histogram,
    read_coincidence_log,
    run_offline,
    write_coincidence_log,
    write_lock_timeline,
)
from .timetags import (
    FILE_MAGIC,
    FILE_VERSION,
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
from .transport import (
    MAX_BLOCK_TAGS,
    ChecksumMismatchError,
    ConnectionLostError,
    FrameError,
    OversizeBlockError,
    ReceiverServer,
    SendStats,
    SequenceGapError,
    TagBlock,
    TransportError,
    decode_block,
    encode_block,
    iter_blocks,
    send_stream,
    send_words,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # timetags
    "TICK_SECONDS", "TICKS_PER_SECOND", "MAX_TICKS", "FILE_MAGIC", "FILE_VERSION",
    "ChannelCode", "Station", "TagStream",
    "InvalidChannelError", "TagFileError",
    "encode_words", "decode_words", "ticks_to_seconds", "seconds_to_ticks",
    "iter_tagfile", "read_tagfile", "write_tagfile",
    # simulate
    "PolarizationModel", "MeasurementSettings", "LinkDetectorConfig", "ClockModel",
    "InvalidConfigError", "joint_outcome_probabilities",
    "relative_offset_at", "generate_streams",
    "reference_link", "reference_polarization", "reference_clocks",
    # sync
    "CorrelatorConfig", "OffsetEstimate", "BlockStatus", "LockState", "LockMode",
    "SyncError", "EmptyBlockError", "NoLockError",
    "pair_difference_histogram", "cross_correlate",
    "acquire_lock", "Coincidences", "extract_coincidences",
    "run_offline", "SyncPipeline",
    "write_coincidence_log", "read_coincidence_log",
    "write_lock_timeline", "locked_seconds_from_timeline",
    # bell
    "S_QUANTUM_MAX", "CoincidenceMatrix", "EmptyBasisError", "BellReport",
    "accumulate", "correlation_e", "chsh_s", "qber_from_s", "visibility_from_s",
    "bell_report",
    # config
    "RunConfig", "ConfigError", "load_run_config",
    # transport
    "MAX_BLOCK_TAGS", "TransportError", "FrameError", "OversizeBlockError",
    "ChecksumMismatchError", "SequenceGapError", "ConnectionLostError",
    "TagBlock", "encode_block", "decode_block", "iter_blocks",
    "ReceiverServer", "SendStats", "send_words", "send_stream",
]
