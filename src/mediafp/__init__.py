"""mediafp: trace which instant messengers a media file passed through.

Messenger transcoders stamp deterministic attribute patterns (resolution,
container brands, AVC profile, writing application, user-data markers) onto
everything they transmit.  This package extracts those attributes from JPEG
and ISO-family container bytes, matches them against a declarative
fingerprint knowledge base, and reports which apps (including two-hop relay
chains) are consistent with the evidence.
"""

from .attributes import (
    AvcSignal,
    FormatProfile,
    ImageAttributes,
    Marker,
    MediaKind,
    OS,
    VideoAttributes,
)
from .container import (
    BoxNode,
    FtypInfo,
    MalformedBox,
    MissingFtyp,
    NoVideoTrack,
    ParseError,
    TruncatedFile,
    UnknownBrand,
    classify_format_profile,
    extract_video_attributes,
    parse_box_tree,
    read_ftyp,
    render_codec_id,
)
from .engine import (
    Candidate,
    ChainHypothesis,
    Outcome,
    Verdict,
    classify_outcome,
    disambiguate_by_size,
    infer_chain,
    match_image,
    match_video,
)
from .jpeg import JpegError, NoFrameHeader, NotJpeg, extract_image_attributes
from .kb import (
    FingerprintRecord,
    Hop,
    ImageConstraints,
    KnowledgeBase,
    ManifestMismatch,
    OriginalProfile,
    SchemaError,
    ValidationReport,
    VideoConstraints,
    default_kb_path,
    list_records,
    load_kb,
    load_kb_path,
    render_kb,
    validate_kb,
)
from .oracle import (
    CorpusEntry,
    InconsistentAttrs,
    TransformResult,
    UnknownTransform,
    apply_transform,
    generate_corpus,
    parse_corpus,
    render_corpus,
    replay_corpus,
    synthesize_container,
)
from .report import FileReport, render_report, scan_file, sniff_media_kind

__version__ = "0.1.0"
