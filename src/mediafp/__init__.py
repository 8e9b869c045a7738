"""mediafp: trace which instant messengers a media file passed through.

Messenger transcoders stamp deterministic attribute patterns (resolution,
container brands, AVC profile, writing application, user-data markers) onto
everything they transmit.  This package extracts those attributes from JPEG
and ISO-family container bytes, matches them against a declarative
fingerprint knowledge base, and reports which apps (including two-hop relay
chains) are consistent with the evidence.

The package exports the functions the README documents and the result and
error types they return or raise.  Everything else lives in its own module:
``attributes``, ``container``, ``engine``, ``jpeg``, ``kb``, ``oracle`` and
``report``, each also reachable as an attribute of the package.
"""

from . import attributes, container, engine, jpeg, kb, oracle, report
from .attributes import ImageAttributes, VideoAttributes
from .container import MalformedBox, NoVideoTrack, ParseError, TruncatedFile, UnknownBrand, extract_video_attributes
from .engine import Candidate, ChainHypothesis, Outcome, Verdict, match_image, match_video
from .jpeg import JpegError, NoFrameHeader, NotJpeg, extract_image_attributes
from .kb import KbError, KnowledgeBase, ManifestMismatch, SchemaError, load_kb, load_kb_path
from .oracle import CorpusEntry, InconsistentAttrs, generate_corpus, replay_corpus, synthesize_container

__version__ = "0.1.0"

__all__ = [
    "load_kb", "load_kb_path", "KnowledgeBase", "KbError", "SchemaError", "ManifestMismatch",
    "extract_video_attributes", "VideoAttributes",
    "ParseError", "TruncatedFile", "MalformedBox", "NoVideoTrack", "UnknownBrand",
    "extract_image_attributes", "ImageAttributes", "JpegError", "NotJpeg", "NoFrameHeader",
    "match_video", "match_image", "Verdict", "Candidate", "ChainHypothesis", "Outcome",
    "generate_corpus", "replay_corpus", "CorpusEntry", "synthesize_container", "InconsistentAttrs",
]
