"""Match extracted attributes against the knowledge base.

A video record matches when the file passes each of its compiled rows
(``kb.VideoConstraints.rows``).  Image resolutions match within
``kb.RESOLUTION_TOLERANCE`` in width and in length, and colliding image
candidates are disambiguated by byte-size bands.  Chain records yield (N-th
app, N+1st app) hypotheses for two-hop relays.

Candidates come from the indexes a ``KnowledgeBase`` compiles when it is
built (see ``kb``), and the verdict is the one a check against every record
would give.  Load the KB once and reuse it for many queries.  A matching
record hands out the frozen Candidate or ChainHypothesis it built for its
matched fields (``FingerprintRecord.evidence``), and the field names come
from its constraints, so verdicts share those instances and no query writes
to the KB.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter

from .attributes import ImageAttributes, VideoAttributes
from .kb import (
    RESOLUTION_TOLERANCE,
    Candidate,
    ChainHypothesis,
    FingerprintRecord,
    ImageConstraints,
    KnowledgeBase,
    VideoConstraints,
)


class Outcome(str, enum.Enum):
    IDENTIFIED = "Identified"
    NARROWED = "Narrowed"
    ORIGINAL_LIKE = "OriginalLike"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    candidates: tuple[Candidate, ...]
    outcome: Outcome
    chain_hypotheses: tuple[ChainHypothesis, ...] = ()


def satisfies_video(constraints: VideoConstraints, attrs: VideoAttributes) -> tuple[str, ...] | None:
    """Evaluate one video constraint set; returns matched field names or None.

    A field counts as matched evidence only when the record constrains it and
    the attributes positively agree: a resolution or encoder the record
    leaves empty has no row, and the marker row is evidence only for a file
    that carries markers.
    """
    c = constraints
    for _, values, get in c.rows:
        if get(attrs) not in values:
            return None
    return c.matched_with_markers if attrs.markers else c.matched


def satisfies_image(constraints: ImageConstraints, attrs: ImageAttributes) -> tuple[str, ...] | None:
    """Resolution membership within RESOLUTION_TOLERANCE; size bands never reject here."""
    tol = RESOLUTION_TOLERANCE
    for width, length in constraints.resolutions:
        if abs(attrs.width - width) <= tol and abs(attrs.length - length) <= tol:
            return constraints.matched
    return None


def disambiguate_by_size(
    candidates: list[Candidate],
    byte_size: int,
    records: list[FingerprintRecord],
) -> list[Candidate]:
    """Keep candidates whose size band contains byte_size.

    ``records`` are the records the candidates came from, in the same order,
    and each candidate is judged by its own record's band.  Bands are
    approximate, so when none contains the size the input comes back
    unchanged; survivors are flagged as having used size evidence.  Never
    increases the candidate count, never empties a non-empty list.
    """
    kept: list[Candidate] = []
    for rec in records:
        band = rec.constraints.size_band if isinstance(rec.constraints, ImageConstraints) else None
        if band is not None and abs(byte_size - band[0]) <= band[1]:
            kept.append(rec.evidence[rec.constraints.matched_with_size_band])
    return kept if kept else candidates


def classify_outcome(
    candidates: list[Candidate] | tuple[Candidate, ...],
    chains: list[ChainHypothesis] | tuple[ChainHypothesis, ...] = (),
    original_like: bool = False,
) -> Outcome:
    """Map the evidence draft to an outcome class.

    Distinct explanations are the candidate apps plus the chain (nth, n+1)
    pairs: exactly one means Identified, several mean Narrowed.  With no
    explanation, an exact original profile match reports OriginalLike;
    anything else is Unknown.
    """
    explanations = {("single", c.app) for c in candidates}
    explanations |= {("chain", h.nth_app, h.nplus1_app) for h in chains}
    if len(explanations) == 1:
        return Outcome.IDENTIFIED
    if len(explanations) >= 2:
        return Outcome.NARROWED
    if original_like:
        return Outcome.ORIGINAL_LIKE
    return Outcome.UNKNOWN


def _matches(records: tuple[FingerprintRecord, ...], satisfies, attrs) -> tuple[list, list]:
    """The records ``satisfies`` passes, in the order given, and the shared evidence each yields.

    Callers pass the module global they read at call time, so a rebound name
    is the one called.
    """
    matched_records: list[FingerprintRecord] = []
    evidence: list = []
    for rec in records:
        matched = satisfies(rec.constraints, attrs)
        if matched is not None:
            matched_records.append(rec)
            evidence.append(rec.evidence[matched])
    return matched_records, evidence


def match_image(attrs: ImageAttributes, kb: KnowledgeBase) -> Verdict:
    """Match an image against the KB: resolution within tolerance, then size bands.

    The cell lists its records in KB file order and every match carries the
    same evidence, ``ImageConstraints.matched``, so candidates come out in
    that order without ranking.
    """
    records, candidates = _matches(kb.image_candidates(attrs.width, attrs.length), satisfies_image, attrs)
    if len(candidates) > 1:
        candidates = disambiguate_by_size(candidates, attrs.byte_size, records)
    outcome = classify_outcome(candidates, (), original_like=kb.image_original(attrs) is not None)
    return Verdict(tuple(candidates), outcome, ())


def image_verdict_key(attrs: ImageAttributes, kb: KnowledgeBase) -> tuple[int, int, int]:
    """What match_image reads of an image: its resolution, and which interval
    between ``kb.image_band_edges`` its byte size falls in.

    ``satisfies_image``, the cell lookup and ``image_original`` read only
    width and length.  ``disambiguate_by_size`` reads the byte size only
    through ``abs(size - c) <= t``, which holds exactly on the half-open
    interval ``[c - t, c + t + 1)``, so every band holds all of an interval
    between consecutive edges or none of it.  So two images with equal keys
    get equal verdicts from ``kb``.
    """
    return attrs.width, attrs.length, bisect_right(kb.image_band_edges, attrs.byte_size)


def infer_chain(attrs: VideoAttributes, kb: KnowledgeBase) -> list[ChainHypothesis]:
    """All (N-th, N+1st) relay paths consistent with the attributes."""
    _, chains = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
    return _matches(chains, satisfies_video, attrs)[1]


def match_video(attrs: VideoAttributes, kb: KnowledgeBase, chains: bool = True) -> Verdict:
    """Match a video against single-hop records and, optionally, relay chains.

    More matched evidence ranks first; the sort is stable over candidates in
    KB file order, so ties keep that order.
    """
    singles, _ = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
    _, candidates = _matches(singles, satisfies_video, attrs)
    if len(candidates) > 1:
        candidates.sort(key=lambda cand: -len(cand.matched_fields))
    hypotheses = infer_chain(attrs, kb) if chains else []
    outcome = classify_outcome(candidates, hypotheses, original_like=kb.video_original(attrs) is not None)
    return Verdict(tuple(candidates), outcome, tuple(hypotheses))


# What match_video reads of a video: every VideoAttributes field but
# byte_size, which neither the compiled rows (``kb.VIDEO_FIELDS`` and the
# marker row) nor ``kb``'s original profiles read.  So two videos with equal
# keys get equal verdicts from one KB and one ``chains`` value.  A field
# added to VideoAttributes joins the key unless it is excluded here.
video_verdict_key = attrgetter(*(f.name for f in fields(VideoAttributes) if f.name != "byte_size"))


__all__ = [
    "Outcome", "Candidate", "ChainHypothesis", "Verdict",
    "satisfies_video", "satisfies_image", "disambiguate_by_size",
    "classify_outcome", "match_image", "match_video", "infer_chain",
    "image_verdict_key", "video_verdict_key", "RESOLUTION_TOLERANCE",
]
