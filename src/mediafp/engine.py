"""Match extracted attributes against the knowledge base.

A record matches when every constraint it populates is satisfied: set
membership for extension and format profile, exact string equality for codec
id / video format profile / encoder, exact pair membership for resolutions
(a wildcard always passes), and the marker rule (no marker outside the
record's set, unless it allows any).  Image resolutions match within
±10 px (``RESOLUTION_TOLERANCE``, defined in ``kb``) in width and in length,
and colliding image candidates are disambiguated by byte-size bands.  Chain
records yield (N-th app, N+1st app) hypotheses for two-hop relays.

Everything here is stateless over an immutable KnowledgeBase and safe for
concurrent queries.  A KnowledgeBase compiles its query indexes (candidate
records per media kind and hop, overwritten chains, records by id, originals
by their exact fields) when it is built.  A video is checked only against
the single-hop and chain records the KB looks up by its codec id and video
format profile, since every other record rejects one of those two fields.
An image is checked only against the records the KB lists in the grid cell
its resolution falls in, since every other record's resolutions lie beyond
the tolerance.  Either way the verdict is the one a check against every
record would give.  Load the KB once and reuse it for many queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .attributes import ImageAttributes, OS, VideoAttributes
from .kb import (
    RESOLUTION_TOLERANCE,
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
class Candidate:
    record_id: str
    app: str
    os: OS
    quality: str
    matched_fields: tuple[str, ...]
    used_size_band: bool = False


@dataclass(frozen=True)
class ChainHypothesis:
    nth_app: str
    nplus1_app: str
    os: OS
    quality: str  # quality of the N-th hop
    evidence_fields: tuple[str, ...]


@dataclass(frozen=True)
class Verdict:
    candidates: tuple[Candidate, ...]
    outcome: Outcome
    chain_hypotheses: tuple[ChainHypothesis, ...] = ()


def satisfies_video(constraints: VideoConstraints, attrs: VideoAttributes) -> tuple[str, ...] | None:
    """Evaluate one video constraint set; returns matched field names or None.

    A field counts as matched evidence only when the record constrains it and
    the attributes positively agree (a wildcard resolution or an all-quiet
    marker rule passes but contributes no evidence).
    """
    matched: list[str] = []
    c = constraints
    if c.extensions:
        if attrs.extension not in c.extensions:
            return None
        matched.append("extension")
    if c.format_profiles:
        if attrs.format_profile not in c.format_profiles:
            return None
        matched.append("format_profile")
    if c.codec_ids:
        if attrs.codec_id not in c.codec_ids:
            return None
        matched.append("codec_id")
    if c.video_format_profiles:
        if attrs.video_format_profile not in c.video_format_profiles:
            return None
        matched.append("video_format_profile")
    if c.resolutions and not c.resolution_wildcard:
        if (attrs.width, attrs.length) not in c.resolutions:
            return None
        matched.append("resolution")
    if c.encoders:
        if attrs.encoder not in c.encoders:
            return None
        matched.append("encoder")
    if c.forbidden_markers & attrs.markers:
        return None
    if attrs.markers and not c.markers_any and (attrs.markers & c.marker_set):
        matched.append("markers")
    return tuple(matched)


def satisfies_image(constraints: ImageConstraints, attrs: ImageAttributes) -> tuple[str, ...] | None:
    """Resolution membership within RESOLUTION_TOLERANCE; size bands never reject here."""
    tol = RESOLUTION_TOLERANCE
    for width, length in constraints.resolutions:
        if abs(attrs.width - width) <= tol and abs(attrs.length - length) <= tol:
            return ("resolution",)
    return None


def _candidate(rec: FingerprintRecord, matched: tuple[str, ...], used_band: bool = False) -> Candidate:
    return Candidate(
        record_id=rec.record_id,
        app=rec.app,
        os=rec.os,
        quality=rec.quality,
        matched_fields=matched,
        used_size_band=used_band,
    )


def disambiguate_by_size(
    candidates: list[Candidate],
    byte_size: int,
    kb: KnowledgeBase,
) -> list[Candidate]:
    """Keep candidates whose size band contains byte_size.

    Bands are approximate, so when none contains the size the input comes
    back unchanged; survivors are flagged as having used size evidence.
    Never increases the candidate count, never empties a non-empty list.
    """
    kept: list[Candidate] = []
    for cand in candidates:
        constraints = kb.record(cand.record_id).constraints
        band = constraints.size_band if isinstance(constraints, ImageConstraints) else None
        if band is not None and abs(byte_size - band[0]) <= band[1]:
            kept.append(Candidate(
                record_id=cand.record_id,
                app=cand.app,
                os=cand.os,
                quality=cand.quality,
                matched_fields=tuple(dict.fromkeys(cand.matched_fields + ("byte_size",))),
                used_size_band=True,
            ))
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


def _rank(pairs: list[tuple[FingerprintRecord, Candidate]]) -> list[Candidate]:
    # More matched evidence ranks first; ties break on KB file order so the
    # output is reproducible run to run.
    pairs.sort(key=lambda rc: (-len(rc[1].matched_fields), rc[0].index))
    return [cand for _, cand in pairs]


def match_image(attrs: ImageAttributes, kb: KnowledgeBase) -> Verdict:
    """Match an image against the KB: resolution within tolerance, then size bands."""
    pairs: list[tuple[FingerprintRecord, Candidate]] = []
    for rec in kb.image_candidates(attrs.width, attrs.length):
        matched = satisfies_image(rec.constraints, attrs)
        if matched is not None:
            pairs.append((rec, _candidate(rec, matched)))
    candidates = _rank(pairs)
    if len(candidates) > 1:
        candidates = disambiguate_by_size(candidates, attrs.byte_size, kb)
    outcome = classify_outcome(candidates, (), original_like=kb.image_original(attrs) is not None)
    return Verdict(tuple(candidates), outcome, ())


def infer_chain(attrs: VideoAttributes, kb: KnowledgeBase) -> list[ChainHypothesis]:
    """All (N-th, N+1st) relay paths consistent with the attributes."""
    hypotheses: list[ChainHypothesis] = []
    _, chains = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
    for rec in chains:
        matched = satisfies_video(rec.constraints, attrs)
        if matched is not None:
            hypotheses.append(ChainHypothesis(
                nth_app=rec.nth_app or "",
                nplus1_app=rec.app,
                os=rec.os,
                quality=rec.quality,
                evidence_fields=matched,
            ))
    return hypotheses


def match_video(attrs: VideoAttributes, kb: KnowledgeBase, chains: bool = True) -> Verdict:
    """Match a video against single-hop records and, optionally, relay chains."""
    pairs: list[tuple[FingerprintRecord, Candidate]] = []
    singles, _ = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
    for rec in singles:
        matched = satisfies_video(rec.constraints, attrs)
        if matched is not None:
            pairs.append((rec, _candidate(rec, matched)))
    candidates = _rank(pairs)
    hypotheses = infer_chain(attrs, kb) if chains else []
    outcome = classify_outcome(candidates, hypotheses, original_like=kb.video_original(attrs) is not None)
    return Verdict(tuple(candidates), outcome, tuple(hypotheses))


__all__ = [
    "Outcome", "Candidate", "ChainHypothesis", "Verdict",
    "satisfies_video", "satisfies_image", "disambiguate_by_size",
    "classify_outcome", "match_image", "match_video", "infer_chain",
    "RESOLUTION_TOLERANCE",
]
