import copy
import dataclasses
import pickle

import pytest
from hypothesis import find, given, settings, strategies as st

from mediafp import engine
from mediafp.attributes import EXTENSIONS, FormatProfile, ImageAttributes, Marker, OS, VideoAttributes
from mediafp.engine import (
    RESOLUTION_TOLERANCE,
    Candidate,
    ChainHypothesis,
    Outcome,
    classify_outcome,
    disambiguate_by_size,
    infer_chain,
    match_image,
    match_video,
    satisfies_image,
    satisfies_video,
)
from mediafp.kb import (
    FingerprintRecord,
    ImageConstraints,
    KnowledgeBase,
    MediaKind,
    OriginalProfile,
    VideoConstraints,
    load_kb_path,
)
from mediafp.oracle import expected_attributes, generate_corpus

from conftest import brute_force_records, partial_video_originals


def video(ext, profile, codec, vfp, w, l, encoder=None, markers=(), size=4096):
    return VideoAttributes(
        extension=ext,
        format_profile=profile,
        codec_id=codec,
        video_format_profile=vfp,
        width=w,
        length=l,
        encoder=encoder,
        markers=frozenset(markers),
        byte_size=size,
    )


class TestMatchImage:
    def test_whatsapp_resolution_identified(self, kb):
        verdict = match_image(ImageAttributes(1600, 1200, 380_000), kb)
        assert verdict.outcome is Outcome.IDENTIFIED
        assert {c.app for c in verdict.candidates} == {"WhatsApp"}
        assert {c.os for c in verdict.candidates} == {OS.IOS, OS.ANDROID43}

    def test_kakaotalk_vs_facebook_by_size(self, kb):
        at_100k = match_image(ImageAttributes(720, 960, 98_000), kb)
        assert {c.app for c in at_100k.candidates} == {"KakaoTalk"}
        assert all(c.used_size_band for c in at_100k.candidates)
        at_50k = match_image(ImageAttributes(720, 960, 52_000), kb)
        assert {c.app for c in at_50k.candidates} == {"Facebook"}

    def test_camera_original_reports_original_like(self, kb):
        verdict = match_image(ImageAttributes(4032, 3024, 2_000_000), kb)
        assert verdict.outcome is Outcome.ORIGINAL_LIKE
        assert verdict.candidates == ()

    def test_tolerance_pulls_in_nearby_resolution(self, kb):
        verdict = match_image(ImageAttributes(1443, 1080, 480_000), kb)
        assert {(c.app, c.quality) for c in verdict.candidates} == {("KakaoTalk", "High")}

    def test_tolerance_boundary(self, kb):
        # WhatsApp iOS 1600x1200 has no other image record within 11 px.
        assert RESOLUTION_TOLERANCE == 10
        for dw, dl in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)):
            for step, apps in ((RESOLUTION_TOLERANCE, {"WhatsApp"}), (RESOLUTION_TOLERANCE + 1, set())):
                attrs = ImageAttributes(1600 + dw * step, 1200 + dl * step, 380_000)
                assert {c.app for c in match_image(attrs, kb).candidates} == apps, attrs

    def test_off_grid_resolution_is_unknown(self, kb):
        verdict = match_image(ImageAttributes(333, 777, 10_000), kb)
        assert verdict.outcome is Outcome.UNKNOWN
        assert verdict.candidates == ()

    def test_size_between_bands_narrows_instead_of_guessing(self, kb):
        verdict = match_image(ImageAttributes(720, 960, 75_000), kb)
        assert verdict.outcome is Outcome.NARROWED
        assert {c.app for c in verdict.candidates} == {"KakaoTalk", "Facebook"}


class TestMatchVideo:
    def test_discord_ios(self, kb):
        verdict = match_video(video("MOV", FormatProfile.QUICKTIME, "qt", "Main@L3.1", 960, 540), kb)
        assert verdict.outcome is Outcome.IDENTIFIED
        assert [(c.app, c.os, c.quality) for c in verdict.candidates] == [("Discord", OS.IOS, "Default")]
        assert verdict.chain_hypotheses == ()

    def test_android_original_like(self, kb):
        verdict = match_video(
            video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp42)", "High@L4", 1920, 1080), kb
        )
        assert verdict.outcome is Outcome.ORIGINAL_LIKE

    def test_telegram_720p(self, kb):
        verdict = match_video(
            video("MOV", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp41/mp42)", "High@L3.1", 1280, 720), kb
        )
        assert verdict.outcome is Outcome.IDENTIFIED
        assert [(c.app, c.quality) for c in verdict.candidates] == [("Telegram", "720p")]

    def test_skype_signal_android_ambiguity(self, kb):
        verdict = match_video(
            video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp42)", "Baseline@L3.1", 1280, 720), kb
        )
        assert verdict.outcome is Outcome.NARROWED
        assert {c.app for c in verdict.candidates} == {"Skype", "Signal"}

    def test_wechat_marker_separates_os(self, kb):
        ios = match_video(
            video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp41/mp42)", "High@L3.1",
                  960, 544, markers={Marker.MOVIE_MORE}), kb
        )
        assert [(c.app, c.os) for c in ios.candidates] == [("WeChat", OS.IOS)]
        android = match_video(
            video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp41/mp42)", "High@L3.1",
                  960, 544, markers={Marker.COPYRIGHT}), kb
        )
        assert [(c.app, c.os) for c in android.candidates] == [("WeChat", OS.ANDROID_ANY)]

    def test_exact_video_resolution_no_pixel_tolerance(self, kb):
        verdict = match_video(
            video("MOV", FormatProfile.QUICKTIME, "qt", "Main@L3.1", 965, 540), kb
        )
        assert verdict.candidates == ()
        assert verdict.outcome is Outcome.UNKNOWN

    @pytest.mark.parametrize("resolution", [(1234, 694), (400, 224), (1920, 1080), (1, 1), (1080, 1920)])
    def test_record_without_resolution_matches_any_resolution(self, kb, resolution):
        # t8-fbmessenger-default lists no resolution, so it has no resolution
        # row: its vector matches at every size, and resolution is no evidence.
        attrs = dataclasses.replace(expected_attributes(kb.record("t8-fbmessenger-default")),
                                    width=resolution[0], length=resolution[1])
        [candidate] = [c for c in match_video(attrs, kb).candidates if c.record_id == "t8-fbmessenger-default"]
        assert candidate.matched_fields == ("extension", "format_profile", "codec_id",
                                            "video_format_profile", "encoder")

    def test_encoder_must_match_exactly(self, kb):
        verdict = match_video(
            video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Baseline@L3",
                  852, 480, encoder="Lavf57.56.999"), kb
        )
        assert "t8-kakaotalk-general-v1" not in {c.record_id for c in verdict.candidates}



class TestFindOriginal:
    def test_first_original_in_file_order_wins(self):
        def orig(pid, kind, codec=None):
            if kind is MediaKind.IMAGE:
                return OriginalProfile(pid, OS.IOS, ImageAttributes(1920, 1080, 1_000_000))
            return OriginalProfile(pid, OS.IOS, video("MOV", FormatProfile.QUICKTIME, codec, "High@L4", 1920, 1080,
                                                   size=1_000_000))
        kb = KnowledgeBase((), originals=(
            orig("img-1", MediaKind.IMAGE), orig("vid-other", MediaKind.VIDEO, "mp42"),
            orig("vid-1", MediaKind.VIDEO, "qt"), orig("img-2", MediaKind.IMAGE),
            orig("vid-2", MediaKind.VIDEO, "qt"),
        ))
        assert kb.image_original(ImageAttributes(1920, 1080, 5000)).profile_id == "img-1"
        assert kb.image_original(ImageAttributes(1080, 1920, 5000)) is None
        attrs = video("MOV", FormatProfile.QUICKTIME, "qt", "High@L4", 1920, 1080)
        assert kb.video_original(attrs).profile_id == "vid-1"
        for changed in (dict(extension="mp4"), dict(format_profile=FormatProfile.BASE_MEDIA),
                        dict(codec_id="isom"), dict(video_format_profile="High@L4.1"), dict(width=1921)):
            assert kb.video_original(dataclasses.replace(attrs, **changed)) is None

    def test_every_original_is_found_by_its_own_vector(self, kb):
        # An original is found by the attribute vector it describes, defaults
        # filled in, or else by the first original before it with that vector;
        # byte size is no part of an original's look.
        def look(o):
            return dataclasses.replace(o.attributes, byte_size=4)

        partial = tuple(o for _, o in partial_video_originals())
        twin = dataclasses.replace(partial[0], profile_id="twin",
                                   attributes=dataclasses.replace(partial[0].attributes, byte_size=9999))
        hand_built = KnowledgeBase((), originals=partial + (twin,) + kb.originals)
        for base in (kb, hand_built):
            for o in base.originals:
                first = next(p for p in base.originals if p.media_kind is o.media_kind and look(p) == look(o))
                find = base.image_original if o.media_kind is MediaKind.IMAGE else base.video_original
                assert find(o.attributes) is first, o.profile_id
        assert hand_built.video_original(twin.attributes) is partial[0]
        assert kb.image_original(kb.originals[1].attributes) is kb.originals[0]


def _records(kb, candidates):
    return [kb.record(c.record_id) for c in candidates]


class TestDisambiguateBySize:
    def test_wechat_vs_kakaotalk_high(self, kb):
        base = match_image(ImageAttributes(1080, 1440, 1_000_000), kb).candidates
        assert {c.app for c in base} == {"KakaoTalk", "WeChat"}
        at_210k = disambiguate_by_size(list(base), 210_000, _records(kb, base))
        assert {c.app for c in at_210k} == {"WeChat"}
        at_480k = disambiguate_by_size(list(base), 480_000, _records(kb, base))
        assert {c.app for c in at_480k} == {"KakaoTalk"}

    def test_single_candidate_unchanged(self, kb):
        candidates = [Candidate("t6-skype-default-ios", "Skype", OS.IOS, "Default", ("resolution",))]
        assert disambiguate_by_size(candidates, 123, _records(kb, candidates)) == candidates

    def test_never_empties_and_never_grows(self, kb):
        base = list(match_image(ImageAttributes(1080, 1440, 1_000_000), kb).candidates)
        for size in (1, 100_000, 210_000, 480_000, 10_000_000):
            result = disambiguate_by_size(base, size, _records(kb, base))
            assert 0 < len(result) <= len(base)

    def test_records_sharing_an_id_keep_their_own_apps(self):
        # A directly built KB may repeat a record id (the loader refuses
        # one); each candidate still takes its own record's app and band.
        records = tuple(FingerprintRecord(
            "t6-x", MediaKind.IMAGE, app, OS.IOS, "Default",
            constraints=ImageConstraints(((720, 960),), (100_000, 10_000)),
        ) for app in ("A", "B"))
        kb = KnowledgeBase(records)
        verdict = match_image(ImageAttributes(720, 960, 100_000), kb)
        assert [c.app for c in verdict.candidates] == ["A", "B"]
        assert all(c.used_size_band for c in verdict.candidates)


class TestInferChain:
    def test_kakaotalk_then_wechat_ios(self, kb):
        hypotheses = infer_chain(
            video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp41/mp42)", "High@L3",
                  720, 404, markers={Marker.MOVIE_MORE}), kb
        )
        assert [(h.nth_app, h.nplus1_app, h.os) for h in hypotheses] == [("KakaoTalk", "WeChat", OS.IOS)]

    def test_shared_row_narrowed_by_movie_name(self, kb):
        plain = video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Main@L3",
                      852, 480, encoder="Lavf58.20.100")
        hypotheses = infer_chain(plain, kb)
        assert {(h.nth_app, h.nplus1_app) for h in hypotheses} == {
            ("KakaoTalk", "Facebook Messenger"),
            ("KakaoTalk", "Facebook"),
        }
        marked = dataclasses.replace(plain, markers=frozenset({Marker.MOVIE_NAME}))
        assert {(h.nth_app, h.nplus1_app) for h in infer_chain(marked, kb)} == {("KakaoTalk", "Facebook")}

    def test_fbmessenger_android_eight_followers(self, kb):
        hypotheses = infer_chain(
            video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Main@L4",
                  1920, 1080, encoder="Lavf58.20.100"), kb
        )
        assert len(hypotheses) == 8
        assert {h.nth_app for h in hypotheses} == {"Facebook Messenger"}
        assert {h.nplus1_app for h in hypotheses} == {
            "KakaoTalk", "Instagram", "WhatsApp", "Telegram",
            "Discord", "NateOn", "LINE", "Wickr Me",
        }

    def test_overwritten_chain_excluded(self, kb):
        # Facebook over Facebook Messenger (iOS) equals single-hop Facebook:
        # the chain record must not surface, the single-hop verdict stands.
        assert "t11-facebook" in kb.overwritten_chain_ids
        attrs = video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Main@L3.1",
                      1280, 720, encoder="Lavf58.20.100", markers={Marker.MOVIE_NAME})
        verdict = match_video(attrs, kb)
        assert [(c.app,) for c in verdict.candidates] == [("Facebook",)]
        assert all(h.nplus1_app != "Facebook" for h in verdict.chain_hypotheses)
        assert verdict.outcome is Outcome.IDENTIFIED

    def test_passthrough_chain_keeps_single_verdict_alongside(self, kb):
        # KakaoTalk's own container relayed untouched: single-hop KakaoTalk
        # plus the four possible relays stay on the table.
        verdict = match_video(
            video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp41/mp42)", "Baseline@L4.1", 720, 404), kb
        )
        assert {c.app for c in verdict.candidates} == {"KakaoTalk"}
        assert {h.nplus1_app for h in verdict.chain_hypotheses} == {
            "Facebook Messenger", "Skype", "Discord", "NateOn",
        }
        assert verdict.outcome is Outcome.NARROWED


class TestClassifyOutcome:
    CAND = Candidate("r", "App", OS.IOS, "Default", ("resolution",))
    CHAIN = ChainHypothesis("A", "B", OS.IOS, "Default", ("resolution",))

    def test_single_candidate_identified(self):
        assert classify_outcome([self.CAND]) is Outcome.IDENTIFIED

    def test_one_app_many_records_identified(self):
        other = dataclasses.replace(self.CAND, record_id="r2", os=OS.ANDROID43)
        assert classify_outcome([self.CAND, other]) is Outcome.IDENTIFIED

    def test_chains_only_narrowed(self):
        chains = [dataclasses.replace(self.CHAIN, nplus1_app=f"B{i}") for i in range(8)]
        assert classify_outcome([], chains) is Outcome.NARROWED

    def test_single_chain_identified(self):
        assert classify_outcome([], [self.CHAIN]) is Outcome.IDENTIFIED

    def test_candidate_plus_chains_narrowed(self):
        assert classify_outcome([self.CAND], [self.CHAIN]) is Outcome.NARROWED

    def test_no_match_unknown(self):
        assert classify_outcome([], []) is Outcome.UNKNOWN

    def test_original_like_checked_before_unknown(self):
        assert classify_outcome([], [], original_like=True) is Outcome.ORIGINAL_LIKE

    def test_match_beats_original_flag(self):
        assert classify_outcome([self.CAND], [], original_like=True) is Outcome.IDENTIFIED


class TestProperties:
    def test_soundness_candidates_reevaluate(self, kb):
        # Every candidate's record constraints must be satisfiable against
        # the very attributes that produced it.
        attrs = video("mp4", FormatProfile.BASE_MEDIA_V2, "mp42 (isom/mp41/mp42)", "Baseline@L4.1", 720, 404)
        verdict = match_video(attrs, kb)
        for cand in verdict.candidates:
            rec = kb.record(cand.record_id)
            assert satisfies_video(rec.constraints, attrs) is not None

    def test_orientation_symmetry(self, kb):
        # For records listing both orientations, a swapped query keeps the
        # record in the candidate set, and the sets agree when restricted to
        # both-orientation records (single-orientation rows, recorded as
        # printed, legitimately appear for only one of the two queries).
        both_oriented = {
            rec.record_id for rec in kb.records
            if rec.media_kind is MediaKind.IMAGE and rec.distinguishable
            and all((l, w) in rec.constraints.resolutions for w, l in rec.constraints.resolutions)
        }
        for rec in kb.records:
            if rec.media_kind is not MediaKind.IMAGE or not rec.distinguishable:
                continue
            if rec.record_id not in both_oriented:
                continue
            size = rec.constraints.size_band[0] if rec.constraints.size_band else 150_000
            for w, l in rec.constraints.resolutions:
                one = match_image(ImageAttributes(w, l, size), kb).candidates
                two = match_image(ImageAttributes(l, w, size), kb).candidates
                labels_one = {(c.app, c.os, c.quality) for c in one}
                labels_two = {(c.app, c.os, c.quality) for c in two}
                assert (rec.app, rec.os, rec.quality) in labels_one & labels_two, rec.record_id
                sym_one = {(c.app, c.os, c.quality) for c in one if c.record_id in both_oriented}
                sym_two = {(c.app, c.os, c.quality) for c in two if c.record_id in both_oriented}
                assert sym_one == sym_two, rec.record_id

    def test_chain_records_only_for_experimented_first_hops(self, kb):
        first_hops = {r.nth_app for r in kb.records if r.nth_app}
        assert first_hops == {"KakaoTalk", "Facebook Messenger"}


class TestTracedNames:
    """``perfbench/tracer.py`` counts calls by rebinding these module globals;
    a matcher that bound them locally would leave its counters at 0."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        original = getattr(engine, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(engine, name, counted)
        return calls

    def test_video_matching_reaches_satisfies_video(self, kb, monkeypatch):
        attrs = video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Main@L4",
                      1920, 1080, encoder="Lavf58.20.100")
        expected = match_video(attrs, kb)
        singles, chains = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
        calls = self._count(monkeypatch, "satisfies_video")
        assert match_video(attrs, kb, chains=False).candidates == expected.candidates
        assert len(calls) == len(singles) > 0
        calls.clear()
        assert tuple(infer_chain(attrs, kb)) == expected.chain_hypotheses
        assert len(calls) == len(chains) > 0

    def test_colliding_image_reaches_disambiguate_by_size(self, kb, monkeypatch):
        attrs = ImageAttributes(720, 960, 98_000)
        expected = match_image(attrs, kb)
        calls = self._count(monkeypatch, "disambiguate_by_size")
        assert match_image(attrs, kb) == expected
        assert {c.app for c in expected.candidates} == {"KakaoTalk"}
        assert len(calls) == 1
        assert {c.app for c in calls[0][0]} == {"KakaoTalk", "Facebook"}

    def test_image_matching_checks_each_indexed_candidate_once(self, kb, monkeypatch):
        attrs = ImageAttributes(720, 960, 98_000)
        expected = match_image(attrs, kb)
        indexed = kb.image_candidates(attrs.width, attrs.length)
        calls = self._count(monkeypatch, "satisfies_image")
        assert match_image(attrs, kb) == expected
        assert [args[0] for args in calls] == [rec.constraints for rec in indexed]
        assert 2 <= len(indexed) < len(brute_force_records(kb)["image_records"])


class _LinearKb:
    """A KB whose candidate lookups hand back every video or image record."""

    def __init__(self, kb):
        self.kb = kb
        records = brute_force_records(kb)
        self._video = records["video_singles"], records["video_chains"]
        self.image_records = records["image_records"]

    def __getattr__(self, name):
        return getattr(self.kb, name)

    def video_candidates(self, codec_id, video_format_profile):
        return self._video

    def image_candidates(self, width, length):
        return self.image_records


@pytest.fixture(scope="module")
def linear_kb(kb):
    return _LinearKb(kb)


def _assert_index_is_exact(linear, attrs):
    kb = linear.kb
    assert match_video(attrs, kb) == match_video(attrs, linear)
    assert infer_chain(attrs, kb) == infer_chain(attrs, linear)


_OUTSIDE_CODECS = ("avc1 (avc1/isom)", "")
_OUTSIDE_PROFILES = ("Main@L5.1", "")


def _video_attrs(codecs, profiles, resolutions, encoders):
    return st.builds(
        VideoAttributes,
        extension=st.sampled_from(EXTENSIONS),
        format_profile=st.sampled_from(FormatProfile),
        codec_id=st.sampled_from(codecs + _OUTSIDE_CODECS),
        video_format_profile=st.sampled_from(profiles + _OUTSIDE_PROFILES),
        width=st.sampled_from([w for w, _ in resolutions] + [333]),
        length=st.sampled_from([l for _, l in resolutions] + [777]),
        encoder=st.sampled_from(encoders + (None, "Lavf99.1.100")),
        markers=st.frozensets(st.sampled_from(Marker)),
    )


def _video_records(kb):
    records = brute_force_records(kb)
    return records["video_singles"] + records["video_chains"]


def _image_records(kb):
    return brute_force_records(kb)["image_records"]


def _shipped_values(kb):
    records = _video_records(kb)
    values = {"codec_ids": set(), "video_format_profiles": set(), "resolutions": set(), "encoders": set()}
    for rec in records:
        for name, seen in values.items():
            seen.update(getattr(rec.constraints, name))
    return {name: tuple(sorted(seen)) for name, seen in values.items()}


_SHIPPED = _shipped_values(load_kb_path())

_CODECS = ("qt", "mp42 (isom/mp42)", "isom (isom/iso2/avc1/mp41)")
_PROFILES = ("Main@L3.1", "High@L4", "Baseline@L3")
_RESOLUTIONS = ((1280, 720), (640, 360))
_ENCODERS = ("Lavf58.20.100", "Lavf58.76.100")


@st.composite
def _hand_built_kbs(draw):
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        chain = draw(st.booleans())
        placeholder = i > 0 and draw(st.booleans())

        def values(choices, max_size):
            # Empty half the time, so that records often match a query.
            if draw(st.booleans()):
                return ()
            return tuple(draw(st.lists(st.sampled_from(choices), min_size=1, max_size=max_size)))

        constraints = VideoConstraints(
            extensions=values(EXTENSIONS, 2),
            format_profiles=values(tuple(FormatProfile), 2),
            codec_ids=values(_CODECS, 3),
            video_format_profiles=values(_PROFILES, 3),
            resolutions=tuple(draw(st.lists(st.sampled_from(_RESOLUTIONS), max_size=2, unique=True))),
            encoders=values(_ENCODERS, 2),
            # None, half the time, allows any markers.
            markers=draw(st.none() | st.lists(st.sampled_from(Marker), max_size=2, unique=True).map(tuple)),
        )
        records.append(FingerprintRecord(
            f"t9-r{i}", MediaKind.VIDEO, draw(st.sampled_from(["A", "B"])), OS.IOS, "Default",
            nth_app="N" if chain else None, constraints=None if placeholder else constraints,
        ))
    return KnowledgeBase(tuple(records))


@st.composite
def _near_record(draw, kb):
    """A video that takes each field, most of the time, from the values one
    record of ``kb`` lists, so that it often matches that record or others."""
    c = draw(st.sampled_from([rec for rec in kb.records if rec.distinguishable])).constraints

    def pick(own, anywhere):
        return draw(st.sampled_from(own if own and draw(st.integers(0, 3)) else anywhere))

    width, length = pick(c.resolutions, _RESOLUTIONS + ((333, 777),))
    markers = Marker if not c.markers or draw(st.booleans()) else c.markers
    return VideoAttributes(
        extension=pick(c.extensions, EXTENSIONS),
        format_profile=pick(c.format_profiles, tuple(FormatProfile)),
        codec_id=pick(c.codec_ids, _CODECS + _OUTSIDE_CODECS),
        video_format_profile=pick(c.video_format_profiles, _PROFILES + _OUTSIDE_PROFILES),
        width=width,
        length=length,
        encoder=pick(c.encoders, _ENCODERS + (None, "Lavf99.1.100")),
        markers=draw(st.frozensets(st.sampled_from(markers))),
    )


def _hand_built_queries(kb):
    anywhere = _video_attrs(_CODECS, _PROFILES, _RESOLUTIONS, _ENCODERS)
    return st.lists(st.one_of(anywhere, _near_record(kb)), min_size=1, max_size=8)


class TestCandidateIndex:
    """Matching through the codec id / video format profile index gives the
    verdict, candidate order and chain order a scan of every record gives."""

    @given(_video_attrs(_SHIPPED["codec_ids"], _SHIPPED["video_format_profiles"],
                        _SHIPPED["resolutions"], _SHIPPED["encoders"]))
    @settings(max_examples=300, deadline=None)
    def test_shipped_kb(self, linear_kb, attrs):
        _assert_index_is_exact(linear_kb, attrs)

    def test_every_shipped_record_against_its_own_fields(self, kb, linear_kb):
        for rec in _video_records(kb):
            c = rec.constraints
            attrs = video("mp4", FormatProfile.BASE_MEDIA, c.codec_ids[0], c.video_format_profiles[0],
                          *(c.resolutions[0] if c.resolutions else (640, 360)),
                          encoder=c.encoders[0] if c.encoders else None, markers=c.markers or ())
            _assert_index_is_exact(linear_kb, attrs)

    def test_hand_built_kbs_draw_unpinned_resolutions_and_any_markers(self):
        # Records with no resolution row and records that allow any markers
        # are both among the KBs the index is checked against.
        def some_record(predicate):
            return lambda kb: any(rec.constraints is not None and predicate(rec.constraints) for rec in kb.records)

        assert find(_hand_built_kbs(), some_record(lambda c: not c.resolutions))
        assert find(_hand_built_kbs(), some_record(lambda c: c.markers is None))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_kbs_with_wildcards_and_lists(self, data):
        kb = data.draw(_hand_built_kbs())
        linear = _LinearKb(kb)
        for attrs in data.draw(_hand_built_queries(kb)):
            _assert_index_is_exact(linear, attrs)


_T = RESOLUTION_TOLERANCE
_SIDE = 2 * _T + 1  # the side of the KB's resolution cells


def _assert_image_index_is_exact(linear, attrs):
    kb = linear.kb
    assert match_image(attrs, kb) == match_image(attrs, linear)

    def hits(records):
        return [rec for rec in records if satisfies_image(rec.constraints, attrs) is not None]

    # The records that match, in the order the index hands them over.
    assert hits(kb.image_candidates(attrs.width, attrs.length)) == hits(linear.image_records)


def _near(coord):
    """coord +- 0..T+2, and both sides of every cell border in that span; all >= 1."""
    near = set(range(coord - _T - 2, coord + _T + 3))
    for cell in range((coord - _T - 2) // _SIDE, (coord + _T + 2) // _SIDE + 2):
        near.update((cell * _SIDE - 1, cell * _SIDE))
    return sorted(c for c in near if c >= 1)


def _band_edge_sizes(kb):
    sizes = {4, 150_000}
    for rec in _image_records(kb):
        if rec.constraints.size_band is not None:
            center, tol = rec.constraints.size_band
            sizes.update(center + sign * (tol + d) for sign in (-1, 1) for d in (-1, 0, 1))
    return sorted(size for size in sizes if size >= 4)


def _image_queries(kb):
    resolutions = sorted({res for rec in _image_records(kb) for res in rec.constraints.resolutions})
    sizes = st.sampled_from(_band_edge_sizes(kb))
    return st.sampled_from(resolutions).flatmap(lambda res: st.builds(
        ImageAttributes,
        width=st.sampled_from(_near(res[0])),
        length=st.sampled_from(_near(res[1])),
        byte_size=sizes,
    ))


@st.composite
def _image_resolutions(draw):
    side = st.one_of(st.integers(min_value=1, max_value=4 * _SIDE), st.integers(min_value=1, max_value=5000))
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        shape = draw(st.sampled_from(("any", "near-square", "repeat")))
        if shape == "near-square":
            # Both orientations of a pair whose sides share a cell index,
            # so (w, h) and (h, w) fall in the same cell.
            cell = draw(st.integers(min_value=0, max_value=8))
            w, h = (draw(st.integers(min_value=max(cell * _SIDE, 1), max_value=cell * _SIDE + _SIDE - 1))
                    for _ in range(2))
            pairs += [(w, h), (h, w)]
        elif shape == "repeat" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
        else:
            pairs.append((draw(side), draw(side)))
    return tuple(pairs)


@st.composite
def _image_kbs(draw):
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=10))):
        chain = draw(st.booleans())
        placeholder = i > 0 and draw(st.booleans())
        band = draw(st.one_of(st.none(), st.tuples(st.sampled_from((50_000, 200_000)),
                                                   st.sampled_from((10_000, 100_000)))))
        records.append(FingerprintRecord(
            f"t6-r{i}", MediaKind.IMAGE, draw(st.sampled_from(["A", "B", "C"])), OS.IOS, "Default",
            nth_app="N" if chain else None,
            constraints=None if placeholder else ImageConstraints(draw(_image_resolutions()), band),
        ))
    return KnowledgeBase(tuple(records))


class TestImageCandidateIndex:
    """Matching through the resolution cells gives the verdict and candidate
    order a check of every image record gives."""

    @given(_image_queries(load_kb_path()))
    @settings(max_examples=500, deadline=None)
    def test_shipped_kb(self, linear_kb, attrs):
        _assert_image_index_is_exact(linear_kb, attrs)

    def test_every_shipped_resolution_at_every_offset(self, kb, linear_kb):
        sizes = _band_edge_sizes(kb)
        for rec in linear_kb.image_records:
            for width, length in rec.constraints.resolutions:
                for dw in range(-_T - 2, _T + 3):
                    for dl in range(-_T - 2, _T + 3):
                        size = sizes[(dw + dl) % len(sizes)]
                        _assert_image_index_is_exact(linear_kb, ImageAttributes(width + dw, length + dl, size))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_generated_kbs(self, data):
        kb = data.draw(_image_kbs())
        linear = _LinearKb(kb)
        for attrs in data.draw(st.lists(_image_queries(kb), min_size=1, max_size=10)):
            _assert_image_index_is_exact(linear, attrs)


# The matcher as it was before verdicts shared their evidence and video
# constraints were checked row by row: a fresh frozen Candidate or
# ChainHypothesis per match, one written-out check per video field, and
# image candidates ranked like video ones.  Frozen here as the reference the
# matcher must equal, order and fields included.

def _ref_satisfies_video(c, attrs):
    matched = []
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
    if c.resolutions:
        if (attrs.width, attrs.length) not in c.resolutions:
            return None
        matched.append("resolution")
    if c.encoders:
        if attrs.encoder not in c.encoders:
            return None
        matched.append("encoder")
    allowed = frozenset(c.markers or ())
    if c.markers is not None and attrs.markers - allowed:
        return None
    if attrs.markers and c.markers is not None and (attrs.markers & allowed):
        matched.append("markers")
    return tuple(matched)


def _ref_candidate(rec, matched):
    return Candidate(record_id=rec.record_id, app=rec.app, os=rec.os, quality=rec.quality,
                     matched_fields=matched)


def _ref_rank(pairs, kb):
    # More matched fields first, ties by position in kb.records.
    position = {id(rec): i for i, rec in enumerate(kb.records)}
    pairs.sort(key=lambda rc: (-len(rc[1].matched_fields), position[id(rc[0])]))
    return [cand for _, cand in pairs]


def _ref_disambiguate_by_size(candidates, byte_size, kb):
    kept = []
    for cand in candidates:
        constraints = kb.record(cand.record_id).constraints
        band = constraints.size_band if isinstance(constraints, ImageConstraints) else None
        if band is not None and abs(byte_size - band[0]) <= band[1]:
            kept.append(Candidate(
                record_id=cand.record_id, app=cand.app, os=cand.os, quality=cand.quality,
                matched_fields=tuple(dict.fromkeys(cand.matched_fields + ("byte_size",))),
            ))
    return kept if kept else candidates


def _ref_match_image(attrs, kb):
    pairs = []
    for rec in kb.image_candidates(attrs.width, attrs.length):
        matched = satisfies_image(rec.constraints, attrs)
        if matched is not None:
            pairs.append((rec, _ref_candidate(rec, matched)))
    candidates = _ref_rank(pairs, kb)
    if len(candidates) > 1:
        candidates = _ref_disambiguate_by_size(candidates, attrs.byte_size, kb)
    outcome = classify_outcome(candidates, (), original_like=kb.image_original(attrs) is not None)
    return engine.Verdict(tuple(candidates), outcome, ())


def _ref_infer_chain(attrs, kb):
    hypotheses = []
    _, chains = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
    for rec in chains:
        matched = _ref_satisfies_video(rec.constraints, attrs)
        if matched is not None:
            hypotheses.append(ChainHypothesis(nth_app=rec.nth_app or "", nplus1_app=rec.app, os=rec.os,
                                              quality=rec.quality, evidence_fields=matched))
    return hypotheses


def _ref_match_video(attrs, kb, chains=True):
    pairs = []
    singles, _ = kb.video_candidates(attrs.codec_id, attrs.video_format_profile)
    for rec in singles:
        matched = _ref_satisfies_video(rec.constraints, attrs)
        if matched is not None:
            pairs.append((rec, _ref_candidate(rec, matched)))
    candidates = _ref_rank(pairs, kb)
    hypotheses = _ref_infer_chain(attrs, kb) if chains else []
    outcome = classify_outcome(candidates, hypotheses, original_like=kb.video_original(attrs) is not None)
    return engine.Verdict(tuple(candidates), outcome, tuple(hypotheses))


def _assert_video_parity(kb, attrs):
    for chains in (True, False):
        assert match_video(attrs, kb, chains=chains) == _ref_match_video(attrs, kb, chains=chains)
    assert infer_chain(attrs, kb) == _ref_infer_chain(attrs, kb)


class TestSharedEvidenceParity:
    """Verdicts built from the KB's shared evidence equal the frozen reference:
    same outcome, candidates and chains in the same order, same matched fields
    and size-band flags."""

    @given(_video_attrs(_SHIPPED["codec_ids"], _SHIPPED["video_format_profiles"],
                        _SHIPPED["resolutions"], _SHIPPED["encoders"]))
    @settings(max_examples=300, deadline=None)
    def test_shipped_kb_videos(self, kb, attrs):
        _assert_video_parity(kb, attrs)

    @given(_image_queries(load_kb_path()))
    @settings(max_examples=300, deadline=None)
    def test_shipped_kb_images(self, kb, attrs):
        assert match_image(attrs, kb) == _ref_match_image(attrs, kb)

    def test_shipped_kb_generated_vectors(self, kb):
        for entry in generate_corpus(kb):
            attrs = entry.attributes
            if entry.media_kind is MediaKind.IMAGE:
                for size in _band_edge_sizes(kb):
                    sized = dataclasses.replace(attrs, byte_size=size)
                    assert match_image(sized, kb) == _ref_match_image(sized, kb)
            else:
                for markers in (attrs.markers, frozenset(), frozenset(Marker)):
                    _assert_video_parity(kb, dataclasses.replace(attrs, markers=markers))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_video_kbs(self, data):
        kb = data.draw(_hand_built_kbs())
        for attrs in data.draw(_hand_built_queries(kb)):
            _assert_video_parity(kb, attrs)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_image_kbs(self, data):
        kb = data.draw(_image_kbs())
        for attrs in data.draw(st.lists(_image_queries(kb), min_size=1, max_size=10)):
            assert match_image(attrs, kb) == _ref_match_image(attrs, kb)


def _snapshot(kb):
    """The KB's attributes, by identity and pickled (so a table that grows
    shows), and for each record the identity of its attributes and of every
    evidence object."""
    records = [
        ({name: id(value) for name, value in vars(rec).items()},
         {key: id(value) for key, value in rec.evidence.items()})
        for rec in kb.records
    ]
    return {name: id(value) for name, value in vars(kb).items()}, pickle.dumps(vars(kb)), records


class TestSharedEvidence:
    def test_same_record_twice_is_the_same_object(self):
        kb = load_kb_path()
        attrs = video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Main@L4",
                      1920, 1080, encoder="Lavf58.20.100")
        first, second = match_video(attrs, kb), match_video(attrs, kb)
        assert first.candidates and first.chain_hypotheses
        assert all(a is b for a, b in zip(first.candidates, second.candidates))
        assert all(a is b for a, b in zip(first.chain_hypotheses, second.chain_hypotheses))
        assert all(a is b for a, b in zip(infer_chain(attrs, kb), first.chain_hypotheses))
        for attrs in (ImageAttributes(720, 960, 98_000), ImageAttributes(720, 960, 75_000)):
            first, second = match_image(attrs, kb), match_image(attrs, kb)
            assert first.candidates
            assert all(a is b for a, b in zip(first.candidates, second.candidates))

    def test_banded_and_plain_evidence_are_distinct_entries(self):
        kb = load_kb_path()
        plain = match_image(ImageAttributes(720, 960, 75_000), kb).candidates
        banded = match_image(ImageAttributes(720, 960, 98_000), kb).candidates
        assert {(c.used_size_band, c.matched_fields) for c in plain} == {(False, ("resolution",))}
        assert {(c.used_size_band, c.matched_fields) for c in banded} == {(True, ("resolution", "byte_size"))}
        plain_by_id = {c.record_id: c for c in plain}
        assert all(c is not plain_by_id[c.record_id] for c in banded)
        assert all(c is kb.record(c.record_id).evidence[c.matched_fields] for c in plain + banded)

    def test_generated_vectors_leave_the_kb_unchanged(self):
        kb = load_kb_path()
        before = _snapshot(kb)
        for entry in generate_corpus(kb):
            attrs = entry.attributes
            if entry.media_kind is MediaKind.IMAGE:
                for size in _band_edge_sizes(kb):
                    match_image(dataclasses.replace(attrs, byte_size=size), kb)
            else:
                for markers in (attrs.markers, frozenset(), frozenset(Marker)):
                    match_video(dataclasses.replace(attrs, markers=markers), kb)
        assert _snapshot(kb) == before

    @given(st.lists(st.tuples(_video_attrs(_SHIPPED["codec_ids"], _SHIPPED["video_format_profiles"],
                                           _SHIPPED["resolutions"], _SHIPPED["encoders"]),
                              _image_queries(load_kb_path())), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_hypothesis_vectors_leave_the_kb_unchanged(self, queries):
        kb = load_kb_path()
        before = _snapshot(kb)
        for attrs, image in queries:
            for markers in (attrs.markers, frozenset()):
                match_video(dataclasses.replace(attrs, markers=markers), kb)
            match_image(image, kb)
        assert _snapshot(kb) == before

    def test_records_sharing_an_index_keep_their_own_evidence(self):
        # Two records whose constraints are one object; each builds its own
        # evidence, naming itself.
        constraints = VideoConstraints(codec_ids=("qt",), resolutions=((960, 540),))
        kb = KnowledgeBase(tuple(
            FingerprintRecord(f"t7-{app}", MediaKind.VIDEO, app, OS.IOS, "Default", constraints=constraints)
            for app in ("A", "B")
        ))
        attrs = video("MOV", FormatProfile.QUICKTIME, "qt", "Main@L3.1", 960, 540)
        for _ in range(2):
            assert [c.record_id for c in match_video(attrs, kb).candidates] == ["t7-A", "t7-B"]

    def test_replace_pickle_and_copy_give_an_equal_kb(self):
        kb = load_kb_path()
        queries = (ImageAttributes(720, 960, 98_000), ImageAttributes(720, 960, 75_000))
        for fresh in (dataclasses.replace(kb), pickle.loads(pickle.dumps(kb)), copy.copy(kb), copy.deepcopy(kb)):
            assert fresh == kb
            assert [rec.evidence for rec in fresh.records] == [rec.evidence for rec in kb.records]
            for attrs in queries:
                assert match_image(attrs, fresh) == match_image(attrs, kb)
            attrs = video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Main@L4",
                          1920, 1080, encoder="Lavf58.20.100")
            assert match_video(attrs, fresh) == match_video(attrs, kb)

    def test_equality_ignores_the_table(self):
        # A record's evidence table is built from its fields, so it takes no
        # part in equality, hashing or repr.
        first, second = load_kb_path(), load_kb_path()
        assert first == second
        for rec, twin in zip(first.records, second.records):
            assert rec.evidence == twin.evidence and rec.evidence is not twin.evidence
            assert hash(rec) == hash(twin)
        assert "evidence" not in repr(first.records[0]) + repr(first)
