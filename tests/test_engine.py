import dataclasses

from hypothesis import given, settings, strategies as st

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
    Hop,
    ImageConstraints,
    KnowledgeBase,
    MediaKind,
    OriginalProfile,
    VideoConstraints,
    load_kb_path,
)


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

    def test_encoder_must_match_exactly(self, kb):
        verdict = match_video(
            video("mp4", FormatProfile.BASE_MEDIA, "isom (isom/iso2/avc1/mp41)", "Baseline@L3",
                  852, 480, encoder="Lavf57.56.999"), kb
        )
        assert "t8-kakaotalk-general-v1" not in {c.record_id for c in verdict.candidates}



class TestFindOriginal:
    def test_first_original_in_file_order_wins(self):
        def orig(pid, kind, codec=None):
            return OriginalProfile(pid, kind, OS.IOS, (1920, 1080), 1_000_000, extension="MOV",
                                   format_profile=FormatProfile.QUICKTIME, codec_id=codec,
                                   video_format_profile="High@L4" if codec else None)
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


class TestDisambiguateBySize:
    def test_wechat_vs_kakaotalk_high(self, kb):
        base = match_image(ImageAttributes(1080, 1440, 1_000_000), kb).candidates
        assert {c.app for c in base} == {"KakaoTalk", "WeChat"}
        at_210k = disambiguate_by_size(list(base), 210_000, kb)
        assert {c.app for c in at_210k} == {"WeChat"}
        at_480k = disambiguate_by_size(list(base), 480_000, kb)
        assert {c.app for c in at_480k} == {"KakaoTalk"}

    def test_single_candidate_unchanged(self, kb):
        candidates = [Candidate("t6-skype-default-ios", "Skype", OS.IOS, "Default", ("resolution",))]
        assert disambiguate_by_size(candidates, 123, kb) == candidates

    def test_never_empties_and_never_grows(self, kb):
        base = list(match_image(ImageAttributes(1080, 1440, 1_000_000), kb).candidates)
        for size in (1, 100_000, 210_000, 480_000, 10_000_000):
            result = disambiguate_by_size(base, size, kb)
            assert 0 < len(result) <= len(base)


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
        first_hops = {r.nth_app for r in kb.records if r.hop is Hop.CHAIN}
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
        assert 2 <= len(indexed) < len(kb.image_records)


class _LinearKb:
    """A KB whose candidate lookups hand back every video or image record."""

    def __init__(self, kb):
        self._kb = kb

    def __getattr__(self, name):
        return getattr(self._kb, name)

    def video_candidates(self, codec_id, video_format_profile):
        return self._kb.video_singles, self._kb.video_chains

    def image_candidates(self, width, length):
        return self._kb.image_records


def _assert_index_is_exact(kb, attrs):
    linear = _LinearKb(kb)
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


def _shipped_values(kb):
    records = kb.video_singles + kb.video_chains
    values = {"codec_ids": set(), "video_format_profiles": set(), "resolutions": set(), "encoders": set()}
    for rec in records:
        for name, seen in values.items():
            seen.update(getattr(rec.constraints, name))
    return {name: tuple(sorted(seen)) for name, seen in values.items()}


_SHIPPED = _shipped_values(load_kb_path())

_CODECS = ("qt", "mp42 (isom/mp42)", "isom (isom/iso2/avc1/mp41)")
_PROFILES = ("Main@L3.1", "High@L4", "Baseline@L3")
_RESOLUTIONS = ((1280, 720), (640, 360))


@st.composite
def _hand_built_kbs(draw):
    records = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        chain = draw(st.booleans())
        constraints = VideoConstraints(
            codec_ids=tuple(draw(st.lists(st.sampled_from(_CODECS), max_size=3))),
            video_format_profiles=tuple(draw(st.lists(st.sampled_from(_PROFILES), max_size=3))),
            resolutions=tuple(draw(st.lists(st.sampled_from(_RESOLUTIONS), max_size=2, unique=True))),
            markers=tuple(draw(st.lists(st.sampled_from(Marker), max_size=2, unique=True))),
        )
        records.append(FingerprintRecord(
            f"t9-r{i}", MediaKind.VIDEO, draw(st.sampled_from(["A", "B"])), OS.IOS, "Default",
            hop=Hop.CHAIN if chain else Hop.SINGLE, nth_app="N" if chain else None,
            distinguishable=draw(st.booleans()),
            constraints=constraints, index=i,
        ))
    return KnowledgeBase(tuple(records))


class TestCandidateIndex:
    """Matching through the codec id / video format profile index gives the
    verdict, candidate order and chain order a scan of every record gives."""

    @given(_video_attrs(_SHIPPED["codec_ids"], _SHIPPED["video_format_profiles"],
                        _SHIPPED["resolutions"], _SHIPPED["encoders"]))
    @settings(max_examples=300, deadline=None)
    def test_shipped_kb(self, kb, attrs):
        _assert_index_is_exact(kb, attrs)

    def test_every_shipped_record_against_its_own_fields(self, kb):
        for rec in kb.video_singles + kb.video_chains:
            c = rec.constraints
            attrs = video("mp4", FormatProfile.BASE_MEDIA, c.codec_ids[0], c.video_format_profiles[0],
                          *(c.resolutions[0] if c.resolutions else (640, 360)),
                          encoder=c.encoders[0] if c.encoders else None, markers=c.markers)
            _assert_index_is_exact(kb, attrs)

    @given(_hand_built_kbs(), st.lists(_video_attrs(_CODECS, _PROFILES, _RESOLUTIONS, ()),
                                       min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_hand_built_kbs_with_wildcards_and_lists(self, kb, queries):
        for attrs in queries:
            _assert_index_is_exact(kb, attrs)


_T = RESOLUTION_TOLERANCE
_SIDE = 2 * _T + 1  # the side of the KB's resolution cells


def _assert_image_index_is_exact(kb, attrs):
    assert match_image(attrs, kb) == match_image(attrs, _LinearKb(kb))

    def hits(records):
        return [rec for rec in records if satisfies_image(rec.constraints, attrs) is not None]

    # The records that match, in the order the index hands them over.
    assert hits(kb.image_candidates(attrs.width, attrs.length)) == hits(kb.image_records)


def _near(coord):
    """coord +- 0..T+2, and both sides of every cell border in that span; all >= 1."""
    near = set(range(coord - _T - 2, coord + _T + 3))
    for cell in range((coord - _T - 2) // _SIDE, (coord + _T + 2) // _SIDE + 2):
        near.update((cell * _SIDE - 1, cell * _SIDE))
    return sorted(c for c in near if c >= 1)


def _band_edge_sizes(kb):
    sizes = {4, 150_000}
    for rec in kb.image_records:
        if rec.constraints.size_band is not None:
            center, tol = rec.constraints.size_band
            sizes.update(center + sign * (tol + d) for sign in (-1, 1) for d in (-1, 0, 1))
    return sorted(size for size in sizes if size >= 4)


def _image_queries(kb):
    resolutions = sorted({res for rec in kb.image_records for res in rec.constraints.resolutions})
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
        band = draw(st.one_of(st.none(), st.tuples(st.sampled_from((50_000, 200_000)),
                                                   st.sampled_from((10_000, 100_000)))))
        records.append(FingerprintRecord(
            f"t6-r{i}", MediaKind.IMAGE, draw(st.sampled_from(["A", "B", "C"])), OS.IOS, "Default",
            hop=Hop.CHAIN if chain else Hop.SINGLE, nth_app="N" if chain else None,
            distinguishable=i == 0 or draw(st.booleans()),
            constraints=ImageConstraints(draw(_image_resolutions()), band), index=i,
        ))
    return KnowledgeBase(tuple(records))


class TestImageCandidateIndex:
    """Matching through the resolution cells gives the verdict and candidate
    order a check of every image record gives."""

    @given(_image_queries(load_kb_path()))
    @settings(max_examples=500, deadline=None)
    def test_shipped_kb(self, kb, attrs):
        _assert_image_index_is_exact(kb, attrs)

    def test_every_shipped_resolution_at_every_offset(self, kb):
        sizes = _band_edge_sizes(kb)
        for rec in kb.image_records:
            for width, length in rec.constraints.resolutions:
                for dw in range(-_T - 2, _T + 3):
                    for dl in range(-_T - 2, _T + 3):
                        size = sizes[(dw + dl) % len(sizes)]
                        _assert_image_index_is_exact(kb, ImageAttributes(width + dw, length + dl, size))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_generated_kbs(self, data):
        kb = data.draw(_image_kbs())
        for attrs in data.draw(st.lists(_image_queries(kb), min_size=1, max_size=10)):
            _assert_image_index_is_exact(kb, attrs)
