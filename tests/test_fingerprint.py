import base64
import string
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdnskit import fingerprint
from pdnskit.fingerprint import (
    UNKNOWN,
    Attribution,
    AttributeVector,
    ImplementationProfile,
    ProfileSet,
    ClassifyTally,
    ProviderRule,
    classify,
    detect_encoding,
    extract_attributes,
    match_profile,
)
from pdnskit.model import FqdnError, RRType, label_length, parse_fqdn
from pdnskit.tunnelgen import GenConfig, TunnelSpec, generate

from conftest import make_entry


@pytest.fixture(scope="module")
def profiles():
    return ProfileSet.default()


class TestDetectEncoding:
    def test_hex(self):
        assert detect_encoding("deadbeef0123") == "hex"
        assert detect_encoding("DEADBEEF0123") == "hex"  # case-stable

    def test_base32_reference_encoder(self):
        ref = base64.b32encode(b"hello base32 data!").decode().lower().rstrip("=")
        assert detect_encoding(ref) == "base32"
        assert detect_encoding("mfrggzdfmztwq2lk") == "base32"

    def test_plain_words_are_none(self):
        for word in ("www", "mail", "example", ""):
            assert detect_encoding(word) == "none"

    def test_base64_mixed_case(self):
        ref = base64.b64encode(b"foobar0189!?").decode().rstrip("=")
        assert detect_encoding(ref) == "base64-like"

    def test_base64_specials_without_mixed_case(self):
        assert detect_encoding("abc123-def456_ghi890") == "base64-like"

    def test_lowercase_letters_digits_not_base64(self):
        # no mixed case, fewer than two specials, off-charset digits
        assert detect_encoding("ghj018kmn9pq") == "none"

    def test_digits_only_counts_as_hex(self):
        assert detect_encoding("0123456789") == "hex"

    def test_dirty_charset_is_none(self):
        assert detect_encoding("xYz!9@") == "none"

    def test_base32_beats_base64_when_charsets_overlap(self):
        # Mixed-case base64 with almost no 0/1/8/9 digits folds into the
        # base32 charset; the base32 branch is checked first and wins.
        import hashlib

        digest = hashlib.blake2b(b"representative base64 payload").digest()
        ref = base64.urlsafe_b64encode(digest).decode().rstrip("=")
        assert detect_encoding(ref) == "base32"


class TestExtractAttributes:
    def test_five_level_payload(self, profiles):
        entry = make_entry("aGVsbG8.x1.t.example.com", rrtype="NULL")
        attrs = extract_attributes(entry, profiles.markers)
        assert attrs.level == 5
        assert attrs.label4_len == 2  # "x1"
        assert attrs.label5_len == 7  # "agvsbg8" after ASCII fold
        assert attrs.payload_len == 10  # "agvsbg8.x1"

    def test_level_three_has_no_payload(self, profiles):
        attrs = extract_attributes(make_entry("www.foo.com"), profiles.markers)
        assert attrs.label4_len is None
        assert attrs.label5_len is None
        assert attrs.payload_len == 0
        assert attrs.encoding == "none"

    def test_marker_found(self, profiles):
        entry = make_entry("dnscat.deadbeef01.c.evil.net", rrtype="TXT")
        attrs = extract_attributes(entry, profiles.markers)
        assert "dnscat" in attrs.markers

    def test_label_lengths_count_bytes(self, profiles):
        # Two characters, three UTF-8 bytes each: the profile schema counts bytes.
        attrs = extract_attributes(make_entry("a\u00e9.b\u00fc.t.tun.example"), profiles.markers)
        assert attrs.label4_len == attrs.label5_len == 3
        assert attrs.payload_len == 7

    def test_first_char_classes(self, profiles):
        assert extract_attributes(make_entry("a.b.c"), ()).first_char == "letter"
        assert extract_attributes(make_entry("9a.b.c"), ()).first_char == "digit"
        assert extract_attributes(make_entry("_dmarc.b.c"), ()).first_char == "other"

    @pytest.mark.parametrize(
        "name",
        [
            "www.foo.com",
            "x1.t.example.com",
            "aGVsbG8.x1.t.example.com",
            "dnscat.deadbeef01.c.evil.net",
            "a\u00e9.b\u00fc.t.tun.example",
            "caf\u00e9.x1.t.example.com",
            "\u00e9t\u00e9.b.c",
        ],
    )
    def test_exact_vector_with_label_length_fields(self, profiles, name):
        entry = make_entry(name, rrtype="NULL")
        attrs = extract_attributes(entry, profiles.markers)
        assert type(attrs) is AttributeVector
        assert attrs == AttributeVector(*attrs)
        assert attrs.level == len(entry.rrname.labels)
        assert attrs.label4_len == label_length(entry.rrname, 4)
        assert attrs.label5_len == label_length(entry.rrname, 5)
        assert attrs.rrtype == "NULL"


def one_generated(profile_name, sld, profiles, payload=600):
    cfg = GenConfig(
        seed=5, days=1, tunnels=[TunnelSpec(profile_name, sld, "t", payload_bytes=payload)]
    )
    return [item.entry for item in generate(cfg, profiles)]


class TestMatchProfile:
    def test_generated_entry_full_match(self, profiles):
        entry = one_generated("iodine-null", "tun-x.net", profiles)[0]
        attrs = extract_attributes(entry, profiles.markers)
        result = match_profile(attrs, profiles.by_name["iodine-null"])
        assert result.match_count == 8
        assert result.match_count == sum(result.per_attribute.values())

    def test_generated_entry_vs_other_profile(self, profiles):
        entry = one_generated("iodine-null", "tun-x.net", profiles)[0]
        attrs = extract_attributes(entry, profiles.markers)
        result = match_profile(attrs, profiles.by_name["ozymandns"])
        assert result.match_count <= 5

    def test_level_three_benign_cannot_exceed_four(self, profiles):
        attrs = extract_attributes(make_entry("www.foo.com", "TXT"), profiles.markers)
        for profile in profiles:
            assert match_profile(attrs, profile).match_count <= 4


def full_match(profile, **values):
    """An attribute vector that matches `profile` on every attribute, with
    `values` in place of the matching ones."""
    vector = AttributeVector(
        payload_len=profile.payload_len[0],
        level=profile.levels[0],
        label4_len=profile.label4_len[0],
        label5_len=profile.label5_len[0],
        rrtype=min(profile.rrtypes),
        encoding=profile.encodings[0],
        first_char=min(profile.first_chars),
        markers=frozenset(profile.markers),
    )
    return vector._replace(**values)


RANGES = {"payload_len": "payload_len", "level": "levels", "label4_len": "label4_len", "label5_len": "label5_len"}
# The defaults, a marker-free profile whose label ranges hold every length,
# and a profile with two markers.
_defaults = ProfileSet.default()
BOUNDS_PROFILES = [
    *_defaults,
    _defaults.by_name["iodine-null"]._replace(name="wide", label4_len=(0, 10**6), label5_len=(0, 10**6)),
    _defaults.by_name["dnscat"]._replace(name="two-markers", markers=("dnscat", "toytool")),
]


class TestMatchBounds:
    """The match rule, attribute by attribute, at every profile's bounds."""

    def assert_only(self, profile, field, expected, **values):
        result = match_profile(full_match(profile, **values), profile)
        assert list(result.per_attribute) == list(AttributeVector._fields)
        assert result.per_attribute[field] is expected, (field, values)
        assert result.match_count == 7 + expected
        assert all(ok for name, ok in result.per_attribute.items() if name != field)

    @pytest.mark.parametrize("field", RANGES)
    @pytest.mark.parametrize("profile", BOUNDS_PROFILES, ids=lambda p: p.name)
    def test_range_bounds_are_inclusive(self, profile, field):
        lo, hi = getattr(profile, RANGES[field])
        for value, expected in ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False)):
            self.assert_only(profile, field, expected, **{field: value})

    @pytest.mark.parametrize("field", ["label4_len", "label5_len"])
    @pytest.mark.parametrize("profile", BOUNDS_PROFILES, ids=lambda p: p.name)
    def test_absent_label_length_never_matches(self, profile, field):
        self.assert_only(profile, field, False, **{field: None})

    @pytest.mark.parametrize("profile", [p for p in BOUNDS_PROFILES if not p.markers], ids=lambda p: p.name)
    def test_marker_free_profile_matches_only_marker_free_names(self, profile):
        self.assert_only(profile, "markers", True, markers=frozenset())
        for found in ({"dnscat"}, {"toytool"}, {"dnscat", "toytool"}):
            self.assert_only(profile, "markers", False, markers=frozenset(found))

    @pytest.mark.parametrize("profile", [p for p in BOUNDS_PROFILES if p.markers], ids=lambda p: p.name)
    def test_marker_profile_needs_every_marker(self, profile):
        markers = frozenset(profile.markers)
        self.assert_only(profile, "markers", True, markers=markers)
        self.assert_only(profile, "markers", True, markers=markers | {"other"})
        self.assert_only(profile, "markers", False, markers=frozenset())
        for missing in markers:
            self.assert_only(profile, "markers", False, markers=markers - {missing})


class TestClassify:
    def test_true_profile_wins(self, profiles):
        for name in ("iodine-txt", "dns2tcp", "dnscat", "ozymandns"):
            entry = one_generated(name, "tun-y.org", profiles)[0]
            assert classify(entry, profiles).implementation == name

    def test_benign_spf_is_unknown(self, profiles):
        entry = make_entry(
            "mail.example.com", rrtype="TXT", rdata=("v=spf1 ~all",)
        )
        result = classify(entry, profiles)
        assert result.implementation == UNKNOWN
        for profile in profiles:
            attrs = extract_attributes(entry, profiles.markers)
            assert match_profile(attrs, profile).match_count <= 5

    def test_empty_profile_set_rejected(self):
        with pytest.raises(ValueError):
            ProfileSet([])

    def test_match_count_equals_boolean_sum(self, profiles):
        entry = one_generated("dnscat2", "tun-z.io", profiles)[0]
        result = classify(entry, profiles)
        assert result.match_count == sum(result.per_attribute.values())


class TestProviderRule:
    @pytest.mark.parametrize("sld", ["53r.de", "8u6.de", "1yf.de", "2yf.de"])
    def test_de_provider_domains(self, profiles, sld):
        # Even a plain A record under the provider SLD attributes to it.
        entry = make_entry(f"xj29ab.{sld}", rrtype="A", domain=sld)
        result = classify(entry, profiles)
        assert result.implementation == "your-freedom"
        assert result.provider_rule

    @pytest.mark.parametrize("sld", ["qv4.in", "mm4.in", "na2.in", "zz9.in"])
    def test_in_provider_domains(self, profiles, sld):
        entry = make_entry(f"anything.{sld}", rrtype="CNAME", domain=sld)
        assert classify(entry, profiles).implementation == "tunnelguru"

    def test_other_de_domains_unaffected(self, profiles):
        entry = make_entry("www.example.de", rrtype="A")
        assert classify(entry, profiles).implementation == UNKNOWN

    def test_rule_matcher(self):
        rule = ProviderRule(label_len=3, tld="de")
        assert rule.matches(parse_fqdn("x.53r.de"))
        assert not rule.matches(parse_fqdn("x.long.de"))
        assert not rule.matches(parse_fqdn("x.53r.in"))


def vote(entries, profiles):
    """The one (implementation, agreement, unknown fraction) that
    `ClassifyTally` gives entries of a single SLD."""
    tally = ClassifyTally(profiles).add_all((e, classify(e, profiles)) for e in entries)
    ((_, implementation, agreement, unknown_fraction, _),) = tally.attributions()
    return implementation, agreement, unknown_fraction


class TestAttributeSld:
    def test_majority_with_unknowns(self, profiles):
        entries = one_generated("iodine-null", "tun-q.net", profiles, payload=640)
        # 640 bytes / 71 bytes per query -> 10 queries (9 full + remainder).
        assert len(entries) == 9 or len(entries) == 10
        benign = [make_entry(f"w{i}.tun-q.net", "NULL") for i in range(len(entries) // 9 or 1)]
        mix = entries + benign
        implementation, agreement, unknown_fraction = vote(mix, profiles)
        assert implementation == "iodine-null"
        assert agreement == pytest.approx(len(entries) / len(mix))
        assert unknown_fraction == pytest.approx(len(benign) / len(mix))

    def test_all_unknown(self, profiles):
        entries = [make_entry(f"w{i}.plain.net", "A") for i in range(5)]
        implementation, agreement, _ = vote(entries, profiles)
        assert implementation == "unknown"
        assert agreement == 0.0

    def test_even_split_breaks_deterministically(self, profiles):
        a = one_generated("iodine-null", "tun-r.net", profiles, payload=71 * 4)
        b = one_generated("iodine-txt", "tun-r.net", profiles, payload=71 * 4)
        assert len(a) == len(b) == 4
        implementation, _, _ = vote(a + b, profiles)
        # iodine-null precedes iodine-txt in the profile file.
        assert implementation == "iodine-null"


class TestClassifyTally:
    def test_unlabeled_entries_count_in_neither_total(self, profiles):
        tunnel = one_generated("iodine-null", "tun-q.net", profiles, payload=71 * 4)
        benign = [make_entry(f"w{i}.plain.net", "A") for i in range(3)]
        labels = {
            tunnel[0].rrname.name: ("tunnel", "iodine-null"),
            benign[0].rrname.name: ("benign", "plain-a"),
        }
        entries = tunnel + benign
        tally = ClassifyTally(profiles, labels=labels).add_all((e, classify(e, profiles)) for e in entries)
        assert tally.confusion == {
            ("iodine-null", "iodine-null"): 1,
            ("?", "iodine-null"): len(tunnel) - 1,
            ("benign:plain-a", "unknown"): 1,
            ("?", "unknown"): 2,
        }
        assert tally.metrics() == {
            "entries": len(entries),
            "tunnel_entries": 1,
            "tunnel_correct": 1,
            "tunnel_accuracy": 1.0,
            "benign_entries": 1,
            "benign_unknown": 1,
            "benign_unknown_rate": 1.0,
        }

    @settings(max_examples=200, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(
                st.sampled_from(["a.com", "b.net", "c.org"]),
                # Name order is not file order: iodine-txt, dns2tcp, ozymandns.
                st.sampled_from([UNKNOWN, "ozymandns", "dns2tcp", "iodine-txt"]),
            ),
            max_size=40,
        )
    )
    def test_vote_matches_recount(self, stream):
        results = [(make_entry(f"x{i}.{sld}"), Attribution(name, 0)) for i, (sld, name) in enumerate(stream)]
        tally = ClassifyTally(DEFAULT_PROFILES).add_all(results)
        assert list(tally.attributions()) == recount_votes(stream, DEFAULT_PROFILES)
        assert tally.entries == len(stream)


def recount_votes(stream, profiles):
    """`ClassifyTally.attributions()` by a plain recount of (SLD,
    implementation or unknown) pairs: a Counter per SLD, the highest vote
    count winning and a tie going to the profile first in file order."""
    per_sld: dict[str, Counter] = {}
    for sld, name in stream:
        per_sld.setdefault(sld, Counter())[name] += 1
    rows = []
    for sld, counts in sorted(per_sld.items(), key=lambda item: (-item[1].total(), item[0])):
        total, unknown = counts.total(), counts.pop(UNKNOWN, 0)
        if not counts:
            rows.append((sld, UNKNOWN, 0.0, 1.0, total))
            continue
        best = max(counts.values())
        winner = next(p.name for p in profiles if counts[p.name] == best)
        rows.append((sld, winner, best / total, unknown / total, total))
    return rows


class TestProfileFile:
    def test_defaults_load_twelve(self, profiles):
        assert len(profiles) == 12
        assert profiles.markers == {"dnscat"}

    def test_round_trip_from_custom_file(self, tmp_path, profiles):
        path = tmp_path / "p.conf"
        path.write_text(
            "[toy]\n"
            "rrtypes = TXT\n"
            "levels = 4..5\n"
            "label4_len = 10..20\n"
            "label5_len = 10..20\n"
            "payload_len = 10..41\n"
            "encodings = hex\n"
            "first_char = letter\n"
            "markers = toytool\n",
            encoding="utf-8",
        )
        ps = ProfileSet.from_file(path)
        assert ps.by_name["toy"].rrtypes == {RRType.parse("TXT")}
        assert ps.by_name["toy"].markers == ("toytool",)

    def test_duplicate_names_rejected(self, profiles):
        with pytest.raises(ValueError):
            ProfileSet(list(profiles) + [profiles.profiles[0]])

    def test_replace_checks_like_the_constructor(self, profiles):
        profile = profiles.profiles[0]
        with pytest.raises(ValueError, match="empty range"):
            profile._replace(payload_len=(10, 5))
        with pytest.raises(ValueError, match="unknown encoding"):
            profile._replace(encodings=("rot13",))
        assert profile._replace(name="copy").name == "copy"

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            ImplementationProfile(
                name="bad",
                payload_len=(10, 5),
                levels=(4, 4),
                label4_len=(1, 2),
                label5_len=(1, 2),
                rrtypes=frozenset({RRType.parse("A")}),
                encodings=frozenset({"hex"}),
                first_chars=frozenset({"letter"}),
            )

    def test_deterministic_classification(self, profiles):
        entry = one_generated("dns2tcp", "tun-s.org", profiles)[0]
        first = classify(entry, profiles)
        second = classify(entry, profiles)
        assert first == second


# ----------------------------------------------------------------------
# The fast paths pinned to reference implementations.


def reference_classify(entry, profiles, min_matches):
    """Classification by one `match_profile` call per profile and
    `ProviderRule.matches`: the definition that `classify`, with its memo
    and its provider map, must reproduce."""
    attrs = extract_attributes(entry, markers=profiles.markers)
    for profile in profiles:
        if profile.provider is not None and profile.provider.matches(entry.rrname):
            scored = match_profile(attrs, profile)
            return Attribution(
                profile.name, scored.match_count, scored.per_attribute, provider_rule=True
            )
    best = None
    for profile in profiles:
        scored = match_profile(attrs, profile)
        if scored.match_count < min_matches:
            continue
        if best is None or scored.match_count > best.match_count:
            best = scored
    if best is None:
        return Attribution(UNKNOWN, 0, {})
    return best


DEFAULT_PROFILES = ProfileSet.default()
MIN_MATCHES = (0, 1, 4, 5, 6, 7, 8, 9)

# Label lengths at and next to every profile bound, and anything legal.
_LENGTH_BOUNDS = sorted(
    {
        b + d
        for p in DEFAULT_PROFILES
        for rng in (p.label4_len, p.label5_len)
        for b in rng
        for d in (-1, 0, 1)
    }
)
label_len_st = st.one_of(st.sampled_from(_LENGTH_BOUNDS), st.integers(1, 63))
payload_alphabet_st = st.sampled_from(
    [
        "0123456789abcdef",
        "abcdefghijklmnopqrstuvwxyz234567",
        string.ascii_lowercase + string.digits + "-_",
        string.ascii_lowercase,
        "0189",
        "ab\u00e9\u65e5-",
    ]
)


@st.composite
def scored_entry_st(draw):
    """Entries of levels 1-8 near the profiles' bounds: provider SLDs,
    marker-carrying names, every first-char class and payload encoding."""
    level = draw(st.integers(1, 8))
    tld = draw(st.sampled_from(["de", "in", "com", "net"]))
    sld = draw(
        st.sampled_from(["53r", "qv4", "tun-x", "a"])
        | st.text(string.ascii_lowercase, min_size=1, max_size=5)
    )
    third = draw(st.sampled_from(["t", "dnscat", "_x", "9", "up"]))
    labels = [third, sld, tld][-min(level, 3):]
    budget = 253 - len(".".join(labels))
    payload = []
    n_payload = max(0, level - 3)
    for i in range(n_payload):
        room = budget - 1 - 2 * (n_payload - i - 1)
        size = max(1, min(draw(label_len_st), room))
        alphabet = draw(payload_alphabet_st)
        text = draw(st.text(alphabet, min_size=size, max_size=size))
        if draw(st.booleans()) and size >= 6 and i == 0:
            text = "dnscat" + text[6:]
        payload.insert(0, text)
        budget -= size + 1
    rrtype = draw(st.sampled_from(["NULL", "TXT", "SRV", "MX", "CNAME", "A", "AAAA"]))
    try:
        return make_entry(".".join(payload + labels), rrtype=rrtype)
    except FqdnError:
        assume(False)


class TestCompiledScorer:
    @settings(max_examples=500, deadline=None)
    @given(entry=scored_entry_st(), min_matches=st.sampled_from(MIN_MATCHES))
    def test_matches_reference(self, entry, min_matches):
        attrs = extract_attributes(entry, DEFAULT_PROFILES.markers)
        assert attrs.label4_len == label_length(entry.rrname, 4)
        assert attrs.label5_len == label_length(entry.rrname, 5)
        got = classify(entry, DEFAULT_PROFILES, min_matches=min_matches)
        want = reference_classify(entry, DEFAULT_PROFILES, min_matches)
        assert got.implementation == want.implementation
        assert got.match_count == want.match_count
        assert got.provider_rule == want.provider_rule
        assert got == want

    @pytest.mark.parametrize("name", [p.name for p in DEFAULT_PROFILES])
    def test_generated_traffic_matches_reference(self, name):
        sld = {"your-freedom": "8u6.de", "tunnelguru": "qv4.in"}.get(name, "tun-p.net")
        for entry in one_generated(name, sld, DEFAULT_PROFILES, payload=300)[:4]:
            for min_matches in MIN_MATCHES:
                assert classify(entry, DEFAULT_PROFILES, min_matches=min_matches) == (
                    reference_classify(entry, DEFAULT_PROFILES, min_matches)
                )


def fresh_profiles():
    """The default profiles in a set with an empty memo."""
    return ProfileSet(DEFAULT_PROFILES.profiles)


class TestClassifyMemo:
    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(
            st.tuples(scored_entry_st(), st.sampled_from(MIN_MATCHES)), min_size=1, max_size=8
        ),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=24),
    )
    def test_repeated_stream_matches_reference(self, items, picks):
        # Repeats and mixed thresholds through one profile set, with the
        # memo capped at two keys so that it is emptied mid-stream.
        stream = items + [items[i % len(items)] for i in picks]
        profiles = fresh_profiles()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fingerprint, "_MEMO_CAP", 2)
            for entry, min_matches in stream:
                got = classify(entry, profiles, min_matches=min_matches)
                assert got == reference_classify(entry, profiles, min_matches)
                assert len(profiles._memo) <= 2

    def test_equal_keys_share_one_result(self):
        profiles = fresh_profiles()
        first = one_generated("iodine-null", "tun-m.net", profiles, payload=71 * 3)
        results = [classify(e, profiles) for e in first]
        assert all(r is results[0] for r in results)
        assert classify(first[0], profiles, min_matches=7) is not results[0]

    def test_shared_explanation_is_read_only(self):
        profiles = fresh_profiles()
        entry = one_generated("dnscat2", "tun-n.io", profiles)[0]
        unknown = make_entry("www.example.com", rrtype="A")
        for result in (classify(entry, profiles), classify(unknown, profiles)):
            with pytest.raises(TypeError):
                result.per_attribute["markers"] = False
            with pytest.raises(TypeError):
                del result.per_attribute["level"]
        for e in (entry, unknown):
            assert classify(e, profiles) == reference_classify(e, profiles, 6)

    def test_provider_decision_is_part_of_the_key(self):
        # Equal attribute vectors; only the first SLD has the provider shape.
        profiles = fresh_profiles()
        provider, plain = make_entry("xj29ab.53r.de"), make_entry("xj29ab.53rr.de")
        assert extract_attributes(provider, profiles.markers) == extract_attributes(
            plain, profiles.markers
        )
        for entry in (provider, plain, provider):
            assert classify(entry, profiles) == reference_classify(entry, profiles, 6)

    def test_first_provider_in_file_order_wins(self):
        yf = DEFAULT_PROFILES.by_name["your-freedom"]
        twin = yf._replace(name="yf-twin")
        entry = make_entry("xj29ab.53r.de", rrtype="A", domain="53r.de")
        for order in ([yf, twin], [twin, yf]):
            profiles = ProfileSet(order)
            result = classify(entry, profiles)
            assert result.implementation == order[0].name
            assert result.provider_rule
            assert result == reference_classify(entry, profiles, 6)


_REF_HEX_CHARS = frozenset("0123456789abcdef")
_REF_BASE32_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz234567")
_REF_BASE32_DIGITS = frozenset("234567")
_REF_B64_SPECIALS = frozenset("-_+/")
_REF_B64_CHARSET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_+/="
)
_REF_ASCII_DIGITS = frozenset("0123456789")
_REF_ASCII_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def reference_detect_encoding(text: str, min_share: float = 0.95) -> str:
    """The multi-pass detector `detect_encoding` replaced, kept verbatim."""
    if not text:
        return "none"
    alnum = [c for c in text if c in _REF_ASCII_DIGITS or c in _REF_ASCII_LETTERS]
    if alnum:
        folded = [c.lower() for c in alnum]
        n = len(folded)
        hex_n = sum(c in _REF_HEX_CHARS for c in folded)
        if hex_n >= min_share * n and any(c in _REF_ASCII_DIGITS for c in folded):
            return "hex"
        b32_n = sum(c in _REF_BASE32_CHARS for c in folded)
        if b32_n >= min_share * n and any(c in _REF_BASE32_DIGITS for c in folded):
            return "base32"
        if all(c in _REF_B64_CHARSET for c in text):
            has_digit = any(c in _REF_ASCII_DIGITS for c in alnum)
            has_letter = any(c in _REF_ASCII_LETTERS for c in alnum)
            mixed_case = any(c.islower() for c in alnum) and any(
                c.isupper() for c in alnum
            )
            specials = sum(c in _REF_B64_SPECIALS for c in text)
            if has_digit and has_letter and (mixed_case or specials >= 2):
                return "base64-like"
    return "none"


encoding_text_st = st.one_of(
    st.text("0123456789abcdefABCDEF", max_size=40),
    st.text("abcdefghijklmnopqrstuvwxyz234567ABCDEFGHIJKLMNOPQRSTUVWXYZ", max_size=40),
    st.text(string.ascii_letters + string.digits + "-_+/=", max_size=40),
    st.text(string.ascii_lowercase + string.digits + "-_.", max_size=40),
    st.text("0189aZ-_=/\u00e9\u0663\uff11!", max_size=40),
    st.text(max_size=40),
)


class TestDetectEncodingReference:
    # st.text() draws no surrogates, so the byte path's "surrogatepass" is
    # pinned by examples: lone surrogates, non-ASCII beside hex, base32 and
    # base64 text, the empty string and text made only of _DIRTY bytes.
    @settings(max_examples=1000, deadline=None)
    @given(text=encoding_text_st, min_share=st.sampled_from([0.95, 0.0, 0.5, 0.9, 1.0]))
    @example(text="\ud800", min_share=0.95)
    @example(text="deadbeef\udfff0123", min_share=0.95)
    @example(text="\udc80aB3dE-_", min_share=0.0)
    @example(text="deadbeef\u00e90123", min_share=0.95)
    @example(text="mfrggzdf\u0663mztwq2lk", min_share=0.9)
    @example(text="aB3dE\uff11fG7hI", min_share=0.95)
    @example(text="aB3dE-_fG7hI\U0001f600", min_share=0.95)
    @example(text="", min_share=0.95)
    @example(text="", min_share=0.0)
    @example(text="!@#.\u00e9\ud83d", min_share=0.0)
    @example(text="\u0663\u0664\uff11", min_share=0.0)
    def test_matches_reference(self, text, min_share):
        assert detect_encoding(text, min_share) == reference_detect_encoding(text, min_share)
