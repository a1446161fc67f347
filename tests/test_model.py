from datetime import datetime, timezone

import pytest

from pdnskit.ingest import RecordError, parse_record
from pdnskit.model import (
    EmptyLabelError,
    Fqdn,
    LabelTooLongError,
    NameTooLongError,
    PublicSuffixList,
    RRType,
    label_length,
    parse_fqdn,
    sld_name,
)

from conftest import TABLE_RECORD, make_entry


class TestParseFqdn:
    def test_three_level_name(self):
        f = parse_fqdn("www.foo.com.")
        assert f.labels == ("www", "foo", "com")
        assert f.level == 3
        assert f.name == "www.foo.com"

    def test_single_label(self):
        assert parse_fqdn("com.").labels == ("com",)

    def test_feed_rrname(self):
        f = parse_fqdn("dsu9jr2czl.teriava.com.")
        assert f.labels == ("dsu9jr2czl", "teriava", "com")
        assert f.level == 3

    def test_lowercase_is_ascii_only(self):
        assert parse_fqdn("WWW.Foo.COM").labels == ("www", "foo", "com")
        # non-ASCII bytes pass through untouched (payload bytes matter)
        assert parse_fqdn("Über.example").labels == ("Über", "example")

    def test_underscore_labels_are_valid(self):
        assert parse_fqdn("_dmarc.example.com").labels[0] == "_dmarc"

    def test_consecutive_dots(self):
        with pytest.raises(EmptyLabelError):
            parse_fqdn("a..b.com")

    def test_leading_dot(self):
        with pytest.raises(EmptyLabelError):
            parse_fqdn(".example.com")

    def test_bare_root(self):
        with pytest.raises(EmptyLabelError):
            parse_fqdn(".")

    def test_label_too_long(self):
        with pytest.raises(LabelTooLongError):
            parse_fqdn("a" * 64 + ".com")
        parse_fqdn("a" * 63 + ".com")  # 63 is fine

    def test_name_too_long(self):
        # Exactly 253 bytes dotted is the boundary; 254 is rejected.
        label = "b" * 63
        exact = ".".join([label, label, label, "c" * 61])  # 3*63 + 3 dots + 61
        assert len(exact) == 253
        parse_fqdn(exact)
        over = ".".join([label, label, label, "c" * 62])
        assert len(over) == 254
        with pytest.raises(NameTooLongError):
            parse_fqdn(over)
        # A trailing root dot does not count toward the limit.
        parse_fqdn(exact + ".")

    def test_roundtrip(self):
        for raw in ("www.foo.com.", "A.B.c", "x.y.z.example.org."):
            f = parse_fqdn(raw)
            assert ".".join(f.labels) == f.name
            assert parse_fqdn(f.dotted) == f


class TestLabelLength:
    def test_third_level(self):
        assert label_length(parse_fqdn("www.foo.com"), 3) == 3

    def test_absent_level(self):
        assert label_length(parse_fqdn("www.foo.com"), 4) is None

    def test_feed_rrname_label(self):
        assert label_length(parse_fqdn("dsu9jr2czl.teriava.com"), 3) == 10

    def test_tld_is_level_one(self):
        assert label_length(parse_fqdn("www.foo.com"), 1) == 3
        assert label_length(parse_fqdn("www.foo.com"), 2) == 3

    def test_bad_index(self):
        with pytest.raises(ValueError):
            label_length(parse_fqdn("a.b"), 0)


class TestSecondLevelDomain:
    def test_domain_field_wins(self):
        entry = make_entry("dsu9jr2czl.teriava.com", domain="teriava.com")
        assert sld_name(entry) == "teriava.com"

    def test_fallback_last_two_labels(self):
        entry = make_entry("t.vasi.li")
        assert sld_name(entry) == "vasi.li"

    def test_psl_override(self):
        psl = PublicSuffixList(["com", "au", "com.au"])
        entry = make_entry("x.seek.com.au")
        assert sld_name(entry, psl) == "seek.com.au"

    def test_suffix_mismatch_uses_rrname(self):
        entry = make_entry("a.b.example.net", domain="other.org")
        assert entry.rrname.labels[-len(entry.domain.labels):] != entry.domain.labels
        assert sld_name(entry) == "example.net"

    def test_result_is_suffix_of_rrname(self):
        for entry in (
            make_entry("a.b.c.foo.com", domain="foo.com"),
            make_entry("x.y.bar.org"),
            make_entry("jp.example.io", domain="mismatch.net"),
        ):
            sld = parse_fqdn(sld_name(entry)).labels
            assert len(sld) <= len(entry.rrname.labels) and entry.rrname.labels[-len(sld):] == sld


class TestPublicSuffixList:
    def test_wildcard_and_exception(self):
        psl = PublicSuffixList(["// comment", "ck", "*.ck", "!www.ck"])
        assert psl.registrable(parse_fqdn("a.b.co.ck")).name == "b.co.ck"
        assert psl.registrable(parse_fqdn("x.www.ck")).name == "www.ck"
        assert psl.registrable(parse_fqdn("ck")) is None

    def test_unlisted_tld_defaults_to_one_label(self):
        psl = PublicSuffixList(["com"])
        assert psl.registrable(parse_fqdn("a.b.zz")).name == "b.zz"


class TestRRType:
    def test_roundtrip_canonical_uppercase(self):
        for name in ("a", "Null", "TXT", "cname"):
            rr = RRType.parse(name)
            assert str(rr) == name.upper()
            assert RRType.parse(str(rr)) == rr

    def test_unknown_never_fails(self):
        rr = RRType.parse("weird-thing")
        assert rr == "WEIRD-THING"
        assert RRType.parse(" nsap-ptr ") == "NSAP-PTR"

    def test_empty_rejected(self):
        for text in ("  ", "", "A B", '["A"]', "-", "\u00df", "A.B"):
            with pytest.raises(ValueError):
                RRType.parse(text)


class TestParseTimeSeen:
    """The record parse's `time_seen` field, in an otherwise valid record."""

    def test_feed_format(self):
        entry = parse_record(dict(TABLE_RECORD, time_seen="2017-07-01 09:35:04"))
        assert entry.time_seen == datetime(2017, 7, 1, 9, 35, 4, tzinfo=timezone.utc)

    @pytest.mark.parametrize(
        "bad",
        [
            "2017-07-01",
            "2017/07/01 09:35:04",
            "2017-13-01 00:00:00",
            "garbage",
            "2017-07-01T09:35:04",
            "2017-07-01 09:35x04",
            "2017-07-01 09:35:+4",
            "2017-07-01 09:35: 4",
            "\uff12017-07-01 09:35:04",  # a full-width digit, which int() accepts
            "2017-07-01 24:00:00",
            "2017-07-01 09:35:04\n",
        ],
    )
    def test_bad_inputs(self, bad):
        with pytest.raises(RecordError) as info:
            parse_record(dict(TABLE_RECORD, time_seen=bad))
        assert info.value.kind == "BadTimestamp"


def test_fqdn_equality_ignores_raw():
    assert parse_fqdn("WWW.Foo.com.") == parse_fqdn("www.foo.com")
    assert hash(parse_fqdn("A.b")) == hash(parse_fqdn("a.B."))
