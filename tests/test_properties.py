"""Property-based checks of the structural invariants."""

import csv
import io
import string
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from datetime import date, datetime, timezone
from typing import Optional

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pdnskit.fingerprint import UNKNOWN, ProfileSet, classify, detect_encoding
from pdnskit.model import (
    Fqdn,
    FqdnError,
    PdnsEntry,
    RRType,
    _parse_fqdn_general,
    parse_fqdn,
    sld_name,
)
from pdnskit.pipeline import (
    FilterConfig,
    run_pipeline,
    stage_table,
)
from pdnskit.stats import StatsBundle
from pdnskit.tables import read_labels

from pdnskit.ingest import RecordError, parse_record

from conftest import TABLE_RECORD, keep_stage, make_entry

LABEL_CHARS = string.ascii_lowercase + string.digits + "-_"

labels_st = st.lists(
    st.text(alphabet=LABEL_CHARS, min_size=1, max_size=12), min_size=1, max_size=6
)

RRTYPES = ("A", "AAAA", "NULL", "TXT", "CNAME", "NS", "MX", "PTR")
rrtype_st = st.sampled_from(RRTYPES)


@st.composite
def hostname(draw):
    return ".".join(draw(labels_st))


@st.composite
def entry_st(draw, sld_pool=None):
    """A random entry; with `sld_pool`, its name ends in one of those SLDs."""
    name = draw(hostname())
    if sld_pool is not None:
        name = f"{name}.{draw(st.sampled_from(sld_pool))}"
    day = draw(st.integers(min_value=1, max_value=9))
    rdata = tuple(draw(st.lists(st.text(alphabet=LABEL_CHARS, max_size=40), max_size=2)))
    return make_entry(
        name,
        rrtype=draw(rrtype_st),
        time_seen=f"2017-07-0{day} 12:00:00",
        rdata=rdata,
    )


class TestFqdnProperties:
    @given(hostname())
    @settings(max_examples=300)
    def test_roundtrip(self, name):
        f = parse_fqdn(name)
        assert ".".join(f.labels) == f.name
        assert parse_fqdn(f.dotted).labels == f.labels

    @given(hostname())
    @settings(max_examples=300)
    def test_level_equals_dots_plus_one(self, name):
        f = parse_fqdn(name)
        assert f.level == f.name.count(".") + 1

    @given(st.text(max_size=300))
    @settings(max_examples=500)
    def test_rejection_is_total(self, raw):
        assume(raw)
        try:
            f = parse_fqdn(raw)
        except FqdnError:
            return
        assert 1 <= len(f.labels)
        assert all(1 <= len(lab.encode()) <= 63 for lab in f.labels)
        assert len(f.name.encode()) <= 253

    @given(st.text(alphabet=LABEL_CHARS + ".ABC", min_size=1, max_size=80))
    @settings(max_examples=300)
    def test_exactly_one_outcome(self, raw):
        outcomes = 0
        try:
            parse_fqdn(raw)
            outcomes += 1
        except FqdnError as exc:
            assert exc.kind in ("EmptyLabel", "LabelTooLong", "NameTooLong")
            outcomes += 1
        assert outcomes == 1


@st.composite
def name_near_limits(draw):
    """ASCII or non-ASCII names, some with empty labels, labels of 62-64
    characters, totals of 251-255 characters and a root dot."""
    alphabet = LABEL_CHARS + "AZ" + draw(st.sampled_from(["", "Üé", "\u0101\u4e00"]))
    label = st.one_of(
        st.text(alphabet=alphabet, max_size=6),
        st.integers(62, 64).flatmap(lambda n: st.text(alphabet=alphabet, min_size=n, max_size=n)),
    )
    name = ".".join(draw(st.lists(label, min_size=1, max_size=5)))
    if draw(st.booleans()):
        # Prepend full labels, then cut the front to the drawn total.
        padded = ".".join(["p" * 63] * 5 + [name])
        name = padded[len(padded) - draw(st.integers(251, 255)):]
    return name + "." if draw(st.booleans()) else name


def parse_outcome(parse, raw):
    try:
        f = parse(raw)
    except FqdnError as exc:
        return type(exc)
    return f.labels, f.name


# Frozen dataclasses with the types' fields, as the reference for equality,
# hashing and repr.
@dataclass(frozen=True, slots=True)
class RefFqdn:
    labels: tuple
    name: str = field(compare=False)


@dataclass(frozen=True, slots=True)
class RefPdnsEntry:
    domain: Optional[Fqdn]
    time_seen: datetime
    bailiwick: Optional[Fqdn]
    rrname: Fqdn
    rrclass: str
    rrtype: RRType
    rdata: tuple


class TestModelFastPaths:
    @given(st.one_of(name_near_limits(), st.text(max_size=300)))
    @settings(max_examples=1000)
    def test_parse_fqdn_agrees_with_general_parser(self, raw):
        assert parse_outcome(parse_fqdn, raw) == parse_outcome(_parse_fqdn_general, raw)

    @given(labels_st, st.booleans())
    @settings(max_examples=200)
    def test_fqdn_constructor_keeps_value_semantics(self, labels, upper_name):
        labels = tuple(labels)
        name = ".".join(labels)
        f = Fqdn(labels, name.upper() if upper_name else name)
        assert f == Fqdn(labels=labels, name=name) == parse_fqdn(name)  # labels only
        assert hash(f) == hash(parse_fqdn(name)) == hash(RefFqdn(labels, f.name))
        assert f != Fqdn(labels + ("x",), name)
        assert repr(f) == repr(RefFqdn(labels, f.name)).replace("RefFqdn", "Fqdn")
        for attr in ("labels", "name"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, attr, None)
            with pytest.raises(FrozenInstanceError):
                delattr(f, attr)

    @given(entry_st(), rrtype_st)
    @settings(max_examples=200)
    def test_entry_constructor_keeps_value_semantics(self, e, rrtype):
        values = (e.domain, e.time_seen, e.bailiwick, e.rrname, e.rrclass, e.rrtype, e.rdata)
        ref = RefPdnsEntry(*values)
        same = PdnsEntry(**{name: getattr(e, name) for name in RefPdnsEntry.__dataclass_fields__})
        assert e == same and hash(e) == hash(same) == hash(ref)
        assert repr(e) == repr(ref).replace("RefPdnsEntry", "PdnsEntry")
        other = e._replace(rrtype=RRType.parse(rrtype))
        assert (other == e) == (rrtype == e.rrtype)
        with pytest.raises(FrozenInstanceError):
            e.rrname = parse_fqdn("x.com")

    @given(entry_st())
    @settings(max_examples=200)
    def test_types_equal_only_their_own_class(self, e):
        # Both are tuples, and a tuple's own __eq__ compares the fields.
        f = e.rrname
        for a, b in ((f, (f.labels, f.name)), (e, tuple(e)), (f, e)):
            for x, y in ((a, b), (b, a)):
                assert (x == y, x != y) == (False, True)

    @given(st.from_regex(r"\A\d{4}-\d\d-\d\d \d\d:\d\d:\d\d\Z", fullmatch=True))
    @settings(max_examples=500)
    def test_time_seen_agrees_with_field_parse(self, text):
        try:
            expected = datetime(
                int(text[0:4]), int(text[5:7]), int(text[8:10]),
                int(text[11:13]), int(text[14:16]), int(text[17:19]),
                tzinfo=timezone.utc,
            )
        except ValueError:
            expected = "BadTimestamp"
        try:
            got = parse_record(dict(TABLE_RECORD, time_seen=text)).time_seen
        except RecordError as exc:
            got = exc.kind
        if text.isascii():
            assert got == expected
        else:
            assert got == "BadTimestamp"


class TestDetectEncodingProperties:
    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_total(self, text):
        assert detect_encoding(text) in ("hex", "base32", "base64-like", "none")

    @given(st.text(alphabet=string.hexdigits, min_size=1, max_size=80))
    @settings(max_examples=200)
    def test_case_fold_stable(self, text):
        assert detect_encoding(text.lower()) == detect_encoding(text.upper())


class TestStatsProperties:
    @given(st.lists(entry_st(), max_size=40), st.integers(min_value=0, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_merge_matches_single_pass(self, entries, split):
        split = min(split, len(entries))
        single = StatsBundle().accumulate_all(entries)
        left = StatsBundle().accumulate_all(entries[:split])
        right = StatsBundle().accumulate_all(entries[split:])
        merged = left.merge(right)
        assert merged.rrtype_counts == single.rrtype_counts
        assert merged.sld_entries == single.sld_entries
        assert merged.per_day_rrtype == single.per_day_rrtype
        assert {s: len(v) for s, v in merged.sld_fqdns.items()} == {
            s: len(v) for s, v in single.sld_fqdns.items()
        }
        assert merged.sld_fqdn_counts() == single.sld_fqdn_counts()

    @given(st.lists(entry_st(), max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_merge_commutes_and_identity(self, entries):
        a = StatsBundle().accumulate_all(entries[: len(entries) // 2])
        b = StatsBundle().accumulate_all(entries[len(entries) // 2:])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.rrtype_counts == ba.rrtype_counts
        assert ab.day_sld_entries == ba.day_sld_entries
        with_empty = a.merge(StatsBundle())
        assert with_empty.rrtype_counts == a.rrtype_counts

    @given(st.lists(entry_st(), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_cdf_monotone_complete(self, entries):
        bundle = StatsBundle().accumulate_all(entries)
        cdf = bundle.sld_cdf()
        shares = [s for _, s in cdf.points]
        assert all(b >= a for a, b in zip(shares, shares[1:]))
        assert shares[-1] == pytest.approx(1.0, abs=1e-9)
        assert len(cdf.points) == len(bundle.sld_fqdns)

    @given(st.lists(entry_st(), min_size=1, max_size=50))
    @settings(max_examples=150, deadline=None)
    def test_shares_sum_to_one_and_buckets_sum_per_day(self, entries):
        bundle = StatsBundle().accumulate_all(entries)
        assert sum(s for _, _, s in bundle.rrtype_shares()) == pytest.approx(1.0, abs=1e-9)
        day_bucket_totals = {}
        for (day, _), c in bundle.rdata_buckets_per_day.items():
            day_bucket_totals[day] = day_bucket_totals.get(day, 0) + c
        day_totals = {}
        for (day, rrtype), c in bundle.per_day_rrtype.items():
            day_totals[day] = day_totals.get(day, 0) + c
        assert day_bucket_totals == day_totals


STAGE_IDS = {"types": "0", "known": "1", "level": "2", "special": "4"}


def apply_stage(name, entries, config):
    return keep_stage(STAGE_IDS[name], entries, config)


STAGE_ORDERS = [
    ("types", "known", "level", "special"),
    ("special", "level", "known", "types"),
    ("known", "special", "types", "level"),
    ("level", "types", "special", "known"),
]


class TestPipelineProperties:
    @given(st.lists(entry_st(), max_size=40), st.integers(min_value=0, max_value=3))
    @settings(max_examples=200, deadline=None)
    def test_per_entry_stages_commute(self, entries, order_idx):
        config = FilterConfig(known_tunnels=frozenset({"ab.com", "cd-x.net"}))
        baseline = entries
        for stage in STAGE_ORDERS[0]:
            baseline = apply_stage(stage, baseline, config)
        shuffled = entries
        for stage in STAGE_ORDERS[order_idx]:
            shuffled = apply_stage(stage, shuffled, config)
        assert {id(e) for e in baseline} == {id(e) for e in shuffled}

    @given(st.lists(entry_st(), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_stage_monotonicity(self, entries):
        config = FilterConfig()
        current = entries
        for stage in STAGE_ORDERS[0]:
            out = apply_stage(stage, current, config)
            assert {id(e) for e in out} <= {id(e) for e in current}
            current = out

    @given(st.lists(entry_st(), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_pipeline_idempotent(self, entries):
        config = FilterConfig()
        first = run_pipeline(entries, config, keep_entries=True)
        second = run_pipeline(first.survivor_entries, config)
        assert second.candidate_slds() == first.candidate_slds()

    @given(st.lists(entry_st(), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_accounting_chains(self, entries):
        report = run_pipeline(entries, FilterConfig())
        stages = report.stage_counts
        assert stages[0].entries_in == len(entries)
        for prev, cur in zip(stages, stages[1:]):
            assert cur.entries_in == prev.entries_out
            assert cur.entries_out <= cur.entries_in


# What each per-entry stage keeps, restated from the method's description
# without the production predicates.
STAGE_ORACLE = {
    "0": lambda e, sld, c: e.rrtype in c.prefilter_types,
    "1": lambda e, sld, c: sld not in c.cdn and sld not in c.known_tunnels,
    "2": lambda e, sld, c: e.rrname.level >= c.min_level,
    "4": lambda e, sld, c: not (
        e.rrname.labels[-1] == "arpa"
        or any(lab in ("_dmarc", "_domainkey", "_spf") or lab.endswith("_domainkey")
               for lab in e.rrname.labels)
        or (e.rrtype == "TXT" and any(
            v.lower().startswith(("v=spf1", "v=dkim1", "v=dmarc1")) for v in e.rdata))
    ),
}

SLD_POOL = ("cdn-a.com", "cdn-b.net", "tun.org", "watched.io", "plain.de")


class TestStageTable:
    @given(st.lists(st.one_of(entry_st(), entry_st(sld_pool=SLD_POOL)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_table_one_stage_at_a_time_matches_run_pipeline(self, entries):
        config = FilterConfig(
            cdn=frozenset({"cdn-a.com", "cdn-b.net"}),
            known_tunnels=frozenset({"tun.org"}),
            watchlist=frozenset({"watched.io"}),
            min_level=3,
        )
        report = run_pipeline(entries, config)
        stages = stage_table(config)
        assert [s.stage_id for s in report.stage_counts] == ["0", "1", "2", "4", "3"]
        current = entries
        for stage, count in zip(stages, report.stage_counts):
            assert (count.stage_id, count.name) == (stage.stage_id, stage.name)
            assert count.entries_in == len(current)
            kept = keep_stage(stage.stage_id, current, config)
            oracle = STAGE_ORACLE[stage.stage_id]
            assert kept == [e for e in current if oracle(e, sld_name(e), config)]
            if stage.stage_id == "1":
                kept_ids = {id(e) for e in kept}
                dropped = Counter(sld_name(e) for e in current if id(e) not in kept_ids)
                tallied = Counter(dict(report.dropped_known_tunnels + report.dropped_cdn))
                assert tallied == dropped
                assert {s for s, _ in report.dropped_cdn} <= config.cdn
            assert count.entries_out == len(kept)
            assert count.slds_out == len({sld_name(e) for e in kept})
            current = kept
        assert report.stage_counts[4].entries_in == len(current)
        watched = [e for e in entries if sld_name(e) == "watched.io"]
        assert [(h.sld, h.entry_count) for h in report.watchlist_hits] == (
            [("watched.io", len(watched))] if watched else []
        )

    @given(
        st.lists(st.one_of(entry_st(), entry_st(sld_pool=SLD_POOL)), max_size=40),
        st.frozensets(st.sampled_from(SLD_POOL), min_size=1),
        st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    )
    @settings(max_examples=200, deadline=None)
    def test_post_filter_rows_account_for_post_filtered(self, entries, alexa, days):
        config = FilterConfig(
            prefilter_types=frozenset(map(RRType.parse, RRTYPES)),
            known_tunnels=frozenset(),
            watchlist=frozenset({"watched.io"}),
            min_level=3,
            min_distinct_fqdns=1,
            drop_daily_seen=True,
            drop_single_entry=True,
            alexa_domains=alexa,
            observation_days=days,
        )
        report = run_pipeline(entries, config)
        ids = [s.stage_id for s in report.stage_counts]
        assert ids == ["0", "1", "2", "4", "3", "post:daily-seen", "post:single-entry", "post:alexa"]
        for prev, cur in zip(report.stage_counts[4:], report.stage_counts[5:]):
            removed = [row for row, reason in report.post_filtered if reason == cur.name]
            assert cur.entries_in == prev.entries_out
            assert cur.entries_out == prev.entries_out - sum(r.entry_count for r in removed)
            assert cur.slds_out == prev.slds_out - len(removed)
        assert not {row.sld for row, _ in report.post_filtered} & config.watchlist
        # The first filter, in table order, that drops a row names its reason.
        observed = report.observation_days
        for row, reason in report.post_filtered:
            first = ("daily-seen" if row.days_seen >= observed
                     else "single-entry" if row.entry_count == 1 else "alexa-top")
            assert reason == first
            assert first != "alexa-top" or row.sld in alexa
        for row in report.candidates:
            assert row.watchlist or not (
                row.days_seen >= observed or row.entry_count == 1 or row.sld in alexa
            )


class TestClassifyProperties:
    @given(entry_st())
    @settings(max_examples=200, deadline=None)
    def test_classify_is_deterministic_and_consistent(self, entry):
        profiles = ProfileSet.default()
        first = classify(entry, profiles)
        second = classify(entry, profiles)
        assert first == second
        if first.per_attribute:
            assert first.match_count == sum(first.per_attribute.values())
        if first.implementation != UNKNOWN and not first.provider_rule:
            assert first.match_count >= 6


def reference_labels(text: str) -> dict[str, tuple[str, str]]:
    """The sidecar mapping built the plain way: a fresh tuple per row."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if rows[:1] and rows[0][:1] == ["rrname"]:
        rows = rows[1:]
    return {row[0]: (row[1], row[2]) for row in rows if len(row) >= 3}


class TestReadLabelsProperties:
    @given(
        header=st.booleans(),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.sampled_from(["tunnel", "benign"]),
                st.sampled_from(["iodine-null", "dnscat2", "plain-a", "cdn-like"]),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_value_object_per_distinct_pair(self, tmp_path, header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(("rrname", "kind", "class"))
        # Names repeat, so later rows relabel earlier ones.
        writer.writerows((f"h{i}.tun.example", kind, cls) for i, kind, cls in rows)
        path = tmp_path / "labels.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        labels = read_labels(path)
        expected = reference_labels(buf.getvalue())
        assert labels == expected
        assert len({id(value) for value in labels.values()}) == len(set(expected.values()))
