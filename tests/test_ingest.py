import csv
import gc
import gzip
import io
import json
import sys
import warnings
import zlib
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdnskit import ingest
from pdnskit.ingest import (
    CSV_COLUMNS,
    FirstSeenState,
    IngestStats,
    RecordError,
    UnreadableSourceError,
    first_seen_filter,
    parse_record,
    read_stream,
)
from pdnskit.model import Fqdn, FqdnError, PdnsEntry, RRType, parse_fqdn

from conftest import TABLE_RECORD, make_entry, ndjson_line, write_ndjson

NOT_A_RECORD = "{not json"


def encode_records(records, fmt: str) -> str:
    """Records as NDJSON or CSV text. Each record is a dict of overrides to
    TABLE_RECORD, or a raw line; CSV writes a list value as a JSON string
    and None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for record in records:
        if isinstance(record, str):
            buf.write(record + "\n")
            continue
        fields = dict(TABLE_RECORD, **record)
        if fmt == "ndjson":
            buf.write(json.dumps(fields) + "\n")
        else:
            writer.writerow(
                "" if v is None else v if isinstance(v, str) else json.dumps(v)
                for v in (fields[c] for c in CSV_COLUMNS)
            )
    return buf.getvalue()


class TestParseRecord:
    def test_feed_example(self):
        entry = parse_record(dict(TABLE_RECORD))
        assert entry.domain.name == "teriava.com"
        assert entry.rrname.name == "dsu9jr2czl.teriava.com"
        assert entry.bailiwick.name == "teriava.com"
        assert entry.rrclass == "IN"
        assert entry.rrtype == "A"
        assert entry.rdata == ("127.0.0.1",)
        assert entry.time_seen == datetime(2017, 7, 1, 9, 35, 4, tzinfo=timezone.utc)

    def test_empty_side_fields_tolerated(self):
        record = dict(TABLE_RECORD, keys="", new_rr="", domain="", bailiwick="")
        entry = parse_record(record)
        assert entry.domain is None and entry.bailiwick is None

    def test_rdata_as_json_string(self):
        entry = parse_record(dict(TABLE_RECORD, rdata='["a","b"]'))
        assert entry.rdata == ("a", "b")

    def test_rdata_bare_string(self):
        entry = parse_record(dict(TABLE_RECORD, rdata="10 mx.example.com."))
        assert entry.rdata == ("10 mx.example.com.",)

    def test_name_cache_holds_only_parsed_names_up_to_its_cap(self):
        cache = ingest._NAME_CACHE
        cache.clear()
        bad = ["a..teriava.com.", "x" * 64 + ".com."]
        for i in range(3 * ingest._NAME_CACHE_CAP):
            domain = f"d{i % (2 * ingest._NAME_CACHE_CAP)}.com."
            entry = parse_record(dict(TABLE_RECORD, domain=domain, rrname=f"h.{domain}"))
            assert cache[domain] is entry.domain
            with pytest.raises(FqdnError):
                parse_record(dict(TABLE_RECORD, domain=bad[i % 2]))
            assert len(cache) <= ingest._NAME_CACHE_CAP
            assert not set(bad) & set(cache)
        assert all(isinstance(f, Fqdn) for f in cache.values())

    def test_records_are_built_in_c(self):
        # With the domain, bailiwick and rrtype cached, a record runs only
        # parse_record and parse_fqdn in Python: no constructor of either type.
        record = json.loads(ndjson_line())
        parse_record(record)
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_qualname)

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            entry = parse_record(record)
        finally:
            sys.setprofile(old)
        assert calls == ["parse_record", "parse_fqdn"]
        assert type(entry) is PdnsEntry and type(entry.rrname) is Fqdn


def reference_record(obj: dict) -> PdnsEntry:
    """README's record rules in README's check order (rrname text, rrtype,
    time_seen, rrclass, domain, bailiwick, rrname name, rdata), built only
    from the model's parsers: no cache and no name built from another."""

    def name_text(field):  # missing or blank is None; a non-string is BadField
        value = obj.get(field)
        if value is None:
            return None
        if not isinstance(value, str):
            raise RecordError("BadField", field)
        return value.strip() or None

    rrname = name_text("rrname")
    if rrname is None:
        raise RecordError("MissingField", "rrname")
    rrtype = obj.get("rrtype")
    if rrtype is None or isinstance(rrtype, str) and not rrtype.strip():
        raise RecordError("MissingField", "rrtype")
    try:
        rrtype = RRType.parse(rrtype) if isinstance(rrtype, str) else None
    except ValueError:
        rrtype = None
    if rrtype is None:
        raise RecordError("BadField", "rrtype")
    time_seen = obj.get("time_seen")
    if time_seen is None or time_seen == "":
        raise RecordError("MissingField", "time_seen")
    # README's shape: 19 characters, ASCII digits, and "-", " " and ":" where shown.
    shape = "dddd-dd-dd dd:dd:dd"
    if isinstance(time_seen, str) and len(time_seen) == len(shape) and all(
        c in "0123456789" if s == "d" else c == s for c, s in zip(time_seen, shape)
    ):
        try:
            time_seen = datetime.strptime(time_seen, "%Y-%m-%d %H:%M:%S").replace(tzinfo=timezone.utc)
        except ValueError:  # an impossible date or time
            time_seen = None
    else:
        time_seen = None
    if time_seen is None:
        raise RecordError("BadTimestamp", "time_seen")
    rrclass = obj.get("rrclass")
    if rrclass is None or rrclass == "":
        rrclass = "IN"
    elif not isinstance(rrclass, str):
        raise RecordError("BadField", "rrclass")
    domain, bailiwick = (None if text is None else parse_fqdn(text) for text in map(name_text, ("domain", "bailiwick")))
    name = parse_fqdn(rrname)
    rdata = obj.get("rdata")
    if isinstance(rdata, str):
        text = rdata.strip()
        if text.startswith("["):
            try:
                rdata = json.loads(text)
            except ValueError:
                raise RecordError("BadRdata", "rdata") from None
        else:
            rdata = [text] if text else []
    if rdata is None:
        rdata = []
    if not isinstance(rdata, list) or not all(isinstance(item, str) for item in rdata):
        raise RecordError("BadRdata", "rdata")
    return PdnsEntry(domain, time_seen, bailiwick, name, rrclass, rrtype, tuple(rdata))


ABSENT = object()  # a field left out of the record
NOT_STRINGS = [None, ABSENT, False, 0, 7, [], {}, ["IN"]]
# Not a string, though its str() is a timestamp of the feed's shape.
NAIVE_TIME = datetime(2017, 7, 1, 9, 35, 4)


class TextSubclass(str):
    """A string, though not of type str."""


def mostly(good: list, bad: list):
    """One of `good` seven times in eight, else one of `bad`, so that most
    records reach the fields checked last."""
    return st.integers(0, 7).flatmap(lambda i: st.sampled_from(good if i else bad))


hostname_st = st.one_of(
    st.lists(st.sampled_from(["a", "Ab", "x1", "-", "é", "Ü", "q" * 63, "w" * 64, "", " s "]), min_size=1, max_size=5)
    .map(".".join),
    st.sampled_from([
        "teriava.com.", "A.B.C.TERIAVA.COM", "  a.teriava.com.  ", "a.é.teriava.com", "ä.Ü.İ.teriava.com", ".", "a..b",
        "b" * 250 + ".com",
    ]),
)


@st.composite
def side_name_st(draw, rrname):
    """A `domain` or `bailiwick` value for a record whose rrname is `rrname`:
    the rrname itself, a label suffix of it or a name that is not one (as
    text, or as labels), re-cased, with or without the root dot, padded with
    whitespace, non-ASCII, invalid, blank or not a string."""
    if not isinstance(rrname, str) or draw(st.integers(0, 5)) == 0:
        return draw(
            st.sampled_from(["", "  ", "teriava.com", "a..com", "w" * 64 + ".com", "é.com", *NOT_STRINGS]) | hostname_st
        )
    labels = rrname.strip().rstrip(".").split(".")
    value = ".".join(labels[draw(st.integers(0, len(labels))):]) or draw(hostname_st)
    value = draw(st.sampled_from([
        lambda v: v, lambda v: v, lambda v: v[1:], lambda v: "x" + v, lambda v: "é" + v, lambda v: "x." + v,
    ]))(value)
    value = draw(st.sampled_from([str, str.upper, str.lower, str.swapcase]))(value)
    value = value.rstrip(".") + draw(st.sampled_from(["", ".", ".."]))
    return draw(st.sampled_from(["", " ", "\t", "\u3000"])) + value + draw(st.sampled_from(["", " ", "\n"]))


@st.composite
def record_st(draw) -> dict:
    rrname = draw(mostly([draw(hostname_st)], ["", "  ", *NOT_STRINGS]))
    fields = {
        "rrname": rrname,
        "rrtype": draw(mostly(["A", "txt", " NULL ", "TYPE65"], ["", " ", "A B", "é", *NOT_STRINGS])),
        "time_seen": draw(mostly(
            ["2017-07-01 09:35:04", "0999-12-31 23:59:59"],
            ["2017-02-30 00:00:00", "2017-07-01T09:35:04", "2017-07-01 24:00:00", "", " ", NAIVE_TIME, *NOT_STRINGS],
        )),
        "rrclass": draw(mostly(["IN", "CH", "", None, ABSENT], NOT_STRINGS)),
        "domain": draw(side_name_st(rrname)),
        "bailiwick": draw(side_name_st(rrname)),
        "rdata": draw(mostly(
            [["127.0.0.1"], [], ["a", "b"], "10 mx.example.com.", "  ", '["a","b"]', None, ABSENT],
            [["a", 7], [None], "[1]", "[x", '{"a": 1}', 7, {}],
        )),
    }
    return {k: v for k, v in fields.items() if v is not ABSENT}


def outcome(parse, record):
    """The entry with each name's `.name`, or the error kind."""
    try:
        entry = parse(record)
    except (RecordError, FqdnError) as exc:
        return exc.kind
    names = [None if f is None else (f.labels, f.name) for f in (entry.domain, entry.bailiwick, entry.rrname)]
    return entry, names, type(entry.rrtype)


@given(record_st())
@example(dict(TABLE_RECORD, rrname="a.é.teriava.com", domain="É.TERIAVA.COM", bailiwick="x.é.teriava.com"))
@example(dict(TABLE_RECORD, rrname="a.xteriava.com.", domain="teriava.com.", bailiwick=" A.XTERIAVA.COM "))
@example(dict(TABLE_RECORD, time_seen=NAIVE_TIME))
@example(dict(TABLE_RECORD, time_seen=TextSubclass("2017-07-01 09:35:04")))
@settings(max_examples=600)
def test_parse_record_matches_the_reference(record):
    """The production parse, with the name cache cold and then warm, gives
    the reference's entry or error kind for any record."""
    expected = outcome(reference_record, record)
    ingest._NAME_CACHE.clear()
    assert outcome(parse_record, record) == expected
    assert outcome(parse_record, record) == expected


json_value_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
json_space_st = st.text(alphabet=" \t\r\n\x0b\xa0", max_size=3)


@given(
    st.one_of(
        st.builds(
            lambda before, value, after, tail: before + json.dumps(value) + after + tail,
            json_space_st, json_value_st, json_space_st, st.sampled_from(["", "x", "{}", "]", "\ufeff"]),
        ),
        st.builds(lambda before, value: before + json.dumps(value), st.sampled_from(["\ufeff", "x"]), json_value_st),
        st.text(max_size=30),
    )
)
@settings(max_examples=500)
def test_ndjson_decode_accepts_what_json_loads_does(line):
    try:
        expected = json.loads(line)
    except (ValueError, RecursionError):
        expected = None
    if not isinstance(expected, dict):
        expected = None
    try:
        got = ingest._decode_ndjson(line.encode())
    except RecordError as exc:
        assert exc.kind == "BadRecord"
        got = None
    assert got == expected


def test_deeply_nested_line_with_escape_is_counted_not_raised():
    """The lone-surrogate check re-encodes a line holding a \\u escape, a
    few calls deeper than the scanner that read it: a line the scanner
    reads just below the recursion limit counts as BadRecord there."""
    lines = b"".join(
        (f'{{"rrname": {"[" * depth}"\\u00e9"{"]" * depth}}}\n').encode()
        for depth in range(sys.getrecursionlimit() - 400, sys.getrecursionlimit())
    )
    stats = IngestStats()
    assert list(read_stream(io.BytesIO(lines), stats=stats)) == []
    assert stats.read == 400 and stats.consistent()
    assert set(stats.rejected_by_error) <= {"BadRecord", "BadField"}


class TestReadStream:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.ndjson"
        write_ndjson(path, [ndjson_line()])
        stats = IngestStats()
        entries = list(read_stream(path, stats=stats))
        assert len(entries) == 1
        assert entries[0].domain.name == "teriava.com"
        assert stats.read == stats.accepted == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("", encoding="utf-8")
        stats = IngestStats()
        assert list(read_stream(path, stats=stats)) == []
        assert stats.read == 0

    def test_missing_rrname_counted(self, tmp_path):
        record = {k: v for k, v in TABLE_RECORD.items() if k != "rrname"}
        lines = [ndjson_line() for _ in range(3)] + [json.dumps(record)]
        path = tmp_path / "m.ndjson"
        write_ndjson(path, lines)
        stats = IngestStats()
        entries = list(read_stream(path, stats=stats))
        assert len(entries) == 3
        assert stats.rejected_by_error == {"MissingField": 1}
        assert stats.consistent()

    def test_malformed_records_never_abort(self, tmp_path):
        records = [
            {},
            NOT_A_RECORD,
            "[" * 5000 + "]" * 5000,  # deeper than the JSON decoder's recursion limit
            {"rrname": "bad..name.com."},
            {"time_seen": "yesterday"},
            {"rrname": ("x" * 64) + ".com."},
            {"rrname": "q." + ".".join(["y" * 60] * 5) + "."},
            {"rrtype": " "},
            {"rrtype": ["A"]},
            {"rrtype": "A B"},
            {"rdata": ["127.0.0.1", 1]},
            {},
        ]
        for fmt in ("ndjson", "csv"):
            path = tmp_path / f"mixed.{fmt}"
            path.write_text(encode_records(records, fmt), encoding="utf-8")
            stats = IngestStats()
            entries = list(read_stream(path, fmt=fmt, stats=stats))
            assert len(entries) == 2, fmt
            assert stats.rejected_by_error == {
                "BadRecord": 2,
                "EmptyLabel": 1,
                "BadTimestamp": 1,
                "LabelTooLong": 1,
                "NameTooLong": 1,
                "MissingField": 1,
                "BadField": 2,
                "BadRdata": 1,
            }, fmt
            assert stats.consistent()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.just(NOT_A_RECORD),
                st.fixed_dictionaries(
                    {},
                    optional={
                        "domain": st.sampled_from(["teriava.com.", "other.org.", "", None]),
                        "time_seen": st.sampled_from(["2017-07-02 00:00:01", "yesterday", ""]),
                        "rrname": st.sampled_from(["a.teriava.com.", "b..teriava.com.", "", None]),
                        "rrclass": st.sampled_from(["CH", "", None]),
                        "rrtype": st.sampled_from(["NULL", " txt ", "TYPE65", " ", "A B", ["A"], None]),
                        "rdata": st.sampled_from(
                            [["a", "b"], [], [1], "10 mx.teriava.com.", '["x"]', "[1", "", None]
                        ),
                    },
                ),
            ),
            max_size=8,
        )
    )
    def test_ndjson_and_csv_read_alike(self, records):
        results = []
        for fmt in ("ndjson", "csv"):
            stats = IngestStats()
            source = io.BytesIO(encode_records(records, fmt).encode("utf-8"))
            results.append((list(read_stream(source, fmt=fmt, stats=stats)), stats))
        (ndjson_entries, ndjson_stats), (csv_entries, csv_stats) = results
        assert ndjson_entries == csv_entries
        assert ndjson_stats == csv_stats
        assert ndjson_stats.read == len(records)
        assert ndjson_stats.consistent()

    def test_suffix_mismatch_kept_and_warned(self, tmp_path):
        path = tmp_path / "s.ndjson"
        write_ndjson(path, [ndjson_line(domain="unrelated.org.")])
        stats = IngestStats()
        entries = list(read_stream(path, stats=stats))
        assert len(entries) == 1
        assert stats.warnings == {"SuffixMismatch": 1}
        assert stats.consistent()

    def test_gzip_autodetected(self, tmp_path):
        path = tmp_path / "c.ndjson.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(ndjson_line() + "\n")
        assert len(list(read_stream(path))) == 1

    def test_truncated_gzip_keeps_the_records_before_the_cut(self):
        lines = [ndjson_line(rrname=f"h{i}.teriava.com.") for i in range(6)]
        packed = gzip.compress(("\n".join(lines) + "\n").encode("utf-8"))
        full = [e.rrname.name for e in read_stream(io.BytesIO(packed))]
        assert len(full) == 6
        # Every cut from the second byte on is a gzip stream without its end;
        # each line that decompresses whole before the cut is kept.
        for cut in range(2, len(packed)):
            decodable = zlib.decompressobj(wbits=31).decompress(packed[:cut])
            stats = IngestStats()
            names = [e.rrname.name for e in read_stream(io.BytesIO(packed[:cut]), stats=stats)]
            assert names == full[: decodable.count(b"\n")], cut
            assert stats.rejected_by_error == {"TruncatedInput": 1}, cut
            assert stats.read == len(names) + 1 and stats.consistent(), cut

    def test_file_object_input(self):
        buf = io.BytesIO(ndjson_line().encode() + b"\n")
        assert len(list(read_stream(buf))) == 1
        with pytest.raises(TypeError, match="binary file objects, not StringIO"):
            list(read_stream(io.StringIO(ndjson_line() + "\n")))

    def test_closes_only_what_it_opens(self, tmp_path, monkeypatch):
        data = (ndjson_line() + "\n") * 3
        plain, packed = tmp_path / "c.ndjson", tmp_path / "c.ndjson.gz"
        plain.write_text(data, encoding="utf-8")
        packed.write_bytes(gzip.compress(data.encode("utf-8")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for path in (plain, packed):
                assert len(list(read_stream(path))) == 3
                stream = read_stream(path)
                next(stream)
                stream.close()
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

        # A caller's file object and stdin stay open, gzip or not.
        for payload in (data.encode("utf-8"), gzip.compress(data.encode("utf-8"))):
            buf = io.BytesIO(payload)
            assert len(list(read_stream(buf))) == 3
            gc.collect()
            assert not buf.closed
            stdin = io.TextIOWrapper(io.BufferedReader(io.BytesIO(payload)), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
            stats = IngestStats()
            assert len(list(read_stream("-", stats=stats))) == 3
            gc.collect()
            assert not stdin.closed and stats.rejected == 0

    def test_unreadable_source_is_fatal(self, tmp_path):
        with pytest.raises(UnreadableSourceError):
            list(read_stream(tmp_path / "nope.ndjson"))

    def test_split_concatenation_equivalence(self, tmp_path):
        lines = [ndjson_line(rrname=f"h{i}.example.com.", domain="example.com.") for i in range(20)]
        whole = tmp_path / "whole.ndjson"
        write_ndjson(whole, lines)
        part_a, part_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_ndjson(part_a, lines[:7])
        write_ndjson(part_b, lines[7:])
        whole_entries = [e.rrname.name for e in read_stream(whole)]
        split_entries = [e.rrname.name for e in read_stream(part_a)] + [
            e.rrname.name for e in read_stream(part_b)
        ]
        assert whole_entries == split_entries


class TestCsv:
    HEADER = "domain,time_seen,bailiwick,rrname,rrclass,rrtype,rdata"

    def row(self, rrname="a.example.com.", rrtype="A", rdata='["127.0.0.1"]'):
        import csv as _csv

        buf = io.StringIO()
        _csv.writer(buf, lineterminator="\n").writerow(
            ("example.com.", "2017-07-01 09:35:04", "example.com.", rrname, "IN", rrtype, rdata)
        )
        return buf.getvalue().rstrip("\n")

    def test_fixed_column_order(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(self.row() + "\n", encoding="utf-8")
        entries = list(read_stream(path, fmt="csv"))
        assert entries[0].rrname.name == "a.example.com"
        assert entries[0].rdata == ("127.0.0.1",)

    def test_header_row_tolerated(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text(self.HEADER + "\n" + self.row() + "\n", encoding="utf-8")
        stats = IngestStats()
        assert len(list(read_stream(path, fmt="csv", stats=stats))) == 1
        assert stats.read == 1

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("a,b,c\n" + self.row() + "\n", encoding="utf-8")
        stats = IngestStats()
        assert len(list(read_stream(path, fmt="csv", stats=stats))) == 1
        assert stats.rejected_by_error == {"BadRecord": 1}

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(self.row(), encoding="utf-8")
        with pytest.raises(ValueError):
            list(read_stream(path, fmt="parquet"))


class TestFirstSeen:
    def entries(self, names):
        return [make_entry(n) for n in names]

    def test_duplicates_dropped(self, tmp_path):
        state = FirstSeenState()
        stats = IngestStats()
        out = list(
            first_seen_filter(
                self.entries(["a.x.com", "a.x.com", "b.x.com"]), state, stats
            )
        )
        assert [e.rrname.name for e in out] == ["a.x.com", "b.x.com"]
        assert stats.deduplicated == 1

        # One stats object shared by the reader and the filter, as the CLI
        # runs them: a dropped duplicate is no longer counted as accepted.
        path = tmp_path / "dups.ndjson"
        names = ["a.x.com.", "a.x.com.", "b.x.com.", "a.x.com."]
        write_ndjson(path, [ndjson_line(rrname=n, domain="x.com.") for n in names] + ["{bad"])
        stats = IngestStats()
        out = list(first_seen_filter(read_stream(path, stats=stats), FirstSeenState(), stats))
        assert len(out) == 2
        assert (stats.read, stats.accepted, stats.rejected, stats.deduplicated) == (5, 2, 1, 2)
        assert stats.consistent()

    def test_key_is_rrname_only(self):
        state = FirstSeenState()
        first = make_entry("a.x.com", rrtype="A")
        second = make_entry("a.x.com", rrtype="TXT")
        out = list(first_seen_filter([first, second], state))
        assert len(out) == 1

    def test_empty_stream(self):
        assert list(first_seen_filter([], FirstSeenState())) == []

    def test_exact_never_drops_new_names(self):
        names = [f"h{i}.x.com" for i in range(5000)]
        state = FirstSeenState()
        out = list(first_seen_filter(self.entries(names), state))
        assert len(out) == 5000
        # Brute-force comparison: output keys must equal the input set.
        assert {e.rrname.name for e in out} == set(names)
