import gzip
import hashlib
import io
import math
import sys
import threading
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnskit import tunnelgen
from pdnskit.fingerprint import ProfileSet, classify
from pdnskit.ingest import IngestStats, read_stream
from pdnskit.model import parse_fqdn
from pdnskit.pipeline import FilterConfig
from pdnskit.tables import read_labels
from pdnskit.tunnelgen import (
    BACKGROUND_KINDS,
    BackgroundSpec,
    GenConfig,
    GenConfigError,
    TunnelSpec,
    UnknownProfileError,
    demo_config,
    derive_plan,
    generate,
    write_corpus,
)
from pdnskit.tunnelgen import _base36, _below, _corpus_record

from conftest import keep_stage

ALL_SPECIAL_USE = FilterConfig()


@pytest.fixture(scope="module")
def profiles():
    return ProfileSet.default()


def corpus_bytes(config, profiles):
    return "\n".join(
        item.entry.rrname.name + "|" + str(item.entry.rrtype) + "|" + ",".join(item.entry.rdata)
        for item in generate(config, profiles)
    )


class TestGenerate:
    def test_iodine_contract(self, profiles):
        cfg = GenConfig(
            seed=2, tunnels=[TunnelSpec("iodine-null", "tun.example", "t", payload_bytes=4096)]
        )
        items = list(generate(cfg, profiles))
        assert len(items) >= 2
        names = {item.entry.rrname.name for item in items}
        assert len(names) == len(items)  # distinct rrname per chunk
        for item in items:
            assert item.kind == "tunnel" and item.label == "iodine-null"
            assert item.entry.rrtype == "NULL"
            assert len(item.entry.rrname.labels) >= 4
            assert item.entry.rrname.name.endswith(".t.tun.example")

    def test_determinism(self, profiles):
        cfg = demo_config(seed=42)
        assert corpus_bytes(cfg, profiles) == corpus_bytes(demo_config(seed=42), profiles)

    def test_seed_changes_output(self, profiles):
        assert corpus_bytes(demo_config(seed=1), profiles) != corpus_bytes(
            demo_config(seed=2), profiles
        )

    def test_query_count_tracks_payload(self, profiles):
        profile = profiles.by_name["iodine-null"]
        plan = derive_plan(profile, "tun.example", "t")
        plan_queries = plan.queries_for(10000)
        cfg = GenConfig(
            seed=3, tunnels=[TunnelSpec("iodine-null", "tun.example", "t", payload_bytes=10000)]
        )
        emitted = sum(1 for _ in generate(cfg, profiles))
        assert abs(emitted - plan_queries) <= 1
        # and the plan itself is ceil(payload / capacity)
        assert plan_queries == math.ceil(10000 / plan.bytes_per_query)

    def test_explicit_query_count(self, profiles):
        cfg = GenConfig(
            seed=4,
            tunnels=[TunnelSpec("dns2tcp", "tun.example", "d", payload_bytes=10, queries=25)],
        )
        assert sum(1 for _ in generate(cfg, profiles)) == 25

    def test_wire_length_invariants(self, profiles):
        # parse_fqdn would reject violations; re-check explicitly.
        for item in generate(demo_config(seed=9), profiles):
            labels = item.entry.rrname.labels
            assert all(1 <= len(lab) <= 63 for lab in labels)
            assert len(item.entry.rrname.name) <= 253

    def test_timestamps_inside_window(self, profiles):
        cfg = demo_config(seed=6)
        days = {item.entry.time_seen.date() for item in generate(cfg, profiles)}
        assert all(d.isoformat().startswith("2017-07-0") for d in days)
        assert len(days) == cfg.days  # spread across the whole window

    def test_background_classes_emit_expected_types(self, profiles):
        cfg = GenConfig(
            seed=7,
            background=[BackgroundSpec(kind, f"bg-{i}.net", 12) for i, kind in enumerate(BACKGROUND_KINDS)],
        )
        by_kind = {}
        for item in generate(cfg, profiles):
            assert item.kind == "benign"
            by_kind.setdefault(item.label, []).append(item.entry)
        assert set(by_kind) == set(BACKGROUND_KINDS)
        assert {str(e.rrtype) for e in by_kind["plain-a"]} == {"A"}
        assert {str(e.rrtype) for e in by_kind["cdn-like"]} == {"CNAME"}
        assert {str(e.rrtype) for e in by_kind["rdns-arpa"]} == {"PTR"}
        assert all(e.rrname.labels[-1] == "arpa" for e in by_kind["rdns-arpa"])
        assert all(e.rdata == ("127.0.0.1",) for e in by_kind["localhost-style"])
        assert all(len(e.rrname.labels) == 3 for e in by_kind["localhost-style"])

    def test_spf_background_is_dropped_by_special_use(self, profiles):
        cfg = GenConfig(seed=8, background=[BackgroundSpec("spf-txt", "mailer.org", 9)])
        entries = [item.entry for item in generate(cfg, profiles)]
        survivors = keep_stage("4", entries, ALL_SPECIAL_USE)
        assert survivors == []

    def test_dkim_background_is_dropped_by_special_use(self, profiles):
        cfg = GenConfig(seed=8, background=[BackgroundSpec("dkim-txt", "sender.net", 9)])
        entries = [item.entry for item in generate(cfg, profiles)]
        assert keep_stage("4", entries, ALL_SPECIAL_USE) == []

    def test_rdata_sizes_exercise_all_buckets(self, profiles):
        from pdnskit.stats import rdata_wire_size

        cfg = GenConfig(
            seed=10, tunnels=[TunnelSpec("iodine-null", "tun.example", "t", payload_bytes=71 * 400)]
        )
        sizes = [rdata_wire_size(item.entry.rdata) for item in generate(cfg, profiles)]
        assert any(s <= 100 for s in sizes)
        assert any(100 < s <= 1000 for s in sizes)
        assert any(s > 1000 for s in sizes)


class TestDraws:
    """The generator's draw helpers stand for `Random.randrange`: the same
    values from the same seed, and the same RNG state after. A change to
    CPython's algorithm shows here before it shows as a golden digest."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        n=st.one_of(
            st.sampled_from([1, 2, 36]),
            st.integers(0, 80).map(lambda k: 2**k),
            st.integers(0, 80).map(lambda k: 2**k + 1),
            st.integers(1, 2**300),
        ),
    )
    def test_below_is_randrange(self, seed, n):
        ours, ref = Random(seed), Random(seed)
        assert [_below(ours, n) for _ in range(5)] == [ref.randrange(n) for _ in range(5)]
        assert ours.getstate() == ref.getstate()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64), n=st.sampled_from([1, 2, 10, 37]))
    def test_base36_is_randrange_36(self, seed, n):
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        ours, ref = Random(seed), Random(seed)
        assert _base36(ours, n) == "".join(alphabet[ref.randrange(36)] for _ in range(n))
        assert ours.getstate() == ref.getstate()


EVERY_SHAPE = Path(__file__).parent / "golden" / "gen" / "every_shape.json"

# Upper-case ASCII is folded in generated names; a non-ASCII letter, upper
# case included, is kept as parse_fqdn keeps it. The test also gives
# dnscat2 a marker in mixed case.
MIXED_CASE = GenConfig(
    seed=21,
    tunnels=tuple(
        TunnelSpec(profile, sld, third, queries=4)
        for profile, sld, third in [
            ("iodine-null", "Tun-Ä.Example", "T"),
            ("dns2tcp", "TÜN.net", "Dé"),
            ("dnscat2", "Tun.Éx", "C"),
            ("your-freedom", "53R.DE", "A"),
            ("tunnelguru", "QV4.in", "G"),
            ("ozymandns", "ozy.Ñet", "UP"),
        ]
    ),
    background=tuple(
        BackgroundSpec(kind, sld, 9)
        for kind, sld in zip(BACKGROUND_KINDS, ["Shop.Ä", "CDN.Example", "Mäil.ORG", "Bulk.Ø", "Pool.ÉX", "Loop.Ü"])
    ),
)


@pytest.mark.parametrize("case", ["every-shape", "mixed-case"])
def test_generated_names_are_parse_fqdns(profiles, case):
    if case == "every-shape":
        config = GenConfig.from_json_file(EVERY_SHAPE)
    else:
        config = MIXED_CASE
        profiles = ProfileSet([p._replace(markers=("DnsCÄt",)) if p.name == "dnscat2" else p for p in profiles])
    zones = {parse_fqdn(spec.sld).name for spec in (*config.tunnels, *config.background)}
    for item in generate(config, profiles):
        entry = item.entry
        for fqdn in (entry.rrname, entry.domain, entry.bailiwick):
            parsed = parse_fqdn(fqdn.name)
            assert type(fqdn) is type(parsed)
            assert (fqdn.labels, fqdn.name) == (parsed.labels, parsed.name)
        assert entry.domain.name in zones or entry.domain.name.endswith(".in-addr.arpa")
        assert entry.rrname.labels[-len(entry.bailiwick.labels) :] == entry.bailiwick.labels


# A marker holding a dot is two labels: the chunk labels make up the rest
# of the profile's level count.
DOTTED_MARKERS = [("dns.cat", {"levels": (7, 7)}), ("dns.cat", {"payload_len": (50, 114)}), ("a.b.c", {"levels": (8, 8)})]


@pytest.mark.parametrize("marker, values", DOTTED_MARKERS, ids=["levels-7", "levels-6", "three-labels"])
def test_dotted_marker_keeps_the_profile_level_count(profiles, marker, values):
    dnscat2 = profiles.by_name["dnscat2"]._replace(markers=(marker,), **values)
    profiles = ProfileSet([dnscat2 if p.name == "dnscat2" else p for p in profiles])
    cfg = GenConfig(seed=4, tunnels=[TunnelSpec("dnscat2", "tun-delta.io", "c", queries=6)])
    for item in generate(cfg, profiles):
        rrname = item.entry.rrname
        assert len(rrname.labels) == dnscat2.levels[0]
        assert rrname.name.startswith(marker + ".")
        assert classify(item.entry, profiles).implementation == "dnscat2"


class TestValidation:
    def test_unknown_profile(self, profiles):
        cfg = GenConfig(tunnels=[TunnelSpec("no-such-tool", "x.net")])
        with pytest.raises(UnknownProfileError):
            list(generate(cfg, profiles))

    def test_bad_sld(self, profiles):
        cfg = GenConfig(tunnels=[TunnelSpec("iodine-null", "three.label.net")])
        with pytest.raises(GenConfigError):
            list(generate(cfg, profiles))

    def test_bad_queries(self, profiles):
        cfg = GenConfig(tunnels=[TunnelSpec("iodine-null", "x.net", queries=0)])
        with pytest.raises(GenConfigError):
            list(generate(cfg, profiles))

    def test_bad_background_kind(self, profiles):
        cfg = GenConfig(background=[BackgroundSpec("weird", "x.net")])
        with pytest.raises(GenConfigError):
            list(generate(cfg, profiles))

    def test_bad_days(self, profiles):
        with pytest.raises(GenConfigError):
            list(generate(GenConfig(days=0), profiles))

    def test_longest_background_host_that_fits(self, profiles):
        sld = "b" * 58 + "." + ".".join(["a" * 61] * 3)  # 244 bytes: img9.cdn.<sld> is 253
        cfg = GenConfig(background=[BackgroundSpec("cdn-like", sld, 10)])
        assert max(len(item.entry.rrname.name) for item in generate(cfg, profiles)) == 253

    def test_each_plan_derived_once(self, profiles, monkeypatch):
        from pdnskit import tunnelgen

        calls = []
        monkeypatch.setattr(tunnelgen, "derive_plan", lambda *args: calls.append(args) or derive_plan(*args))
        cfg = demo_config(seed=5)
        cfg = cfg._replace(tunnels=(*cfg.tunnels, TunnelSpec("dnscat", "tun-fixed.net", "q", queries=3)))
        list(generate(cfg, profiles))
        assert len(calls) == len(cfg.tunnels)


class TestWriteCorpus:
    def test_roundtrip_through_ingest(self, tmp_path, profiles):
        cfg = demo_config(seed=12)
        expected = sum(1 for _ in generate(cfg, profiles))
        corpus, labels = write_corpus(generate(cfg, profiles), tmp_path / "corpus.ndjson")
        stats = IngestStats()
        entries = list(read_stream(corpus, stats=stats))
        assert len(entries) == expected
        assert stats.rejected == 0
        assert stats.consistent()

    def test_labels_cover_every_rrname_exactly_once(self, tmp_path, profiles):
        cfg = demo_config(seed=13)
        corpus, labels_file = write_corpus(generate(cfg, profiles), tmp_path / "c.ndjson")
        labels = read_labels(labels_file)
        rrnames = {e.rrname.name for e in read_stream(corpus)}
        assert set(labels) == rrnames

    def test_gzip_output_rereadable(self, tmp_path, profiles):
        cfg = GenConfig(seed=14, background=[BackgroundSpec("plain-a", "shop.io", 6)])
        corpus, _ = write_corpus(generate(cfg, profiles), tmp_path / "c.ndjson.gz")
        with gzip.open(corpus, "rt", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 6
        assert len(list(read_stream(corpus))) == 6

    def test_gzip_bytes_fixed_by_seed(self, tmp_path, profiles, monkeypatch):
        # The second run is written at another clock time; the gzip header
        # must not record it.
        cfg = GenConfig(seed=15, background=[BackgroundSpec("plain-a", "shop.io", 6)])
        first, _ = write_corpus(generate(cfg, profiles), tmp_path / "a" / "c.ndjson.gz")
        with monkeypatch.context() as m:
            m.setattr(gzip.time, "time", lambda: 86400.0)
            second, _ = write_corpus(generate(cfg, profiles), tmp_path / "b" / "c.ndjson.gz")
        digests = {hashlib.sha256(path.read_bytes()).hexdigest() for path in (first, second)}
        assert len(digests) == 1

    def test_config_json_roundtrip(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(
            """
            {
              "seed": 77,
              "start_date": "2017-08-01",
              "days": 2,
              "tunnels": [{"profile": "iodine-null", "sld": "t1.net", "third": "u", "payload_bytes": 500}],
              "background": [{"kind": "plain-a", "sld": "b.org", "queries": 4}]
            }
            """,
            encoding="utf-8",
        )
        cfg = GenConfig.from_json_file(path)
        assert cfg.seed == 77
        assert cfg.days == 2
        assert cfg.tunnels[0].profile == "iodine-null"
        assert cfg.background[0].queries == 4

    def test_bad_config_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"tunnels": [{"wrong_key": 1}]}', encoding="utf-8")
        with pytest.raises(GenConfigError):
            GenConfig.from_json_file(path)


def one_thread_gzip(path: Path, lines) -> bytes:
    """The bytes of `lines` gzipped the way a text file over one `GzipFile`
    writes them: line by line, closed by `TextIOWrapper.close()`. The header
    holds the file's name, so `path` must have the name under test."""
    path.parent.mkdir()
    with io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
    return path.read_bytes()


# A corpus of several blocks, NULL tunnel records of over 1 KB included; the
# same in blocks of 512 characters, each thread switching every 10 us; and
# one with no entry at all.
SEVERAL_BLOCKS = demo_config(seed=16)._replace(
    background=(*demo_config().background, BackgroundSpec("localhost-style", "loop.example", 6000))
)
GZIP_CASES = {
    "several-blocks": (SEVERAL_BLOCKS, tunnelgen._BLOCK_CHARS),
    "tiny-blocks": (SEVERAL_BLOCKS, 512),
    "empty": (GenConfig(seed=16), tunnelgen._BLOCK_CHARS),
}


@pytest.mark.parametrize("case", sorted(GZIP_CASES))
def test_gzip_bytes_equal_a_one_thread_writer(tmp_path, profiles, monkeypatch, case):
    config, block_chars = GZIP_CASES[case]
    lines = [_corpus_record(item.entry) for item in generate(config, profiles)]
    threads = threading.active_count()
    writes = []  # (thread, size) of each block deflated
    gzip_write = gzip.GzipFile.write
    monkeypatch.setattr(
        gzip.GzipFile, "write", lambda gz, data: writes.append((threading.current_thread(), len(data))) or gzip_write(gz, data)
    )
    monkeypatch.setattr(tunnelgen, "_BLOCK_CHARS", block_chars)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5 if case == "tiny-blocks" else interval)
    try:
        corpus, _ = write_corpus(generate(config, profiles), tmp_path / "c.ndjson.gz")
    finally:
        sys.setswitchinterval(interval)
        monkeypatch.undo()
    assert threading.active_count() == threads
    assert all(thread is not threading.main_thread() for thread, _ in writes)
    blocks = [size for _, size in writes if size]
    assert sum(blocks) == sum(map(len, lines))
    assert len(blocks) >= 3 if lines else not blocks
    assert max(blocks, default=0) < block_chars + 2000
    assert corpus.read_bytes() == one_thread_gzip(tmp_path / "reference" / corpus.name, lines)
