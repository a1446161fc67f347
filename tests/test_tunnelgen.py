import gzip
import hashlib
import math

import pytest

from pdnskit.fingerprint import ProfileSet
from pdnskit.ingest import IngestStats, read_stream
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
