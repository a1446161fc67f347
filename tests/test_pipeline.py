import pytest

from pdnskit.fingerprint import ProfileSet
from pdnskit.model import RRType
from pdnskit.pipeline import (
    CandidateReport,
    ConfigError,
    FilterConfig,
    run_pipeline,
)
from pdnskit.tunnelgen import BackgroundSpec, GenConfig, TunnelSpec, generate

from conftest import keep_stage, make_entry

DEFAULTS = FilterConfig()


@pytest.fixture(scope="module")
def profiles():
    return ProfileSet.default()


def planted_corpus(profiles, n_tunnels=20, benign_per_class=9, seed=21):
    """Labeled mixed corpus: NULL/TXT tunnels plus all benign classes."""
    tunnel_profiles = ["iodine-null", "iodine-txt", "dns2tcp", "ozymandns"]
    tunnels = [
        TunnelSpec(
            tunnel_profiles[i % len(tunnel_profiles)],
            f"planted{i:02d}.net",
            "t",
            payload_bytes=900,
        )
        for i in range(n_tunnels)
    ]
    background = []
    kinds = ("plain-a", "cdn-like", "spf-txt", "dkim-txt", "rdns-arpa", "localhost-style")
    for i, kind in enumerate(kinds):
        for j in range(benign_per_class):
            background.append(BackgroundSpec(kind, f"benign-{kind}-{j}.org", 12))
    cfg = GenConfig(seed=seed, days=3, tunnels=tunnels, background=background)
    return list(generate(cfg, profiles))


class TestPrefilterRrtype:
    def test_null_passes_a_dropped(self):
        null_entry = make_entry("x.t.example.net", "NULL")
        a_entry = make_entry("y.t.example.net", "A")
        out = keep_stage("0", [null_entry, a_entry], DEFAULTS)
        assert out == [null_entry]

    def test_share_shaped_fixture(self):
        # Counts shaped like the observed type distribution per 10000.
        counts = {"A": 5490, "NULL": 2117, "AAAA": 967, "CNAME": 768,
                  "TXT": 204, "NS": 38, "MX": 3, "SOA": 413}
        entries = []
        i = 0
        for rrtype, n in counts.items():
            for _ in range(n):
                entries.append(make_entry(f"h{i}.x.com", rrtype))
                i += 1
        null_only = FilterConfig(prefilter_types=frozenset({RRType.parse("NULL")}))
        survivors = keep_stage("0", entries, null_only)
        assert len(survivors) / len(entries) == pytest.approx(0.2117, abs=1e-9)
        # keeping NULL only reduces the stream by more than 70%
        assert 1 - len(survivors) / len(entries) > 0.70


class TestFilterKnownDomains:
    def test_known_tunnel_counted(self):
        config = FilterConfig.from_files()
        entries = [
            make_entry("x1y2z3.a.53r.de", "NULL", "53r.de"),
            make_entry("other.site.net", "NULL", "site.net"),
        ]
        out = keep_stage("1", entries, config)
        assert [e.rrname.name for e in out] == ["other.site.net"]
        report = run_pipeline(entries, config)
        assert report.dropped_known_tunnels == [("53r.de", 1)]
        assert report.dropped_cdn == []

    def test_cdn_domain_dropped(self):
        config = FilterConfig(cdn=frozenset({"cnr.io"}), known_tunnels=frozenset())
        entries = [make_entry("a.cnr.io", "TXT", "cnr.io")]
        assert keep_stage("1", entries, config) == []
        report = run_pipeline(entries, config)
        assert report.dropped_cdn == [("cnr.io", 1)]
        assert report.dropped_known_tunnels == []

    def test_list_domains_normalized_like_hostnames(self, tmp_path):
        # Hostnames fold ASCII case only: x.ÄB.de has the SLD Äb.de.
        watchlist = tmp_path / "watchlist.txt"
        watchlist.write_text("ÄB.de\nFoo.COM.\n", encoding="utf-8")
        config = FilterConfig.from_files(watchlist=watchlist, min_level=3)
        assert config.watchlist == {"Äb.de", "foo.com"}
        entries = [make_entry("x.ÄB.de", "NULL"), make_entry("y.ÄB.de", "NULL")]
        report = run_pipeline(entries, config)
        assert [h.sld for h in report.watchlist_hits] == ["Äb.de"]

    def test_unknown_sld_passes(self):
        entry = make_entry("a.unknown-thing.net", "NULL")
        assert keep_stage("1", [entry], DEFAULTS) == [entry]


class TestFilterMinLevel:
    def test_default_threshold(self):
        level3 = make_entry("t.example.com", "NULL")
        level4 = make_entry("data1.t.example.com", "NULL")
        assert keep_stage("2", [level3, level4], DEFAULTS) == [level4]

    def test_feed_rrname_dropped(self, table_entry):
        assert keep_stage("2", [table_entry], DEFAULTS) == []


class TestFilterSpecialUse:
    def test_arpa_dropped(self):
        entry = make_entry("1.2.3.10.in-addr.arpa", "PTR")
        assert keep_stage("4", [entry], DEFAULTS) == []

    def test_dmarc_label_dropped(self):
        entry = make_entry("_dmarc.example.com", "TXT")
        assert keep_stage("4", [entry], DEFAULTS) == []

    def test_dkim_name_and_rdata_single_drop(self):
        entry = make_entry(
            "selector1._domainkey.example.com", "TXT", rdata=("v=DKIM1; k=rsa; p=abc",)
        )
        # both the name rule and the rdata rule fire; the entry is dropped once
        survivors = keep_stage("4", [entry, make_entry("ok.deep.example.com", "TXT")], DEFAULTS)
        assert len(survivors) == 1
        assert survivors[0].rrname.name == "ok.deep.example.com"

    def test_spf_rdata_dropped_case_insensitively(self):
        entry = make_entry("deep.x.example.com", "TXT", rdata=("V=SPF1 -all",))
        assert keep_stage("4", [entry], DEFAULTS) == []

    def test_spf_rdata_on_null_not_checked(self):
        entry = make_entry("deep.x.example.com", "NULL", rdata=("v=spf1 -all",))
        assert keep_stage("4", [entry], DEFAULTS) == [entry]


class TestFilterMinSubdomains:
    # Three-label names, so only the grouping stage decides.
    CONFIG = FilterConfig(min_level=3, min_distinct_fqdns=2)

    def test_counts(self):
        entries = []
        for sld, n in (("one.com", 1), ("uno.org", 1), ("two.net", 2), ("three.io", 3), ("nine.de", 9)):
            for i in range(n):
                entries.append(make_entry(f"sub{i}.{sld}", "NULL", sld))
        report = run_pipeline(entries, self.CONFIG)
        assert set(report.candidate_slds()) == {"two.net", "three.io", "nine.de"}

    def test_single_fqdn_dropped(self):
        entries = [make_entry("only.lonely.net", "NULL", "lonely.net")] * 3
        assert run_pipeline(entries, self.CONFIG).candidates == []

    def test_two_distinct_kept(self):
        entries = [
            make_entry("a.pair.net", "NULL", "pair.net"),
            make_entry("b.pair.net", "NULL", "pair.net"),
        ]
        assert run_pipeline(entries, self.CONFIG).candidate_slds() == ["pair.net"]


class TestRunPipeline:
    def test_planted_corpus_recall_and_precision(self, profiles):
        items = planted_corpus(profiles)
        config = FilterConfig()
        report = run_pipeline((item.entry for item in items), config)
        planted = {f"planted{i:02d}.net" for i in range(20)}
        assert set(report.candidate_slds()) == planted
        benign = {item.entry for item in items if item.kind == "benign"}
        assert not any(row.sld.startswith("benign-") for row in report.candidates)

    def test_empty_stream(self):
        report = run_pipeline([], FilterConfig())
        assert report.candidates == []
        assert report.input_entries == 0
        assert all(s.entries_in == 0 and s.entries_out == 0 for s in report.stage_counts)

    def test_accounting_chains(self, profiles):
        items = planted_corpus(profiles, n_tunnels=6, benign_per_class=3)
        report = run_pipeline((item.entry for item in items), FilterConfig())
        stages = report.stage_counts
        assert stages[0].entries_in == report.input_entries
        for prev, cur in zip(stages, stages[1:]):
            assert cur.entries_in == prev.entries_out
            assert cur.entries_out <= cur.entries_in

    def test_monotonic_stage_outputs(self, profiles):
        items = planted_corpus(profiles, n_tunnels=4, benign_per_class=2)
        report = run_pipeline((item.entry for item in items), FilterConfig())
        for stage in report.stage_counts:
            assert stage.entries_out <= stage.entries_in

    def test_idempotence(self, profiles):
        items = planted_corpus(profiles, n_tunnels=8, benign_per_class=4)
        config = FilterConfig()
        first = run_pipeline((item.entry for item in items), config, keep_entries=True)
        second = run_pipeline(first.survivor_entries, config)
        assert second.candidate_slds() == first.candidate_slds()

    def test_daily_seen_post_filter_moves_candidates(self, profiles):
        # Tunnels span every day of the window; the post-filter flags them.
        tunnels = [
            TunnelSpec("iodine-null", "everyday.net", "t", payload_bytes=71 * 300),
            TunnelSpec("iodine-txt", "someday.net", "t", payload_bytes=71 * 2, queries=2),
        ]
        cfg = GenConfig(seed=31, days=3, tunnels=tunnels)
        entries = [item.entry for item in generate(cfg, profiles)]
        config = FilterConfig(drop_daily_seen=True)
        report = run_pipeline(entries, config)
        assert report.observation_days == 3
        moved = {sld for (row, reason) in [(c, r) for c, r in report.post_filtered]
                 for sld in [row.sld] if reason == "daily-seen"}
        assert "everyday.net" in moved
        assert "someday.net" in report.candidate_slds()

    def test_single_entry_post_filter(self):
        entries = [
            make_entry("only.single.net", "NULL", "single.net"),
            make_entry("a.pair.org", "NULL", "pair.org"),
            make_entry("b.pair.org", "NULL", "pair.org"),
        ]
        deep = [make_entry(f"x.{e.rrname.name}", e.rrtype, e.domain.name) for e in entries]
        config = FilterConfig(min_distinct_fqdns=1, drop_single_entry=True)
        report = run_pipeline(deep, config)
        assert "single.net" not in report.candidate_slds()
        assert "pair.org" in report.candidate_slds()
        assert any(reason == "single-entry" for _, reason in report.post_filtered)

    def test_alexa_post_filter(self):
        entries = [
            make_entry("a.t.popular.com", "NULL", "popular.com"),
            make_entry("b.t.popular.com", "NULL", "popular.com"),
            make_entry("a.t.obscure.net", "NULL", "obscure.net"),
            make_entry("b.t.obscure.net", "NULL", "obscure.net"),
        ]
        config = FilterConfig(alexa_domains=frozenset({"popular.com"}))
        report = run_pipeline(entries, config)
        assert report.candidate_slds() == ["obscure.net"]
        assert [(c.sld, r) for c, r in report.post_filtered] == [("popular.com", "alexa-top")]

    def test_watchlist_never_dropped_and_annotated(self):
        entries = [
            make_entry("k1.teriava.com", "NULL", "teriava.com"),
            make_entry("k2.teriava.com", "NULL", "teriava.com"),
            make_entry("plain.teriava.com", "A", "teriava.com"),
        ]
        config = FilterConfig.from_files(
            watchlist="builtin",
            min_level=3,
            alexa_domains=frozenset({"teriava.com"}),
        )
        report = run_pipeline(entries, config)
        rows = {c.sld: c for c in report.candidates}
        assert "teriava.com" in rows
        assert rows["teriava.com"].watchlist
        hits = {h.sld: h for h in report.watchlist_hits}
        assert hits["teriava.com"].entry_count == 3  # includes the A entry
        assert hits["teriava.com"].rrtype_mix == {"NULL": 2, "A": 1}

    def test_candidate_rows_carry_provenance(self, profiles):
        items = planted_corpus(profiles, n_tunnels=2, benign_per_class=1)
        report = run_pipeline((item.entry for item in items), FilterConfig())
        for row in report.candidates:
            assert row.fqdn_count >= 2
            assert row.entry_count >= row.fqdn_count
            assert 1 <= row.days_seen <= 3
            assert row.dominant_bailiwick.endswith(row.sld)
            assert 1 <= len(row.samples) <= 10
            assert sum(row.rrtype_mix.values()) == row.entry_count

    def test_report_serialization(self, tmp_path, profiles):
        items = planted_corpus(profiles, n_tunnels=3, benign_per_class=2)
        report = run_pipeline((item.entry for item in items), FilterConfig())
        paths = report.write(tmp_path)
        assert {p.name for p in paths} == {"candidates.json", "candidates.txt", "stage_counts.csv"}
        text = (tmp_path / "candidates.txt").read_text()
        assert "candidate SLDs" in text
        assert "planted00.net" in text


class TestConfigValidation:
    def test_bad_min_level(self):
        with pytest.raises(ConfigError):
            FilterConfig(min_level=0)

    def test_bad_min_distinct(self):
        with pytest.raises(ConfigError):
            FilterConfig(min_distinct_fqdns=0)

    def test_empty_types(self):
        with pytest.raises(ConfigError):
            FilterConfig(prefilter_types=frozenset())

    @pytest.mark.parametrize("days", [0, -3])
    def test_bad_observation_days(self, days):
        with pytest.raises(ConfigError, match="observation_days"):
            FilterConfig(drop_daily_seen=True, observation_days=days)

    def test_known_lists_must_be_disjoint(self):
        with pytest.raises(ConfigError):
            FilterConfig(
                cdn=frozenset({"x.com"}),
                known_tunnels=frozenset({"x.com"}),
            )

    @pytest.mark.parametrize(
        "value, changes",
        [
            (FilterConfig(), {"min_level": 0}),
            (FilterConfig(), {"prefilter_types": frozenset()}),
            (FilterConfig(), {"observation_days": 0}),
            (FilterConfig(cdn=frozenset({"x.com"}), known_tunnels=frozenset()), {"watchlist": frozenset({"x.com"})}),
        ],
        ids=["min-level", "no-types", "observation-days", "overlap"],
    )
    def test_replace_checks_like_the_constructor(self, value, changes):
        with pytest.raises(ConfigError):
            value._replace(**changes)
        assert value._replace() == value

    def test_bundled_lists_are_read_once(self):
        assert FilterConfig().known_tunnels is FilterConfig().known_tunnels
        first, second = (FilterConfig.from_files(watchlist="builtin") for _ in range(2))
        assert first.known_tunnels is second.known_tunnels
        assert first.watchlist is second.watchlist
