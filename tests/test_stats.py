import csv
import json
import random
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdnskit.model import RRType
from pdnskit.stats import (
    EmptyBundleError,
    NAMED_RRTYPES,
    RDATA_BUCKETS,
    CdfSeries,
    StatsBundle,
    rdata_wire_size,
)
from pdnskit.tables import write_json

from conftest import make_entry


def naive_recount(entries):
    """Independent second-pass oracle: plain loops, no bundle machinery.
    Holds every stored field of a bundle and every derived view."""
    out = {
        "total": len(entries),
        "rrtype": Counter(),
        "per_day_rrtype": Counter(),
        "level_per_day": Counter(),
        "buckets_per_day": Counter(),
        "sld_entries": Counter(),
        "sld_fqdns": {},
        "type_sld_fqdns": {},
        "type_sld_entries": {},
        "day_sld_entries": {},
        "sld_rdata_sum": Counter(),
        "min_day": min((e.time_seen.date() for e in entries), default=None),
        "max_day": max((e.time_seen.date() for e in entries), default=None),
    }
    for e in entries:
        day = e.time_seen.date()
        if e.domain is not None and (
            e.rrname.name == e.domain.name
            or e.rrname.name.endswith("." + e.domain.name)
        ):
            sld = e.domain.name
        else:
            sld = ".".join(e.rrname.labels[-2:])
        serialized = "[" + ",".join('"' + v + '"' for v in e.rdata) + "]"
        size = len(serialized.encode("utf-8"))
        bucket = "<=100" if size <= 100 else ("101-1000" if size <= 1000 else ">1000")
        out["rrtype"][e.rrtype] += 1
        out["per_day_rrtype"][(day, e.rrtype)] += 1
        out["level_per_day"][(day, len(e.rrname.labels))] += 1
        out["buckets_per_day"][(day, bucket)] += 1
        out["sld_entries"][sld] += 1
        out["sld_fqdns"].setdefault(sld, set()).add(e.rrname.name)
        out["type_sld_fqdns"].setdefault(e.rrtype, {}).setdefault(sld, set()).add(e.rrname.name)
        out["type_sld_entries"].setdefault(e.rrtype, Counter())[sld] += 1
        out["day_sld_entries"].setdefault(day, Counter())[sld] += 1
        out["sld_rdata_sum"][sld] += size
    return out


def assert_bundle_matches_naive(bundle, entries):
    naive = naive_recount(entries)
    # stored fields
    assert bundle.per_day_rrtype == naive["per_day_rrtype"]
    assert bundle.level_per_day == naive["level_per_day"]
    assert bundle.rdata_buckets_per_day == naive["buckets_per_day"]
    assert bundle.sld_rdata_sum == naive["sld_rdata_sum"]
    assert bundle.type_sld_entries == naive["type_sld_entries"]
    assert bundle.type_sld_fqdns == naive["type_sld_fqdns"]
    assert bundle.day_sld_entries == naive["day_sld_entries"]
    # derived views
    assert bundle.total == naive["total"]
    assert bundle.rrtype_counts == naive["rrtype"]
    assert bundle.min_day == naive["min_day"]
    assert bundle.max_day == naive["max_day"]
    assert bundle.sld_entries == naive["sld_entries"]
    assert bundle.sld_fqdns == naive["sld_fqdns"]
    assert bundle.sld_fqdn_counts() == {s: len(v) for s, v in naive["sld_fqdns"].items()}


def bundles_identical(a, b) -> bool:
    """Exact pointwise equality of every stored field and derived view."""
    return (
        a.per_day_rrtype == b.per_day_rrtype
        and a.level_per_day == b.level_per_day
        and a.rdata_buckets_per_day == b.rdata_buckets_per_day
        and a.sld_rdata_sum == b.sld_rdata_sum
        and a.type_sld_entries == b.type_sld_entries
        and a.type_sld_fqdns == b.type_sld_fqdns
        and a.day_sld_entries == b.day_sld_entries
        and a.total == b.total
        and a.rrtype_counts == b.rrtype_counts
        and a.min_day == b.min_day
        and a.max_day == b.max_day
        and a.sld_entries == b.sld_entries
        and a.sld_fqdns == b.sld_fqdns
        and a.sld_fqdn_counts() == b.sld_fqdn_counts()
    )


def random_entries(n, seed=0, days=5, slds=8):
    rng = random.Random(seed)
    types = ["A", "AAAA", "NULL", "TXT", "CNAME", "NS", "MX", "SOA", "PTR"]
    entries = []
    for i in range(n):
        sld = f"dom{rng.randrange(slds)}.com"
        depth = rng.randrange(0, 4)
        subs = ".".join(f"s{rng.randrange(10)}" for _ in range(depth))
        rrname = f"{subs}.{sld}" if subs else sld
        day = 1 + rng.randrange(days)
        rdata = tuple(
            "x" * rng.randrange(1, 400) for _ in range(rng.randrange(0, 3))
        )
        entries.append(
            make_entry(
                rrname,
                rrtype=rng.choice(types),
                domain=sld if rng.random() < 0.8 else None,
                time_seen=f"2017-07-{day:02d} {rng.randrange(24):02d}:00:00",
                rdata=rdata,
            )
        )
    return entries


class TestRdataWireSize:
    def test_bit_exact_rule(self):
        assert rdata_wire_size(()) == 2
        assert rdata_wire_size(("v1",)) == len('["v1"]')
        assert rdata_wire_size(("v1", "v2")) == len('["v1","v2"]')

    def test_json_oracle(self):
        for rdata in ((), ("127.0.0.1",), ("a", "bb", "ccc"), ("x" * 200,)):
            expected = len(json.dumps(list(rdata), separators=(",", ":")).encode())
            assert rdata_wire_size(rdata) == expected

    def test_non_ascii_counts_bytes(self):
        assert rdata_wire_size(("é",)) == 2 + 2 + 2  # brackets, quotes, 2 bytes


class TestAccumulate:
    def test_feed_example(self, table_entry):
        bundle = StatsBundle()
        bundle.accumulate(table_entry)
        assert bundle.rrtype_counts[RRType.parse("A")] == 1
        assert bundle.level_per_day[(date(2017, 7, 1), 3)] == 1
        assert bundle.rdata_buckets_per_day[(date(2017, 7, 1), "<=100")] == 1
        assert bundle.sld_entries["teriava.com"] == 1
        assert bundle.total == 1

    def test_empty_bundle_is_all_zero(self):
        bundle = StatsBundle()
        assert bundle.total == 0
        assert not bundle.rrtype_counts
        assert bundle.min_day is None

    def test_ten_entry_fixture_matches_hand_count(self):
        entries = [
            make_entry("a.x.com", "A", "x.com", "2017-07-01 00:00:01"),
            make_entry("b.x.com", "A", "x.com", "2017-07-01 10:00:00"),
            make_entry("b.x.com", "TXT", "x.com", "2017-07-02 00:00:00"),
            make_entry("c.y.net", "NULL", "y.net", "2017-07-01 05:00:00"),
            make_entry("d.c.y.net", "NULL", "y.net", "2017-07-02 06:00:00"),
            make_entry("y.net", "NS", "y.net", "2017-07-02 07:00:00"),
            make_entry("e.z.org", "CNAME", "z.org", "2017-07-03 08:00:00"),
            make_entry("f.z.org", "A", "z.org", "2017-07-03 09:00:00"),
            make_entry("g.z.org", "A", "z.org", "2017-07-03 10:00:00"),
            make_entry("h.w.io", "AAAA", "w.io", "2017-07-01 11:00:00"),
        ]
        bundle = StatsBundle().accumulate_all(entries)
        assert bundle.total == 10
        assert bundle.rrtype_counts == {
            "A": 4, "TXT": 1, "NULL": 2, "NS": 1, "CNAME": 1, "AAAA": 1,
        }
        assert bundle.sld_entries == {
            "x.com": 3, "y.net": 3, "z.org": 3, "w.io": 1,
        }
        assert {s: len(v) for s, v in bundle.sld_fqdns.items()} == {
            "x.com": 2, "y.net": 3, "z.org": 3, "w.io": 1,
        }
        assert bundle.level_per_day[(date(2017, 7, 1), 3)] == 4
        assert bundle.level_per_day[(date(2017, 7, 2), 2)] == 1
        assert bundle.level_per_day[(date(2017, 7, 2), 4)] == 1
        assert_bundle_matches_naive(bundle, entries)


class TestMerge:
    def test_identity(self):
        entries = random_entries(50, seed=1)
        full = StatsBundle().accumulate_all(entries)
        merged = full.merge(StatsBundle())
        assert_bundle_matches_naive(merged, entries)

    def test_commutativity(self):
        left = StatsBundle().accumulate_all(random_entries(40, seed=2))
        right = StatsBundle().accumulate_all(random_entries(40, seed=3))
        ab = left.merge(right)
        ba = right.merge(left)
        assert ab.rrtype_counts == ba.rrtype_counts
        assert ab.sld_entries == ba.sld_entries
        assert {s: len(v) for s, v in ab.sld_fqdns.items()} == {
            s: len(v) for s, v in ba.sld_fqdns.items()
        }

    def test_four_shards_equal_single_pass(self):
        entries = random_entries(4000, seed=4, days=5, slds=20)
        single = StatsBundle().accumulate_all(entries)
        shards = [StatsBundle() for _ in range(4)]
        for i, entry in enumerate(entries):
            shards[i % 4].accumulate(entry)
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert_bundle_matches_naive(merged, entries)
        assert merged.rrtype_counts == single.rrtype_counts
        assert merged.day_sld_entries == single.day_sld_entries
        assert merged.min_day == single.min_day
        assert merged.max_day == single.max_day

    def test_operands_stay_independent_of_the_result(self):
        left_entries = random_entries(300, seed=14)
        right_entries = random_entries(300, seed=15)
        left = StatsBundle().accumulate_all(left_entries)
        right = StatsBundle().accumulate_all(right_entries)
        merged = left.merge(right)
        # Names, SLDs, types and days that both operands already hold.
        merged.accumulate_all(random_entries(300, seed=16))
        assert_bundle_matches_naive(left, left_entries)
        assert_bundle_matches_naive(right, right_entries)


class TestRrtypeShares:
    def test_paper_shaped_proportions(self):
        # Fixture generated to the reported share table: counts per 10000.
        counts = {
            "A": 5490, "NULL": 2117, "AAAA": 967, "CNAME": 768,
            "TXT": 204, "NS": 38, "MX": 3, "SOA": 413,
        }
        bundle = StatsBundle()
        i = 0
        for rrtype, n in counts.items():
            for _ in range(n):
                bundle.accumulate(make_entry(f"h{i}.x{i % 7}.com", rrtype))
                i += 1
        shares = {row[0]: row[2] for row in bundle.rrtype_shares()}
        assert shares["A"] == pytest.approx(0.5490, abs=5e-6)
        assert shares["NULL"] == pytest.approx(0.2117, abs=5e-6)
        assert shares["AAAA"] == pytest.approx(0.0967, abs=5e-6)
        assert shares["CNAME"] == pytest.approx(0.0768, abs=5e-6)
        assert shares["TXT"] == pytest.approx(0.0204, abs=5e-6)
        assert shares["Others"] == pytest.approx(0.0413, abs=5e-6)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_single_entry(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "A"))
        shares = {row[0]: row[2] for row in bundle.rrtype_shares()}
        assert shares["A"] == 1.0

    def test_seven_three_split(self):
        bundle = StatsBundle()
        for i in range(7):
            bundle.accumulate(make_entry(f"a{i}.x.com", "A"))
        for i in range(3):
            bundle.accumulate(make_entry(f"t{i}.x.com", "TXT"))
        shares = {row[0]: row[2] for row in bundle.rrtype_shares()}
        assert shares["A"] == pytest.approx(0.7)
        assert shares["TXT"] == pytest.approx(0.3)

    def test_empty_raises(self):
        with pytest.raises(EmptyBundleError):
            StatsBundle().rrtype_shares()

    def test_full_breakdown_lists_other_types(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "SOA"))
        rows = bundle.rrtype_shares(full=True)
        assert ("SOA", 1, 1.0) in rows


class TestSldCdf:
    def fill(self, masses):
        bundle = StatsBundle()
        for j, mass in enumerate(masses):
            for i in range(mass):
                bundle.accumulate(make_entry(f"h{i}.sld{j}.com", "A", f"sld{j}.com"))
        return bundle

    def test_hand_computed(self):
        cdf = self.fill([50, 30, 20]).sld_cdf()
        assert cdf.points == ((1, 0.5), (2, 0.8), (3, 1.0))

    def test_single_sld(self):
        cdf = self.fill([5]).sld_cdf()
        assert cdf.points == ((1, 1.0),)

    def test_top_heavy_masses_reach_half_by_rank_three(self):
        # Mass distribution shaped like the observed top-10 share table.
        masses = [3337, 943, 939, 907, 617, 258, 174, 114, 102, 97]
        masses += [25] * 100  # long tail
        cdf = self.fill(masses).sld_cdf()
        assert cdf.rank_share(3) >= 0.52

    def test_monotone_and_complete(self):
        entries = random_entries(500, seed=9)
        bundle = StatsBundle().accumulate_all(entries)
        cdf = bundle.sld_cdf()
        shares = [s for _, s in cdf.points]
        assert all(b >= a for a, b in zip(shares, shares[1:]))
        assert shares[-1] == pytest.approx(1.0, abs=1e-9)
        assert len(cdf.points) == len(bundle.sld_fqdns)

    def test_scope_counts_one_type(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "TXT", "x.com"))
        bundle.accumulate(make_entry("a.x.com", "TXT", "x.com"))
        bundle.accumulate(make_entry("b.y.com", "A", "y.com"))
        scoped = bundle.sld_cdf(scope=RRType.parse("TXT"))
        assert scoped.points == ((1, 1.0),)

    def test_empty_scope_raises(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "A"))
        with pytest.raises(EmptyBundleError):
            bundle.sld_cdf(scope=RRType.parse("NULL"))


class TestTopSlds:
    def test_top_heavy_fixture_share(self):
        masses = {"bulk-a.net": 3337, "bulk-b.de": 943, "bulk-c.com": 939}
        masses.update({f"tail{i}.org": 478 for i in range(10)})  # total 10000 - 219? no
        bundle = StatsBundle()
        i = 0
        for sld, n in masses.items():
            for _ in range(n):
                bundle.accumulate(make_entry(f"h{i}.{sld}", "A", sld))
                i += 1
        total = sum(masses.values())
        top = bundle.top_slds(3)
        assert top[0][0] == "bulk-a.net"
        assert top[0][2] == pytest.approx(3337 / total)

    def test_n_larger_than_sld_count(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "A", "x.com"))
        bundle.accumulate(make_entry("b.y.com", "A", "y.com"))
        assert len(bundle.top_slds(50)) == 2

    def test_scope_matches_brute_force(self):
        entries = random_entries(800, seed=12, slds=12)
        bundle = StatsBundle().accumulate_all(entries)
        scope = RRType.parse("CNAME")
        brute = Counter()
        for e in entries:
            if e.rrtype == scope:
                sld = e.domain.name if e.domain else ".".join(e.rrname.labels[-2:])
                brute[sld] += 1
        got = {sld: c for sld, c, _ in bundle.top_slds(10 ** 6, scope=scope)}
        assert got == dict(brute)


class TestDailySeries:
    def test_two_days(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "A", "x.com", "2017-07-01 01:00:00"))
        bundle.accumulate(make_entry("b.x.com", "A", "x.com", "2017-07-02 01:00:00"))
        rows = bundle.daily_series(["x.com"])
        assert rows == [("2017-07-01", "x.com", 1), ("2017-07-02", "x.com", 1)]

    def test_zero_fill(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "A", "x.com", "2017-07-01 01:00:00"))
        bundle.accumulate(make_entry("b.x.com", "A", "x.com", "2017-07-03 01:00:00"))
        rows = bundle.daily_series(["x.com"])
        assert ("2017-07-02", "x.com", 0) in rows

    def test_empty_sld_list(self):
        bundle = StatsBundle()
        bundle.accumulate(make_entry("a.x.com", "A", "x.com"))
        assert bundle.daily_series([]) == []

    def test_linear_ramp_has_positive_slope(self):
        bundle = StatsBundle()
        for day in range(1, 8):
            for i in range(day * 3):
                bundle.accumulate(
                    make_entry(f"r{day}x{i}.ramp.net", "A", "ramp.net",
                               f"2017-07-{day:02d} 00:00:00")
                )
        rows = bundle.daily_series(["ramp.net"])
        ys = [count for _, _, count in rows]
        xs = list(range(len(ys)))
        # Least squares by hand.
        n = len(xs)
        mean_x, mean_y = sum(xs) / n, sum(ys) / n
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        assert slope == pytest.approx(3.0)
        assert slope > 0


class TestInvariants:
    def test_per_day_maps_sum_to_global(self):
        entries = random_entries(1500, seed=5)
        bundle = StatsBundle().accumulate_all(entries)
        assert bundle.total == sum(bundle.rrtype_counts.values())
        per_day_total = Counter()
        for (day, rrtype), c in bundle.per_day_rrtype.items():
            per_day_total[rrtype] += c
        assert per_day_total == bundle.rrtype_counts
        day_totals = Counter()
        for (day, _), c in bundle.rdata_buckets_per_day.items():
            day_totals[day] += c
        level_day_totals = Counter()
        for (day, _), c in bundle.level_per_day.items():
            level_day_totals[day] += c
        assert day_totals == level_day_totals

    def test_shares_sum_to_one(self):
        bundle = StatsBundle().accumulate_all(random_entries(777, seed=6))
        named = bundle.rrtype_shares()
        assert sum(s for _, _, s in named) == pytest.approx(1.0, abs=1e-9)


class TestEmit:
    def test_emit_writes_all_artifacts(self, tmp_path):
        bundle = StatsBundle().accumulate_all(random_entries(200, seed=8))
        paths = bundle.emit_all(tmp_path)
        names = {p.name for p in paths}
        assert {
            "rrtype_shares.csv",
            "rrtype_per_day.csv",
            "levels_per_day.csv",
            "rdata_buckets_per_day.csv",
            "top_slds.csv",
            "top_slds_by_type.csv",
            "sld_cdf.csv",
            "sld_daily_top.csv",
            "sld_rdata_means.csv",
            "stats_summary.json",
        } <= names
        for p in paths:
            assert p.exists() and p.stat().st_size > 0

    def test_empty_bundle_emits_headers(self, tmp_path):
        StatsBundle().emit_all(tmp_path)
        content = (tmp_path / "rrtype_shares.csv").read_text()
        assert content.strip() == "rrtype,count,share"


# ----------------------------------------------------------------------
# The streaming emit against a verbatim copy of the list-building emit it
# replaced, which kept `sld_fqdns` as stored sets, scanned every counter
# once per scope and sorted every ranking in full.


def legacy_fmt_share(x):
    return f"{x:.6f}"


def legacy_write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def legacy_sld_measure(self, scope, measure):
    if measure == "fqdns":
        if scope is None:
            return {sld: len(v) for sld, v in self.sld_fqdns.items()}
        return {
            sld: len(v)
            for t, by_sld in self.type_sld_fqdns.items()
            if t == scope
            for sld, v in by_sld.items()
        }
    if measure == "entries":
        if scope is None:
            return dict(self.sld_entries)
        return {
            sld: c
            for t, by_sld in self.type_sld_entries.items()
            if t == scope
            for sld, c in by_sld.items()
        }
    raise ValueError(f"unknown measure: {measure!r}")


def legacy_sld_cdf(self, scope=None):
    counts = legacy_sld_measure(self, scope, "fqdns")
    if not counts:
        raise EmptyBundleError("no SLDs in scope")
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    points = []
    acc = 0
    for rank, (_, count) in enumerate(ordered, start=1):
        acc += count
        points.append((rank, acc / total))
    return CdfSeries(points=tuple(points), scope=scope)


def legacy_top_slds(self, n, scope=None):
    counts = legacy_sld_measure(self, scope, "entries")
    if not counts:
        raise EmptyBundleError("no SLDs in scope")
    total = sum(counts.values())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return [(sld, c, c / total) for sld, c in ordered]


def legacy_sld_rdata_means(self):
    rows = []
    for sld in sorted(self.sld_entries):
        count = self.sld_entries[sld]
        rows.append((sld, count, self.sld_rdata_sum[sld] / count))
    return rows


def legacy_emit_all(self, outdir, top_n=10):
    fmt_share, write_csv = legacy_fmt_share, legacy_write_csv
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, header, rows):
        path = outdir / name
        write_csv(path, header, rows)
        written.append(path)

    has_data = self.total > 0
    shares = self.rrtype_shares(full=True) if has_data else []
    emit(
        "rrtype_shares.csv",
        ("rrtype", "count", "share"),
        [(t, c, fmt_share(s)) for t, c, s in shares],
    )
    emit(
        "rrtype_per_day.csv",
        ("date", "rrtype", "count"),
        sorted(
            ((d.isoformat(), str(t), c) for (d, t), c in self.per_day_rrtype.items())
        ),
    )
    emit(
        "levels_per_day.csv",
        ("date", "level", "count"),
        sorted(
            ((d.isoformat(), lvl, c) for (d, lvl), c in self.level_per_day.items())
        ),
    )
    emit(
        "rdata_buckets_per_day.csv",
        ("date", "bucket", "count"),
        sorted(
            (
                (d.isoformat(), b, c)
                for (d, b), c in self.rdata_buckets_per_day.items()
            ),
            key=lambda r: (r[0], RDATA_BUCKETS.index(r[1])),
        ),
    )
    top = legacy_top_slds(self, top_n) if has_data else []
    emit(
        "top_slds.csv",
        ("sld", "count", "share"),
        [(sld, c, fmt_share(s)) for sld, c, s in top],
    )
    by_type_rows = []
    for rrtype in NAMED_RRTYPES:
        if self.rrtype_counts.get(rrtype, 0) == 0:
            continue
        for sld, c, s in legacy_top_slds(self, top_n, scope=rrtype):
            by_type_rows.append((str(rrtype), sld, c, fmt_share(s)))
    emit("top_slds_by_type.csv", ("rrtype", "sld", "count", "share"), by_type_rows)
    cdf_rows = []
    if has_data:
        for rank, share in legacy_sld_cdf(self).points:
            cdf_rows.append(("all", rank, fmt_share(share)))
        for rrtype in NAMED_RRTYPES:
            if self.rrtype_counts.get(rrtype, 0) == 0:
                continue
            for rank, share in legacy_sld_cdf(self, scope=rrtype).points:
                cdf_rows.append((str(rrtype), rank, fmt_share(share)))
    emit("sld_cdf.csv", ("scope", "rank", "cumulative_share"), cdf_rows)
    emit(
        "sld_daily_top.csv",
        ("date", "sld", "count"),
        self.daily_series([sld for sld, _, _ in top]),
    )
    emit(
        "sld_rdata_means.csv",
        ("sld", "count", "mean_rdata_size"),
        [(sld, c, fmt_share(m)) for sld, c, m in legacy_sld_rdata_means(self)],
    )
    summary = {
        "total_entries": self.total,
        "distinct_slds": len(self.sld_entries),
        "distinct_fqdns": sum(len(v) for v in self.sld_fqdns.values()),
        "first_day": self.min_day.isoformat() if self.min_day else None,
        "last_day": self.max_day.isoformat() if self.max_day else None,
        "rrtype_shares": [
            {"rrtype": t, "count": c, "share": round(s, 6)} for t, c, s in shares
        ],
        "top_slds": [
            {"sld": sld, "count": c, "share": round(s, 6)} for sld, c, s in top
        ],
    }
    path = outdir / "stats_summary.json"
    write_json(path, summary)
    written.append(path)
    return written


# A few SLDs and names, so that SLDs carry several types and counts tie.
EMIT_SLDS = ("a.com", "b.net", "c.org", "d.io", "e.de", "f.in")


@st.composite
def emit_entry_st(draw):
    sld = draw(st.sampled_from(EMIT_SLDS))
    sub = draw(st.sampled_from(("", "w", "m1", "x.y", "t0.t", "long.er.name")))
    day = draw(st.integers(min_value=1, max_value=4))
    return make_entry(
        f"{sub}.{sld}" if sub else sld,
        rrtype=draw(st.sampled_from(("A", "TXT", "NULL", "MX", "CNAME", "SOA"))),
        domain=sld if draw(st.booleans()) else None,
        time_seen=f"2017-07-0{day} 12:00:00",
        rdata=tuple(draw(st.lists(st.sampled_from(("1.2.3.4", "x" * 150, "é")), max_size=2))),
    )


class TestStreamingEmit:
    @given(
        st.lists(emit_entry_st(), max_size=60),
        st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
        st.integers(min_value=1, max_value=len(EMIT_SLDS) + 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_emit_matches_legacy_emit(self, entries, split, top_n):
        if split is None:
            bundle = StatsBundle().accumulate_all(entries)
        else:  # a merged bundle
            left = StatsBundle().accumulate_all(entries[:split])
            right = StatsBundle().accumulate_all(entries[split:])
            bundle = left.merge(right)
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "new").mkdir()  # emit_all writes into a directory that exists
            new = bundle.emit_all(Path(tmp) / "new", top_n=top_n)
            old = legacy_emit_all(bundle, Path(tmp) / "old", top_n=top_n)
            assert [p.name for p in new] == [p.name for p in old]
            for a, b in zip(new, old):
                assert a.read_bytes() == b.read_bytes(), a.name
        assert bundle.sld_fqdn_counts() == {s: len(v) for s, v in bundle.sld_fqdns.items()}
        for scope in (None,) + NAMED_RRTYPES:
            for ours, theirs in (
                (lambda: bundle.sld_cdf(scope), lambda: legacy_sld_cdf(bundle, scope)),
                (lambda: bundle.top_slds(top_n, scope), lambda: legacy_top_slds(bundle, top_n, scope)),
            ):
                try:
                    want = theirs()
                except EmptyBundleError:
                    with pytest.raises(EmptyBundleError):
                        ours()
                    continue
                assert ours() == want

    def test_sld_fqdns_is_a_copy(self, tmp_path):
        entries = random_entries(300, seed=13)  # SLDs of several types each
        entries.append(make_entry("only.solo.example", "A", "solo.example"))
        bundle = StatsBundle().accumulate_all(entries)
        held = {
            t: {sld: set(names) for sld, names in by_sld.items()}
            for t, by_sld in bundle.type_sld_fqdns.items()
        }
        (tmp_path / "before").mkdir()
        (tmp_path / "after").mkdir()
        bundle.emit_all(tmp_path / "before")

        view = bundle.sld_fqdns
        assert view["solo.example"] == {"only.solo.example"}
        for names in view.values():
            names.add("intruder.example")
        view["added.example"] = {"x.added.example"}
        del view["solo.example"]

        assert bundle.type_sld_fqdns == held
        assert bundle.sld_fqdns == naive_recount(entries)["sld_fqdns"]
        bundle.emit_all(tmp_path / "after")
        for path in sorted((tmp_path / "before").iterdir()):
            assert path.read_bytes() == (tmp_path / "after" / path.name).read_bytes(), path.name
