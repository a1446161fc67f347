"""Mergeable streaming aggregates over pDNS entries.

One `StatsBundle` per stream shard; shards merge pointwise, so shards
aggregated in separate processes and merged with `StatsBundle.merge` give
the same numbers as a single pass.

Each count is stored once. Per-SLD counts nest under their record type
(entries and distinct names) and their day (entries), so no key is a tuple
holding an SLD; the total, the per-type counts, the per-SLD entry counts and
the day range are derived. An SLD's distinct count is the size of its only
set, or of the union of its sets when it has several types. `emit_all`
writes each table through the public method that defines it and streams its
rows to the file.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from datetime import date, timedelta
from functools import partial
from itertools import accumulate
from operator import truediv
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from pdnskit.model import PdnsEntry, PublicSuffixList, RRType, sld_name
from pdnskit.tables import fmt_share, write_csv, write_json

__all__ = [
    "StatsBundle",
    "CdfSeries",
    "EmptyBundleError",
    "rdata_wire_size",
    "RDATA_BUCKETS",
    "NAMED_RRTYPES",
]

# Table rows always reported individually; everything else rolls up as Others.
NAMED_RRTYPES = tuple(
    RRType.parse(t) for t in ("A", "AAAA", "MX", "NS", "CNAME", "TXT", "NULL")
)

RDATA_BUCKETS = ("<=100", "101-1000", ">1000")


class EmptyBundleError(ValueError):
    """A table was requested from a bundle with no matching entries."""


def rdata_wire_size(rdata: Sequence[str]) -> int:
    """Byte length of the serialized rdata list: `["v1","v2"]`, no spaces.

    Brackets, quotes, commas, and dots all count.
    """
    size = 2 + 2 * len(rdata)  # brackets plus quotes
    if rdata:
        size += len(rdata) - 1  # commas
        for v in rdata:
            size += len(v) if v.isascii() else len(v.encode("utf-8"))
    return size


def _bucket(size: int) -> str:
    if size <= 100:
        return RDATA_BUCKETS[0]
    if size <= 1000:
        return RDATA_BUCKETS[1]
    return RDATA_BUCKETS[2]


def _cumulative_shares(counts: Iterable[int]) -> Iterator[float]:
    """The cumulative share at each rank of counts ranked descending. The
    order of equal counts cannot change a cumulative share, so only the
    counts are ranked."""
    ordered = sorted(counts, reverse=True)
    return map(sum(ordered).__rtruediv__, accumulate(ordered))  # running sum / total


def _top(counts: dict[str, int], n: int) -> list[tuple[str, int, float]]:
    """Rows (sld, count, share of all counts) for the n largest counts, ties
    broken lexicographically: `sorted(...)[:n]` without sorting them all."""
    total = sum(counts.values())
    top = heapq.nsmallest(n, counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(sld, c, c / total) for sld, c in top]


class CdfSeries(NamedTuple):
    """Cumulative share of distinct FQDNs by SLD rank."""

    points: tuple[tuple[int, float], ...]  # (rank, cumulative share)
    scope: Optional[RRType]  # None = all types

    def rank_share(self, rank: int) -> float:
        return self.points[rank - 1][1]


class StatsBundle:
    """All streaming measurement counters, mergeable pointwise. Each count
    is stored once; the total, the per-type and per-SLD entry counts and the
    day range are derived."""

    def __init__(self, psl: Optional[PublicSuffixList] = None):
        self.psl = psl
        self.per_day_rrtype: Counter = Counter()  # (date, rrtype) -> count
        self.level_per_day: Counter = Counter()  # (date, level) -> count
        self.rdata_buckets_per_day: Counter = Counter()  # (date, bucket) -> count
        self.sld_rdata_sum: Counter = Counter()  # sld -> rdata bytes
        # rrtype -> sld -> entry count / distinct rrnames; date -> sld -> entry count
        self.type_sld_entries: defaultdict[RRType, Counter] = defaultdict(Counter)
        self.type_sld_fqdns: defaultdict[RRType, defaultdict[str, set]] = defaultdict(
            partial(defaultdict, set)
        )
        self.day_sld_entries: defaultdict[date, Counter] = defaultdict(Counter)

    def accumulate(self, entry: PdnsEntry) -> None:
        """Advance every counter exactly once for one entry."""
        day = entry.time_seen.date()
        rrtype = entry.rrtype
        sld = sld_name(entry, self.psl)
        size = rdata_wire_size(entry.rdata)
        rrname = entry.rrname

        self.per_day_rrtype[(day, rrtype)] += 1
        self.level_per_day[(day, len(rrname.labels))] += 1
        self.rdata_buckets_per_day[(day, _bucket(size))] += 1
        self.sld_rdata_sum[sld] += size
        self.type_sld_entries[rrtype][sld] += 1
        self.type_sld_fqdns[rrtype][sld].add(rrname.name)
        self.day_sld_entries[day][sld] += 1

    def accumulate_all(self, stream: Iterable[PdnsEntry]) -> "StatsBundle":
        for entry in stream:
            self.accumulate(entry)
        return self

    def merge(self, other: "StatsBundle") -> "StatsBundle":
        """Pointwise sum, returned as a new bundle that shares no set or
        counter with its operands, which stay unchanged.

        Merging is associative and commutative with the empty bundle as
        identity.
        """
        out = StatsBundle(psl=self.psl or other.psl)
        for part in (self, other):
            for name in ("per_day_rrtype", "level_per_day", "rdata_buckets_per_day",
                         "sld_rdata_sum"):
                getattr(out, name).update(getattr(part, name))
            for key, counts in part.type_sld_entries.items():
                out.type_sld_entries[key].update(counts)
            for key, counts in part.day_sld_entries.items():
                out.day_sld_entries[key].update(counts)
            for key, by_sld in part.type_sld_fqdns.items():
                merged = out.type_sld_fqdns[key]
                for sld, names in by_sld.items():
                    merged[sld] |= names
        return out

    # ------------------------------------------------------------------
    # Derived views and tables. Reads use `.get`, so that looking up a
    # scope or day with no entries adds no key to a nested map.

    @property
    def rrtype_counts(self) -> Counter:
        """rrtype -> entry count."""
        counts: Counter = Counter()
        for (_, rrtype), c in self.per_day_rrtype.items():
            counts[rrtype] += c
        return counts

    @property
    def total(self) -> int:
        return sum(self.per_day_rrtype.values())

    @property
    def min_day(self) -> Optional[date]:
        return min(self.day_sld_entries, default=None)

    @property
    def max_day(self) -> Optional[date]:
        return max(self.day_sld_entries, default=None)

    @property
    def sld_entries(self) -> Counter:
        """sld -> entry count over all types."""
        counts: Counter = Counter()
        for by_sld in self.type_sld_entries.values():
            counts.update(by_sld)
        return counts

    @property
    def sld_fqdns(self) -> dict[str, set]:
        """sld -> distinct rrnames, derived from the per-type sets as a
        fresh copy: changing it changes nothing in the bundle. For counts,
        `sld_fqdn_counts` copies no set."""
        view: dict[str, set] = {}
        for by_sld in self.type_sld_fqdns.values():
            for sld, names in by_sld.items():
                if sld in view:
                    view[sld] |= names
                else:
                    view[sld] = set(names)
        return view

    def sld_fqdn_counts(self) -> dict[str, int]:
        """sld -> number of distinct rrnames. A single-type SLD counts its
        one set; only an SLD with several types builds the union of its sets."""
        counts: dict[str, int] = {}
        several: dict[str, None] = {}
        for by_sld in self.type_sld_fqdns.values():
            for sld, names in by_sld.items():
                if sld in counts:
                    several[sld] = None
                counts[sld] = len(names)
        for sld in several:
            counts[sld] = len(
                set().union(*(by_sld.get(sld, ()) for by_sld in self.type_sld_fqdns.values()))
            )
        return counts

    def rrtype_shares(self, full: bool = False) -> list[tuple[str, int, float]]:
        """Rows (type, count, share) for the seven named types plus an
        Others rollup; `full=True` appends every remaining type."""
        counts = self.rrtype_counts
        total = sum(counts.values())
        if total == 0:
            raise EmptyBundleError("no entries accumulated")
        rows = [(str(t), counts[t], counts[t] / total) for t in NAMED_RRTYPES]
        others = total - sum(c for _, c, _ in rows)
        rows.append(("Others", others, others / total))
        if full:
            rest = sorted(
                ((str(t), c) for t, c in counts.items() if t not in NAMED_RRTYPES),
                key=lambda r: (-r[1], r[0]),
            )
            rows.extend((name, c, c / total) for name, c in rest)
        return rows

    def sld_cdf(
        self, scope: Optional[RRType] = None, fqdn_counts: Optional[Mapping[str, int]] = None
    ) -> CdfSeries:
        """Cumulative distribution of distinct FQDNs over SLDs ranked by
        that count, descending, in one record type or (None) all of them.
        A caller that holds `sld_fqdn_counts()` already passes it as
        `fqdn_counts`, which only the all-types scope reads."""
        if scope is None:
            if fqdn_counts is None:
                fqdn_counts = self.sld_fqdn_counts()
            counts: Iterable[int] = fqdn_counts.values()
        else:
            counts = map(len, self.type_sld_fqdns.get(scope, {}).values())
        points = tuple(enumerate(_cumulative_shares(counts), start=1))
        if not points:
            raise EmptyBundleError("no SLDs in scope")
        return CdfSeries(points=points, scope=scope)

    def top_slds(
        self, n: int, scope: Optional[RRType] = None, entries: Optional[Counter] = None
    ) -> list[tuple[str, int, float]]:
        """Rows (sld, entry count, share of in-scope entries), top n. A
        caller that holds `sld_entries` already passes it as `entries`,
        which only the all-types scope reads."""
        if scope is None:
            counts = self.sld_entries if entries is None else entries
        else:
            counts = self.type_sld_entries.get(scope)
        if not counts:
            raise EmptyBundleError("no SLDs in scope")
        return _top(counts, n)

    def days(self) -> list[date]:
        """Every calendar day in the observed range, inclusive."""
        first, last = self.min_day, self.max_day
        if first is None or last is None:
            return []
        return [first + timedelta(days=i) for i in range((last - first).days + 1)]

    def daily_series(self, slds: Sequence[str]) -> list[tuple[str, str, int]]:
        """Rows (date, sld, count) for the given SLDs, zero-filled over the
        observed day range."""
        rows = []
        for day in self.days():
            iso = day.isoformat()
            counts = self.day_sld_entries.get(day, {})
            rows.extend((iso, sld, counts.get(sld, 0)) for sld in slds)
        return rows

    def sld_rdata_means(self, entries: Optional[Counter] = None) -> Iterator[tuple[str, int, float]]:
        """Rows (sld, entry count, mean rdata size) by SLD name, for scatter
        views; made one at a time. `entries` is `sld_entries`, when the
        caller holds it already."""
        if entries is None:
            entries = self.sld_entries
        slds = sorted(entries)
        counts = list(map(entries.__getitem__, slds))
        means = map(truediv, map(self.sld_rdata_sum.__getitem__, slds), counts)
        return zip(slds, counts, means)

    # ------------------------------------------------------------------
    # Emission

    def emit_all(self, outdir: str | Path, top_n: int = 10) -> list[Path]:
        """Write every table/series as CSV plus a JSON summary; returns the
        paths written. Empty bundles emit headers only."""
        outdir = Path(outdir)
        written = []

        def emit(name: str, header, rows):
            path = outdir / name
            write_csv(path, header, rows)
            written.append(path)

        has_data = self.total > 0
        shares = self.rrtype_shares(full=True) if has_data else []
        emit(
            "rrtype_shares.csv",
            ("rrtype", "count", "share"),
            ((t, c, fmt_share(s)) for t, c, s in shares),
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
        named = [t for t in NAMED_RRTYPES if self.type_sld_entries.get(t)]
        # The per-SLD views two tables each read, derived once.
        entries, fqdn_counts = self.sld_entries, self.sld_fqdn_counts()
        top = self.top_slds(top_n, entries=entries) if has_data else []
        emit(
            "top_slds.csv",
            ("sld", "count", "share"),
            ((sld, c, fmt_share(s)) for sld, c, s in top),
        )
        emit(
            "top_slds_by_type.csv",
            ("rrtype", "sld", "count", "share"),
            (
                (str(t), sld, c, fmt_share(s))
                for t in named
                for sld, c, s in self.top_slds(top_n, t)
            ),
        )
        scopes = ([("all", None)] + [(str(t), t) for t in named]) if has_data else []
        emit(
            "sld_cdf.csv",
            ("scope", "rank", "cumulative_share"),
            (
                (name, rank, fmt_share(share))
                for name, scope in scopes
                for rank, share in self.sld_cdf(scope, fqdn_counts).points
            ),
        )
        emit(
            "sld_daily_top.csv",
            ("date", "sld", "count"),
            self.daily_series([sld for sld, _, _ in top]),
        )
        emit(
            "sld_rdata_means.csv",
            ("sld", "count", "mean_rdata_size"),
            ((sld, c, fmt_share(m)) for sld, c, m in self.sld_rdata_means(entries)),
        )
        first, last = self.min_day, self.max_day
        summary = {
            "total_entries": self.total,
            "distinct_slds": len(self.sld_rdata_sum),  # every SLD has an rdata sum
            "distinct_fqdns": sum(fqdn_counts.values()),
            "first_day": first.isoformat() if first else None,
            "last_day": last.isoformat() if last else None,
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
