"""Mergeable streaming aggregates over pDNS entries.

One `StatsBundle` per stream shard; shards merge pointwise, so shards
aggregated in separate processes and merged with `StatsBundle.merge` give
the same numbers as a single pass.

Distinct names are held once, in one set per (SLD, record type); an SLD's
distinct count is the size of its only set, or of the union of its sets
when it has several types. `emit_all` groups the per-type counters in one
scan, ranks each scope once and streams every table's rows to its file.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate, chain, count, repeat
from operator import truediv
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

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


@dataclass(frozen=True)
class CdfSeries:
    """Cumulative share of FQDNs (or entries) by SLD rank."""

    points: tuple[tuple[int, float], ...]  # (rank, cumulative share)
    scope: Optional[RRType]  # None = all types
    measure: str  # "fqdns" or "entries"

    def rank_share(self, rank: int) -> float:
        return self.points[rank - 1][1]


class StatsBundle:
    """All streaming measurement counters, mergeable pointwise."""

    def __init__(self, psl: Optional[PublicSuffixList] = None):
        self.psl = psl
        self.total = 0
        self.rrtype_counts: Counter = Counter()
        self.per_day_rrtype: Counter = Counter()  # (date, rrtype) -> count
        self.level_per_day: Counter = Counter()  # (date, level) -> count
        self.rdata_buckets_per_day: Counter = Counter()  # (date, bucket) -> count
        self.sld_entries: Counter = Counter()  # sld -> entry count
        self.sld_type_entries: Counter = Counter()  # (sld, rrtype) -> entry count
        self.sld_day_entries: Counter = Counter()  # (date, sld) -> entry count
        # (sld, rrtype) -> distinct rrnames; keyed by the same tuples as
        # sld_type_entries.
        self.sld_type_fqdns: dict[tuple[str, RRType], set] = {}
        self.sld_rdata_sum: Counter = Counter()
        self.min_day: Optional[date] = None
        self.max_day: Optional[date] = None

    def accumulate(self, entry: PdnsEntry) -> None:
        """Advance every counter exactly once for one entry."""
        day = entry.time_seen.date()
        rrtype = entry.rrtype
        sld = sld_name(entry, self.psl)
        size = rdata_wire_size(entry.rdata)

        self.total += 1
        self.rrtype_counts[rrtype] += 1
        self.per_day_rrtype[(day, rrtype)] += 1
        self.level_per_day[(day, len(entry.rrname.labels))] += 1
        self.rdata_buckets_per_day[(day, _bucket(size))] += 1
        self.sld_entries[sld] += 1
        key = (sld, rrtype)
        self.sld_type_entries[key] += 1
        self.sld_day_entries[(day, sld)] += 1
        names = self.sld_type_fqdns.get(key)
        if names is None:
            names = self.sld_type_fqdns[key] = set()
        names.add(entry.rrname.name)
        self.sld_rdata_sum[sld] += size
        if self.min_day is None or day < self.min_day:
            self.min_day = day
        if self.max_day is None or day > self.max_day:
            self.max_day = day

    def accumulate_all(self, stream: Iterable[PdnsEntry]) -> "StatsBundle":
        for entry in stream:
            self.accumulate(entry)
        return self

    def merge(self, other: "StatsBundle") -> "StatsBundle":
        """Pointwise sum, returned as a new bundle; operands unchanged.

        Merging is associative and commutative with the empty bundle as
        identity.
        """
        out = StatsBundle(psl=self.psl or other.psl)
        out.total = self.total + other.total
        for name in (
            "rrtype_counts",
            "per_day_rrtype",
            "level_per_day",
            "rdata_buckets_per_day",
            "sld_entries",
            "sld_type_entries",
            "sld_day_entries",
            "sld_rdata_sum",
        ):
            counter = Counter(getattr(self, name))
            counter.update(getattr(other, name))
            setattr(out, name, counter)
        for key, names in self.sld_type_fqdns.items():
            out.sld_type_fqdns[key] = set(names)
        for key, names in other.sld_type_fqdns.items():
            if key in out.sld_type_fqdns:
                out.sld_type_fqdns[key] |= names
            else:
                out.sld_type_fqdns[key] = set(names)
        days = [d for d in (self.min_day, other.min_day) if d is not None]
        out.min_day = min(days) if days else None
        days = [d for d in (self.max_day, other.max_day) if d is not None]
        out.max_day = max(days) if days else None
        return out

    # ------------------------------------------------------------------
    # Derived tables

    @property
    def sld_fqdns(self) -> dict[str, set]:
        """sld -> distinct rrnames, derived from the per-(SLD, type) sets as
        a fresh copy: changing it changes nothing in the bundle. For counts,
        `sld_fqdn_counts` copies no set."""
        view: dict[str, set] = {}
        for (sld, _), names in self.sld_type_fqdns.items():
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
        for (sld, _), names in self.sld_type_fqdns.items():
            if sld in counts:
                several[sld] = None
            counts[sld] = len(names)
        for sld in several:
            counts[sld] = len(
                set().union(*(self.sld_type_fqdns.get((sld, t), ()) for t in self.rrtype_counts))
            )
        return counts

    def rrtype_shares(self, full: bool = False) -> list[tuple[str, int, float]]:
        """Rows (type, count, share) for the seven named types plus an
        Others rollup; `full=True` appends every remaining type."""
        if self.total == 0:
            raise EmptyBundleError("no entries accumulated")
        rows = []
        named_total = 0
        for rrtype in NAMED_RRTYPES:
            count = self.rrtype_counts.get(rrtype, 0)
            named_total += count
            rows.append((str(rrtype), count, count / self.total))
        others = self.total - named_total
        rows.append(("Others", others, others / self.total))
        if full:
            rest = sorted(
                (
                    (str(t), c)
                    for t, c in self.rrtype_counts.items()
                    if t not in NAMED_RRTYPES
                ),
                key=lambda r: (-r[1], r[0]),
            )
            rows.extend((name, c, c / self.total) for name, c in rest)
        return rows

    def _keys_by_type(self) -> dict[RRType, list[tuple[str, RRType]]]:
        """rrtype -> its (sld, rrtype) keys, in one scan. The keys index both
        `sld_type_entries` and `sld_type_fqdns`."""
        groups = defaultdict(list)
        for key in self.sld_type_entries:
            groups[key[1]].append(key)
        return groups

    def _sld_measure(
        self, scope: Optional[RRType], measure: str, by_type: Optional[dict] = None
    ) -> dict[str, int]:
        """sld -> count of one measure in one scope. `by_type` is
        `_keys_by_type()`, made once by a caller that reads several scopes."""
        if measure not in ("fqdns", "entries"):
            raise ValueError(f"unknown measure: {measure!r}")
        if scope is None:
            return self.sld_fqdn_counts() if measure == "fqdns" else self.sld_entries
        if by_type is None:
            by_type = self._keys_by_type()
        keys = by_type.get(scope, ())
        if measure == "fqdns":
            return {key[0]: len(self.sld_type_fqdns[key]) for key in keys}
        return {key[0]: self.sld_type_entries[key] for key in keys}

    def sld_cdf(
        self, scope: Optional[RRType] = None, measure: str = "fqdns"
    ) -> CdfSeries:
        """Cumulative distribution of distinct FQDNs (default) or entries
        over SLDs ranked by that same count, descending; ties broken
        lexicographically."""
        shares = _cumulative_shares(self._sld_measure(scope, measure).values())
        points = tuple(enumerate(shares, start=1))
        if not points:
            raise EmptyBundleError("no SLDs in scope")
        return CdfSeries(points=points, scope=scope, measure=measure)

    def top_slds(
        self, n: int, scope: Optional[RRType] = None
    ) -> list[tuple[str, int, float]]:
        """Rows (sld, entry count, share of in-scope entries), top n."""
        counts = self._sld_measure(scope, "entries")
        if not counts:
            raise EmptyBundleError("no SLDs in scope")
        return _top(counts, n)

    def days(self) -> list[date]:
        """Every calendar day in the observed range, inclusive."""
        if self.min_day is None or self.max_day is None:
            return []
        span = (self.max_day - self.min_day).days
        return [self.min_day + timedelta(days=i) for i in range(span + 1)]

    def daily_series(self, slds: Sequence[str]) -> list[tuple[str, str, int]]:
        """Rows (date, sld, count) for the given SLDs, zero-filled over the
        observed day range."""
        rows = []
        for day in self.days():
            iso = day.isoformat()
            for sld in slds:
                rows.append((iso, sld, self.sld_day_entries.get((day, sld), 0)))
        return rows

    def sld_rdata_means(self) -> Iterator[tuple[str, int, float]]:
        """Rows (sld, entry count, mean rdata size) by SLD name, for scatter
        views; made one at a time."""
        slds = sorted(self.sld_entries)
        counts = list(map(self.sld_entries.__getitem__, slds))
        means = map(truediv, map(self.sld_rdata_sum.__getitem__, slds), counts)
        return zip(slds, counts, means)

    # ------------------------------------------------------------------
    # Emission

    def emit_all(self, outdir: str | Path, top_n: int = 10) -> list[Path]:
        """Write every table/series as CSV plus a JSON summary; returns the
        paths written. Empty bundles emit headers only."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
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
        by_type = self._keys_by_type()
        named = [rrtype for rrtype in NAMED_RRTYPES if rrtype in by_type]
        top = self.top_slds(top_n) if has_data else []
        emit(
            "top_slds.csv",
            ("sld", "count", "share"),
            ((sld, c, fmt_share(s)) for sld, c, s in top),
        )
        emit(
            "top_slds_by_type.csv",
            ("rrtype", "sld", "count", "share"),
            (
                (str(rrtype), sld, c, fmt_share(s))
                for rrtype in named
                for sld, c, s in _top(self._sld_measure(rrtype, "entries", by_type), top_n)
            ),
        )
        scopes = ([("all", None)] + [(str(t), t) for t in named]) if has_data else []
        emit(
            "sld_cdf.csv",
            ("scope", "rank", "cumulative_share"),
            chain.from_iterable(
                zip(repeat(name), count(1), map(fmt_share, _cumulative_shares(
                    self._sld_measure(scope, "fqdns", by_type).values()
                )))
                for name, scope in scopes
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
            ((sld, c, fmt_share(m)) for sld, c, m in self.sld_rdata_means()),
        )
        summary = {
            "total_entries": self.total,
            "distinct_slds": len(self.sld_entries),
            "distinct_fqdns": sum(self.sld_fqdn_counts().values()),
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
