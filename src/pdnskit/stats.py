"""Mergeable streaming aggregates over pDNS entries.

One `StatsBundle` per stream shard; shards merge pointwise, so shards
aggregated in separate processes and merged with `StatsBundle.merge` give
the same numbers as a single pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date, timedelta
from hashlib import blake2b
from pathlib import Path
from typing import Iterable, Optional, Sequence

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


def _hash64(text: str) -> int:
    return int.from_bytes(blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class CdfSeries:
    """Cumulative share of FQDNs (or entries) by SLD rank."""

    points: tuple[tuple[int, float], ...]  # (rank, cumulative share)
    scope: Optional[RRType]  # None = all types
    measure: str  # "fqdns" or "entries"

    def rank_share(self, rank: int) -> float:
        return self.points[rank - 1][1]


class StatsBundle:
    """All streaming measurement counters, mergeable pointwise.

    `fqdn_mode="exact"` keeps distinct rrnames per SLD as string sets;
    `"hash64"` keeps 64-bit digests instead, trading a vanishing collision
    probability for roughly half the memory on very large corpora.
    """

    def __init__(
        self,
        psl: Optional[PublicSuffixList] = None,
        fqdn_mode: str = "exact",
    ):
        if fqdn_mode not in ("exact", "hash64"):
            raise ValueError(f"unknown fqdn_mode: {fqdn_mode!r}")
        self.psl = psl
        self.fqdn_mode = fqdn_mode
        self.total = 0
        self.rrtype_counts: Counter = Counter()
        self.per_day_rrtype: Counter = Counter()  # (date, rrtype) -> count
        self.level_per_day: Counter = Counter()  # (date, level) -> count
        self.rdata_buckets_per_day: Counter = Counter()  # (date, bucket) -> count
        self.sld_entries: Counter = Counter()  # sld -> entry count
        self.sld_type_entries: Counter = Counter()  # (sld, rrtype) -> entry count
        self.sld_day_entries: Counter = Counter()  # (date, sld) -> entry count
        self.sld_fqdns: dict[str, set] = {}  # sld -> distinct rrnames
        self.sld_type_fqdns: dict = {}  # (sld, rrtype) -> distinct rrnames
        self.sld_rdata_sum: Counter = Counter()
        self.min_day: Optional[date] = None
        self.max_day: Optional[date] = None

    def accumulate(self, entry: PdnsEntry) -> None:
        """Advance every counter exactly once for one entry."""
        day = entry.time_seen.date()
        rrtype = entry.rrtype
        sld = sld_name(entry, self.psl)
        rrname = entry.rrname.name
        if self.fqdn_mode == "hash64":
            rrname = _hash64(rrname)
        size = rdata_wire_size(entry.rdata)

        self.total += 1
        self.rrtype_counts[rrtype] += 1
        self.per_day_rrtype[(day, rrtype)] += 1
        self.level_per_day[(day, len(entry.rrname.labels))] += 1
        self.rdata_buckets_per_day[(day, _bucket(size))] += 1
        self.sld_entries[sld] += 1
        self.sld_type_entries[(sld, rrtype)] += 1
        self.sld_day_entries[(day, sld)] += 1
        fqdns = self.sld_fqdns.get(sld)
        if fqdns is None:
            fqdns = self.sld_fqdns[sld] = set()
        fqdns.add(rrname)
        key = (sld, rrtype)
        tf = self.sld_type_fqdns.get(key)
        if tf is None:
            tf = self.sld_type_fqdns[key] = set()
        tf.add(rrname)
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
        if self.fqdn_mode != other.fqdn_mode:
            raise ValueError("cannot merge bundles with different fqdn modes")
        out = StatsBundle(psl=self.psl or other.psl, fqdn_mode=self.fqdn_mode)
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
        for sld, names in self.sld_fqdns.items():
            out.sld_fqdns[sld] = set(names)
        for sld, names in other.sld_fqdns.items():
            if sld in out.sld_fqdns:
                out.sld_fqdns[sld] |= names
            else:
                out.sld_fqdns[sld] = set(names)
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

    def _sld_measure(self, scope: Optional[RRType], measure: str) -> dict[str, int]:
        if measure == "fqdns":
            if scope is None:
                return {sld: len(v) for sld, v in self.sld_fqdns.items()}
            return {
                sld: len(v)
                for (sld, t), v in self.sld_type_fqdns.items()
                if t == scope
            }
        if measure == "entries":
            if scope is None:
                return dict(self.sld_entries)
            return {
                sld: c for (sld, t), c in self.sld_type_entries.items() if t == scope
            }
        raise ValueError(f"unknown measure: {measure!r}")

    def sld_cdf(
        self, scope: Optional[RRType] = None, measure: str = "fqdns"
    ) -> CdfSeries:
        """Cumulative distribution of distinct FQDNs (default) or entries
        over SLDs ranked by that same count, descending; ties broken
        lexicographically."""
        counts = self._sld_measure(scope, measure)
        if not counts:
            raise EmptyBundleError("no SLDs in scope")
        total = sum(counts.values())
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        points = []
        acc = 0
        for rank, (_, count) in enumerate(ordered, start=1):
            acc += count
            points.append((rank, acc / total))
        return CdfSeries(points=tuple(points), scope=scope, measure=measure)

    def top_slds(
        self, n: int, scope: Optional[RRType] = None
    ) -> list[tuple[str, int, float]]:
        """Rows (sld, entry count, share of in-scope entries), top n."""
        counts = self._sld_measure(scope, "entries")
        if not counts:
            raise EmptyBundleError("no SLDs in scope")
        total = sum(counts.values())
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        return [(sld, c, c / total) for sld, c in ordered]

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

    def sld_rdata_means(self) -> list[tuple[str, int, float]]:
        """Rows (sld, entry count, mean rdata size), for scatter views."""
        rows = []
        for sld in sorted(self.sld_entries):
            count = self.sld_entries[sld]
            rows.append((sld, count, self.sld_rdata_sum[sld] / count))
        return rows

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
        top = self.top_slds(top_n) if has_data else []
        emit(
            "top_slds.csv",
            ("sld", "count", "share"),
            [(sld, c, fmt_share(s)) for sld, c, s in top],
        )
        by_type_rows = []
        for rrtype in NAMED_RRTYPES:
            if self.rrtype_counts.get(rrtype, 0) == 0:
                continue
            for sld, c, s in self.top_slds(top_n, scope=rrtype):
                by_type_rows.append((str(rrtype), sld, c, fmt_share(s)))
        emit("top_slds_by_type.csv", ("rrtype", "sld", "count", "share"), by_type_rows)
        cdf_rows = []
        if has_data:
            for rank, share in self.sld_cdf().points:
                cdf_rows.append(("all", rank, fmt_share(share)))
            for rrtype in NAMED_RRTYPES:
                if self.rrtype_counts.get(rrtype, 0) == 0:
                    continue
                for rank, share in self.sld_cdf(scope=rrtype).points:
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
            [(sld, c, fmt_share(m)) for sld, c, m in self.sld_rdata_means()],
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
