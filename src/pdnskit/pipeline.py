"""Step-wise reduction of a pDNS stream to candidate tunnel SLDs.

Stages: (0) record-type prefilter, (1) known-domain removal, (2) minimum
level, (4) special-use removal, then the grouping stage (3) that keeps
SLDs with enough distinct hostnames. The per-entry stages are defined once,
as the table `stage_table` builds from a `FilterConfig`, and `run_pipeline`
drives that table. They commute, so the grouping stage runs last; reported
stage ids keep the conventional 0-4 numbering. Optional post-filters prune
the candidate list further.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from pdnskit.model import ConfigError, PdnsEntry, PublicSuffixList, RRType, sld_name
from pdnskit.tables import read_domain_list, write_csv, write_json

__all__ = [
    "ConfigError",
    "KnownLists",
    "PostFilterConfig",
    "FilterConfig",
    "StageCount",
    "CandidateRow",
    "CandidateReport",
    "SPECIAL_USE_RULES",
    "Stage",
    "stage_table",
    "run_pipeline",
]

SPECIAL_USE_RULES = ("arpa", "mail-auth-name", "mail-auth-rdata")

_MAIL_AUTH_LABELS = frozenset({"_dmarc", "_domainkey", "_spf"})
_MAIL_AUTH_RDATA_PREFIXES = ("v=spf1", "v=dkim1", "v=dmarc1")

SAMPLE_FQDNS = 10


def _shipped(name: str) -> frozenset[str]:
    ref = resources.files("pdnskit.data").joinpath(name)
    with resources.as_file(ref) as path:
        return read_domain_list(path)


@dataclass(frozen=True)
class KnownLists:
    """Known-domain sets: CDNs and tunnel domains are dropped at stage 1;
    watchlist domains are never dropped, only annotated."""

    cdn: frozenset[str] = frozenset()
    known_tunnels: frozenset[str] = frozenset()
    watchlist: frozenset[str] = frozenset()

    def __post_init__(self):
        overlap = (self.cdn & self.known_tunnels) | (self.cdn & self.watchlist) | (
            self.known_tunnels & self.watchlist
        )
        if overlap:
            raise ConfigError(f"known lists overlap: {sorted(overlap)[:5]}")

    @classmethod
    def default(cls, include_watchlist: bool = False) -> "KnownLists":
        """Shipped defaults: the provider tunnel domains, an empty CDN
        list, and optionally the example IOC watchlist."""
        return cls(
            cdn=frozenset(),
            known_tunnels=_shipped("known_tunnel_domains.txt"),
            watchlist=_shipped("watchlist_example.txt") if include_watchlist else frozenset(),
        )

    @classmethod
    def from_files(
        cls,
        cdn: Optional[str | Path] = None,
        known_tunnels: Optional[str | Path] = None,
        watchlist: Optional[str | Path] = None,
    ) -> "KnownLists":
        return cls(
            cdn=read_domain_list(cdn) if cdn else frozenset(),
            known_tunnels=(
                read_domain_list(known_tunnels)
                if known_tunnels
                else _shipped("known_tunnel_domains.txt")
            ),
            watchlist=read_domain_list(watchlist) if watchlist else frozenset(),
        )


@dataclass(frozen=True)
class PostFilterConfig:
    drop_daily_seen: bool = False
    drop_single_entry: bool = False
    drop_alexa_top: bool = False
    alexa_domains: frozenset[str] = frozenset()
    # Days the input is supposed to cover; None derives it from the data.
    observation_days: Optional[int] = None


@dataclass(frozen=True)
class FilterConfig:
    prefilter_types: frozenset[RRType] = frozenset(
        (RRType.parse("NULL"), RRType.parse("TXT"))
    )
    known: KnownLists = field(default_factory=KnownLists.default)
    min_level: int = 4
    min_distinct_fqdns: int = 2
    special_use_rules: frozenset[str] = frozenset(SPECIAL_USE_RULES)
    post_filters: PostFilterConfig = field(default_factory=PostFilterConfig)
    psl: Optional[PublicSuffixList] = None

    def __post_init__(self):
        if self.min_level < 1:
            raise ConfigError("min_level must be >= 1")
        if self.min_distinct_fqdns < 1:
            raise ConfigError("min_distinct_fqdns must be >= 1")
        if not self.prefilter_types:
            raise ConfigError("prefilter_types must not be empty")
        unknown = set(self.special_use_rules) - set(SPECIAL_USE_RULES)
        if unknown:
            raise ConfigError(f"unknown special-use rules: {sorted(unknown)}")
        if self.post_filters.drop_alexa_top and not self.post_filters.alexa_domains:
            raise ConfigError("drop_alexa_top requires an alexa domain list")


# ----------------------------------------------------------------------
# Per-entry stages (stateless, order-independent)


class Stage(NamedTuple):
    """One per-entry stage: `keep(entry, sld)` is True for entries it passes."""

    stage_id: str  # conventional numbering: "0".."4"
    name: str
    keep: Callable[[PdnsEntry, str], bool]


def _special_use_match(entry: PdnsEntry, rules: frozenset[str]) -> bool:
    labels = entry.rrname.labels
    if "arpa" in rules and labels[-1] == "arpa":
        return True
    if "mail-auth-name" in rules:
        for label in labels:
            if label in _MAIL_AUTH_LABELS or label.endswith("_domainkey"):
                return True
    if "mail-auth-rdata" in rules and entry.rrtype == "TXT":
        for value in entry.rdata:
            if value[:8].lower().startswith(_MAIL_AUTH_RDATA_PREFIXES):
                return True
    return False


def stage_table(config: FilterConfig) -> tuple[Stage, ...]:
    """The per-entry stages bound to `config`, in the order `run_pipeline`
    applies them: (0) record types in `prefilter_types`; (1) SLD on neither
    the CDN nor the known-tunnel list; (2) at least `min_level` labels;
    (4) no reverse-DNS `.arpa` name and no DMARC/DKIM/SPF name or TXT
    payload. Each predicate takes the entry and its SLD."""
    types = config.prefilter_types
    known = config.known.cdn | config.known.known_tunnels
    min_level = config.min_level
    rules = config.special_use_rules
    return (
        Stage("0", "rrtype-prefilter", lambda entry, sld: entry.rrtype in types),
        Stage("1", "known-domains", lambda entry, sld: sld not in known),
        Stage("2", "min-level", lambda entry, sld: len(entry.rrname.labels) >= min_level),
        Stage("4", "special-use", lambda entry, sld: not _special_use_match(entry, rules)),
    )


@dataclass
class SldGroup:
    """Accumulated view of all surviving entries under one SLD."""

    sld: str
    entry_count: int = 0
    fqdns: set = field(default_factory=set)
    days: set = field(default_factory=set)
    rrtype_mix: Counter = field(default_factory=Counter)
    bailiwicks: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)

    def add(self, entry: PdnsEntry) -> None:
        self.entry_count += 1
        name = entry.rrname.name
        if name not in self.fqdns:
            self.fqdns.add(name)
            if len(self.samples) < SAMPLE_FQDNS:
                self.samples.append(name)
        self.days.add(entry.time_seen.date())
        self.rrtype_mix[str(entry.rrtype)] += 1
        if entry.bailiwick is not None:
            self.bailiwicks[entry.bailiwick.name] += 1


# ----------------------------------------------------------------------
# Full pipeline with accounting


@dataclass(frozen=True)
class StageCount:
    stage_id: str  # conventional numbering: "0".."4", or "post:*"
    name: str
    entries_in: int
    entries_out: int
    slds_out: int


@dataclass(frozen=True)
class CandidateRow:
    sld: str
    fqdn_count: int
    entry_count: int
    days_seen: int
    rrtype_mix: dict[str, int]
    dominant_bailiwick: str
    samples: tuple[str, ...]
    watchlist: bool = False


@dataclass(frozen=True)
class WatchlistHit:
    sld: str
    entry_count: int
    fqdn_count: int
    days_seen: int
    rrtype_mix: dict[str, int]


@dataclass
class CandidateReport:
    stage_counts: list[StageCount]
    candidates: list[CandidateRow]
    dropped_known_tunnels: list[tuple[str, int]]
    dropped_cdn: list[tuple[str, int]]
    post_filtered: list[tuple[CandidateRow, str]]
    watchlist_hits: list[WatchlistHit]
    input_entries: int
    observation_days: int
    survivor_entries: Optional[list[PdnsEntry]] = None

    def candidate_slds(self) -> list[str]:
        return [row.sld for row in self.candidates]

    def to_json_dict(self) -> dict:
        return {
            "input_entries": self.input_entries,
            "observation_days": self.observation_days,
            "stages": [
                {
                    "stage_id": s.stage_id,
                    "name": s.name,
                    "entries_in": s.entries_in,
                    "entries_out": s.entries_out,
                    "slds_out": s.slds_out,
                }
                for s in self.stage_counts
            ],
            "candidates": [
                {
                    "sld": c.sld,
                    "fqdn_count": c.fqdn_count,
                    "entry_count": c.entry_count,
                    "days_seen": c.days_seen,
                    "rrtype_mix": dict(sorted(c.rrtype_mix.items())),
                    "dominant_bailiwick": c.dominant_bailiwick,
                    "samples": list(c.samples),
                    "watchlist": c.watchlist,
                }
                for c in self.candidates
            ],
            "dropped_known_tunnels": [
                {"sld": sld, "entry_count": n} for sld, n in self.dropped_known_tunnels
            ],
            "dropped_cdn": [
                {"sld": sld, "entry_count": n} for sld, n in self.dropped_cdn
            ],
            "post_filtered": [
                {"sld": c.sld, "entry_count": c.entry_count, "reason": reason}
                for c, reason in self.post_filtered
            ],
            "watchlist_hits": [
                {
                    "sld": h.sld,
                    "entry_count": h.entry_count,
                    "fqdn_count": h.fqdn_count,
                    "days_seen": h.days_seen,
                    "rrtype_mix": dict(sorted(h.rrtype_mix.items())),
                }
                for h in self.watchlist_hits
            ],
        }

    def to_text(self) -> str:
        lines = []
        lines.append(f"pipeline report: {self.input_entries} entries in, "
                     f"{len(self.candidates)} candidate SLDs, "
                     f"{self.observation_days} observation day(s)")
        lines.append("")
        lines.append(f"{'stage':<24} {'entries_in':>10} {'entries_out':>12} {'slds_out':>9}")
        for s in self.stage_counts:
            label = f"{s.stage_id}:{s.name}"
            lines.append(f"{label:<24} {s.entries_in:>10} {s.entries_out:>12} {s.slds_out:>9}")
        if self.dropped_known_tunnels:
            lines.append("")
            lines.append("known tunnel domains dropped at stage 1:")
            for sld, n in self.dropped_known_tunnels:
                lines.append(f"  {sld:<30} {n:>10}")
        if self.dropped_cdn:
            lines.append("")
            lines.append("known CDN domains dropped at stage 1:")
            for sld, n in self.dropped_cdn:
                lines.append(f"  {sld:<30} {n:>10}")
        lines.append("")
        if self.candidates:
            lines.append("candidate SLDs (for analyst review):")
            lines.append("  sld                            fqdns   entries  days  types                bailiwick")
            for c in self.candidates:
                mix = ",".join(f"{t}:{n}" for t, n in sorted(c.rrtype_mix.items()))
                mark = " [watchlist]" if c.watchlist else ""
                lines.append(
                    f"  {c.sld:<30} {c.fqdn_count:>6} {c.entry_count:>9} {c.days_seen:>5}  "
                    f"{mix:<20} {c.dominant_bailiwick}{mark}"
                )
        else:
            lines.append("no candidate SLDs survived the pipeline")
        if self.post_filtered:
            lines.append("")
            lines.append("removed by post-filters:")
            for c, reason in self.post_filtered:
                lines.append(f"  {c.sld:<30} {c.entry_count:>9}  ({reason})")
        if self.watchlist_hits:
            lines.append("")
            lines.append("watchlist domains observed anywhere in the input:")
            for h in self.watchlist_hits:
                mix = ",".join(f"{t}:{n}" for t, n in sorted(h.rrtype_mix.items()))
                lines.append(
                    f"  {h.sld:<30} {h.entry_count:>9} entries, {h.fqdn_count} fqdns, "
                    f"{h.days_seen} day(s), {mix}"
                )
        lines.append("")
        return "\n".join(lines)

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        json_path = outdir / "candidates.json"
        write_json(json_path, self.to_json_dict())
        text_path = outdir / "candidates.txt"
        text_path.write_text(self.to_text(), encoding="utf-8")
        csv_path = outdir / "stage_counts.csv"
        write_csv(
            csv_path,
            ("stage_id", "name", "entries_in", "entries_out", "slds_out"),
            [
                (s.stage_id, s.name, s.entries_in, s.entries_out, s.slds_out)
                for s in self.stage_counts
            ],
        )
        return [json_path, text_path, csv_path]


def _group_row(group: SldGroup, watchlist: bool) -> CandidateRow:
    dominant = ""
    if group.bailiwicks:
        dominant = max(group.bailiwicks.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return CandidateRow(
        sld=group.sld,
        fqdn_count=len(group.fqdns),
        entry_count=group.entry_count,
        days_seen=len(group.days),
        rrtype_mix=dict(group.rrtype_mix),
        dominant_bailiwick=dominant,
        samples=tuple(group.samples),
        watchlist=watchlist,
    )


def run_pipeline(
    stream: Iterable[PdnsEntry],
    config: FilterConfig,
    keep_entries: bool = False,
) -> CandidateReport:
    """Run all stages over the stream in one pass with full accounting.

    The per-entry stages of `stage_table` run in table order (their outcome
    is order-independent); the grouping stage 3 runs last so distinct-FQDN
    counts reflect only tunnel-plausible entries. `keep_entries` retains
    the surviving entries on the report for testing and re-analysis.
    """
    stages = stage_table(config)
    keeps = [stage.keep for stage in stages]
    known_index = [stage.stage_id for stage in stages].index("1")
    known_tunnels = config.known.known_tunnels
    watch = config.known.watchlist
    psl = config.psl

    n_read = 0
    all_days = set()
    watch_groups: dict[str, SldGroup] = {}
    passed = [0] * len(stages)
    passed_slds: list[set[str]] = [set() for _ in stages]
    dropped_tunnels: Counter = Counter()
    dropped_cdn: Counter = Counter()
    groups: dict[str, SldGroup] = {}
    survivors: list[PdnsEntry] = [] if keep_entries else None

    for entry in stream:
        n_read += 1
        all_days.add(entry.time_seen.date())
        sld = sld_name(entry, psl)
        if watch and sld in watch:
            wg = watch_groups.get(sld)
            if wg is None:
                wg = watch_groups[sld] = SldGroup(sld=sld)
            wg.add(entry)
        for i, keep in enumerate(keeps):
            if not keep(entry, sld):
                if i == known_index:
                    (dropped_tunnels if sld in known_tunnels else dropped_cdn)[sld] += 1
                break
            passed[i] += 1
            passed_slds[i].add(sld)
        else:
            # stage 3: grouping
            group = groups.get(sld)
            if group is None:
                group = groups[sld] = SldGroup(sld=sld)
            group.add(entry)
            if survivors is not None:
                survivors.append(entry)

    surviving = {
        sld: g for sld, g in groups.items() if len(g.fqdns) >= config.min_distinct_fqdns
    }
    grouped_entries = sum(g.entry_count for g in surviving.values())

    stage_counts = []
    entries_in = n_read
    for stage, entries_out, slds in zip(stages, passed, passed_slds):
        stage_counts.append(
            StageCount(stage.stage_id, stage.name, entries_in, entries_out, len(slds))
        )
        entries_in = entries_out
    stage_counts.append(
        StageCount("3", "min-subdomains", entries_in, grouped_entries, len(surviving))
    )

    observation_days = config.post_filters.observation_days or len(all_days)
    post_filtered: list[tuple[CandidateRow, str]] = []
    pf = config.post_filters

    def sort_key(g: SldGroup):
        return (-g.entry_count, g.sld)

    ordered = sorted(surviving.values(), key=sort_key)
    kept: list[CandidateRow] = []
    for group in ordered:
        row = _group_row(group, watchlist=group.sld in watch)
        if not row.watchlist:
            if pf.drop_daily_seen and observation_days > 0 and row.days_seen >= observation_days:
                post_filtered.append((row, "daily-seen"))
                continue
            if pf.drop_single_entry and row.entry_count == 1:
                post_filtered.append((row, "single-entry"))
                continue
            if pf.drop_alexa_top and row.sld in pf.alexa_domains:
                post_filtered.append((row, "alexa-top"))
                continue
        kept.append(row)

    for post_id, post_name, flag in (
        ("post:daily-seen", "daily-seen", pf.drop_daily_seen),
        ("post:single-entry", "single-entry", pf.drop_single_entry),
        ("post:alexa", "alexa-top", pf.drop_alexa_top),
    ):
        if not flag:
            continue
        removed = [c for c, reason in post_filtered if reason == post_name]
        prev = stage_counts[-1]
        entries_out = prev.entries_out - sum(c.entry_count for c in removed)
        stage_counts.append(
            StageCount(
                post_id,
                post_name,
                prev.entries_out,
                entries_out,
                prev.slds_out - len(removed),
            )
        )

    if survivors is not None:
        keep_slds = {row.sld for row in kept}
        survivors = [e for e in survivors if sld_name(e, psl) in keep_slds]

    watch_hits = [
        WatchlistHit(
            sld=g.sld,
            entry_count=g.entry_count,
            fqdn_count=len(g.fqdns),
            days_seen=len(g.days),
            rrtype_mix=dict(g.rrtype_mix),
        )
        for g in sorted(watch_groups.values(), key=sort_key)
    ]

    return CandidateReport(
        stage_counts=stage_counts,
        candidates=kept,
        dropped_known_tunnels=sorted(
            dropped_tunnels.items(), key=lambda kv: (-kv[1], kv[0])
        ),
        dropped_cdn=sorted(dropped_cdn.items(), key=lambda kv: (-kv[1], kv[0])),
        post_filtered=post_filtered,
        watchlist_hits=watch_hits,
        input_entries=n_read,
        observation_days=observation_days,
        survivor_entries=survivors,
    )
