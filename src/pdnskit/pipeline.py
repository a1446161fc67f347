"""Step-wise reduction of a pDNS stream to candidate tunnel SLDs.

Stages: (0) record-type prefilter, (1) known-domain removal, (2) minimum
level, (4) special-use removal, then the grouping stage (3) that keeps
SLDs with enough distinct hostnames. The per-entry stages are defined once,
as the table `stage_table` builds from a `FilterConfig`, and `run_pipeline`
drives that table. They commute, so the grouping stage runs last; reported
stage ids keep the conventional 0-4 numbering. Optional post-filters prune
the candidate list further; they too are one table, `post_filter_table`.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from pdnskit.model import ConfigError, PdnsEntry, PublicSuffixList, RRType, _make_checked, sld_name
from pdnskit.tables import read_domain_list, write_csv, write_json

__all__ = [
    "ConfigError",
    "FilterConfig",
    "StageCount",
    "CandidateRow",
    "CandidateReport",
    "Stage",
    "stage_table",
    "post_filter_table",
    "run_pipeline",
]

_MAIL_AUTH_LABELS = frozenset({"_dmarc", "_domainkey", "_spf"})
_MAIL_AUTH_RDATA_PREFIXES = ("v=spf1", "v=dkim1", "v=dmarc1")

SAMPLE_FQDNS = 10


@cache  # read once per process; the frozenset is safe to share
def _shipped(name: str) -> frozenset[str]:
    ref = resources.files("pdnskit.data").joinpath(name)
    with resources.as_file(ref) as path:
        return read_domain_list(path)


class FilterConfig(
    namedtuple(
        "FilterConfig",
        "prefilter_types cdn known_tunnels watchlist min_level min_distinct_fqdns"
        " drop_daily_seen drop_single_entry alexa_domains observation_days psl",
    )
):
    """What `run_pipeline` keeps, in stage order. Stage 0 keeps
    `prefilter_types`; stage 1 drops the `cdn` and `known_tunnels` SLDs
    (None: the bundled provider list), while `watchlist` SLDs are never
    dropped, only annotated, and no SLD may be on two of the three lists.
    Stages 2 and 3 need `min_level` labels and `min_distinct_fqdns` names.
    The post-filters drop SLDs seen on every one of `observation_days`
    days (None derives it from the data), SLDs with a single entry, and
    the `alexa_domains` SLDs (run when non-empty). `psl` is the SLD rule's
    public-suffix list."""

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(
        cls,
        prefilter_types: frozenset[RRType] = frozenset((RRType.parse("NULL"), RRType.parse("TXT"))),
        cdn: frozenset[str] = frozenset(),
        known_tunnels: Optional[frozenset[str]] = None,
        watchlist: frozenset[str] = frozenset(),
        min_level: int = 4,
        min_distinct_fqdns: int = 2,
        drop_daily_seen: bool = False,
        drop_single_entry: bool = False,
        alexa_domains: frozenset[str] = frozenset(),
        observation_days: Optional[int] = None,
        psl: Optional[PublicSuffixList] = None,
    ):
        if known_tunnels is None:
            known_tunnels = _shipped("known_tunnel_domains.txt")
        overlap = (cdn & known_tunnels) | (cdn & watchlist) | (known_tunnels & watchlist)
        if overlap:
            raise ConfigError(f"known lists overlap: {sorted(overlap)[:5]}")
        if min_level < 1:
            raise ConfigError("min_level must be >= 1")
        if min_distinct_fqdns < 1:
            raise ConfigError("min_distinct_fqdns must be >= 1")
        if not prefilter_types:
            raise ConfigError("prefilter_types must not be empty")
        if observation_days is not None and observation_days < 1:
            raise ConfigError("observation_days must be >= 1")
        return super().__new__(
            cls, prefilter_types, cdn, known_tunnels, watchlist, min_level, min_distinct_fqdns,
            drop_daily_seen, drop_single_entry, alexa_domains, observation_days, psl,
        )

    @classmethod
    def from_files(
        cls,
        cdn: Optional[str | Path] = None,
        known_tunnels: Optional[str | Path] = None,
        watchlist: Optional[str | Path] = None,
        **values,
    ) -> "FilterConfig":
        """The config of `values` with the lists in the files given. Without
        `known_tunnels` the stage-1 tunnel list is the bundled provider
        list; `watchlist="builtin"` is the bundled example IOC watchlist."""
        return cls(
            cdn=read_domain_list(cdn) if cdn else frozenset(),
            known_tunnels=read_domain_list(known_tunnels) if known_tunnels else None,
            watchlist=(
                _shipped("watchlist_example.txt")
                if watchlist == "builtin"
                else read_domain_list(watchlist) if watchlist else frozenset()
            ),
            **values,
        )


# ----------------------------------------------------------------------
# Per-entry stages (stateless, order-independent)


class Stage(NamedTuple):
    """One per-entry stage: `keep(entry, sld)` is True for entries it passes."""

    stage_id: str  # conventional numbering: "0".."4"
    name: str
    keep: Callable[[PdnsEntry, str], bool]


def _special_use_match(entry: PdnsEntry) -> bool:
    labels = entry.rrname.labels
    if labels[-1] == "arpa":
        return True
    for label in labels:
        if label in _MAIL_AUTH_LABELS or label.endswith("_domainkey"):
            return True
    if entry.rrtype == "TXT":
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
    known = config.cdn | config.known_tunnels
    min_level = config.min_level
    return (
        Stage("0", "rrtype-prefilter", lambda entry, sld: entry.rrtype in types),
        Stage("1", "known-domains", lambda entry, sld: sld not in known),
        Stage("2", "min-level", lambda entry, sld: len(entry.rrname.labels) >= min_level),
        Stage("4", "special-use", lambda entry, sld: not _special_use_match(entry)),
    )


class SldGroup:
    """Accumulated view of all surviving entries under one SLD."""

    __slots__ = ("sld", "entry_count", "fqdns", "days", "rrtype_mix", "bailiwicks", "samples")

    def __init__(self, sld: str):
        self.sld = sld
        self.entry_count = 0
        self.fqdns = set()
        self.days = set()
        self.rrtype_mix = Counter()
        self.bailiwicks = Counter()
        self.samples = []

    def add(self, entry: PdnsEntry) -> None:
        self.entry_count += 1
        name = entry.rrname.name
        if name not in self.fqdns:
            self.fqdns.add(name)
            if len(self.samples) < SAMPLE_FQDNS:
                self.samples.append(name)
        self.days.add(entry.time_seen.date())
        self.rrtype_mix[str(entry.rrtype)] += 1
        bailiwick = entry.bailiwick
        if bailiwick is not None:
            self.bailiwicks[bailiwick.name] += 1


# ----------------------------------------------------------------------
# Full pipeline with accounting


class StageCount(NamedTuple):
    stage_id: str  # conventional numbering: "0".."4", or "post:*"
    name: str
    entries_in: int
    entries_out: int
    slds_out: int


class CandidateRow(NamedTuple):
    """One SLD's grouped entries. Field order is the key order of its JSON
    object; `rrtype_mix` is sorted by type."""

    sld: str
    fqdn_count: int
    entry_count: int
    days_seen: int
    rrtype_mix: dict[str, int]
    dominant_bailiwick: str
    samples: tuple[str, ...]
    watchlist: bool = False


# The CandidateRow fields a watchlist hit reports, in JSON key order.
_WATCHLIST_HIT_KEYS = ("sld", "entry_count", "fqdn_count", "days_seen", "rrtype_mix")


class CandidateReport(NamedTuple):
    """What `run_pipeline` found: the stage table, the candidates and what
    was dropped, post-filtered or watched."""

    stage_counts: list[StageCount]
    candidates: list[CandidateRow]
    dropped_known_tunnels: list[tuple[str, int]]
    dropped_cdn: list[tuple[str, int]]
    post_filtered: list[tuple[CandidateRow, str]]
    watchlist_hits: list[CandidateRow]
    input_entries: int
    observation_days: int
    survivor_entries: Optional[list[PdnsEntry]] = None

    def candidate_slds(self) -> list[str]:
        return [row.sld for row in self.candidates]

    def to_json_dict(self) -> dict:
        return {
            "input_entries": self.input_entries,
            "observation_days": self.observation_days,
            "stages": [s._asdict() for s in self.stage_counts],
            "candidates": [c._asdict() for c in self.candidates],
            "dropped_known_tunnels": [
                {"sld": sld, "entry_count": n} for sld, n in self.dropped_known_tunnels
            ],
            "dropped_cdn": [{"sld": sld, "entry_count": n} for sld, n in self.dropped_cdn],
            "post_filtered": [
                {"sld": c.sld, "entry_count": c.entry_count, "reason": reason}
                for c, reason in self.post_filtered
            ],
            "watchlist_hits": [
                {key: getattr(h, key) for key in _WATCHLIST_HIT_KEYS}
                for h in self.watchlist_hits
            ],
        }

    def to_text(self) -> str:
        labels = [f"{s.stage_id}:{s.name}" for s in self.stage_counts]
        width = max([24, *map(len, labels)])  # a post-filter label can be longer
        lines = [
            f"pipeline report: {self.input_entries} entries in, "
            f"{len(self.candidates)} candidate SLDs, "
            f"{self.observation_days} observation day(s)",
            "",
            f"{'stage':<{width}} {'entries_in':>10} {'entries_out':>12} {'slds_out':>9}",
        ]
        for label, s in zip(labels, self.stage_counts):
            lines.append(f"{label:<{width}} {s.entries_in:>10} {s.entries_out:>12} {s.slds_out:>9}")
        for kind, dropped in (("tunnel", self.dropped_known_tunnels), ("CDN", self.dropped_cdn)):
            if dropped:
                lines += ["", f"known {kind} domains dropped at stage 1:"]
                lines += [f"  {sld:<30} {n:>10}" for sld, n in dropped]
        lines.append("")
        if self.candidates:
            lines.append("candidate SLDs (for analyst review):")
            lines.append("  sld                            fqdns   entries  days  types                bailiwick")
            for c in self.candidates:
                mix = ",".join(f"{t}:{n}" for t, n in c.rrtype_mix.items())
                mark = " [watchlist]" if c.watchlist else ""
                lines.append(
                    f"  {c.sld:<30} {c.fqdn_count:>6} {c.entry_count:>9} {c.days_seen:>5}  "
                    f"{mix:<20} {c.dominant_bailiwick}{mark}"
                )
        else:
            lines.append("no candidate SLDs survived the pipeline")
        if self.post_filtered:
            lines += ["", "removed by post-filters:"]
            for c, reason in self.post_filtered:
                lines.append(f"  {c.sld:<30} {c.entry_count:>9}  ({reason})")
        if self.watchlist_hits:
            lines += ["", "watchlist domains observed anywhere in the input:"]
            for h in self.watchlist_hits:
                mix = ",".join(f"{t}:{n}" for t, n in h.rrtype_mix.items())
                lines.append(
                    f"  {h.sld:<30} {h.entry_count:>9} entries, {h.fqdn_count} fqdns, "
                    f"{h.days_seen} day(s), {mix}"
                )
        lines.append("")
        return "\n".join(lines)

    def write(self, outdir: str | Path) -> list[Path]:
        outdir = Path(outdir)
        json_path = outdir / "candidates.json"
        write_json(json_path, self.to_json_dict())
        text_path = outdir / "candidates.txt"
        text_path.write_text(self.to_text(), encoding="utf-8")
        csv_path = outdir / "stage_counts.csv"
        write_csv(
            csv_path,
            ("stage_id", "name", "entries_in", "entries_out", "slds_out"),
            self.stage_counts,
        )
        return [json_path, text_path, csv_path]


def _by_entries(group: SldGroup):
    return (-group.entry_count, group.sld)


def _group_row(group: SldGroup, watchlist: bool) -> CandidateRow:
    dominant = ""
    if group.bailiwicks:
        dominant = max(group.bailiwicks.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return CandidateRow(
        sld=group.sld,
        fqdn_count=len(group.fqdns),
        entry_count=group.entry_count,
        days_seen=len(group.days),
        rrtype_mix=dict(sorted(group.rrtype_mix.items())),
        dominant_bailiwick=dominant,
        samples=tuple(group.samples),
        watchlist=watchlist,
    )


def post_filter_table(
    config: FilterConfig, observation_days: int
) -> tuple[tuple[str, str, Callable[[CandidateRow], bool]], ...]:
    """The enabled post-filters as `(stage_id, name, drops)` rows, in the
    order `run_pipeline` tries them: SLDs seen on every one of
    `observation_days` days, SLDs left with a single entry, SLDs on the
    alexa list. `drops(row)` is True for a candidate row the filter removes;
    `name` is the reason reported for it."""
    alexa = config.alexa_domains
    table = (
        (config.drop_daily_seen, "post:daily-seen", "daily-seen",
         lambda row: 0 < observation_days <= row.days_seen),
        (config.drop_single_entry, "post:single-entry", "single-entry", lambda row: row.entry_count == 1),
        (bool(alexa), "post:alexa", "alexa-top", lambda row: row.sld in alexa),
    )
    return tuple((stage_id, name, drops) for enabled, stage_id, name, drops in table if enabled)


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
    known_tunnels = config.known_tunnels
    watch = config.watchlist
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
                wg = watch_groups[sld] = SldGroup(sld)
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
                group = groups[sld] = SldGroup(sld)
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

    observation_days = config.observation_days
    if observation_days is None:
        observation_days = len(all_days)
    post_filters = post_filter_table(config, observation_days)
    kept: list[CandidateRow] = []
    post_filtered: list[tuple[CandidateRow, str]] = []
    for group in sorted(surviving.values(), key=_by_entries):
        row = _group_row(group, watchlist=group.sld in watch)
        reason = None if row.watchlist else next(
            (name for _, name, drops in post_filters if drops(row)), None
        )
        if reason is None:
            kept.append(row)
        else:
            post_filtered.append((row, reason))

    for stage_id, name, _ in post_filters:
        removed = [row for row, reason in post_filtered if reason == name]
        prev = stage_counts[-1]
        entries_out = prev.entries_out - sum(row.entry_count for row in removed)
        stage_counts.append(
            StageCount(stage_id, name, prev.entries_out, entries_out, prev.slds_out - len(removed))
        )

    if survivors is not None:
        keep_slds = {row.sld for row in kept}
        survivors = [e for e in survivors if sld_name(e, psl) in keep_slds]

    return CandidateReport(
        stage_counts=stage_counts,
        candidates=kept,
        dropped_known_tunnels=sorted(dropped_tunnels.items(), key=lambda kv: (-kv[1], kv[0])),
        dropped_cdn=sorted(dropped_cdn.items(), key=lambda kv: (-kv[1], kv[0])),
        post_filtered=post_filtered,
        watchlist_hits=[
            _group_row(g, watchlist=True) for g in sorted(watch_groups.values(), key=_by_entries)
        ],
        input_entries=n_read,
        observation_days=observation_days,
        survivor_entries=survivors,
    )
