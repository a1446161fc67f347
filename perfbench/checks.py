"""Correctness checks for the artifacts of `stats`, `filter` and `classify`.

Expected values come from two places only: the workload spec (see
`workloads.expectations`) and the benchmark's own recount of the corpus
(`recount`), which re-implements the few rules it needs (name
normalisation, the SLD rule, first-seen dedup) without importing pdnskit.
Each `check_*` returns a list of failure messages; an empty list means
pass. `accounting_fault` is kept apart: breaking the ingest identity fails
the operation, which the benchmark counts in `failed`.
"""

from __future__ import annotations

import csv
import gzip
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Expectations

NAMED_RRTYPES = ("A", "AAAA", "MX", "NS", "CNAME", "TXT", "NULL")
MIN_AGREEMENT = 0.97
UNKNOWN = "unknown"


@dataclass
class View:
    """Counts over one view of the corpus: every record, or first-seen only."""

    records: int = 0
    rrtype_counts: Counter = field(default_factory=Counter)
    sld_entries: Counter = field(default_factory=Counter)
    sld_fqdns: set = field(default_factory=set)  # distinct (sld, rrname) pairs

    def add(self, rrtype: str, sld: str, rrname: str) -> None:
        self.records += 1
        self.rrtype_counts[rrtype] += 1
        self.sld_entries[sld] += 1
        self.sld_fqdns.add((sld, rrname))


@dataclass
class Recount:
    lines: int
    full: View  # what a command without --dedup sees
    first_seen: View  # what a command with --dedup sees


def open_text(path: Path):
    with open(path, "rb") as fh:
        gz = fh.read(2) == b"\x1f\x8b"
    return gzip.open(path, "rt", encoding="utf-8") if gz else open(path, "r", encoding="utf-8")


def _norm(name: str) -> str:
    name = name[:-1] if name.endswith(".") else name
    return name.lower()


def sld_of(rrname: str, domain: str) -> str:
    """The feed's domain when it is a label suffix of rrname, otherwise the
    last two labels of rrname."""
    if domain and (rrname == domain or rrname.endswith("." + domain)):
        return domain
    return ".".join(rrname.split(".")[-2:])


def recount(corpus: Path) -> Recount:
    full, first = View(), View()
    seen: set[str] = set()
    lines = 0
    with open_text(corpus) as fh:
        for line in fh:
            if not line.strip():
                continue
            lines += 1
            rec = json.loads(line)
            rrname = _norm(rec["rrname"])
            sld = sld_of(rrname, _norm(rec.get("domain") or ""))
            rrtype = rec["rrtype"].strip().upper()
            full.add(rrtype, sld, rrname)
            if rrname not in seen:
                seen.add(rrname)
                first.add(rrtype, sld, rrname)
    return Recount(lines=lines, full=full, first_seen=first)


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _missing(outdir: Path, names) -> list[str]:
    return [f"{name} is missing" for name in names if not (outdir / name).is_file()]


def accounting_fault(outdir: Path) -> str | None:
    """The documented ingest identity, read == accepted + rejected +
    deduplicated. A command that breaks it counts as a failed operation,
    not as a wrong table: its outputs are checked apart from this."""
    s = _read_json(outdir / "ingest_stats.json")
    rejected = sum(s["rejected_by_error"].values())
    if s["read"] == s["accepted"] + rejected + s["deduplicated"]:
        return None
    return (
        f"ingest: read {s['read']} != accepted {s['accepted']} + rejected {rejected}"
        f" + deduplicated {s['deduplicated']}"
    )


def check_ingest(outdir: Path, rc: Recount, dedup: bool) -> list[str]:
    missing = _missing(outdir, ["ingest_stats.json"])
    if missing:
        return missing
    s = _read_json(outdir / "ingest_stats.json")
    rejected = sum(s["rejected_by_error"].values())
    errors = []
    if rejected:
        errors.append(f"ingest: {rejected} records rejected: {s['rejected_by_error']}")
    if s["read"] != rc.lines:
        errors.append(f"ingest: read {s['read']} != corpus lines {rc.lines}")
    want_dedup = rc.lines - rc.first_seen.records if dedup else 0
    if s["deduplicated"] != want_dedup:
        errors.append(f"ingest: deduplicated {s['deduplicated']} != {want_dedup}")
    return errors


def check_stats(outdir: Path, rc: Recount, dedup: bool) -> list[str]:
    errors = check_ingest(outdir, rc, dedup)
    missing = _missing(outdir, ["stats_summary.json", "rrtype_shares.csv"])
    if missing:
        return errors + missing
    view = rc.first_seen if dedup else rc.full
    summary = _read_json(outdir / "stats_summary.json")
    want = {
        "total_entries": view.records,
        "distinct_slds": len(view.sld_entries),
        "distinct_fqdns": len(view.sld_fqdns),
    }
    for key, value in want.items():
        if summary.get(key) != value:
            errors.append(f"stats: {key} {summary.get(key)} != recount {value}")
    named = {t: view.rrtype_counts.get(t, 0) for t in NAMED_RRTYPES}
    want_shares = dict(named)
    want_shares["Others"] = view.records - sum(named.values())
    for t, c in view.rrtype_counts.items():
        if t not in NAMED_RRTYPES:
            want_shares[t] = c
    got_shares = {row["rrtype"]: int(row["count"]) for row in _read_csv(outdir / "rrtype_shares.csv")}
    if got_shares != want_shares:
        errors.append(f"stats: rrtype_shares.csv counts {got_shares} != recount {want_shares}")
    return errors


def check_filter(outdir: Path, rc: Recount, dedup: bool, exp: Expectations) -> list[str]:
    errors = check_ingest(outdir, rc, dedup)
    missing = _missing(outdir, ["candidates.json", "stage_counts.csv"])
    if missing:
        return errors + missing
    report = _read_json(outdir / "candidates.json")
    got = {c["sld"] for c in report["candidates"]}
    if got != exp.candidates:
        errors.append(
            f"filter: candidates missing {sorted(exp.candidates - got)},"
            f" unexpected {sorted(got - exp.candidates)}"
        )
    dropped = {d["sld"]: d["entry_count"] for d in report["dropped_known_tunnels"]}
    if dropped != exp.dropped_known_tunnels:
        errors.append(f"filter: dropped_known_tunnels {dropped} != {exp.dropped_known_tunnels}")
    hits = {h["sld"] for h in report["watchlist_hits"]}
    if hits != exp.watchlist_hits:
        errors.append(f"filter: watchlist_hits {sorted(hits)} != {sorted(exp.watchlist_hits)}")
    stages = _read_csv(outdir / "stage_counts.csv")
    records = (rc.first_seen if dedup else rc.full).records
    prev_out = records
    for row in stages:
        if int(row["entries_in"]) != prev_out:
            errors.append(
                f"filter: stage {row['stage_id']} entries_in {row['entries_in']}"
                f" != previous entries_out {prev_out}"
            )
        prev_out = int(row["entries_out"])
    if report["input_entries"] != records:
        errors.append(f"filter: input_entries {report['input_entries']} != {records}")
    return errors


def check_classify(outdir: Path, rc: Recount, exp: Expectations) -> list[str]:
    errors = check_ingest(outdir, rc, dedup=False)
    missing = _missing(outdir, ["attributions.csv"])
    if missing:
        return errors + missing
    rows = {row["sld"]: row for row in _read_csv(outdir / "attributions.csv")}
    want_slds = set(rc.full.sld_entries)
    if set(rows) != want_slds:
        errors.append(
            f"classify: SLDs missing {sorted(want_slds - set(rows))[:5]},"
            f" unexpected {sorted(set(rows) - want_slds)[:5]}"
        )
    for sld, row in sorted(rows.items()):
        if int(row["entry_count"]) != rc.full.sld_entries.get(sld, 0):
            errors.append(
                f"classify: {sld} entry_count {row['entry_count']}"
                f" != recount {rc.full.sld_entries.get(sld, 0)}"
            )
        profile = exp.tunnel_profiles.get(sld)
        if profile is None:
            if row["implementation"] != UNKNOWN:
                errors.append(f"classify: benign {sld} attributed to {row['implementation']}")
        elif row["implementation"] != profile or float(row["agreement"]) < MIN_AGREEMENT:
            errors.append(
                f"classify: {sld} -> {row['implementation']} (agreement {row['agreement']}),"
                f" generated as {profile}"
            )
    return errors
