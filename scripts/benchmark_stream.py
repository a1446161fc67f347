#!/usr/bin/env python3
"""Throughput/memory benchmark: stream synthetic entries through the
stats aggregator and the filter pipeline in one pass.

The stream is synthesized in memory (no disk round trip) with a realistic
shape: mostly benign A/AAAA/CNAME noise over a bounded SLD population,
plus NULL/TXT tunnel traffic under provider and candidate SLDs. Every
rrname is distinct, matching newly-observed-hostname feeds, so the exact
first-seen dedup set and the per-SLD distinct sets both grow to O(input).

Reports wall time, throughput, and peak RSS as JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from datetime import datetime, timedelta, timezone
from itertools import chain
from random import Random

from pdnskit.ingest import FirstSeenState, first_seen_filter
from pdnskit.model import Fqdn, PdnsEntry, RRType
from pdnskit.pipeline import FilterConfig, run_pipeline
from pdnskit.stats import StatsBundle


def synth_entries(n: int, seed: int, n_slds: int, days: int):
    """Yield n distinct-rrname entries with a skewed SLD distribution."""
    rng = Random(seed)
    rr_a, rr_aaaa, rr_cname = RRType.parse("A"), RRType.parse("AAAA"), RRType.parse("CNAME")
    rr_null, rr_txt = RRType.parse("NULL"), RRType.parse("TXT")

    def fq(name: str) -> Fqdn:
        return Fqdn(labels=tuple(name.split(".")), name=name)

    bulk_slds = [fq(f"bulk{i:05d}.com") for i in range(n_slds)]
    provider = fq("53r.de")
    tunnels = [fq(f"tun{i:02d}.net") for i in range(20)]
    timestamps = [
        datetime(2017, 7, 1, tzinfo=timezone.utc) + timedelta(days=d, seconds=s * 977)
        for d in range(days)
        for s in range(32)
    ]
    ip_pool = [(f"198.51.{i}.{j}",) for i in range(4) for j in range(16)]
    blob_small = ("x" * 60,)
    blob_mid = ("y" * 400,)
    chunk_pool = [
        "".join(rng.choice("abcdefghijklmnopqrstuvwxyz234567") for _ in range(40))
        for _ in range(64)
    ]
    n_ts = len(timestamps)
    n_ips = len(ip_pool)
    n_chunks = len(chunk_pool)
    n_bulk = len(bulk_slds)

    for i in range(n):
        ts = timestamps[i % n_ts]
        kind = i % 100
        if kind < 55:  # plain A noise, distinct hostnames
            sld = bulk_slds[(i * 7) % n_bulk]
            rrname = fq(f"h{i}.{sld.name}")
            yield PdnsEntry(sld, ts, sld, rrname, "IN", rr_a, ip_pool[i % n_ips])
        elif kind < 65:
            sld = bulk_slds[(i * 13) % n_bulk]
            rrname = fq(f"v6-{i}.{sld.name}")
            yield PdnsEntry(sld, ts, sld, rrname, "IN", rr_aaaa, ("2001:db8::1",))
        elif kind < 73:
            sld = bulk_slds[(i * 3) % n_bulk]
            rrname = fq(f"cdn{i}.edge.{sld.name}")
            yield PdnsEntry(sld, ts, sld, rrname, "IN", rr_cname, blob_small)
        elif kind < 94:  # provider NULL tunnel traffic (dropped at stage 1)
            rrname = fq(f"{chunk_pool[i % n_chunks]}x{i}.a.{provider.name}")
            yield PdnsEntry(provider, ts, provider, rrname, "IN", rr_null, blob_mid)
        elif kind < 98:  # candidate NULL tunnels
            sld = tunnels[(i // 100) % len(tunnels)]
            rrname = fq(f"{chunk_pool[(i * 5) % n_chunks]}q{i}.t.{sld.name}")
            yield PdnsEntry(sld, ts, sld, rrname, "IN", rr_null, blob_mid)
        else:  # candidate TXT tunnels
            sld = tunnels[(i // 300) % len(tunnels)]
            rrname = fq(f"{chunk_pool[(i * 9) % n_chunks]}w{i}.d.{sld.name}")
            yield PdnsEntry(sld, ts, sld, rrname, "IN", rr_txt, blob_mid)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entries", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--slds", type=int, default=2000, help="benign SLD population")
    parser.add_argument("--days", type=int, default=14)
    parser.add_argument("--dedup", choices=["exact", "off"], default="exact")
    args = parser.parse_args(argv)

    bundle = StatsBundle()
    config = FilterConfig()

    stream = synth_entries(args.entries, args.seed, args.slds, args.days)
    if args.dedup == "exact":
        stream = first_seen_filter(stream, FirstSeenState())

    accumulate = bundle.accumulate

    def teed():
        for entry in stream:
            accumulate(entry)
            yield entry

    rss_before = peak_rss_mb()
    started = time.monotonic()
    report = run_pipeline(teed(), config)
    elapsed = time.monotonic() - started

    result = {
        "entries": args.entries,
        "elapsed_s": round(elapsed, 2),
        "entries_per_s": round(args.entries / elapsed),
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "rss_before_mb": round(rss_before, 1),
        "dedup": args.dedup,
        "deduplicated": args.entries - bundle.total,
        "stats_total": bundle.total,
        "distinct_slds": len(bundle.sld_entries),
        "distinct_fqdns": sum(bundle.sld_fqdn_counts().values()),
        "pipeline_candidates": len(report.candidates),
        "dropped_known_tunnel_entries": sum(n for _, n in report.dropped_known_tunnels),
    }
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
