"""Workload specs for the pdnskit benchmark and the expectations they imply.

A workload is a `tunnelgen` generator config built from the benchmark seed,
plus the CLI flags each command runs with. Every expectation the checks use
(planted candidates, provider volumes, watchlist hits, attributions) is
derived here from the spec and from the shipped data files, never from a
stored copy of program output, so the checks hold for any seed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from random import Random

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "pdnskit" / "data"
PREFILTER_TYPES = frozenset({"NULL", "TXT"})  # the filter command's default --types
WORKLOAD_NAMES = ("feed-mix", "long-tail-gz")
COMMANDS = ("stats", "filter", "classify")  # the measured commands, in round order


@dataclass(frozen=True)
class Tunnel:
    profile: str
    sld: str
    third: str
    queries: int


@dataclass(frozen=True)
class Background:
    kind: str
    sld: str
    queries: int


@dataclass(frozen=True)
class ProfileInfo:
    rrtypes: frozenset[str]
    provider: bool


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    corpus_name: str  # a name ending in .gz makes `gen` compress the corpus
    days: int
    tunnels: tuple[Tunnel, ...]
    background: tuple[Background, ...]
    dedup: bool  # `stats --dedup` and `filter --dedup`
    watchlist: bool  # `filter --watchlist builtin`

    def gen_config(self) -> dict:
        return {
            "seed": self.seed,
            "start_date": "2017-07-01",
            "days": self.days,
            "tunnels": [
                {"profile": t.profile, "sld": t.sld, "third": t.third, "queries": t.queries}
                for t in self.tunnels
            ],
            "background": [
                {"kind": b.kind, "sld": b.sld, "queries": b.queries} for b in self.background
            ],
        }

    def command_args(self, command: str, corpus: Path, labels: Path, out: Path) -> list[str]:
        """CLI arguments (after `python -m pdnskit`) of one measured command."""
        args = [command, str(corpus), "--out", str(out)]
        if command in ("stats", "filter") and self.dedup:
            args.append("--dedup")
        if command == "filter" and self.watchlist:
            args += ["--watchlist", "builtin"]
        if command == "classify":
            args += ["--labels", str(labels)]
        return args

    @property
    def total_queries(self) -> int:
        return sum(t.queries for t in self.tunnels) + sum(b.queries for b in self.background)


def feed_mix(seed: int) -> Workload:
    """Plain NDJSON shaped like a feed of newly observed hostnames.

    Two loopback-style SLDs with many random subdomains stand in for AMP and
    Spotify; the provider tunnels carry most NULL traffic; five NULL/TXT
    tunnels are planted as candidates and three tunnels in other record types
    must be rejected at stage 0. About two thirds of all records leave at
    stage 0, and long encoded names make fingerprinting heavy.
    """
    tunnels = (
        Tunnel("your-freedom", "53r.de", "a", 3100),
        Tunnel("tunnelguru", "qv4.in", "g", 1550),
        Tunnel("iodine-null", "tun-alpha.net", "t", 540),
        Tunnel("iodine-txt", "tun-epsilon.com", "x", 540),
        Tunnel("dns2tcp", "tun-beta.org", "d", 540),
        Tunnel("ozymandns", "tun-gamma.me", "up", 540),
        Tunnel("dnscat2", "tun-delta.io", "c", 720),
        Tunnel("iodine-a", "tun-zeta.net", "z", 360),
        Tunnel("iodine-cname", "tun-eta.org", "e", 360),
        Tunnel("dnscat", "tun-theta.com", "h", 360),
    )
    background = (
        Background("localhost-style", "amp-standin.com", 6000),
        Background("localhost-style", "spotify-standin.com", 4800),
        Background("cdn-like", "edge-cdn.net", 1440),
        Background("rdns-arpa", "isp-pool.net", 360),
        # Mail-auth names repeat by construction, so keep each at its count
        # of distinct names.
        Background("spf-txt", "mailhost.org", 3),
        Background("spf-txt", "newsletter-mail.com", 3),
        Background("dkim-txt", "bulk-sender.net", 3),
        Background("plain-a", "example-shop.com", 4),
    )
    return Workload(
        name="feed-mix",
        seed=seed,
        corpus_name="corpus.ndjson",
        days=7,
        tunnels=tunnels,
        background=background,
        dedup=False,
        watchlist=False,
    )


# Benign classes of the long tail: (class, share of the SLDs, queries per
# SLD). plain-a repeats 4 names and spf-txt and dkim-txt repeat 3, so with
# these counts first-seen dedup drops about a third of the records. The
# other classes give each SLD a single, distinct name.
_LONG_TAIL_MIX = (
    ("plain-a", 0.15, 8),
    ("spf-txt", 0.05, 6),
    ("dkim-txt", 0.05, 6),
    ("cdn-like", 0.35, 1),
    ("localhost-style", 0.40, 1),
)
_LONG_TAIL_SLDS = 16000
_LONG_TAIL_TLDS = ("com", "net", "org", "info", "io", "biz")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _benign_slds(rng: Random, n: int, taken: set[str]) -> list[str]:
    """`n` distinct random SLDs; second labels of 6+ chars keep them clear of
    the three-character provider rule and of every planted name."""
    out: list[str] = []
    seen = set(taken)
    while len(out) < n:
        label = "".join(rng.choice(_LETTERS) for _ in range(rng.randrange(6, 13)))
        sld = f"{label}.{rng.choice(_LONG_TAIL_TLDS)}"
        if sld not in seen:
            seen.add(sld)
            out.append(sld)
    return out


def long_tail_gz(seed: int) -> Workload:
    """Gzip NDJSON with 16,000 small benign SLDs of one to eight queries.

    Exercises gzip decoding, first-seen dedup, large SLD-keyed state and
    table emission over thousands of SLDs. Two watchlist SLDs are planted as
    tunnels, so the watchlist needs every entry's SLD.
    """
    tunnels = (
        Tunnel("dnscat2", "teriava.com", "c", 240),
        Tunnel("iodine-txt", "nsquery.net", "t", 240),
        Tunnel("your-freedom", "8u6.de", "a", 180),
        Tunnel("tunnelguru", "mm4.in", "g", 180),
        Tunnel("dns2tcp", "tun-kappa.org", "d", 240),
        Tunnel("iodine-null", "tun-lambda.net", "n", 240),
    )
    rng = Random(f"long-tail-gz|{seed}")
    slds = _benign_slds(
        rng, _LONG_TAIL_SLDS, {t.sld for t in tunnels} | _read_list("watchlist_example.txt")
    )
    background = []
    start = 0
    for kind, share, queries in _LONG_TAIL_MIX:
        count = round(_LONG_TAIL_SLDS * share)
        background += [Background(kind, sld, queries) for sld in slds[start : start + count]]
        start += count
    # Interleave the classes, so SLD order in the corpus does not follow class.
    rng.shuffle(background)
    return Workload(
        name="long-tail-gz",
        seed=seed,
        corpus_name="corpus.ndjson.gz",
        days=7,
        tunnels=tunnels,
        background=tuple(background),
        dedup=True,
        watchlist=True,
    )


def build(name: str, seed: int) -> Workload:
    if name == "feed-mix":
        return feed_mix(seed)
    if name == "long-tail-gz":
        return long_tail_gz(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")


# ----------------------------------------------------------------------
# Facts read from the shipped data files, independently of the program.


def _read_list(name: str) -> set[str]:
    out = set()
    with open(DATA_DIR / name, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if text and not text.startswith("#"):
                out.add(text.lower().rstrip("."))
    return out


def read_profiles() -> dict[str, ProfileInfo]:
    parser = configparser.ConfigParser(interpolation=None)
    with open(DATA_DIR / "tunnel_profiles.conf", "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return {
        name: ProfileInfo(
            rrtypes=frozenset(t.strip().upper() for t in sec["rrtypes"].split(",") if t.strip()),
            provider=bool(sec.get("provider_sld")),
        )
        for name, sec in parser.items()
        if name != "DEFAULT"
    }


@dataclass(frozen=True)
class Expectations:
    tunnel_profiles: dict[str, str]  # tunnel SLD -> profile it was generated from
    candidates: frozenset[str]
    dropped_known_tunnels: dict[str, int]
    watchlist_hits: frozenset[str]


def expectations(w: Workload) -> Expectations:
    profiles = read_profiles()
    known = _read_list("known_tunnel_domains.txt")
    watch = _read_list("watchlist_example.txt") if w.watchlist else set()
    candidates = set()
    dropped = {}
    for t in w.tunnels:
        info = profiles[t.profile]
        if info.provider:
            if t.sld not in known:
                raise ValueError(f"provider SLD {t.sld} is not on the bundled tunnel list")
            dropped[t.sld] = t.queries
        elif info.rrtypes & PREFILTER_TYPES:
            candidates.add(t.sld)
    return Expectations(
        tunnel_profiles={t.sld: t.profile for t in w.tunnels},
        candidates=frozenset(candidates),
        dropped_known_tunnels=dropped,
        watchlist_hits=frozenset(t.sld for t in w.tunnels if t.sld in watch),
    )
