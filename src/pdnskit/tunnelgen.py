"""Deterministic, seeded generator of labeled synthetic pDNS corpora.

Tunnel streams chunk a pseudorandom payload into hostname labels whose
structure (level count, label lengths, encoding, markers, record types)
is derived from the implementation profiles, so generated traffic matches
the fingerprints by construction. Benign background classes cover the
common reasons real feeds contain high-volume or oddly-shaped names.
"""

from __future__ import annotations

import base64
import gzip
import io
import json
import math
import re
from bisect import bisect_right
from datetime import date, datetime, timedelta, timezone
from hashlib import blake2b
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from pdnskit.fingerprint import (
    ENCODING_BASE32,
    ENCODING_BASE64,
    ENCODING_HEX,
    ENCODING_NONE,
    ImplementationProfile,
    ProfileSet,
)
from pdnskit.model import MAX_NAME_BYTES, ConfigError, Fqdn, FqdnError, PdnsEntry, RRType, parse_fqdn
from pdnskit.tables import read_json, write_csv

__all__ = [
    "GenConfig",
    "TunnelSpec",
    "BackgroundSpec",
    "LabeledEntry",
    "GenConfigError",
    "UnknownProfileError",
    "BACKGROUND_KINDS",
    "generate",
    "write_corpus",
    "MAX_TOTAL_QUERIES",
]

_DIGITS = "0123456789"
_LOWER = "abcdefghijklmnopqrstuvwxyz"
_BASE36 = _LOWER + _DIGITS

# The most queries one config may generate over all its streams, so that a
# size such as `"payload_bytes": 1e15` is refused instead of run for days.
MAX_TOTAL_QUERIES = 10_000_000


class GenConfigError(ConfigError):
    """The generator configuration is invalid."""


class UnknownProfileError(GenConfigError):
    """A tunnel spec references a profile that is not in the profile set."""


class TunnelSpec(NamedTuple):
    profile: str
    sld: str
    third: str = "t"
    payload_bytes: int = 4096
    queries: Optional[int] = None  # None: derived from payload and capacity


class BackgroundSpec(NamedTuple):
    kind: str
    sld: str
    queries: int = 10


class GenConfig(NamedTuple):
    seed: int = 1
    start_date: date = date(2017, 7, 1)
    days: int = 1
    tunnels: Sequence[TunnelSpec] = ()
    background: Sequence[BackgroundSpec] = ()

    @classmethod
    def from_json_file(cls, path: str | Path) -> "GenConfig":
        """The config a JSON file holds. GenConfigError, naming the key, for
        a key that is not a field, a value of the wrong JSON type or a
        `start_date` that is not a date; sizes and names are checked by
        `generate`."""
        try:
            obj = read_json(path)
            _check_keys(obj, cls)
            seed = obj.get("seed", 1)
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise TypeError(f"seed must be an integer, got {seed!r}")
            start_date = obj.get("start_date", "2017-07-01")
            # The shape is checked first: from Python 3.11, fromisoformat
            # also reads forms such as "20170701" and "2017-W01-1".
            if not (isinstance(start_date, str) and _DATE_SHAPE.match(start_date)):
                raise TypeError(f"start_date must be a YYYY-MM-DD string, got {start_date!r}")
            try:
                start = date.fromisoformat(start_date)
            except ValueError:
                raise ValueError(f"start_date is not a date: {start_date!r}") from None
            return cls(
                seed=seed,
                start_date=start,
                days=obj.get("days", 1),
                tunnels=_specs(obj, "tunnels", TunnelSpec),
                background=_specs(obj, "background", BackgroundSpec),
            )
        except (TypeError, ValueError) as exc:
            raise GenConfigError(f"bad generator config: {exc}") from exc


_DATE_SHAPE = re.compile(r"\d{4}-\d\d-\d\d\Z", re.ASCII)


def _check_keys(obj, cls, where: str = "") -> None:
    """TypeError unless `obj` is a JSON object holding every field of the
    named tuple `cls` that has no default, and no key that is not a field.
    `where` names the object in a list; the top level goes unnamed."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where or 'the top level'} must be a JSON object, got {json.dumps(obj)[:60]}")
    prefix = f"{where}: " if where else ""
    for key in obj:
        if key not in cls._fields:
            raise TypeError(f"{prefix}unknown key {key!r}")
    for key in cls._fields:
        if key not in cls._field_defaults and key not in obj:
            raise TypeError(f"{prefix}missing key {key!r}")


def _specs(obj: dict, key: str, spec_cls) -> tuple:
    """The `key` list of a config as `spec_cls` objects. An item is checked
    by `_check_keys` only when the constructor refuses it, so a long list
    of good items costs no more than building them."""
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise TypeError(f"{key} must be a list of objects, got {json.dumps(items)[:60]}")
    specs = []
    for i, item in enumerate(items):
        try:
            specs.append(spec_cls(**item))
        except TypeError:  # not an object, or a key missing or unknown
            _check_keys(item, spec_cls, f"{key}[{i}]")
            raise
    return tuple(specs)


class LabeledEntry(NamedTuple):
    entry: PdnsEntry
    kind: str  # "tunnel" or "benign"
    label: str  # implementation name or background class


def _derive_seed(root: int, *parts) -> int:
    """Stable per-stream seed; avoids Python's randomized str hashing."""
    key = "|".join(str(p) for p in (root,) + parts).encode("utf-8")
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


class _Codec(NamedTuple):
    """How tunnel payload bytes become label text in one encoding."""

    encode: Callable[[bytes], str]
    letters: str  # first-byte alphabet for a profile whose first_char is letter only
    digits: str  # ... digit only
    # (chars, at least): tail positions are rewritten, in this order, until the
    # text holds that many of the chars, so every chunk carries its encoding's
    # signature characters. Plain alphanumerics must not look like base32/hex.
    tails: tuple[tuple[str, int], ...]


_CODECS = {
    ENCODING_BASE32: _Codec(
        lambda data: base64.b32encode(data).decode("ascii").lower().rstrip("="),
        _LOWER, "234567", (("234567", 1),),
    ),
    ENCODING_HEX: _Codec(bytes.hex, "abcdef", _DIGITS, ((_DIGITS, 1),)),
    ENCODING_BASE64: _Codec(
        lambda data: base64.urlsafe_b64encode(data).decode("ascii").rstrip("="),
        _LOWER, _DIGITS, (("-_", 2), (_DIGITS, 1), (_LOWER, 1), (_LOWER.upper(), 1)),
    ),
    ENCODING_NONE: _Codec(lambda data: "".join(_BASE36[b % 36] for b in data), _LOWER, _DIGITS, (("0189", 4),)),
}


class _QueryPlan(NamedTuple):
    """Per-query emission structure derived from one profile."""

    codec: _Codec
    bytes_per_query: int
    head_label_len: int  # the first chunk label; the others are chunk_label_len
    chunk_label_len: int
    n_chunk_labels: int
    marker_labels: tuple[str, ...]
    rrtype_cycle: tuple[RRType, ...]
    lead_chars: str  # candidate replacement chars for the first byte, "" = free

    def queries_for(self, payload_bytes: int) -> int:
        return max(1, math.ceil(payload_bytes / self.bytes_per_query))

    def chunk(self, rng: Random) -> str:
        """One query's payload labels joined without dots."""
        chars = list(self.codec.encode(rng.randbytes(self.bytes_per_query)))
        if self.lead_chars and chars[0] not in self.lead_chars:
            chars[0] = self.lead_chars[rng.randrange(len(self.lead_chars))]
        slot = 0
        for required, at_least in self.codec.tails:
            have = sum(c in required for c in chars)
            while have < at_least:
                slot += 1
                chars[-slot] = required[rng.randrange(len(required))]
                have += 1
        return "".join(chars)


def derive_plan(profile: ImplementationProfile, sld: str, third: str) -> _QueryPlan:
    """Compute per-query payload capacity and label layout from a profile.

    The capacity follows from the profile's level and label-length ranges
    plus the wire limits; nothing is hard-coded per tool.
    """
    if not profile.encodings:
        raise GenConfigError(f"profile {profile.name}: no encoding listed")
    encoding = profile.encodings[0]  # first listed = native encoding
    codec = _CODECS.get(encoding)
    if codec is None:
        raise GenConfigError(f"profile encoding {encoding!r} is not generatable")
    n_left = profile.levels[0] - 3  # labels left of the third-level label
    if n_left < 1:
        raise GenConfigError(f"profile {profile.name}: level range leaves no payload")
    marker_labels = profile.markers
    n_chunk = n_left - len(marker_labels)
    if n_chunk < 1:
        raise GenConfigError(f"profile {profile.name}: markers leave no chunk labels")
    label_len = profile.label4_len[0]
    marker_chars = sum(len(m) for m in marker_labels)
    wire_cap = MAX_NAME_BYTES - 2 - len(third.encode()) - len(sld.encode())
    cap = min(
        profile.payload_len[1] - (n_left - 1) - marker_chars,
        n_chunk * label_len,
        wire_cap - (n_left - 1) - marker_chars,
    )
    if cap < 1:
        raise GenConfigError(f"profile {profile.name}: no room for payload chars")
    # The most bytes whose encoding fits; encoded length grows with the byte count.
    bytes_per_query = bisect_right(range(1, cap + 1), cap, key=lambda b: len(codec.encode(bytes(b))))
    if bytes_per_query == 0:
        raise GenConfigError(f"profile {profile.name}: capacity too small to encode")
    chars = len(codec.encode(bytes(bytes_per_query)))
    rem = chars - (n_chunk - 1) * label_len
    if not 1 <= rem <= label_len:
        raise GenConfigError(
            f"profile {profile.name}: derived layout is inconsistent "
            f"({chars} chars into {n_chunk} labels of {label_len})"
        )
    payload_len = chars + marker_chars + (n_left - 1)
    if not profile.payload_len[0] <= payload_len <= profile.payload_len[1]:
        raise GenConfigError(
            f"profile {profile.name}: derived payload length {payload_len} "
            f"outside declared range {profile.payload_len}"
        )
    if profile.first_chars == {"letter"}:
        lead_chars = codec.letters
    elif profile.first_chars == {"digit"}:
        lead_chars = codec.digits
    else:
        lead_chars = ""
    return _QueryPlan(
        codec=codec,
        bytes_per_query=bytes_per_query,
        head_label_len=rem,
        chunk_label_len=label_len,
        n_chunk_labels=n_chunk,
        marker_labels=marker_labels,
        rrtype_cycle=tuple(sorted(profile.rrtypes)),
        lead_chars=lead_chars,
    )


def _blob(rng: Random, size: int) -> str:
    raw = base64.b64encode(rng.randbytes(size)).decode("ascii")
    while len(raw) < size:
        raw += base64.b64encode(rng.randbytes(size)).decode("ascii")
    return raw[:size]


def _downstream_rdata(rng: Random, rrtype: RRType, sld: str, third: str, i: int) -> tuple[str, ...]:
    if rrtype in ("NULL", "TXT"):
        roll = rng.random()
        if roll < 0.50:
            size = rng.randrange(30, 85)
        elif roll < 0.93:
            size = rng.randrange(120, 900)
        else:
            size = rng.randrange(1050, 1400)
        return (_blob(rng, size),)
    if rrtype == "A":
        return (f"{rng.randrange(1, 224)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",)
    if rrtype == "AAAA":
        return (f"2001:db8::{rng.randrange(1, 0xffff):x}",)
    if rrtype == "CNAME":
        return (f"r{i % 16}.{third}.{sld}.",)
    if rrtype == "MX":
        return (f"10 m{i % 4}.{sld}.",)
    if rrtype == "SRV":
        return (f"0 0 {rng.randrange(1024, 65535)} s{i % 4}.{sld}.",)
    if rrtype == "PTR":
        return (f"host{i % 32}.{sld}.",)
    return (_blob(rng, 24),)


class _Background(NamedTuple):
    """One benign class. Query i's host is `prefix(rng, i)`, the labels it
    puts before the stream's zone, each with its dot, then the zone; its
    rdata is `rdata(rng, sld, i)`. Both draw from the stream's RNG."""

    prefix: Callable[[Random, int], str]
    rrtype: RRType
    rdata: Callable[[Random, str, int], tuple[str, ...]]
    # The entries' domain and bailiwick, from the SLD and the stream's octet.
    zone: Callable[[Fqdn, int], Fqdn] = lambda sld, octet: sld


_BACKGROUNDS = {
    "plain-a": _Background(
        lambda rng, i: ("", "www.", "mail.", "api.")[i % 4],
        RRType.parse("A"),
        lambda rng, sld, i: _downstream_rdata(rng, "A", sld, "", i),
    ),
    "cdn-like": _Background(
        lambda rng, i: f"img{i}.cdn.",
        RRType.parse("CNAME"),
        lambda rng, sld, i: (f"edge{i % 7}.cdnhost.net.",),
    ),
    "spf-txt": _Background(
        lambda rng, i: ("", "mail.", "_spf.")[i % 3],
        RRType.parse("TXT"),
        lambda rng, sld, i: (f"v=spf1 ip4:192.0.2.0/24 include:_spf.{sld} ~all",),
    ),
    "dkim-txt": _Background(
        lambda rng, i: f"selector{i % 3}._domainkey.",
        RRType.parse("TXT"),
        lambda rng, sld, i: (f"v=DKIM1; k=rsa; p={_blob(rng, 180)}",),
    ),
    "rdns-arpa": _Background(
        lambda rng, i: f"{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}.",
        RRType.parse("PTR"),
        lambda rng, sld, i: _downstream_rdata(rng, "PTR", sld, "", i),
        lambda sld, octet: parse_fqdn(f"{octet}.in-addr.arpa"),
    ),
    # Many random subdomains resolving to loopback.
    "localhost-style": _Background(
        lambda rng, i: "".join(_BASE36[rng.randrange(36)] for _ in range(10)) + ".",
        RRType.parse("A"),
        lambda rng, sld, i: ("127.0.0.1",),
    ),
}

BACKGROUND_KINDS = tuple(_BACKGROUNDS)


def _timestamp(start: datetime, span_s: int, i: int, n: int, rng: Random) -> datetime:
    slot = span_s * i // n
    width = max(1, span_s // n)
    return start + timedelta(seconds=min(span_s - 1, slot + rng.randrange(width)))


def _invalid(message: str) -> GenConfigError:
    return GenConfigError(f"bad generator config: {message}")


def _check_size(value, what: str) -> None:
    """A size is an integer >= 1; a float such as 1e12, or a bool, is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(f"{what} must be an integer, got {value!r}")
    if value < 1:
        raise _invalid(f"{what} must be >= 1")


def _check_name(text, what: str) -> Fqdn:
    if not isinstance(text, str):
        raise _invalid(f"{what} must be a string, got {text!r}")
    try:
        return parse_fqdn(text)
    except FqdnError as exc:
        raise _invalid(f"{what}: {exc}") from None


_TunnelStream = tuple[Fqdn, Fqdn, _QueryPlan, int]  # SLD, third-level label, plan, queries


def _validate(config: GenConfig, profiles: ProfileSet) -> tuple[list[_TunnelStream], list[Fqdn]]:
    """Check the config; return each tunnel spec's stream and each
    background spec's SLD, in config order."""
    _check_size(config.days, "days")
    try:
        config.start_date + timedelta(days=config.days)
    except OverflowError:
        raise _invalid(f"{config.days} days from {config.start_date} end past the year 9999") from None
    total = 0
    tunnels = []
    for spec in config.tunnels:
        if not isinstance(spec.profile, str) or spec.profile not in profiles.by_name:
            raise UnknownProfileError(f"bad generator config: unknown profile: {spec.profile!r}")
        _check_size(spec.payload_bytes, f"{spec.sld}: payload_bytes")
        if spec.queries is not None:
            _check_size(spec.queries, f"{spec.sld}: queries")
        sld = _check_name(spec.sld, "tunnel SLD")
        if len(sld.labels) != 2:
            raise _invalid(f"tunnel SLD must have exactly two labels, got {spec.sld!r}")
        third = _check_name(spec.third, "third-level label")
        if len(third.labels) != 1:
            raise _invalid(f"third-level label must be a single label: {spec.third!r}")
        try:
            plan = derive_plan(profiles.by_name[spec.profile], sld.name, third.name)
        except GenConfigError as exc:
            raise _invalid(f"tunnel SLD {sld.name!r}: {exc}") from None
        queries = plan.queries_for(spec.payload_bytes) if spec.queries is None else spec.queries
        tunnels.append((sld, third, plan, queries))
        total += queries
    background, probe, longest_prefix = [], Random(0), {}
    for spec in config.background:
        if not isinstance(spec.kind, str) or spec.kind not in _BACKGROUNDS:
            raise _invalid(f"unknown background class: {spec.kind!r}")
        _check_size(spec.queries, f"{spec.sld}: queries")
        sld = _check_name(spec.sld, "background SLD")
        row = _BACKGROUNDS[spec.kind]
        # A class's prefixes repeat within four queries or, for cdn-like, grow
        # with i, so the longest is among the first four and the last. Only
        # rdns-arpa's vary in length with the RNG, and its zone is short.
        key = spec.kind, spec.queries
        if key not in longest_prefix:
            indices = {*range(min(spec.queries, 4)), spec.queries - 1}
            longest_prefix[key] = max(len(row.prefix(probe, i).encode()) for i in indices)
        zone = row.zone(sld, 1).name
        if longest_prefix[key] + len(zone.encode()) > MAX_NAME_BYTES:
            raise _invalid(f"{spec.kind} hosts under {zone[:80]!r} exceed {MAX_NAME_BYTES} bytes")
        background.append(sld)
        total += spec.queries
    if total > MAX_TOTAL_QUERIES:
        raise _invalid(f"{total} queries asked for, more than the {MAX_TOTAL_QUERIES} allowed")
    return tunnels, background


def _gen_tunnel(
    stream: _TunnelStream, label: str, start: datetime, span_s: int, seed: int
) -> Iterator[LabeledEntry]:
    sld, third, plan, n_queries = stream
    rng = Random(seed)
    bailiwick = parse_fqdn(f"{third.name}.{sld.name}")
    head, L = plan.head_label_len, plan.chunk_label_len
    for i in range(n_queries):
        text = plan.chunk(rng)
        labels = list(plan.marker_labels) + [text[:head]] + [
            text[head + k * L : head + (k + 1) * L] for k in range(plan.n_chunk_labels - 1)
        ]
        rrname = parse_fqdn(".".join(labels) + f".{bailiwick.name}")
        rrtype = plan.rrtype_cycle[i % len(plan.rrtype_cycle)]
        entry = PdnsEntry(
            domain=sld,
            time_seen=_timestamp(start, span_s, i, n_queries, rng),
            bailiwick=bailiwick,
            rrname=rrname,
            rrclass="IN",
            rrtype=rrtype,
            rdata=_downstream_rdata(rng, rrtype, sld.name, third.name, i),
        )
        yield LabeledEntry(entry=entry, kind="tunnel", label=label)


def _gen_background(
    spec: BackgroundSpec, sld: Fqdn, start: datetime, span_s: int, seed: int
) -> Iterator[LabeledEntry]:
    rng = Random(seed)
    row = _BACKGROUNDS[spec.kind]
    zone = row.zone(sld, rng.randrange(1, 224))
    for i in range(spec.queries):
        rrname = parse_fqdn(row.prefix(rng, i) + zone.name)
        rdata = row.rdata(rng, sld.name, i)
        yield LabeledEntry(
            entry=PdnsEntry(
                domain=zone,
                time_seen=_timestamp(start, span_s, i, spec.queries, rng),
                bailiwick=zone,
                rrname=rrname,
                rrclass="IN",
                rrtype=row.rrtype,
                rdata=rdata,
            ),
            kind="benign",
            label=spec.kind,
        )


def generate(
    config: GenConfig, profiles: Optional[ProfileSet] = None
) -> Iterator[LabeledEntry]:
    """Labeled entries for every configured stream, deterministically.

    The same config and seed always produce byte-identical corpora; each
    stream draws from its own derived seed, so adding one stream never
    perturbs another. The config is checked at the call: a bad one raises
    GenConfigError before any entry is made.
    """
    if profiles is None:
        profiles = ProfileSet.default()
    return _generate(config, *_validate(config, profiles))


def _generate(
    config: GenConfig, tunnels: list[_TunnelStream], background: list[Fqdn]
) -> Iterator[LabeledEntry]:
    start = datetime(
        config.start_date.year,
        config.start_date.month,
        config.start_date.day,
        tzinfo=timezone.utc,
    )
    span_s = config.days * 86400
    for idx, (spec, stream) in enumerate(zip(config.tunnels, tunnels)):
        seed = _derive_seed(config.seed, "tunnel", idx, spec.profile, spec.sld)
        yield from _gen_tunnel(stream, spec.profile, start, span_s, seed)
    for idx, (spec, sld) in enumerate(zip(config.background, background)):
        seed = _derive_seed(config.seed, "background", idx, spec.kind, spec.sld)
        yield from _gen_background(spec, sld, start, span_s, seed)


# json.dumps with any option builds a new encoder per call; this one is
# built once, with the same defaults.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def _corpus_record(entry: PdnsEntry) -> str:
    domain, bailiwick = entry.domain, entry.bailiwick
    obj = {
        "domain": domain.dotted if domain else "",
        "time_seen": entry.time_seen.isoformat(" ")[:19],
        "bailiwick": bailiwick.dotted if bailiwick else "",
        "rrname": entry.rrname.dotted,
        "rrclass": entry.rrclass,
        "rrtype": str(entry.rrtype),
        "rdata": list(entry.rdata),
    }
    return _encode_compact(obj)


def write_corpus(entries: Iterable[LabeledEntry], corpus_path: str | Path) -> tuple[Path, Path]:
    """Write the NDJSON corpus (gzip if the name ends in .gz) plus the
    labels sidecar CSV keyed by normalized rrname, one row per rrname:
    corpus.ndjson[.gz] -> corpus.labels.csv."""
    corpus_path = Path(corpus_path)
    corpus_path.parent.mkdir(parents=True, exist_ok=True)
    stem = corpus_path.name.removesuffix(".gz").rsplit(".", 1)[0]
    labels_path = corpus_path.with_name(stem + ".labels.csv")
    labels: dict[str, tuple[str, str, str]] = {}  # rrname -> its sidecar row
    if corpus_path.name.endswith(".gz"):
        # A zero header mtime keeps the bytes a function of the seed alone.
        fh = io.TextIOWrapper(gzip.GzipFile(corpus_path, "wb", mtime=0), encoding="utf-8")
    else:
        fh = open(corpus_path, "w", encoding="utf-8")
    with fh:
        for item in entries:
            fh.write(_corpus_record(item.entry))
            fh.write("\n")
            rrname = item.entry.rrname.name
            labels.setdefault(rrname, (rrname, item.kind, item.label))
    write_csv(labels_path, ("rrname", "kind", "class"), labels.values())
    return corpus_path, labels_path


def demo_config(seed: int = 7) -> GenConfig:
    """Small mixed corpus: several tunnel implementations (including both
    provider domains) plus every benign background class."""
    return GenConfig(
        seed=seed,
        start_date=date(2017, 7, 1),
        days=3,
        tunnels=(
            TunnelSpec("iodine-null", "tun-alpha.net", "t", payload_bytes=6000),
            TunnelSpec("iodine-txt", "tun-epsilon.com", "x", payload_bytes=4500),
            TunnelSpec("dns2tcp", "tun-beta.org", "d", payload_bytes=4000),
            TunnelSpec("ozymandns", "tun-gamma.me", "up", payload_bytes=3000),
            TunnelSpec("dnscat2", "tun-delta.io", "c", payload_bytes=5000),
            TunnelSpec("your-freedom", "53r.de", "a", payload_bytes=8000),
            TunnelSpec("tunnelguru", "qv4.in", "g", payload_bytes=4000),
        ),
        background=(
            BackgroundSpec("plain-a", "example-shop.com", 40),
            BackgroundSpec("cdn-like", "cdn-park.net", 60),
            BackgroundSpec("spf-txt", "mailhost.org", 12),
            BackgroundSpec("dkim-txt", "bulk-sender.net", 12),
            BackgroundSpec("rdns-arpa", "isp-pool.net", 30),
            BackgroundSpec("localhost-style", "locallink.com", 80),
        ),
    )
