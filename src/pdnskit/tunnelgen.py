"""Deterministic, seeded generator of labeled synthetic pDNS corpora.

Tunnel streams chunk a pseudorandom payload into hostname labels whose
structure (level count, label lengths, encoding, markers, record types)
is derived from the implementation profiles, so generated traffic matches
the fingerprints by construction. Benign background classes cover the
common reasons real feeds contain high-volume or oddly-shaped names.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import gzip
import json
import math
import queue
import re
import threading
from bisect import bisect_right
from datetime import date, datetime, timedelta, timezone
from hashlib import blake2b
from json.encoder import encode_basestring_ascii as _json_str
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
from pdnskit.model import MAX_NAME_BYTES, ConfigError, Fqdn, FqdnError, PdnsEntry, RRType, _new_tuple, parse_fqdn
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

_DIGITS = b"0123456789"
_LOWER = b"abcdefghijklmnopqrstuvwxyz"
_BASE36 = (_LOWER + _DIGITS).decode("ascii")

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


# The draws below fix every output byte. Each helper makes exactly the
# `getrandbits` calls of the `Random` method it stands for, so it returns the
# same values and leaves the same state, with fewer Python frames per value.


def _below(rng: Random, n: int) -> int:
    """`rng.randrange(n)` for an integer n >= 1: draws of n's bit length
    until one falls below n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _base36(rng: Random, n: int) -> str:
    """`"".join(_BASE36[rng.randrange(36)] for _ in range(n))`, with `_below`
    inline: six bits, the bit length of 36, until a draw falls below 36."""
    out = ""
    while len(out) < n:
        r = rng.getrandbits(6)
        if r < 36:
            out += _BASE36[r]
    return out


class _Codec(NamedTuple):
    """How tunnel payload bytes become label text, as ASCII bytes, in one
    encoding."""

    encode: Callable[[bytes], bytes]
    letters: bytes  # first-byte alphabet for a profile whose first_char is letter only
    digits: bytes  # ... digit only
    # (chars, at least): tail positions are rewritten, in this order, until the
    # text holds that many of the chars, so every chunk carries its encoding's
    # signature characters. Plain alphanumerics must not look like base32/hex.
    tails: tuple[tuple[bytes, int], ...]


_BASE36_BY_BYTE = bytes(ord(_BASE36[b % 36]) for b in range(256))

_CODECS = {
    ENCODING_BASE32: _Codec(
        lambda data: base64.b32encode(data).lower().rstrip(b"="), _LOWER, b"234567", ((b"234567", 1),)
    ),
    ENCODING_HEX: _Codec(binascii.hexlify, b"abcdef", _DIGITS, ((_DIGITS, 1),)),
    ENCODING_BASE64: _Codec(
        lambda data: base64.urlsafe_b64encode(data).rstrip(b"="),
        _LOWER, _DIGITS, ((b"-_", 2), (_DIGITS, 1), (_LOWER, 1), (_LOWER.upper(), 1)),
    ),
    ENCODING_NONE: _Codec(lambda data: data.translate(_BASE36_BY_BYTE), _LOWER, _DIGITS, ((b"0189", 4),)),
}


class _QueryPlan(NamedTuple):
    """Per-query emission structure derived from one profile."""

    codec: _Codec
    bytes_per_query: int
    prefix: str  # the marker labels, normalized, each followed by its dot
    cuts: tuple[slice, ...]  # the chunk labels' places in the payload text
    rrtype_cycle: tuple[RRType, ...]
    lead_chars: bytes  # candidate replacement chars for the first byte, b"" = free

    def queries_for(self, payload_bytes: int) -> int:
        return max(1, math.ceil(payload_bytes / self.bytes_per_query))

    def chunk(self, rng: Random) -> str:
        """One query's payload labels joined without dots."""
        chars = bytearray(self.codec.encode(rng.randbytes(self.bytes_per_query)))
        lead = self.lead_chars
        if lead and chars[0] not in lead:
            chars[0] = lead[_below(rng, len(lead))]
        slot = 0
        for required, at_least in self.codec.tails:
            have = len(chars) - len(chars.translate(None, required))
            while have < at_least:
                slot += 1
                chars[-slot] = required[_below(rng, len(required))]
                have += 1
        return chars.decode("ascii")


def derive_plan(profile: ImplementationProfile, sld: str, third: str) -> _QueryPlan:
    """Compute per-query payload capacity and label layout from a profile.

    The capacity follows from the profile's level and label-length ranges
    plus the wire limits; nothing is hard-coded per tool.
    """
    if not profile.encodings:
        raise GenConfigError(f"profile {profile.name}: no encoding listed")
    if not profile.rrtypes:
        raise GenConfigError(f"profile {profile.name}: no rrtype listed")
    encoding = profile.encodings[0]  # first listed = native encoding
    codec = _CODECS.get(encoding)
    if codec is None:
        raise GenConfigError(f"profile encoding {encoding!r} is not generatable")
    n_left = profile.levels[0] - 3  # labels left of the third-level label
    if n_left < 1:
        raise GenConfigError(f"profile {profile.name}: level range leaves no payload")
    markers = profile.markers
    # A marker may hold dots: "dns.cat" is two labels of three bytes each.
    n_markers = sum(m.count(".") + 1 for m in markers)
    n_chunk = n_left - n_markers
    if n_chunk < 1:
        raise GenConfigError(f"profile {profile.name}: markers leave no chunk labels")
    label_len = profile.label4_len[0]
    marker_chars = sum(len(m.encode()) - m.count(".") for m in markers)
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
    if chars < sum(at_least for _, at_least in codec.tails):
        raise GenConfigError(f"profile {profile.name}: {chars} chars cannot hold the {encoding} signature")
    # Chunk labels have fixed lengths and no dots, so one name of the stream's
    # shape is valid exactly when every name of the stream is, and its
    # leading labels are the markers as parse_fqdn normalizes them.
    chunk_labels = ["a" * rem] + ["a" * label_len] * (n_chunk - 1)
    try:
        shape = parse_fqdn(".".join((*markers, *chunk_labels, third, sld)))
    except FqdnError as exc:
        raise GenConfigError(f"profile {profile.name}: generated names would be invalid ({exc.kind})") from None
    prefix = "".join(label + "." for label in shape.labels[:n_markers])
    if profile.first_chars == {"letter"}:
        lead_chars = codec.letters
    elif profile.first_chars == {"digit"}:
        lead_chars = codec.digits
    else:
        lead_chars = b""
    return _QueryPlan(
        codec=codec,
        bytes_per_query=bytes_per_query,
        prefix=prefix,
        cuts=(slice(0, rem), *(slice(at, at + label_len) for at in range(rem, chars, label_len))),
        rrtype_cycle=tuple(sorted(profile.rrtypes)),
        lead_chars=lead_chars,
    )


def _blob(rng: Random, size: int) -> str:
    raw = binascii.b2a_base64(rng.randbytes(size), newline=False).decode("ascii")
    while len(raw) < size:
        raw += binascii.b2a_base64(rng.randbytes(size), newline=False).decode("ascii")
    return raw[:size]


def _downstream_rdata(rng: Random, rrtype: RRType, sld: str, third: str, i: int) -> tuple[str, ...]:
    if rrtype in ("NULL", "TXT"):
        roll = rng.random()
        if roll < 0.50:
            size = 30 + _below(rng, 85 - 30)
        elif roll < 0.93:
            size = 120 + _below(rng, 900 - 120)
        else:
            size = 1050 + _below(rng, 1400 - 1050)
        return (_blob(rng, size),)
    if rrtype == "A":
        return (f"{1 + _below(rng, 223)}.{_below(rng, 256)}.{_below(rng, 256)}.{1 + _below(rng, 254)}",)
    if rrtype == "AAAA":
        return (f"2001:db8::{1 + _below(rng, 0xffff - 1):x}",)
    if rrtype == "CNAME":
        return (f"r{i % 16}.{third}.{sld}.",)
    if rrtype == "MX":
        return (f"10 m{i % 4}.{sld}.",)
    if rrtype == "SRV":
        return (f"0 0 {1024 + _below(rng, 65535 - 1024)} s{i % 4}.{sld}.",)
    if rrtype == "PTR":
        return (f"host{i % 32}.{sld}.",)
    return (_blob(rng, 24),)


class _Background(NamedTuple):
    """One benign class. Query i's host is `prefix(rng, i)`, the labels it
    puts before the stream's zone, each with its dot, then the zone; its
    rdata is `rdata(rng, sld, i)`. Both draw from the stream's RNG. The
    prefix labels are short and lowercase, so a host is normalized as its
    zone is, and `_validate` checks its length."""

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
        lambda rng, i: f"{_below(rng, 256)}.{_below(rng, 256)}.{_below(rng, 256)}.",
        RRType.parse("PTR"),
        lambda rng, sld, i: _downstream_rdata(rng, "PTR", sld, "", i),
        lambda sld, octet: parse_fqdn(f"{octet}.in-addr.arpa"),
    ),
    # Many random subdomains resolving to loopback.
    "localhost-style": _Background(
        lambda rng, i: _base36(rng, 10) + ".",
        RRType.parse("A"),
        lambda rng, sld, i: ("127.0.0.1",),
    ),
}

BACKGROUND_KINDS = tuple(_BACKGROUNDS)


def _timestamp(start: datetime, span_s: int, i: int, n: int, rng: Random) -> datetime:
    slot = span_s * i // n
    width = max(1, span_s // n)
    return start + timedelta(0, min(span_s - 1, slot + _below(rng, width)))  # (days, seconds)


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
    """The stream's entries. Each name is built from the labels made here, as
    `parse_fqdn` would build it: the chunk text folded to lowercase (it is
    ASCII) between the plan's normalized markers and the stream's zone.
    `derive_plan` has checked the labels and length of every name."""
    sld, third, plan, n_queries = stream
    rng = Random(seed)
    bailiwick = _new_tuple(Fqdn, (third.labels + sld.labels, f"{third.name}.{sld.name}"))
    prefix, cuts, suffix, rrtypes = plan.prefix, plan.cuts, "." + bailiwick.name, plan.rrtype_cycle
    for i in range(n_queries):
        text = plan.chunk(rng).lower()
        name = prefix + ".".join(map(text.__getitem__, cuts)) + suffix
        rrtype = rrtypes[i % len(rrtypes)]
        entry = (
            sld,
            _timestamp(start, span_s, i, n_queries, rng),
            bailiwick,
            _new_tuple(Fqdn, (tuple(name.split(".")), name)),
            "IN",
            rrtype,
            _downstream_rdata(rng, rrtype, sld.name, third.name, i),
        )
        yield _new_tuple(LabeledEntry, (_new_tuple(PdnsEntry, entry), "tunnel", label))


def _gen_background(
    spec: BackgroundSpec, sld: Fqdn, start: datetime, span_s: int, seed: int
) -> Iterator[LabeledEntry]:
    rng = Random(seed)
    kind, n_queries = spec.kind, spec.queries
    prefix_of, rrtype, rdata_of, zone_of = _BACKGROUNDS[kind]
    zone = zone_of(sld, 1 + _below(rng, 223))
    for i in range(n_queries):
        name = prefix_of(rng, i) + zone.name
        rdata = rdata_of(rng, sld.name, i)  # drawn before the time
        entry = (
            zone,
            _timestamp(start, span_s, i, n_queries, rng),
            zone,
            _new_tuple(Fqdn, (tuple(name.split(".")), name)),
            "IN",
            rrtype,
            rdata,
        )
        yield _new_tuple(LabeledEntry, (_new_tuple(PdnsEntry, entry), "benign", kind))


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


def _corpus_record(entry: PdnsEntry) -> str:
    """One corpus line, newline included: the bytes of `json.dumps` of the
    record's object with `separators=(",", ":")`, each string escaped by
    json's own C escaper. A timestamp is digits and separators only."""
    domain, time_seen, bailiwick, rrname, rrclass, rrtype, rdata = entry
    return (
        f'{{"domain":{_json_str(domain.name + "." if domain else "")},'
        f'"time_seen":"{time_seen.isoformat(" ")[:19]}",'
        f'"bailiwick":{_json_str(bailiwick.name + "." if bailiwick else "")},'
        f'"rrname":{_json_str(rrname.name + ".")},"rrclass":{_json_str(rrclass)},'
        f'"rrtype":{_json_str(rrtype)},"rdata":[{",".join(map(_json_str, rdata))}]}}\n'
    )


# The corpus is written in blocks of about this many characters (one line
# more at most). A gzip corpus's blocks are deflated on a worker thread; its
# bytes do not depend on where the text is cut into blocks.
_BLOCK_CHARS = 1 << 18


@contextlib.contextmanager
def _block_writer(path: Path) -> Iterator[Callable[[bytes], object]]:
    """Yield a function that writes one block of the corpus at `path`.

    A `.gz` corpus is deflated at level 9 on a worker thread, through a
    queue of two blocks: zlib and `crc32` release the GIL, so the caller
    makes the next block meanwhile. The worker has ended when this exits,
    and the stream ends as a `TextIOWrapper` over the `GzipFile` would end
    it on close: a sync flush, then the trailer. An error in either thread
    ends the write; the other's blocks are then dropped."""
    if not path.name.endswith(".gz"):
        with open(path, "wb") as fh:
            yield fh.write
        return
    blocks: queue.Queue = queue.Queue(2)
    failed: list[BaseException] = []  # what ended the write, from either thread; raised here

    def deflate() -> None:
        for block in iter(blocks.get, None):
            if not failed:
                try:
                    gz.write(block)
                except BaseException as exc:
                    failed.append(exc)

    def put(block: bytes) -> None:
        if failed:
            raise failed[0]
        blocks.put(block)

    # A zero header mtime keeps the bytes a function of the seed alone.
    with gzip.GzipFile(path, "wb", mtime=0) as gz:
        worker = threading.Thread(target=deflate, name="pdnskit-deflate")
        worker.start()
        try:
            yield put
        except BaseException as exc:
            failed.append(exc)
            raise
        finally:
            blocks.put(None)
            worker.join()
        if failed:
            raise failed[0]
        gz.flush()


def write_corpus(entries: Iterable[LabeledEntry], corpus_path: str | Path) -> tuple[Path, Path]:
    """Write the NDJSON corpus (gzip if the name ends in .gz) plus the
    labels sidecar CSV keyed by normalized rrname, one row per rrname:
    corpus.ndjson[.gz] -> corpus.labels.csv."""
    corpus_path = Path(corpus_path)
    corpus_path.parent.mkdir(parents=True, exist_ok=True)
    stem = corpus_path.name.removesuffix(".gz").rsplit(".", 1)[0]
    labels_path = corpus_path.with_name(stem + ".labels.csv")
    labels: dict[str, tuple[str, str, str]] = {}  # rrname -> its sidecar row
    record, lines, held = _corpus_record, [], 0
    with _block_writer(corpus_path) as write:
        for entry, kind, label in entries:
            line = record(entry)
            lines.append(line)
            held += len(line)
            rrname = entry.rrname.name
            labels.setdefault(rrname, (rrname, kind, label))
            if held >= _BLOCK_CHARS:
                write("".join(lines).encode())
                lines, held = [], 0
        write("".join(lines).encode())
        # Before the worker is joined, so that it overlaps the last deflate.
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
