"""Stream pDNS entries from NDJSON/CSV files with per-record error counting,
plus first-seen deduplication for newly-observed-hostname semantics."""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from hashlib import blake2b
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from pdnskit.model import (
    Fqdn,
    FqdnError,
    PdnsEntry,
    RRType,
    parse_fqdn,
    parse_time_seen,
)

__all__ = [
    "IngestStats",
    "FirstSeenState",
    "RecordError",
    "UnreadableSourceError",
    "CapacityExceededError",
    "read_stream",
    "first_seen_filter",
    "parse_record",
]

CSV_COLUMNS = ("domain", "time_seen", "bailiwick", "rrname", "rrclass", "rrtype", "rdata")

Source = Union[str, Path, IO]


class UnreadableSourceError(OSError):
    """The input source could not be opened at all (fatal)."""


class CapacityExceededError(RuntimeError):
    """Exact first-seen state hit its configured capacity."""


class RecordError(ValueError):
    """One record is malformed; the stream continues. `kind` keys counters."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class IngestStats:
    """Accounting for one ingest pass: read == accepted + rejected + deduplicated."""

    read: int = 0
    accepted: int = 0  # passed on downstream, after first-seen dedup
    rejected_by_error: Counter = field(default_factory=Counter)
    deduplicated: int = 0
    # Non-fatal anomalies on accepted entries (e.g. SuffixMismatch).
    warnings: Counter = field(default_factory=Counter)

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_error.values())

    def consistent(self) -> bool:
        return self.read == self.accepted + self.rejected + self.deduplicated


def _parse_name_field(value, what: str) -> Optional[Fqdn]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise RecordError("BadField", f"{what} is not a string")
    value = value.strip()
    if not value:
        return None
    return parse_fqdn(value)


def _parse_rrtype(value) -> RRType:
    if not value or isinstance(value, str) and not value.strip():
        raise RecordError("MissingField", "record has no rrtype")
    if isinstance(value, str):
        try:
            return RRType.parse(value)
        except ValueError:
            pass
    raise RecordError("BadField", f"bad rrtype: {value!r:.60}")


def _parse_rdata(value) -> tuple[str, ...]:
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("["):
            return (text,) if text else ()
        try:
            value = json.loads(text)  # an array, as it starts with "["
        except (ValueError, RecursionError):
            raise RecordError("BadRdata", f"unparseable rdata: {text[:60]!r}") from None
    if value is None:
        return ()
    if not isinstance(value, list):
        raise RecordError("BadRdata", f"unsupported rdata value: {type(value).__name__}")
    if not all(isinstance(v, str) for v in value):
        raise RecordError("BadRdata", "rdata item is not a string")
    return tuple(value)


def parse_record(obj: dict) -> PdnsEntry:
    """Build a PdnsEntry from one decoded record dict.

    Field names follow the feed schema; unknown fields (`keys`, `new_rr`,
    ...) are ignored. Raises RecordError or FqdnError on bad records.
    """
    rrname_raw = obj.get("rrname")
    if not rrname_raw:
        raise RecordError("MissingField", "record has no rrname")
    rrtype = _parse_rrtype(obj.get("rrtype"))
    time_raw = obj.get("time_seen")
    if not time_raw:
        raise RecordError("MissingField", "record has no time_seen")
    try:
        time_seen = parse_time_seen(str(time_raw))
    except ValueError:
        raise RecordError("BadTimestamp", f"bad time_seen: {time_raw!r}")
    return PdnsEntry(
        domain=_parse_name_field(obj.get("domain"), "domain"),
        time_seen=time_seen,
        bailiwick=_parse_name_field(obj.get("bailiwick"), "bailiwick"),
        rrname=parse_fqdn(str(rrname_raw)),
        rrclass=str(obj.get("rrclass") or "IN"),
        rrtype=rrtype,
        rdata=_parse_rdata(obj.get("rdata")),
    )


@contextmanager
def _open_source(source: Source) -> Iterator[IO[str]]:
    """A path, `-` (stdin) or a binary file object as UTF-8 text, gunzipped
    when it starts with the gzip magic; a text object as it is. Only a file
    opened here is closed; the wrappers around any other are detached, as
    their finalizers would close it."""
    if source == "-":
        source = sys.stdin.buffer
    owned = not hasattr(source, "read")
    if owned:
        try:
            source = open(source, "rb")
        except OSError as exc:
            raise UnreadableSourceError(f"cannot open {source}: {exc}") from exc
    elif not isinstance(source.read(0), bytes):
        yield source
        return
    buffered = source if hasattr(source, "peek") else io.BufferedReader(source)
    binary = gzip.GzipFile(fileobj=buffered) if buffered.peek(2)[:2] == b"\x1f\x8b" else buffered
    text = io.TextIOWrapper(binary, encoding="utf-8")
    try:
        yield text
    finally:
        if owned:
            source.close()
        else:
            text.detach()
            if buffered is not source:
                buffered.detach()


def _decode_ndjson(line: str) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        raise RecordError("BadRecord", "line is not valid JSON") from None
    if not isinstance(obj, dict):
        raise RecordError("BadRecord", "line is not a JSON object")
    return obj


def _csv_rows(fh: IO[str]) -> Iterator[list[str]]:
    rows = filter(None, csv.reader(fh))
    first = next(rows, None)
    if first is not None and [c.strip() for c in first[:2]] != ["domain", "time_seen"]:
        yield first  # not a header row
    yield from rows


def _decode_csv(row: list[str]) -> dict:
    if len(row) != len(CSV_COLUMNS):
        raise RecordError("BadRecord", f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
    return dict(zip(CSV_COLUMNS, row))


# Per format: the records of an open text stream (NDJSON: non-blank lines),
# and the decoding of one record into a field dict, raising RecordError.
_FORMATS = {
    "ndjson": (partial(filter, str.strip), _decode_ndjson),
    "csv": (_csv_rows, _decode_csv),
}


def read_stream(
    source: Source,
    fmt: str = "ndjson",
    stats: Optional[IngestStats] = None,
) -> Iterator[PdnsEntry]:
    """Lazily yield entries from a file path, `-`, or open file object.

    Gzip inputs are detected by magic bytes. Malformed records are counted
    in `stats` and skipped; they never abort the stream. Memory stays
    bounded by a single record. Only a file opened from a path is closed.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format: {fmt!r} (expected 'ndjson' or 'csv')")
    records, decode = _FORMATS[fmt]
    if stats is None:
        stats = IngestStats()
    with _open_source(source) as fh:
        for record in records(fh):
            stats.read += 1
            try:
                entry = parse_record(decode(record))
            except (RecordError, FqdnError) as exc:
                stats.rejected_by_error[exc.kind] += 1
                continue
            if not entry.domain_matches_rrname():
                stats.warnings["SuffixMismatch"] += 1
            stats.accepted += 1
            yield entry


class _BloomFilter:
    """Fixed-size Bloom filter with the textbook m/k sizing."""

    def __init__(self, capacity: int, fp_rate: float):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        self.n_bits = max(8, math.ceil(-capacity * math.log(fp_rate) / (ln2 * ln2)))
        self.n_hashes = max(1, round(self.n_bits / capacity * ln2))
        self.bits = bytearray((self.n_bits + 7) // 8)

    def _positions(self, key: str) -> Iterable[int]:
        digest = blake2b(key.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(self.n_hashes):
            yield (h1 + i * h2) % self.n_bits

    def check_and_add(self, key: str) -> bool:
        """Return True iff the key was (probably) not present; inserts it."""
        new = False
        bits = self.bits
        for pos in self._positions(key):
            byte, mask = pos >> 3, 1 << (pos & 7)
            if not bits[byte] & mask:
                new = True
                bits[byte] |= mask
        return new


class FirstSeenState:
    """Tracks which rrnames have been seen, for newly-observed filtering.

    `exact` policy never drops a truly-new name; `approximate` may drop a
    new name with probability at most `fp_rate` (Bloom filter), in exchange
    for fixed memory. check_and_add is atomic under a lock so concurrent
    workers can share one state without admitting an rrname twice.
    """

    def __init__(
        self,
        policy: str = "exact",
        capacity: Optional[int] = None,
        fp_rate: float = 1e-4,
    ):
        if policy not in ("exact", "approximate"):
            raise ValueError(f"unknown policy: {policy!r}")
        self.policy = policy
        self.capacity = capacity
        self.added = 0
        self._lock = threading.Lock()
        self._bloom = None
        if policy == "exact":
            self._seen: set[str] = set()
        else:
            if capacity is None:
                raise ValueError("approximate policy requires a capacity")
            self._bloom = _BloomFilter(capacity, fp_rate)

    def __len__(self) -> int:
        return self.added

    def check_and_add(self, key: str) -> bool:
        """True iff key is new in this state; records it either way."""
        with self._lock:
            if self._bloom is not None:
                if self._bloom.check_and_add(key):
                    self.added += 1
                    return True
                return False
            if key in self._seen:
                return False
            if self.capacity is not None and self.added >= self.capacity:
                raise CapacityExceededError(
                    f"exact first-seen state reached capacity {self.capacity}"
                )
            self._seen.add(key)
            self.added += 1
            return True


def first_seen_filter(
    stream: Iterable[PdnsEntry],
    state: FirstSeenState,
    stats: Optional[IngestStats] = None,
) -> Iterator[PdnsEntry]:
    """Pass each entry iff its rrname was not seen before in this state.

    The feed treats "new" as the full hostname, so the dedup key is the
    normalized rrname alone. `stats` is the one the reader counted the
    entries into: each dropped duplicate moves from `accepted` to
    `deduplicated`, so `accepted` counts the entries passed on and the
    identity holds.
    """
    for entry in stream:
        if state.check_and_add(entry.rrname.name):
            yield entry
        elif stats is not None:
            stats.accepted -= 1
            stats.deduplicated += 1
