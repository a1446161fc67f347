"""Stream pDNS entries from NDJSON/CSV files with per-record error counting,
plus first-seen deduplication for newly-observed-hostname semantics."""

from __future__ import annotations

import csv
import gzip
import io
import json
import re
import sys
import zlib
from collections import Counter
from contextlib import contextmanager
from datetime import datetime
from functools import partial
from itertools import chain, filterfalse
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from pdnskit.model import (
    _RRTYPE_CACHE,
    Fqdn,
    FqdnError,
    PdnsEntry,
    RRType,
    _new_tuple,
    parse_fqdn,
)

__all__ = [
    "IngestStats",
    "FirstSeenState",
    "RecordError",
    "UnreadableSourceError",
    "TruncatedInputError",
    "read_stream",
    "first_seen_filter",
    "parse_record",
]

CSV_COLUMNS = ("domain", "time_seen", "bailiwick", "rrname", "rrclass", "rrtype", "rdata")

Source = Union[str, Path, IO]


class UnreadableSourceError(OSError):
    """The input source could not be opened at all (fatal)."""


class TruncatedInputError(OSError):
    """A gzip input was cut short. Raised by a command once its artifacts,
    which cover the records before the cut, are all written."""


# What reading a gzip stream that was cut short, or corrupted, raises.
_TRUNCATED_GZIP = (EOFError, zlib.error, gzip.BadGzipFile)


class RecordError(ValueError):
    """One record is malformed; the stream continues. `kind` keys counters."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class IngestStats:
    """Accounting for one ingest pass: read == accepted + rejected + deduplicated.

    `rejected_by_error` counts rejected records by error kind, and
    `warnings` non-fatal anomalies on accepted entries (e.g.
    SuffixMismatch); each is a new Counter when not given."""

    __slots__ = ("read", "accepted", "rejected_by_error", "deduplicated", "warnings")

    def __init__(
        self,
        read: int = 0,
        accepted: int = 0,  # passed on downstream, after first-seen dedup
        rejected_by_error: Optional[Counter] = None,
        deduplicated: int = 0,
        warnings: Optional[Counter] = None,
    ):
        self.read = read
        self.accepted = accepted
        self.rejected_by_error = Counter() if rejected_by_error is None else rejected_by_error
        self.deduplicated = deduplicated
        self.warnings = Counter() if warnings is None else warnings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_error.values())

    def consistent(self) -> bool:
        return self.read == self.accepted + self.rejected + self.deduplicated


def _name_text(value, what: str) -> Optional[str]:
    """The stripped text of a name field; None when it is missing or blank."""
    if value is None:
        return None
    if not isinstance(value, str):
        raise RecordError("BadField", f"{what} is not a string")
    return value.strip() or None


# `domain` and `bailiwick` repeat across records (a feed has far fewer SLDs
# than hostnames), so their parses are kept by raw text. The cap keeps a
# long tail of distinct names from growing the process: emptied when full.
_NAME_CACHE: dict[str, Fqdn] = {}
_NAME_CACHE_CAP = 256


def _suffix_name(rrname: Fqdn, text: str) -> Optional[Fqdn]:
    """parse_fqdn(text) when `text` is ASCII and, as a name, a label suffix
    of `rrname`: then its labels are rrname's last ones, already checked.
    None for any other text, which is left to parse_fqdn."""
    if not text.isascii():
        return None
    s = text.lower()
    if s.endswith("."):
        s = s[:-1]
    name = rrname.name
    if s == name:
        return rrname
    if s and name.endswith("." + s):
        return _new_tuple(Fqdn, (rrname.labels[-1 - s.count("."):], s))
    return None


def _parse_name_field(value, what: str, rrname: Optional[Fqdn]) -> Optional[Fqdn]:
    """A `domain` or `bailiwick` field: None when missing or blank. On a
    cache miss it is built from `rrname`, the record's parsed hostname,
    when it is a label suffix of it, and parsed otherwise."""
    fqdn = _NAME_CACHE.get(value) if isinstance(value, str) else None
    if fqdn is None:
        text = _name_text(value, what)
        if text is None:
            return None
        fqdn = _suffix_name(rrname, text) if rrname is not None else None
        if fqdn is None:
            fqdn = parse_fqdn(text)
        if len(_NAME_CACHE) >= _NAME_CACHE_CAP:
            _NAME_CACHE.clear()
        _NAME_CACHE[value] = fqdn
    return fqdn


def _parse_names(rrname: str, domain_raw, bailiwick_raw) -> tuple[Optional[Fqdn], Optional[Fqdn], Fqdn]:
    """The three names of a record, with the errors in the order domain,
    bailiwick, rrname; rrname is parsed first, as the other two may be
    built from it. A bailiwick that repeats the domain, as most do, is the
    domain's name."""
    try:
        name, error = parse_fqdn(rrname), None
    except FqdnError as exc:
        name, error = None, exc
    domain = _parse_name_field(domain_raw, "domain", name)
    if bailiwick_raw == domain_raw:
        bailiwick = domain
    else:
        bailiwick = _parse_name_field(bailiwick_raw, "bailiwick", name)
    if error is not None:
        raise error
    return domain, bailiwick, name


def _parse_rrtype(value) -> RRType:
    if value is None or isinstance(value, str) and not value.strip():
        raise RecordError("MissingField", "record has no rrtype")
    if isinstance(value, str):
        try:
            return RRType.parse(value)
        except ValueError:
            pass
    raise RecordError("BadField", f"bad rrtype: {value!r:.60}")


# The feed's one timestamp shape: ASCII digits only, and hours 00-23, so
# that no datetime version's reading of `24:00` matters.
_TIME_SEEN_SHAPE = re.compile(r"\d{4}-\d\d-\d\d (?:[01]\d|2[0-3]):\d\d:\d\d\Z", re.ASCII)


def _time_error(value) -> RecordError:
    """The error of a `time_seen` that is not a string of the feed's shape."""
    if value is None or value == "":
        return RecordError("MissingField", "record has no time_seen")
    return RecordError("BadTimestamp", f"bad time_seen: {value!r}")


def _parse_rrclass(value) -> str:
    if value is None or value == "":
        return "IN"
    if not isinstance(value, str):
        raise RecordError("BadField", f"rrclass is not a string: {value!r:.60}")
    return value


def _check_escapes(obj, bad_kind: str, what: str) -> None:
    """RecordError `BadEncoding` when a \\u escape in the JSON text `obj`
    was read from decoded to a lone surrogate, a string no UTF-8 output can
    hold. Both JSON decoders (a line, and an rdata array given as text) call
    it only for text holding a \\u, so any other record pays one search for
    a backslash."""
    try:
        json.dumps(obj, ensure_ascii=False).encode()
    except UnicodeEncodeError:
        raise RecordError("BadEncoding", f"{what} has a \\u escape that is a lone surrogate") from None
    except RecursionError:  # as deep as the scanner allows, at a deeper call
        raise RecordError(bad_kind, f"{what} is nested too deeply") from None


def _parse_rdata(value) -> tuple[str, ...]:
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("["):
            return (text,) if text else ()
        try:
            value = json.loads(text)  # an array, as it starts with "["
        except (ValueError, RecursionError):
            raise RecordError("BadRdata", f"unparseable rdata: {text[:60]!r}") from None
        if "\\" in text and "\\u" in text:
            _check_escapes(value, "BadRdata", "rdata")
    if value is None:
        return ()
    if not isinstance(value, list):
        raise RecordError("BadRdata", f"unsupported rdata value: {type(value).__name__}")
    try:
        "".join(value)  # a type check of every item in one C loop
    except TypeError:
        raise RecordError("BadRdata", "rdata item is not a string") from None
    return tuple(value)


def parse_record(obj: dict) -> PdnsEntry:
    """Build a PdnsEntry from one decoded record dict.

    Field names follow the feed schema; unknown fields (`keys`, `new_rr`,
    ...) are ignored. Raises RecordError or FqdnError on bad records, for
    the first bad field in the order rrname text, rrtype, time_seen,
    rrclass, domain, bailiwick, rrname name, rdata.

    Each field is read once. Its common case (a string, a cached name or
    rrtype, a timestamp of the feed's shape, a list of strings) is taken
    here in C calls; any other value goes to the field's checker, which
    accepts it or raises. A `time_seen` has no other valid value.
    """
    get = obj.get
    rrname = get("rrname")
    rrname = rrname.strip() if type(rrname) is str else _name_text(rrname, "rrname")
    if not rrname:
        raise RecordError("MissingField", "record has no rrname")
    rrtype = get("rrtype")
    try:
        rrtype = _RRTYPE_CACHE[rrtype]
    except (KeyError, TypeError):
        rrtype = _parse_rrtype(rrtype)
    time_seen = get("time_seen")
    if not (isinstance(time_seen, str) and _TIME_SEEN_SHAPE.match(time_seen)):
        raise _time_error(time_seen)
    try:
        time_seen = datetime.fromisoformat(time_seen + "+00:00")
    except ValueError:  # an impossible date or time
        raise _time_error(time_seen) from None
    rrclass = get("rrclass")
    if type(rrclass) is not str or not rrclass:
        rrclass = _parse_rrclass(rrclass)
    domain_raw = get("domain")
    bailiwick_raw = get("bailiwick")
    try:  # .get: a KeyError raised on each miss would cost ten lookups
        domain = _NAME_CACHE.get(domain_raw)
        bailiwick = _NAME_CACHE.get(bailiwick_raw)
    except TypeError:  # an unhashable value, left to the checker
        domain = None
    if domain is None or bailiwick is None:
        domain, bailiwick, name = _parse_names(rrname, domain_raw, bailiwick_raw)
    else:
        name = parse_fqdn(rrname)
    rdata = get("rdata")
    if type(rdata) is list:
        try:
            "".join(rdata)  # a type check of every item in one C loop
            rdata = tuple(rdata)
        except TypeError:
            rdata = _parse_rdata(rdata)
    else:
        rdata = _parse_rdata(rdata)
    return _new_tuple(PdnsEntry, (domain, time_seen, bailiwick, name, rrclass, rrtype, rdata))


class _GzipChunks(io.RawIOBase):
    """A gzip stream as raw reads of what one read decompresses. A buffer
    over GzipFile itself fills each block with several reads, and drops the
    whole block when a cut stream makes the last of them raise."""

    def __init__(self, fileobj: IO):
        self._gz = gzip.GzipFile(fileobj=fileobj)

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = self._gz.read1(len(buf))
        buf[: len(data)] = data
        return len(data)

    def close(self) -> None:
        self._gz.close()  # leaves the file object it reads open
        super().close()


@contextmanager
def _open_source(source: Source) -> Iterator[IO]:
    """A path, `-` (stdin) or a binary file object as a binary stream,
    gunzipped when it starts with the gzip magic; a text object is a
    TypeError. Only a file opened here is closed; a buffer put around any
    other is detached, as its finalizer would close it."""
    if source == "-":
        source = sys.stdin.buffer
    owned = not hasattr(source, "read")
    if owned:
        try:
            source = open(source, "rb")
        except OSError as exc:
            raise UnreadableSourceError(f"cannot open {source}: {exc}") from exc
    elif not isinstance(source.read(0), bytes):
        raise TypeError(f"read_stream reads binary file objects, not {type(source).__name__}")
    buffered = source if hasattr(source, "peek") else io.BufferedReader(source)
    try:
        if buffered.peek(2)[:2] == b"\x1f\x8b":
            # GzipFile.readline is Python code; a buffer over it splits lines in C.
            yield io.BufferedReader(_GzipChunks(buffered), 1 << 16)
        else:
            yield buffered
    finally:
        if owned:
            source.close()
        elif buffered is not source:
            buffered.detach()


# A JSON text is one value between JSON whitespace. json.loads checks that
# with two regex matches and three Python calls around the C scanner that
# reads the value; a strip and one scanner call check the same.
_scan_json_value = json.JSONDecoder().scan_once


def _decode_ndjson(line: bytes) -> dict:
    try:
        text = line.decode().strip(" \t\n\r")
    except UnicodeDecodeError:
        raise RecordError("BadEncoding", "line is not valid UTF-8") from None
    try:
        obj, end = _scan_json_value(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(text):
        raise RecordError("BadRecord", "line is not valid JSON")
    # A one-character search runs as memchr; a two-character one compares
    # character by character, which on a 1 KB line costs a microsecond.
    if "\\" in text and "\\u" in text:
        _check_escapes(obj, "BadRecord", "line")
    if not isinstance(obj, dict):
        raise RecordError("BadRecord", "line is not a JSON object")
    return obj


def _csv_rows(fh: IO) -> Iterator[Union[list[str], csv.Error]]:
    """The non-blank rows, less a leading header row. A UTF-8 byte order
    mark that starts the first line is dropped. Lines are decoded with
    each bad byte kept as a lone surrogate, for _decode_csv to count. A row
    the reader rejects (a field over csv.field_size_limit) comes out as its
    csv.Error, so the rows after it are still read."""
    head = next(fh, b"").removeprefix(b"\xef\xbb\xbf")
    lines = (line.decode("utf-8", "surrogateescape") for line in chain((head,), fh))
    reader = csv.reader(lines)
    first = True
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            row = exc
        if not row:
            continue
        if first:
            first = False
            if isinstance(row, list) and [c.strip() for c in row[:2]] == ["domain", "time_seen"]:
                continue
        yield row


# What surrogateescape decoding makes of a byte that is not UTF-8.
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")


def _decode_csv(row: Union[list[str], csv.Error]) -> dict:
    if isinstance(row, csv.Error):
        raise RecordError("BadRecord", f"unreadable row: {row}")
    if any(map(_UNDECODED_BYTE.search, row)):
        raise RecordError("BadEncoding", "row is not valid UTF-8")
    if len(row) != len(CSV_COLUMNS):
        raise RecordError("BadRecord", f"expected {len(CSV_COLUMNS)} columns, got {len(row)}")
    return dict(zip(CSV_COLUMNS, row))


# Per format: the records of an open stream (NDJSON: lines that are not all
# ASCII whitespace), and the decoding of one record into a field dict,
# raising RecordError.
_FORMATS = {
    "ndjson": (partial(filterfalse, bytes.isspace), _decode_ndjson),
    "csv": (_csv_rows, _decode_csv),
}


def read_stream(
    source: Source,
    fmt: str = "ndjson",
    stats: Optional[IngestStats] = None,
) -> Iterator[PdnsEntry]:
    """Lazily yield entries from a file path, `-`, or binary file object.

    Gzip inputs are detected by magic bytes. Bytes are decoded as UTF-8
    one record at a time, so a bad byte costs only its record. Malformed
    records are counted in `stats` and skipped; they never abort the
    stream. A gzip stream that ends before its end-of-stream marker ends
    the source there: the cut record counts as `TruncatedInput` and the
    entries before it are kept. Memory stays bounded by a single record.
    Only a file opened from a path is closed.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format: {fmt!r} (expected 'ndjson' or 'csv')")
    records, decode = _FORMATS[fmt]
    if stats is None:
        stats = IngestStats()
    with _open_source(source) as fh:
        # Only reading the source raises these; one try around the loop
        # costs a record nothing, where one around each read would not.
        try:
            for record in records(fh):
                stats.read += 1
                try:
                    entry = parse_record(decode(record))
                except (RecordError, FqdnError) as exc:
                    stats.rejected_by_error[exc.kind] += 1
                    continue
                # Is the domain a label suffix of the rrname? One longer
                # than the rrname takes the whole rrname and compares unequal.
                domain = entry.domain
                if domain is not None:
                    labels = domain.labels
                    if entry.rrname.labels[-len(labels):] != labels:
                        stats.warnings["SuffixMismatch"] += 1
                stats.accepted += 1
                yield entry
        except _TRUNCATED_GZIP:
            stats.read += 1
            stats.rejected_by_error["TruncatedInput"] += 1


class FirstSeenState:
    """The rrnames seen so far, for newly-observed filtering: one set, so a
    truly new name is never dropped."""

    def __init__(self):
        self.seen: set[str] = set()


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
    seen = state.seen
    for entry in stream:
        name = entry.rrname.name
        if name not in seen:
            seen.add(name)
            yield entry
        elif stats is not None:
            stats.accepted -= 1
            stats.deduplicated += 1
