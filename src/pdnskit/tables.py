"""Small deterministic CSV/JSON helpers: table emission shared by stats and
reports, and the config, domain-list and labels-sidecar readers."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from pdnskit.model import ConfigError, FqdnError, parse_fqdn

__all__ = ["write_csv", "write_json", "fmt_share", "read_json", "read_domain_list", "read_labels"]


# Fixed-precision share formatting so emitted tables are byte-stable. A bound
# method, so that mapping it over a column makes no Python call per value.
fmt_share = "{:.6f}".format


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def read_json(path: str | Path):
    """The JSON value a UTF-8 file holds. ValueError when the text is not
    UTF-8, not JSON, nested deeper than the parser goes, or holds a \\u
    escape that is a lone surrogate; OSError when the file is unreadable."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    try:
        value = json.loads(text)
        json.dumps(value, ensure_ascii=False).encode()  # a \u escape that is a lone surrogate
    except RecursionError as exc:
        raise ValueError(f"nested too deeply: {exc}") from None
    return value


def read_domain_list(path: str | Path) -> frozenset[str]:
    """Load a one-domain-per-line file; `#` comments and blanks ignored.

    Each domain is normalized as a hostname is (`parse_fqdn`: ASCII case
    folded, no trailing dot). A file that is not UTF-8, or a line that is
    not a hostname, raises ConfigError.
    """
    out = set()
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for number, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    out.add(parse_fqdn(text).name)
                except FqdnError as exc:
                    raise ConfigError(f"bad domain list {path}: line {number}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"bad domain list {path}: {exc}") from None
    return frozenset(out)


def read_labels(path: str | Path) -> dict[str, tuple[str, str]]:
    """Load a labels sidecar: rrname -> (kind, class), from the first three
    fields of each row; the last row of an rrname wins. A first row whose
    first field is `rrname` is the header. Blank lines are skipped; a file
    that is not UTF-8 or not readable as CSV, or a row of fewer than three
    fields, raises ConfigError.

    Every rrname with the same (kind, class) maps to one shared tuple, so a
    row costs its key and its dict slot: a corpus has a handful of classes
    and tens of thousands of rows."""
    out: dict[str, tuple[str, str]] = {}
    pairs: dict[tuple[str, str], tuple[str, str]] = {}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and header[:1] != ["rrname"]:
                fh.seek(0)
                reader = csv.reader(fh)
            for row in reader:
                if len(row) >= 3:
                    pair = (row[1], row[2])
                    out[row[0]] = pairs.setdefault(pair, pair)
                elif "".join(row).strip():
                    raise ConfigError(
                        f"bad labels file {path}: line {reader.line_num} has {len(row)} of 3 fields"
                    )
        except (UnicodeDecodeError, csv.Error) as exc:  # csv.Error: a field over csv.field_size_limit
            raise ConfigError(f"bad labels file {path}: {exc}") from None
    return out
