"""Core domain types: resource record types, hostnames, and pDNS entries.

All types are immutable after construction and safe to share between
threads; every operation in this module is a pure function.
"""

from __future__ import annotations

import re
from datetime import datetime
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "ConfigError",
    "RRType",
    "Fqdn",
    "PdnsEntry",
    "FqdnError",
    "EmptyLabelError",
    "LabelTooLongError",
    "NameTooLongError",
    "PublicSuffixList",
    "parse_fqdn",
    "label_length",
    "sld_name",
]

MAX_LABEL_BYTES = 63
MAX_NAME_BYTES = 253  # dotted form without the trailing root dot

# ASCII-only case fold; non-ASCII bytes pass through untouched so that raw
# payload bytes seen on the wire survive into the parsed form.
_ASCII_LOWER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)


class ConfigError(ValueError):
    """A configuration is invalid: options, a filter or generator config, or
    a profile file. Every command maps it to exit 3."""


class FqdnError(ValueError):
    """A hostname failed validation. `kind` is a stable counter key."""

    kind = "InvalidName"


class EmptyLabelError(FqdnError):
    kind = "EmptyLabel"


class LabelTooLongError(FqdnError):
    kind = "LabelTooLong"


class NameTooLongError(FqdnError):
    kind = "NameTooLong"


class RRType(str):
    """A DNS resource record type in canonical uppercase text form.

    Behaves as a plain string (hashable, sortable, JSON-friendly). Any
    well-formed type name parses, not only the common ones.
    """

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "RRType":
        """Stripped and uppercased; ValueError unless ASCII letters, digits and hyphens."""
        cached = _RRTYPE_CACHE.get(text)
        if cached is not None:
            return cached
        name = text.strip()
        if not (name.isascii() and name.replace("-", "").isalnum()):
            raise ValueError(f"bad rrtype: {text!r}")
        rr = cls(name.upper())
        if len(_RRTYPE_CACHE) < 4096:  # guard against adversarial inputs
            _RRTYPE_CACHE[text] = rr
        return rr


_RRTYPE_CACHE: dict[str, RRType] = {}


# Builds a NamedTuple instance from one tuple of its fields, skipping the
# Python-level `__new__` that NamedTuple generates. The parsers build each
# record's Fqdn and PdnsEntry values this way, in C, as `fingerprint` builds
# its attribute vectors.
_new_tuple = tuple.__new__


def _make_checked(cls, values):
    """`_make`, and with it `_replace`, for a named tuple whose `__new__`
    checks its fields: the new value goes through that check."""
    return cls(*values)


# The frozen dataclass's error, imported only when raised: no command
# loads `dataclasses` (or `inspect`, which it imports).
def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Fqdn(NamedTuple):
    """A parsed hostname: lowercase labels, leftmost first, no root dot.

    `name` is the normalized dotted form. Equality and hashing consider the
    labels only, and an Fqdn equals only another Fqdn, never a plain tuple.
    """

    labels: tuple[str, ...]
    name: str

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self[0] == other[0]
        # Any other tuple's __eq__, tried next, would compare the fields.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return self[0] != other[0]
        return True if isinstance(other, tuple) else NotImplemented

    def __hash__(self):  # a frozen dataclass's hash of the labels field alone
        return hash((self[0],))

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    @property
    def level(self) -> int:
        """Number of labels, counting the TLD as level one."""
        return len(self.labels)

    @property
    def dotted(self) -> str:
        """Normalized form with the trailing root dot."""
        return self.name + "."

    def __str__(self) -> str:
        return self.name


def _byte_len(s: str) -> int:
    return len(s) if s.isascii() else len(s.encode("utf-8"))


# One to MAX_LABEL_BYTES characters per label, and at most one root dot.
_ASCII_LABELS = re.compile(r"[^.]{1,63}(?:\.[^.]{1,63})*\.?\Z")


def parse_fqdn(raw: str) -> Fqdn:
    """Parse and normalize a hostname.

    Splits on dots, strips one trailing root dot, and lowercases ASCII.
    Raises EmptyLabelError, LabelTooLongError, or NameTooLongError; every
    input either yields a valid Fqdn or exactly one of those errors.
    """
    if raw.isascii() and _ASCII_LABELS.match(raw):
        # Characters are bytes here and every label is valid, so only the
        # total length is left to check. Any other name is left to the
        # general path, which alone raises.
        s = raw.lower()
        if s.endswith("."):
            s = s[:-1]
        if len(s) <= MAX_NAME_BYTES:
            return _new_tuple(Fqdn, (tuple(s.split(".")), s))
    return _parse_fqdn_general(raw)


def _parse_fqdn_general(raw: str) -> Fqdn:
    s = raw[:-1] if raw.endswith(".") else raw
    if not s:
        raise EmptyLabelError(f"name has no labels: {raw!r}")
    s = s.translate(_ASCII_LOWER)
    if _byte_len(s) > MAX_NAME_BYTES:
        raise NameTooLongError(f"name exceeds {MAX_NAME_BYTES} bytes: {raw[:80]!r}...")
    labels = s.split(".")
    for lab in labels:
        if not lab:
            raise EmptyLabelError(f"empty label in {raw!r}")
        if _byte_len(lab) > MAX_LABEL_BYTES:
            raise LabelTooLongError(f"label exceeds {MAX_LABEL_BYTES} bytes in {raw!r}")
    return _new_tuple(Fqdn, (tuple(labels), s))


def label_length(fqdn: Fqdn, level_index: int) -> Optional[int]:
    """Byte length of the label at `level_index`, counting the TLD as 1.

    Returns None when the hostname has fewer levels.
    """
    if level_index < 1:
        raise ValueError("level_index must be >= 1")
    if level_index > len(fqdn.labels):
        return None
    return _byte_len(fqdn.labels[len(fqdn.labels) - level_index])


class PublicSuffixList:
    """Minimal public-suffix lookup supporting plain, `*.`, and `!` rules.

    The file format is one rule per line; `//` comments and blank lines
    are ignored. Only load the sections of the real list you need, or the
    bundled sample; the class makes no attempt to fetch anything.
    """

    def __init__(self, rules: Iterable[str]):
        self.exact: set[str] = set()
        self.wildcard_bases: set[str] = set()
        self.exceptions: set[str] = set()
        for line in rules:
            rule = line.strip().lower()
            if not rule or rule.startswith("//") or rule.startswith("#"):
                continue
            if rule.startswith("!"):
                self.exceptions.add(rule[1:])
            elif rule.startswith("*."):
                self.wildcard_bases.add(rule[2:])
            else:
                self.exact.add(rule)

    @classmethod
    def from_file(cls, path: str | Path) -> "PublicSuffixList":
        """The list in a rules file; ConfigError if it is not UTF-8."""
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                return cls(fh)
            except UnicodeDecodeError as exc:
                raise ConfigError(f"bad public suffix list {path}: {exc}") from None

    def suffix_label_count(self, fqdn: Fqdn) -> int:
        """Number of labels in the longest matching public suffix."""
        labels = fqdn.labels
        best = 1  # unlisted TLDs behave as single-label suffixes
        for k in range(1, len(labels) + 1):
            tail = ".".join(labels[-k:])
            if tail in self.exceptions:
                return k - 1
            if tail in self.exact:
                best = max(best, k)
            if k >= 2 and ".".join(labels[-(k - 1):]) in self.wildcard_bases:
                best = max(best, k)
        return best

    def registrable(self, fqdn: Fqdn) -> Optional[Fqdn]:
        """The registrable domain (suffix plus one label), or None if the
        name itself is a public suffix."""
        n = self.suffix_label_count(fqdn)
        if len(fqdn.labels) <= n:
            return None
        labels = fqdn.labels[-(n + 1):]
        return _new_tuple(Fqdn, (labels, ".".join(labels)))


class PdnsEntry(NamedTuple):
    """One passive-DNS record, field order as in the feed. It equals only
    another PdnsEntry, never a plain tuple."""

    domain: Optional[Fqdn]
    time_seen: datetime
    bailiwick: Optional[Fqdn]
    rrname: Fqdn
    rrclass: str
    rrtype: RRType
    rdata: tuple[str, ...]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr


def sld_name(entry: PdnsEntry, psl: Optional[PublicSuffixList] = None) -> str:
    """The registrable/second-level domain an entry is grouped under.

    Prefers the feed's `domain` field when it is a suffix of rrname;
    otherwise falls back to the public-suffix list when one is configured
    (handles suffixes such as `com.au`), or to the last two labels of
    rrname. The result is always a suffix of rrname, in dotted form.
    """
    rrname = entry.rrname
    labels = rrname.labels
    dom = entry.domain
    if dom is not None:
        # A domain longer than rrname takes all of its labels and compares unequal.
        dom_labels = dom.labels
        if labels[-len(dom_labels):] == dom_labels:
            return dom.name
    if psl is not None:
        reg = psl.registrable(rrname)
        if reg is not None:
            return reg.name
    return ".".join(labels[-2:])

