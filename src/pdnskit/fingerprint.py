"""Structural fingerprinting of hostnames against tunnel-tool profiles.

Eight attributes are extracted from each entry and compared to per-tool
profiles; six or more matches attribute the entry to that tool. Profiles
live in a data file (`data/tunnel_profiles.conf`), not in code.
"""

from __future__ import annotations

import configparser
from collections import Counter, namedtuple
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from pdnskit.model import (
    ConfigError,
    Fqdn,
    PdnsEntry,
    PublicSuffixList,
    RRType,
    _make_checked,
    _new_tuple,
    label_length,
    sld_name,
)
from pdnskit.tables import fmt_share, write_csv, write_json

__all__ = [
    "ENCODING_HEX",
    "ENCODING_BASE32",
    "ENCODING_BASE64",
    "ENCODING_NONE",
    "CHAR_CLASSES",
    "AttributeVector",
    "ImplementationProfile",
    "ProviderRule",
    "ProfileError",
    "ProfileSet",
    "Attribution",
    "detect_encoding",
    "extract_attributes",
    "match_profile",
    "classify",
    "ClassifyTally",
]

ENCODING_HEX = "hex"
ENCODING_BASE32 = "base32"
ENCODING_BASE64 = "base64-like"
ENCODING_NONE = "none"
ENCODINGS = (ENCODING_HEX, ENCODING_BASE32, ENCODING_BASE64, ENCODING_NONE)

CHAR_CLASSES = ("digit", "letter", "other")

UNKNOWN = "unknown"


# Character classes tallied by `detect_encoding`. Every class but _DIRTY
# lies inside the base64-like charset.
(
    _DIGIT,  # 0 1 8 9: hex, not base32
    _DIGIT_B32,  # 2-7: hex and base32
    _LOWER_HEX,
    _LOWER_REST,
    _UPPER_HEX,
    _UPPER_REST,
    _B64_SPECIAL,
    _PAD,
    _DIRTY,
) = range(9)
_ENCODING_CLASS = {
    **dict.fromkeys("0189", _DIGIT),
    **dict.fromkeys("234567", _DIGIT_B32),
    **dict.fromkeys("abcdef", _LOWER_HEX),
    **dict.fromkeys("ghijklmnopqrstuvwxyz", _LOWER_REST),
    **dict.fromkeys("ABCDEF", _UPPER_HEX),
    **dict.fromkeys("GHIJKLMNOPQRSTUVWXYZ", _UPPER_REST),
    **dict.fromkeys("-_+/", _B64_SPECIAL),
    "=": _PAD,
}


# `_ENCODING_CLASS` by byte value; every other byte, each byte of a
# non-ASCII character included, is _DIRTY.
_ENCODING_TABLE = bytes(_ENCODING_CLASS.get(chr(b), _DIRTY) for b in range(256))


def detect_encoding(text: str, min_share: float = 0.95) -> str:
    """Heuristically classify the character encoding of a payload string.

    hex and base32 are judged on the lowercase fold of the alphanumeric
    characters (so detection is case-stable) and each requires at least
    one of its digit characters, which keeps short plain words like "www"
    out. base64-like requires a clean charset, letters and digits, and
    either mixed case or at least two of `-_+/`. The text's UTF-8 bytes
    (a lone surrogate as its three bytes) are mapped to their classes by
    `_ENCODING_TABLE` and each class is counted, all in C. A non-ASCII
    character counts once per byte, and only as _DIRTY, whose count is
    read only as zero or not; so byte counts decide as character counts
    would.
    """
    if not text:
        return ENCODING_NONE
    count = text.encode("utf-8", "surrogatepass").translate(_ENCODING_TABLE).count
    digit, digit_b32 = count(_DIGIT), count(_DIGIT_B32)
    digits = digit + digit_b32
    if not digits:  # every encoding needs a digit
        return ENCODING_NONE
    lower_hex, upper_hex = count(_LOWER_HEX), count(_UPPER_HEX)
    lower = lower_hex + count(_LOWER_REST)
    upper = upper_hex + count(_UPPER_REST)
    alnum = digits + lower + upper
    if digits + lower_hex + upper_hex >= min_share * alnum:
        return ENCODING_HEX
    if digit_b32 and digit_b32 + lower + upper >= min_share * alnum:
        return ENCODING_BASE32
    if not count(_DIRTY) and (lower or upper) and ((lower and upper) or count(_B64_SPECIAL) >= 2):
        return ENCODING_BASE64
    return ENCODING_NONE


_FIRST_CHAR_CLASS = {
    **dict.fromkeys("0123456789", "digit"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "letter"),
}


class AttributeVector(NamedTuple):
    """The eight structural attributes of one entry's hostname. Hashable,
    so that equal vectors share one classification (see `classify`)."""

    payload_len: int  # bytes (dots included) of all labels at level >= 4
    level: int
    label4_len: Optional[int]  # bytes; absent when level < 4
    label5_len: Optional[int]  # bytes; absent when level < 5
    rrtype: RRType
    encoding: str
    first_char: str  # class of the leftmost label's first byte
    markers: frozenset[str]  # marker substrings found anywhere in the name


def extract_attributes(
    entry: PdnsEntry, markers: Iterable[str] = ()
) -> AttributeVector:
    """Extract the attribute vector of one entry.

    `markers` is the vocabulary of literal substrings worth noticing,
    normally the union of all profile markers. The payload portion is
    everything left of the third-level label: tunnels keep the SLD and a
    short third-level constant, so that is where encoded data lives.

    Lengths are in bytes. For an ASCII payload that is each label's length
    in characters; a non-ASCII one is measured by `label_length`. The
    vector is built with `tuple.__new__`, which is what `AttributeVector`'s
    own constructor ends in, so its fields and type are the same.
    """
    rrname = entry.rrname
    labels, name = rrname.labels, rrname.name
    n = len(labels)
    if n > 3:
        payload = "".join(labels[: n - 3])
        # The n - 4 dots between the payload labels are one byte each.
        if payload.isascii():
            payload_len = len(payload) + n - 4
            label4_len = len(labels[n - 4])
            label5_len = len(labels[n - 5]) if n > 4 else None
        else:
            payload_len = len(payload.encode()) + n - 4
            label4_len, label5_len = label_length(rrname, 4), label_length(rrname, 5)
    else:
        payload, payload_len, label4_len, label5_len = "", 0, None, None
    return _new_tuple(
        AttributeVector,
        (
            payload_len,
            n,
            label4_len,
            label5_len,
            entry.rrtype,
            detect_encoding(payload),
            _FIRST_CHAR_CLASS.get(labels[0][0], "other"),
            frozenset([m for m in markers if m in name]),
        ),
    )


class ProviderRule(NamedTuple):
    """SLD pattern tied to a tunnel provider, e.g. three-character .de."""

    label_len: int
    tld: str

    def matches(self, fqdn: Fqdn) -> bool:
        labels = fqdn.labels
        return (
            len(labels) >= 2
            and labels[-1] == self.tld
            and len(labels[-2]) == self.label_len
        )


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    lo = int(lo.strip())
    return lo, (int(hi.strip()) if sep else lo)


def _parse_set(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


class ImplementationProfile(
    namedtuple(
        "ImplementationProfile",
        "name payload_len levels label4_len label5_len rrtypes encodings first_chars markers provider",
    )
):
    """Attribute-value ranges characterizing one tunnel implementation.

    `encodings` is ordered: the first entry is the tool's native payload
    encoding (used for traffic generation); any listed encoding counts as
    a match during classification.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)

    def __new__(
        cls,
        name: str,
        payload_len: tuple[int, int],
        levels: tuple[int, int],
        label4_len: tuple[int, int],
        label5_len: tuple[int, int],
        rrtypes: frozenset[RRType],
        encodings: tuple[str, ...],
        first_chars: frozenset[str],
        markers: tuple[str, ...] = (),
        provider: Optional[ProviderRule] = None,
    ):
        for rng in (payload_len, levels, label4_len, label5_len):
            if rng[1] < rng[0]:
                raise ValueError(f"profile {name}: empty range {rng}")
        for enc in encodings:
            if enc not in ENCODINGS:
                raise ValueError(f"profile {name}: unknown encoding {enc!r}")
        for char_class in first_chars:
            if char_class not in CHAR_CLASSES:
                raise ValueError(f"profile {name}: unknown char class {char_class!r}")
        return super().__new__(
            cls, name, payload_len, levels, label4_len, label5_len, rrtypes, encodings, first_chars, markers, provider
        )


class ProfileError(ConfigError):
    """A profile file is unreadable as a profile set."""


def _profile_from_section(name: str, sec) -> ImplementationProfile:
    provider = None
    if sec.get("provider_sld"):
        label_len, _, tld = sec["provider_sld"].partition("char.")
        provider = ProviderRule(label_len=int(label_len), tld=tld.strip().lower())
    return ImplementationProfile(
        name=name,
        payload_len=_parse_range(sec["payload_len"]),
        levels=_parse_range(sec["levels"]),
        label4_len=_parse_range(sec["label4_len"]),
        label5_len=_parse_range(sec["label5_len"]),
        rrtypes=frozenset(RRType.parse(t) for t in _parse_set(sec["rrtypes"])),
        encodings=_parse_set(sec["encodings"]),
        first_chars=frozenset(_parse_set(sec["first_char"])),
        markers=_parse_set(sec.get("markers", "")),
        provider=provider,
    )


# Classifications kept per profile set, by attribute vector, provider and
# threshold. Tunnel names repeat a few templates, so a feed has few distinct
# keys; the cap keeps a long tail of them from growing the process: the memo
# is emptied when full.
_MEMO_CAP = 1024


class ProfileSet:
    """An ordered collection of profiles sharing one marker vocabulary.

    It maps each provider SLD shape (TLD, SLD label length) to the first
    provider profile in file order claiming it, and holds `classify`'s memo
    of results.
    """

    def __init__(self, profiles: Sequence[ImplementationProfile]):
        if not profiles:
            raise ValueError("profile set is empty")
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ValueError("duplicate profile names")
        self.profiles: tuple[ImplementationProfile, ...] = tuple(profiles)
        self.by_name = {p.name: p for p in self.profiles}
        self.markers: frozenset[str] = frozenset(
            m for p in self.profiles for m in p.markers
        )
        self._provider_by_sld: dict[tuple[str, int], str] = {}
        for p in self.profiles:
            if p.provider is not None:
                key = (p.provider.tld, p.provider.label_len)
                self._provider_by_sld.setdefault(key, p.name)
        self._memo: dict[tuple, Attribution] = {}

    def __iter__(self):
        return iter(self.profiles)

    def __len__(self):
        return len(self.profiles)

    @classmethod
    def from_file(cls, path: str | Path) -> "ProfileSet":
        """The profile set a file describes. Raises ProfileError when the
        content is not a valid profile set, OSError when it is unreadable."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                parser.read_file(fh)
            return cls(
                [_profile_from_section(name, parser[name]) for name in parser.sections()]
            )
        except KeyError as exc:
            raise ProfileError(f"bad profile file {path}: missing key {exc}") from exc
        except (configparser.Error, ValueError) as exc:
            message = " ".join(str(exc).split())  # configparser's span several lines
            raise ProfileError(f"bad profile file {path}: {message}") from exc

    @classmethod
    def default(cls) -> "ProfileSet":
        ref = resources.files("pdnskit.data").joinpath("tunnel_profiles.conf")
        with resources.as_file(ref) as path:
            return cls.from_file(path)


class Attribution(NamedTuple):
    """Outcome of classifying one entry against a profile set."""

    implementation: str  # profile name or "unknown"
    match_count: int
    # Read-only: `classify` hands entries with equal keys one shared result.
    per_attribute: Mapping[str, bool] = MappingProxyType({})
    provider_rule: bool = False


def _matches(attrs: AttributeVector, profile: ImplementationProfile) -> tuple[bool, ...]:
    """The match rule: one boolean per attribute, in `AttributeVector`'s
    field order.

    Length attributes match by inclusive range (absent values never
    match); type, encoding, and first-char match by set membership. The
    marker attribute matches when every profile marker occurs; a
    marker-free profile matches only names carrying no known marker at
    all.
    """
    (pl_lo, pl_hi), (lv_lo, lv_hi) = profile.payload_len, profile.levels
    (l4_lo, l4_hi), (l5_lo, l5_hi) = profile.label4_len, profile.label5_len
    label4, label5, found = attrs.label4_len, attrs.label5_len, attrs.markers
    return (
        pl_lo <= attrs.payload_len <= pl_hi,
        lv_lo <= attrs.level <= lv_hi,
        label4 is not None and l4_lo <= label4 <= l4_hi,
        label5 is not None and l5_lo <= label5 <= l5_hi,
        attrs.rrtype in profile.rrtypes,
        attrs.encoding in profile.encodings,
        attrs.first_char in profile.first_chars,
        found.issuperset(profile.markers) if profile.markers else not found,
    )


def match_profile(
    attrs: AttributeVector, profile: ImplementationProfile
) -> Attribution:
    """Compare one attribute vector to one profile: the match count and, as
    a read-only mapping, each attribute's match."""
    matches = _matches(attrs, profile)
    per = MappingProxyType(dict(zip(AttributeVector._fields, matches)))
    return Attribution(profile.name, sum(matches), per)


def classify(
    entry: PdnsEntry, profiles: ProfileSet, min_matches: int = 6
) -> Attribution:
    """Attribute one entry to the best-matching implementation.

    Provider SLD rules win outright (a three-character provider domain is
    a tunnel domain no matter what the name looks like). Otherwise the
    highest match count at or above `min_matches` wins, a tie going to the
    profile first in file order. Below the threshold the entry stays
    unknown.

    The result depends only on the attribute vector, the provider rule
    the SLD matches and `min_matches`, so it is computed once per distinct
    key and kept in the profile set's memo; entries with equal keys get
    the same read-only `Attribution`.
    """
    attrs = extract_attributes(entry, markers=profiles.markers)
    labels = entry.rrname.labels
    provider = (
        profiles._provider_by_sld.get((labels[-1], len(labels[-2])))
        if len(labels) >= 2
        else None
    )
    key = (attrs, provider, min_matches)
    memo = profiles._memo
    result = memo.get(key)
    if result is None:
        if provider is not None:
            result = match_profile(attrs, profiles.by_name[provider])._replace(provider_rule=True)
        else:
            result = _score(attrs, profiles, min_matches)
        if len(memo) >= _MEMO_CAP:
            memo.clear()
        memo[key] = result
    return result


def _score(attrs: AttributeVector, profiles: ProfileSet, min_matches: int) -> Attribution:
    """Score every profile by its match count; the first with the highest
    count wins, and only its per-attribute explanation is built, by
    `match_profile`."""
    best: Optional[ImplementationProfile] = None
    best_score = min_matches - 1
    for profile in profiles.profiles:
        score = sum(_matches(attrs, profile))
        if score > best_score:
            best, best_score = profile, score
    if best is None:
        return Attribution(UNKNOWN, 0, MappingProxyType({}))
    return match_profile(attrs, best)


class ClassifyTally:
    """What `classify` reports over a corpus: each SLD's majority vote and,
    given a labels sidecar (rrname -> (kind, class)), the confusion counts
    of true class against prediction. Unknown entries do not vote but count
    toward their SLD's total. A tunnel's true class is its profile name and
    a benign one's is `benign:<class>`; an rrname missing from the sidecar
    has the true class `?` and counts in neither metrics total."""

    def __init__(
        self,
        profiles: ProfileSet,
        psl: Optional[PublicSuffixList] = None,
        labels: Optional[Mapping[str, tuple[str, str]]] = None,
    ):
        self.profiles, self.psl, self.labels = profiles, psl, labels
        self.totals: Counter = Counter()  # SLD -> entries
        self._votes: dict[str, Counter] = {}  # SLD -> implementation -> entries; only SLDs with a vote
        self.confusion: Counter = Counter()  # (true class, prediction) -> entries

    def add_all(self, results: Iterable[tuple[PdnsEntry, Attribution]]) -> "ClassifyTally":
        """Count each (entry, its attribution) pair."""
        psl, labels, totals, votes, confusion = self.psl, self.labels, self.totals, self._votes, self.confusion
        for entry, result in results:
            sld = sld_name(entry, psl)
            totals[sld] += 1
            implementation = result.implementation
            if implementation != UNKNOWN:
                sld_votes = votes.get(sld)
                if sld_votes is None:
                    sld_votes = votes[sld] = Counter()
                sld_votes[implementation] += 1
            if labels is not None:
                kind, cls = labels.get(entry.rrname.name, (None, None))
                truth = "?" if kind is None else cls if kind == "tunnel" else f"benign:{cls}"
                confusion[truth, implementation] += 1
        return self

    @property
    def entries(self) -> int:
        return self.totals.total()

    def attributions(self) -> Iterator[tuple[str, str, float, float, int]]:
        """Rows (SLD, implementation, agreement, unknown fraction, entries),
        most entries first, then by name. The implementation with the most
        votes wins, a tie going to the profile first in file order, and
        agreement is its share of the SLD's entries; an all-unknown SLD is
        (unknown, 0.0)."""
        totals, votes = self.totals, self._votes
        rank = {name: i for i, name in enumerate(self.profiles.by_name)}
        for sld in sorted(totals, key=lambda s: (-totals[s], s)):
            total, sld_votes = totals[sld], votes.get(sld)
            if sld_votes is None:
                yield sld, UNKNOWN, 0.0, 1.0, total
                continue
            winner = min(sld_votes, key=lambda name: (-sld_votes[name], rank[name]))
            unknown = total - sum(sld_votes.values())
            yield sld, winner, sld_votes[winner] / total, unknown / total, total

    def write(self, outdir: Path) -> Optional[dict]:
        """Write `attributions.csv` into `outdir` and, given labels,
        `confusion_matrix.csv` and `metrics.json`; returns the metrics, or
        None without labels."""
        write_csv(
            outdir / "attributions.csv",
            ("sld", "implementation", "agreement", "unknown_fraction", "entry_count"),
            (
                (sld, implementation, fmt_share(agreement), fmt_share(unknown), count)
                for sld, implementation, agreement, unknown, count in self.attributions()
            ),
        )
        if self.labels is None:
            return None
        confusion = sorted((truth, pred, c) for (truth, pred), c in self.confusion.items())
        write_csv(outdir / "confusion_matrix.csv", ("true_class", "predicted", "count"), confusion)
        metrics = self.metrics()
        write_json(outdir / "metrics.json", metrics)
        return metrics

    def metrics(self) -> dict:
        """Tunnel accuracy and the benign unknown rate over the labeled entries."""
        tunnel = correct = benign = benign_unknown = 0
        for (truth, pred), c in self.confusion.items():
            if truth.startswith("benign:"):
                benign += c
                benign_unknown += c if pred == UNKNOWN else 0
            elif truth != "?":
                tunnel += c
                correct += c if truth == pred else 0
        return {
            "entries": self.entries,
            "tunnel_entries": tunnel,
            "tunnel_correct": correct,
            "tunnel_accuracy": round(correct / tunnel, 6) if tunnel else None,
            "benign_entries": benign,
            "benign_unknown": benign_unknown,
            "benign_unknown_rate": round(benign_unknown / benign, 6) if benign else None,
        }
