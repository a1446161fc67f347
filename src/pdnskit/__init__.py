"""Streaming passive-DNS measurement and DNS-tunnel candidate filtering."""

from pdnskit.model import (
    Fqdn,
    PdnsEntry,
    PublicSuffixList,
    RRType,
    label_length,
    parse_fqdn,
    sld_name,
)

__version__ = "0.1.0"

__all__ = [
    "Fqdn",
    "PdnsEntry",
    "PublicSuffixList",
    "RRType",
    "label_length",
    "parse_fqdn",
    "sld_name",
    "__version__",
]
