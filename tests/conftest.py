"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json
from datetime import datetime, timezone

import pytest

from pdnskit.model import PdnsEntry, RRType, parse_fqdn, sld_name
from pdnskit.pipeline import stage_table

TABLE_RECORD = {
    "domain": "teriava.com.",
    "time_seen": "2017-07-01 09:35:04",
    "bailiwick": "teriava.com.",
    "rrname": "dsu9jr2czl.teriava.com.",
    "rrclass": "IN",
    "rrtype": "A",
    "rdata": ["127.0.0.1"],
}


def make_entry(
    rrname: str,
    rrtype: str = "A",
    domain: str | None = None,
    time_seen: str = "2017-07-01 09:35:04",
    bailiwick: str | None = None,
    rdata: tuple[str, ...] = ("127.0.0.1",),
    rrclass: str = "IN",
) -> PdnsEntry:
    return PdnsEntry(
        domain=parse_fqdn(domain) if domain else None,
        time_seen=datetime.fromisoformat(time_seen + "+00:00"),
        bailiwick=parse_fqdn(bailiwick) if bailiwick else None,
        rrname=parse_fqdn(rrname),
        rrclass=rrclass,
        rrtype=RRType.parse(rrtype),
        rdata=tuple(rdata),
    )


def keep_stage(stage_id: str, entries, config) -> list[PdnsEntry]:
    """The entries that one stage of the production stage table passes."""
    (stage,) = [s for s in stage_table(config) if s.stage_id == stage_id]
    return [e for e in entries if stage.keep(e, sld_name(e, config.psl))]


def ndjson_line(**overrides) -> str:
    record = dict(TABLE_RECORD)
    record.update(overrides)
    return json.dumps(record)


def write_ndjson(path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def table_entry() -> PdnsEntry:
    return make_entry(
        rrname="dsu9jr2czl.teriava.com.",
        rrtype="A",
        domain="teriava.com.",
        bailiwick="teriava.com.",
    )
