"""A fixed reference pass that tells how fast this machine runs right now.

On a shared virtual machine the speed of pure-Python code drifts by tens of
per cent within a minute or two, with the load on the host. A wall time
measured in one minute and one measured in the next then differ by more
than any change worth finding. The benchmark therefore times this pass,
which does the same kind of work as pdnskit's ingest (JSON decoding, name
normalisation, SLD-keyed dicts and sets) on fixed input that depends on
neither the seed nor the program, right before and right after each timed
process. A process's wall time is scaled by REFERENCE_S / (the pass's time
around it): to the time it would have taken at the speed the pass had on
the reference machine. Nothing here imports pdnskit, so no change to the
program can move the reference.
"""

from __future__ import annotations

import json
import statistics
import time
from random import Random

# Median time of `reference_pass` on the reference machine (a 2-vCPU,
# 8 GB virtual machine, Intel Xeon at 2.1 GHz, CPython 3.11.7).
REFERENCE_S = 0.0210
PASSES = 5  # per measurement; the median is kept

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_RRTYPES = ("A", "AAAA", "CNAME", "TXT", "NULL", "PTR")


def _lines(n: int = 4000) -> list[str]:
    rng = Random(0)
    out = []
    for i in range(n):
        sub = "".join(rng.choice(_ALNUM) for _ in range(rng.randrange(6, 48)))
        sld = f"ref{i % 97}.example.com"
        out.append(
            json.dumps(
                {
                    "rrname": f"{sub}.{sld}.",
                    "domain": sld,
                    "rrtype": rng.choice(_RRTYPES),
                    "rdata": [f"10.{i % 256}.{rng.randrange(256)}.1"],
                    "time_first": 1498867200 + i,
                }
            )
        )
    return out


_LINES = _lines()


def reference_pass() -> float:
    """Wall seconds of one pass over the fixed lines."""
    start = time.perf_counter()
    names: dict[str, set[str]] = {}
    types: dict[str, int] = {}
    for line in _LINES:
        rec = json.loads(line)
        name = rec["rrname"].lower().rstrip(".")
        labels = name.split(".")
        sld = rec["domain"] if name.endswith(rec["domain"]) else ".".join(labels[-2:])
        names.setdefault(sld, set()).add(name)
        rrtype = rec["rrtype"].strip().upper()
        types[rrtype] = types.get(rrtype, 0) + 1
    return time.perf_counter() - start


def measure() -> float:
    """The median of PASSES reference passes, in seconds."""
    return statistics.median(reference_pass() for _ in range(PASSES))
