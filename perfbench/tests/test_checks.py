"""Tests of the benchmark's correctness checks.

Each workload is generated on two seeds, at the size the benchmark runs,
and run through the three commands; the checks must pass on the real
artifacts and fail on copies corrupted in one place each.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (3, 17)


def _pdnskit(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pdnskit", *map(str, args)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module", params=[(w, s) for w in workloads.WORKLOAD_NAMES for s in SEEDS],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def run(request, tmp_path_factory):
    name, seed = request.param
    w = workloads.build(name, seed)
    work = tmp_path_factory.mktemp(f"{name}-{seed}")
    config = work / "gen.json"
    config.write_text(json.dumps(w.gen_config()), encoding="utf-8")
    _pdnskit("gen", "--config", config, "--out", work / "corpus", "--name", w.corpus_name)
    corpus, labels = work / "corpus" / w.corpus_name, work / "corpus" / "corpus.labels.csv"
    for command in workloads.COMMANDS:
        _pdnskit(*w.command_args(command, corpus, labels, work / command))
    return w, work, checks.recount(corpus), workloads.expectations(w)


def _copy(work: Path, command: str, tmp_path: Path) -> Path:
    out = tmp_path / command
    shutil.copytree(work / command, out)
    return out


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_checks_pass_on_real_artifacts(run):
    w, work, rc, exp = run
    assert checks.check_stats(work / "stats", rc, w.dedup) == []
    assert checks.check_filter(work / "filter", rc, w.dedup, exp) == []
    assert checks.check_classify(work / "classify", rc, exp) == []


def test_expectations_follow_the_spec(run):
    w, _, rc, exp = run
    assert rc.lines == w.total_queries
    assert exp.candidates and exp.dropped_known_tunnels
    assert set(exp.dropped_known_tunnels) | exp.candidates <= set(exp.tunnel_profiles)
    assert bool(exp.watchlist_hits) == w.watchlist


def test_removed_candidate_fails(run, tmp_path):
    w, work, rc, exp = run
    out = _copy(work, "filter", tmp_path)
    _edit_json(out / "candidates.json", lambda r: r["candidates"].pop())
    assert checks.check_filter(out, rc, w.dedup, exp)


def test_changed_provider_volume_fails(run, tmp_path):
    w, work, rc, exp = run
    out = _copy(work, "filter", tmp_path)

    def edit(report):
        report["dropped_known_tunnels"][0]["entry_count"] += 1

    _edit_json(out / "candidates.json", edit)
    assert checks.check_filter(out, rc, w.dedup, exp)


def test_broken_stage_chain_fails(run, tmp_path):
    w, work, rc, exp = run
    out = _copy(work, "filter", tmp_path)

    def edit(rows):
        rows[2]["entries_in"] = str(int(rows[2]["entries_in"]) + 1)

    _edit_csv(out / "stage_counts.csv", edit)
    assert checks.check_filter(out, rc, w.dedup, exp)


def test_missing_watchlist_hit_fails(run, tmp_path):
    w, work, rc, exp = run
    if not w.watchlist:
        pytest.skip("workload runs filter without a watchlist")
    out = _copy(work, "filter", tmp_path)
    _edit_json(out / "candidates.json", lambda r: r["watchlist_hits"].pop())
    assert checks.check_filter(out, rc, w.dedup, exp)


def test_changed_rrtype_count_fails(run, tmp_path):
    w, work, rc, _ = run
    out = _copy(work, "stats", tmp_path)

    def edit(rows):
        rows[0]["count"] = str(int(rows[0]["count"]) + 1)

    _edit_csv(out / "rrtype_shares.csv", edit)
    assert checks.check_stats(out, rc, w.dedup)


def test_changed_distinct_fqdns_fails(run, tmp_path):
    w, work, rc, _ = run
    out = _copy(work, "stats", tmp_path)

    def edit(summary):
        summary["distinct_fqdns"] -= 1

    _edit_json(out / "stats_summary.json", edit)
    assert checks.check_stats(out, rc, w.dedup)


def test_misattributed_tunnel_fails(run, tmp_path):
    _, work, rc, exp = run
    out = _copy(work, "classify", tmp_path)
    tunnel = sorted(exp.tunnel_profiles)[0]

    def edit(rows):
        for row in rows:
            if row["sld"] == tunnel:
                row["implementation"] = "unknown"

    _edit_csv(out / "attributions.csv", edit)
    assert checks.check_classify(out, rc, exp)


def test_low_agreement_fails(run, tmp_path):
    _, work, rc, exp = run
    out = _copy(work, "classify", tmp_path)
    tunnel = sorted(exp.tunnel_profiles)[0]

    def edit(rows):
        for row in rows:
            if row["sld"] == tunnel:
                row["agreement"] = "0.500000"

    _edit_csv(out / "attributions.csv", edit)
    assert checks.check_classify(out, rc, exp)


def test_attributed_benign_sld_fails(run, tmp_path):
    _, work, rc, exp = run
    out = _copy(work, "classify", tmp_path)

    def edit(rows):
        benign = next(r for r in rows if r["sld"] not in exp.tunnel_profiles)
        benign["implementation"] = "iodine-null"

    _edit_csv(out / "attributions.csv", edit)
    assert checks.check_classify(out, rc, exp)


def test_rejected_records_fail(run, tmp_path):
    _, work, rc, exp = run
    out = _copy(work, "classify", tmp_path)

    def edit(stats):
        stats["rejected_by_error"] = {"BadRecord": 1}

    _edit_json(out / "ingest_stats.json", edit)
    assert checks.check_classify(out, rc, exp)


def test_accounting_identity(tmp_path):
    path = tmp_path / "ingest_stats.json"
    record = {"read": 10, "accepted": 7, "rejected_by_error": {"BadRecord": 1}, "deduplicated": 2}
    path.write_text(json.dumps(record), encoding="utf-8")
    assert checks.accounting_fault(tmp_path) is None
    record["accepted"] = 9
    path.write_text(json.dumps(record), encoding="utf-8")
    assert checks.accounting_fault(tmp_path)


def test_recount_sld_rule():
    assert checks.sld_of("a.b.tun.example.com", "example.com") == "example.com"
    assert checks.sld_of("a.b.example.com", "other.net") == "example.com"
    assert checks.sld_of("a.xample.com", "example.com") == "xample.com"
    assert checks.sld_of("5.4.3.10.in-addr.arpa", "10.in-addr.arpa") == "10.in-addr.arpa"


def test_workloads_are_seeded():
    for name in workloads.WORKLOAD_NAMES:
        assert workloads.build(name, 5).gen_config() == workloads.build(name, 5).gen_config()
        assert workloads.build(name, 5).gen_config() != workloads.build(name, 6).gen_config()
