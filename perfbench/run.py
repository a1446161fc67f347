#!/usr/bin/env python3
"""pdnskit benchmark: the CLI commands users run, over a generated pDNS feed.

    python3 perfbench/run.py --workload feed-mix --seed 1 --seconds 45 --trace 0

Set-up runs `pdnskit gen` (five times, each into a fresh directory) to
write the workload's corpus and labels sidecar. With `--trace 0` the
benchmark then runs whole rounds of `stats`, `filter` and `classify`, each
as its own `python -m pdnskit` process, until `--seconds` have passed, and
checks every artifact (see checks.py). It reports throughput and each
child's own peak RSS, as medians over the rounds. Throughput and set-up
time are scaled to the speed of a fixed reference pass timed around each
process (see reference.py). With `--trace 1` it runs the in-process
per-layer pass instead (see layers.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The same object, plus
diagnostics, is written to perfbench/runs/; the trace of a `--trace 1` run
goes there too. Run from the repository root; pdnskit is imported from
src/ through PYTHONPATH, since it need not be installed.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MAX_ERRORS_SHOWN = 20


class SetupError(RuntimeError):
    """The workload could not be generated; no measurement is possible."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(args: list[str], log: Path) -> dict:
    """Run one process to its end, between two reference measurements.

    Returns the exit `code`, the `wall_s` seconds, the `reference_s` of the
    reference pass around it, `scaled_s` (the wall time at reference speed,
    see reference.py) and the `maxrss_mb` peak RSS. The RSS is the child's
    own, from the rusage `wait4` returns for it in spawn.py (which says why
    the launcher is needed).
    """
    before = reference.measure()
    launched = subprocess.run(
        [sys.executable, str(HERE / "spawn.py"), str(log), *args],
        env=child_env(),
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    out = json.loads(launched.stdout)
    out["reference_s"] = (before + reference.measure()) / 2
    out["scaled_s"] = out["wall_s"] * reference.REFERENCE_S / out["reference_s"]
    return out


def pdnskit(*args) -> list[str]:
    return [sys.executable, "-m", "pdnskit", *map(str, args)]


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _content_digest(path: Path) -> str:
    """Digest of the decompressed content; a gzip header carries a mtime."""
    opener = gzip.open if path.name.endswith(".gz") else open
    digest = hashlib.sha256()
    with opener(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def set_up(w: workloads.Workload, work: Path, repeats: int) -> tuple[Path, Path, Path, list[dict]]:
    """Generate the corpus `repeats` times; returns (config, corpus, labels,
    the `run_child` timings of each `gen`). Every repeat must write the same
    content."""
    config = work / "gen.json"
    config.write_text(json.dumps(w.gen_config()), encoding="utf-8")
    times, digests = [], set()
    for i in range(repeats):
        out = work / f"setup-{i}"
        log = work / f"gen-{i}.log"
        child = run_child(
            pdnskit("gen", "--config", config, "--out", out, "--name", w.corpus_name), log
        )
        if child["code"] != 0:
            raise SetupError(f"pdnskit gen exited {child['code']}: {_tail(log)}")
        times.append({k: child[k] for k in ("wall_s", "reference_s", "scaled_s")})
        corpus, labels = out / w.corpus_name, out / "corpus.labels.csv"
        digests.add((_content_digest(corpus), _content_digest(labels)))
        if i + 1 < repeats:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise SetupError("pdnskit gen wrote different corpora for one config")
    return config, corpus, labels, times


def artifact_checker(w: workloads.Workload, rc: checks.Recount, exp: workloads.Expectations):
    """check(command, outdir) -> (fault, errors) for one command's artifacts.

    `fault` is set when the ingest accounting identity breaks, and the
    operation then counts as failed; `errors` are wrong or missing outputs.
    """

    def check(command: str, out: Path) -> tuple[str | None, list[str]]:
        if command == "stats":
            errors = checks.check_stats(out, rc, w.dedup)
        elif command == "filter":
            errors = checks.check_filter(out, rc, w.dedup, exp)
        else:
            errors = checks.check_classify(out, rc, exp)
        if not (out / "ingest_stats.json").is_file():
            return None, errors
        return checks.accounting_fault(out), errors

    return check


def measure(w, work: Path, corpus: Path, labels: Path, seconds: float, check) -> dict:
    """Whole rounds of the three commands until `seconds` have passed.

    Every run that exits 0 and writes its ingest counts gives a sample,
    including one whose ingest accounting fails: its tables are checked and
    its time is real.
    """
    samples = {c: [] for c in workloads.COMMANDS}  # one dict per run
    attempted = failed = rounds = 0
    errors: list[str] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        for command in workloads.COMMANDS:
            out = work / "out" / command
            shutil.rmtree(out, ignore_errors=True)
            log = work / f"{command}.log"
            child = run_child(pdnskit(*w.command_args(command, corpus, labels, out)), log)
            attempted += 1
            if child["code"] != 0:
                failed += 1
                failures.append(f"{command} exited {child['code']}: {_tail(log)}")
                continue
            fault, errs = check(command, out)
            errors += errs
            stats_path = out / "ingest_stats.json"
            if not stats_path.is_file():
                # The check has recorded it as missing; there is no count to time.
                failed += 1
                failures.append(f"{command}: wrote no ingest_stats.json")
                continue
            if fault:
                failed += 1
                failures.append(f"{command}: {fault}")
            with open(stats_path, "r", encoding="utf-8") as fh:
                read = json.load(fh)["read"]
            samples[command].append(
                {
                    "eps": read / child["scaled_s"],
                    "raw_eps": read / child["wall_s"],
                    "reference_s": child["reference_s"],
                    "rss_mb": child["maxrss_mb"],
                }
            )
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for command in workloads.COMMANDS:
        if not samples[command]:
            raise SetupError(f"every {command} run failed; nothing to report")
        metrics[f"{command}_eps"] = statistics.median(s["eps"] for s in samples[command])
        metrics[f"{command}_rss_mb"] = statistics.median(s["rss_mb"] for s in samples[command])
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "failures": failures,
        "metrics": metrics,
        "rounds": rounds,
        "samples": samples,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(args, work: Path) -> tuple[dict, dict]:
    w = workloads.build(args.workload, args.seed)
    exp = workloads.expectations(w)
    repeats = 1 if args.trace else SETUP_REPEATS
    config, corpus, labels, setup_times = set_up(w, work, repeats)
    rc = checks.recount(corpus)
    check = artifact_checker(w, rc, exp)
    extra: dict = {"workload": w.name, "seed": args.seed, "records": rc.lines}
    if args.trace:
        values, attempted, failed, errors, failures, document = layers.traced_pass(
            w, ROOT, child_env(), work, corpus, labels, config, check
        )
        extra["trace"] = document
        units = declared_units("per_layer")
    else:
        m = measure(w, work, corpus, labels, args.seconds, check)
        attempted, failed, errors, failures = m["attempted"], m["failed"], m["errors"], m["failures"]
        values = dict(m["metrics"], setup_s=statistics.median(t["scaled_s"] for t in setup_times))
        extra.update(rounds=m["rounds"], samples=m["samples"], setup_times=setup_times)
        units = declared_units("end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise SetupError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    extra["errors"] = errors
    extra["failures"] = failures
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pdnskit" / "cli.py").is_file():
        print(f"perfbench: no pdnskit source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RUNS))
    try:
        result, extra = run(args, work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RUNS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, **extra), fh, indent=1)
    for failure in sorted(set(extra["failures"])):
        print(f"perfbench: failed operation: {failure}", file=sys.stderr)
    for error in extra["errors"][:MAX_ERRORS_SHOWN]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
