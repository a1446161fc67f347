"""The traced per-layer pass: pdnskit's public functions, timed in process.

Each command runs twice through `pdnskit.cli.main` in this process: once
untraced, once with `hooks` installed. The difference is the tracing
overhead. Layers a command does not cover on its own (generation, raw JSON
decoding, the first-seen filter, retained stats state) get their own small
passes over the same corpus.
"""

from __future__ import annotations

import gc
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

from checks import open_text
from spans import Tracer, patched
from workloads import COMMANDS

STARTUP_REPEATS = 5


def _load_pdnskit(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from pdnskit import cli, fingerprint, ingest, pipeline, stats, tunnelgen

    return cli, fingerprint, ingest, pipeline, stats, tunnelgen


class _Observed:
    """Facts the hooks read off return values while a traced command runs."""

    def __init__(self):
        self.provider_rule = 0
        self.stage0_in = 0
        self.stage0_out = 0

    def on_attribution(self, result) -> None:
        if getattr(result, "provider_rule", False):
            self.provider_rule += 1

    def on_report(self, report) -> None:
        for stage in getattr(report, "stage_counts", ()):
            if stage.stage_id == "0":
                self.stage0_in += stage.entries_in
                self.stage0_out += stage.entries_out


def hooks(tracer: Tracer, observed: _Observed, modules) -> list:
    """(owner, attribute, wrapper) for every hooked function that exists."""
    cli, fingerprint, ingest, pipeline, stats, _ = modules
    targets = []

    def add(owner, attr, name, iterator=False, on_result=None):
        tracer.aggregate(name)  # a function no longer present reports zero calls
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        wrapper = tracer.wrap_iter(name, fn) if iterator else tracer.wrap(name, fn, on_result)
        targets.append((owner, attr, wrapper))

    # The CLI binds these names at import, so they are hooked where it looks them up.
    add(cli, "read_stream", "ingest.read_stream", iterator=True)
    add(cli, "first_seen_filter", "ingest.first_seen_filter", iterator=True)
    add(cli, "run_pipeline", "pipeline.run_pipeline", on_result=observed.on_report)
    add(cli, "classify", "fingerprint.classify", on_result=observed.on_attribution)
    add(ingest, "parse_record", "ingest.parse_record")
    add(ingest, "parse_fqdn", "model.parse_fqdn")
    add(stats.StatsBundle, "accumulate", "stats.accumulate")
    add(stats.StatsBundle, "emit_all", "stats.emit_all")
    add(pipeline.CandidateReport, "write", "pipeline.report_write")
    add(fingerprint, "extract_attributes", "fingerprint.extract_attributes")
    add(fingerprint, "detect_encoding", "fingerprint.detect_encoding")
    add(fingerprint, "match_profile", "fingerprint.match_profile")
    return targets


def _run_cli(cli, args: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(args)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_pass(w, root: Path, env: dict, work: Path, corpus: Path, labels: Path, gen_config: Path, check):
    """Run the per-layer pass. `check(command, outdir)` returns (fault,
    errors) for one command's artifacts, as in run.py. Returns (metrics,
    attempted, failed, errors, failures, trace document)."""
    modules = _load_pdnskit(root / "src")
    cli, fingerprint, ingest, _, stats, tunnelgen = modules
    tracer = Tracer()
    metrics: dict[str, float] = {}
    errors: list[str] = []
    failures: list[str] = []

    # Start-up: what every command pays before reading its first record.
    startup = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "pdnskit", "--help"],
            check=True,
            stdout=subprocess.DEVNULL,
            env=env,
        )
        startup.append(time.perf_counter() - t0)
    metrics["cli.startup_ms"] = statistics.median(startup) * 1e3

    # Generation, split into building the entries and writing them out.
    cfg = tunnelgen.GenConfig.from_json_file(gen_config)
    profiles = fingerprint.ProfileSet.default()
    with tracer.span("tunnelgen.generate"):
        generated = list(tunnelgen.generate(cfg, profiles))
    with tracer.span("tunnelgen.write_corpus"):
        tunnelgen.write_corpus(generated, work / "trace-gen" / w.corpus_name)
    n_generated = len(generated)
    del generated
    agg = tracer.aggregates
    metrics["tunnelgen.generate.us_per_entry"] = agg["tunnelgen.generate"].total_ns / 1e3 / n_generated
    metrics["tunnelgen.write_corpus.us_per_entry"] = (
        agg["tunnelgen.write_corpus"].total_ns / 1e3 / n_generated
    )

    # The floor under read_stream: decoding the same lines with json.loads.
    n_lines = 0
    with tracer.span("ingest.json_decode"):
        with open_text(corpus) as fh:
            for line in fh:
                json.loads(line)
                n_lines += 1
    metrics["ingest.json_decode.us_per_record"] = agg["ingest.json_decode"].total_ns / 1e3 / n_lines

    # First-seen filter over parsed entries, on both workloads, so the
    # figure shows what dedup costs even where a workload does not run it.
    entries = list(ingest.read_stream(corpus))
    with tracer.span("standalone.first_seen_filter"):
        kept = sum(1 for _ in ingest.first_seen_filter(entries, ingest.FirstSeenState()))
    metrics["ingest.first_seen_filter.us_per_entry"] = (
        agg["standalone.first_seen_filter"].total_ns / 1e3 / len(entries)
    )
    metrics["ingest.first_seen_filter.kept_ratio"] = kept / len(entries)
    del entries

    # Retained stats state, in a pass of its own: tracemalloc slows every
    # allocation, so no timing is taken here.
    metrics["stats.state_bytes_per_entry"] = _state_bytes_per_entry(ingest, stats, corpus, w.dedup)

    # The three commands, untraced and then traced.
    observed = _Observed()
    attempted = failed = 0
    untraced_s = traced_s = 0.0
    for command in COMMANDS:
        for traced in (False, True):
            out = work / f"inproc-{command}-{'traced' if traced else 'plain'}"
            args = w.command_args(command, corpus, labels, out)
            attempted += 1
            gc.collect()
            t0 = time.perf_counter()
            if traced:
                with patched(hooks(tracer, observed, modules)), tracer.span(f"cli.{command}"):
                    code = _run_cli(cli, args)
            else:
                code = _run_cli(cli, args)
            elapsed = time.perf_counter() - t0
            if traced:
                traced_s += elapsed
            else:
                untraced_s += elapsed
            if code != 0:
                failed += 1
                failures.append(f"in-process {command} exited {code}")
                continue
            fault, errs = check(command, out)
            errors += errs
            if fault:
                failed += 1
                failures.append(f"in-process {command}: {fault}")

    def total(name):
        return agg[name].total_ns / 1e3

    def count(name):
        return agg[name].count

    records = count("ingest.read_stream")
    metrics["ingest.read_stream.us_per_record"] = _per(total("ingest.read_stream"), records)
    metrics["ingest.parse_record.us_per_record"] = _per(
        total("ingest.parse_record"), count("ingest.parse_record")
    )
    metrics["model.parse_fqdn.us_per_call"] = _per(total("model.parse_fqdn"), count("model.parse_fqdn"))
    metrics["model.parse_fqdn.calls_per_record"] = _per(
        count("model.parse_fqdn"), count("ingest.parse_record")
    )
    metrics["stats.accumulate.us_per_entry"] = _per(total("stats.accumulate"), count("stats.accumulate"))
    metrics["stats.emit_all.ms"] = _per(total("stats.emit_all"), count("stats.emit_all")) / 1e3
    metrics["pipeline.run_pipeline.us_per_entry"] = _per(
        agg["pipeline.run_pipeline"].self_ns / 1e3, observed.stage0_in
    )
    metrics["pipeline.stage0_pass_ratio"] = _per(observed.stage0_out, observed.stage0_in)
    metrics["pipeline.report_write.ms"] = (
        _per(total("pipeline.report_write"), count("pipeline.report_write")) / 1e3
    )
    n_classified = count("fingerprint.classify")
    metrics["fingerprint.classify.us_per_entry"] = _per(total("fingerprint.classify"), n_classified)
    metrics["fingerprint.extract_attributes.us_per_entry"] = _per(
        total("fingerprint.extract_attributes"), count("fingerprint.extract_attributes")
    )
    metrics["fingerprint.detect_encoding.us_per_call"] = _per(
        total("fingerprint.detect_encoding"), count("fingerprint.detect_encoding")
    )
    metrics["fingerprint.match_profile.us_per_call"] = _per(
        total("fingerprint.match_profile"), count("fingerprint.match_profile")
    )
    metrics["fingerprint.match_profile.calls_per_entry"] = _per(
        count("fingerprint.match_profile"), n_classified
    )
    metrics["fingerprint.provider_rule_ratio"] = _per(observed.provider_rule, n_classified)
    metrics["trace.overhead_ratio"] = _per(traced_s - untraced_s, untraced_s)

    document = tracer.to_json()
    document["commands"] = {"untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, attempted, failed, errors, failures, document


def _state_bytes_per_entry(ingest, stats, corpus: Path, dedup: bool) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        bundle = stats.StatsBundle()
        stream = ingest.read_stream(corpus)
        if dedup:
            stream = ingest.first_seen_filter(stream, ingest.FirstSeenState())
        bundle.accumulate_all(stream)
        del stream  # frees the reader and the dedup state; the bundle stays
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / bundle.total

