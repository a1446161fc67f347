"""Command-line front end: stats, filter, classify, gen, report.

Exit codes: 0 success, 1 usage error, 2 fatal I/O, 3 config validation,
130 interrupt. Flag defaults mirror the pipeline defaults (types NULL,TXT;
level 4; two subdomains); a JSON config file can override defaults, and
explicit flags override the file.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from itertools import chain
from pathlib import Path
from typing import Optional

import click

from pdnskit import __version__
from pdnskit.ingest import (
    FirstSeenState,
    IngestStats,
    TruncatedInputError,
    UnreadableSourceError,
    first_seen_filter,
    read_stream,
)
from pdnskit.model import ConfigError, PublicSuffixList, RRType
from pdnskit.tables import read_domain_list, read_json, read_labels, write_json


# Each command imports the modules only it runs, so a process loads no more
# than its command needs. The two library functions a command looks up on
# this module with `getattr` are bound here on first use (PEP 562), so
# `cli.run_pipeline` and `cli.classify` resolve, and can be replaced to
# trace them, before any command has run.
def __getattr__(name: str):
    if name == "run_pipeline":
        from pdnskit.pipeline import run_pipeline as value
    elif name == "classify":
        from pdnskit.fingerprint import classify as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _apply_config_file(ctx: click.Context) -> None:
    """Fill parameters still at their defaults from --config JSON values,
    each checked and converted by its option's declared type."""
    path = ctx.params.get("config")
    if not path:
        return
    try:
        overrides = read_json(path)
    except OSError as exc:
        raise UnreadableSourceError(f"cannot open config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    params = {param.name: param for param in ctx.command.params}
    for name, value in overrides.items():
        if name not in ctx.params:
            raise ConfigError(f"config file {path}: unknown option {name!r}")
        source = ctx.get_parameter_source(name)
        if source == click.core.ParameterSource.DEFAULT:
            param = params[name]
            try:
                # click's integer types truncate 2.5 to 2 and read true as 1.
                if isinstance(param.type, click.types.IntParamType) and isinstance(value, (bool, float)):
                    raise click.BadParameter(f"{json.dumps(value)} is not an integer.", ctx, param)
                ctx.params[name] = param.type_cast_value(ctx, value)
            except click.BadParameter as exc:
                raise ConfigError(f"config file {path}: {exc.format_message()}") from exc


class RRTypeList(click.ParamType):
    """Record types as a comma-separated string or a JSON list of strings."""

    name = "types"

    def convert(self, value, param, ctx):
        names = value.split(",") if isinstance(value, str) else value
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            self.fail(f"expected a comma-separated string or a list of strings, got {value!r}", param, ctx)
        try:
            return frozenset(RRType.parse(n) for n in names if n.strip())
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


def _load_psl(path: Optional[str]) -> Optional[PublicSuffixList]:
    return PublicSuffixList.from_file(path) if path else None


@contextlib.contextmanager
def _staged(outdir: Path, artifacts: tuple[str, ...] = ()):
    """Yield a directory inside `outdir`, made if need be, to write a set into.
    On success, rename each file into `outdir` (so it may be a mount point)
    and remove the `artifacts` not written; on any failure, remove what was
    made, so `outdir` is left as it was."""
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # the last is the topmost
    outdir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging.", dir=outdir))
    try:
        yield staging
        written = sorted(staging.iterdir())
        for path in written:
            os.replace(path, outdir / path.name)
        for name in set(artifacts).difference(path.name for path in written):
            (outdir / name).unlink(missing_ok=True)
    except BaseException:
        shutil.rmtree(made[-1] if made else staging, ignore_errors=True)
        raise
    staging.rmdir()


def _run(ctx: click.Context, produce, artifacts: tuple[str, ...]) -> None:
    """Run a command that reads a corpus: resolve --config, read the inputs
    (first-seen only under --dedup), and stage into --out what
    `produce(params, stream, outdir)` writes, then `ingest_stats.json`.
    Exits 2 if an input was cut short, else echoes `produce`'s summary."""
    _apply_config_file(ctx)
    p = ctx.params
    stats = IngestStats()
    stream = chain.from_iterable(read_stream(path, fmt=p["fmt"], stats=stats) for path in p["inputs"])
    if p.get("dedup"):
        stream = first_seen_filter(stream, FirstSeenState(), stats=stats)
    outdir = Path(p["outdir"])
    with _staged(outdir, artifacts) as staging:
        summary = produce(p, stream, staging)
        write_json(staging / "ingest_stats.json", {
            "read": stats.read,
            "accepted": stats.accepted,
            "rejected_by_error": dict(sorted(stats.rejected_by_error.items())),
            "deduplicated": stats.deduplicated,
            "warnings": dict(sorted(stats.warnings.items())),
        })
    truncated = stats.rejected_by_error["TruncatedInput"]
    if truncated:
        raise TruncatedInputError(
            f"{truncated} gzip input(s) ended early; artifacts in {outdir} "
            "cover the records before the cut"
        )
    click.echo(f"{summary} -> {outdir}")


@click.group()
@click.version_option(version=__version__, prog_name="pdnskit")
def cli():
    """Passive-DNS measurement statistics and tunnel-candidate filtering."""


def _corpus_command(name: str, *options, optional: tuple[str, ...] = ()):
    """Register `produce` as the command `name`, run through `_run`. It takes
    CORPUS... --out DIR [--format] and `options`, then [--psl] [--config].
    `optional` names the files only some runs write into --out."""

    def register(produce):
        @click.pass_context
        def command(ctx, **_):
            _run(ctx, produce, optional)

        command.__doc__ = produce.__doc__
        for option in reversed((
            click.argument("inputs", nargs=-1, required=True),
            click.option("--out", "outdir", required=True, type=click.Path(file_okay=False)),
            click.option("--format", "fmt", type=click.Choice(["ndjson", "csv"]), default="ndjson"),
            *options,
            click.option("--psl", "psl_path", default=None, help="Public-suffix list file for SLD extraction."),
            click.option("--config", default=None, help="JSON file of option overrides (flags win)."),
        )):
            command = option(command)
        return cli.command(name)(command)

    return register


_DEDUP = click.option("--dedup/--no-dedup", default=False, help="Drop repeated rrnames (newly-observed semantics).")


# ----------------------------------------------------------------------


@_corpus_command(
    "stats",
    _DEDUP,
    click.option("--top", "top_n", default=10, show_default=True, type=click.IntRange(min=1), help="Rows in top-SLD tables."),
)
def cmd_stats(p, stream, outdir):
    """Aggregate measurement tables and series from pDNS inputs."""
    from pdnskit.stats import StatsBundle

    bundle = StatsBundle(psl=_load_psl(p["psl_path"])).accumulate_all(stream)
    bundle.emit_all(outdir, top_n=p["top_n"])
    if bundle.total == 0:
        click.echo("warning: no entries accumulated; tables contain headers only", err=True)
    return f"stats: {bundle.total} entries, {len(bundle.sld_rdata_sum)} SLDs"


# ----------------------------------------------------------------------


@_corpus_command(
    "filter",
    click.option("--types", default="NULL,TXT", show_default=True, type=RRTypeList(), help="Record types kept by the prefilter."),
    click.option("--min-level", default=4, show_default=True, type=click.IntRange(min=1)),
    click.option("--min-subdomains", default=2, show_default=True, type=click.IntRange(min=1), help="Distinct FQDNs an SLD needs to stay a candidate."),
    click.option("--cdn-list", default=None, help="File of CDN SLDs to drop at stage 1."),
    click.option("--tunnel-list", default=None, help="File of known tunnel SLDs (default: bundled provider list)."),
    click.option("--watchlist", default=None, help="File of IOC SLDs to annotate ('builtin' for the bundled example)."),
    click.option("--drop-daily-seen", is_flag=True, default=False, help="Drop SLDs seen on every observation day."),
    click.option("--drop-single-entry", is_flag=True, default=False, help="Drop SLDs left with a single entry."),
    click.option("--alexa", "alexa_path", default=None, help="Ranked domain list; candidates on it are dropped."),
    click.option("--observation-days", default=None, type=click.IntRange(min=1), help="Override the day count for --drop-daily-seen."),
    _DEDUP,
)
def cmd_filter(p, stream, outdir):
    """Reduce pDNS inputs to candidate tunnel SLDs with stage accounting."""
    from pdnskit.pipeline import FilterConfig, KnownLists, PostFilterConfig

    known = KnownLists.from_files(cdn=p["cdn_list"], known_tunnels=p["tunnel_list"], watchlist=p["watchlist"])
    alexa = read_domain_list(p["alexa_path"]) if p["alexa_path"] else frozenset()
    if p["alexa_path"] and not alexa:
        raise ConfigError(f"--alexa {p['alexa_path']}: the list holds no domains")
    cfg = FilterConfig(
        prefilter_types=p["types"],
        known=known,
        min_level=p["min_level"],
        min_distinct_fqdns=p["min_subdomains"],
        post_filters=PostFilterConfig(
            drop_daily_seen=p["drop_daily_seen"],
            drop_single_entry=p["drop_single_entry"],
            alexa_domains=alexa,
            observation_days=p["observation_days"],
        ),
        psl=_load_psl(p["psl_path"]),
    )
    report = getattr(sys.modules[__name__], "run_pipeline")(stream, cfg)
    report.write(outdir)
    return f"filter: {report.input_entries} entries -> {len(report.candidates)} candidate SLDs"


# ----------------------------------------------------------------------


@_corpus_command(
    "classify",
    click.option(
        "--profiles", "profiles_path", default=None, envvar="PDNSKIT_PROFILES",
        help="Implementation profile file (default: bundled; env PDNSKIT_PROFILES).",
    ),
    click.option("--labels", "labels_path", default=None, help="Labels sidecar; enables the confusion matrix."),
    click.option("--min-matches", default=6, show_default=True, type=click.IntRange(0, 8), help="Attribute threshold out of 8."),
    optional=("confusion_matrix.csv", "metrics.json"),
)
def cmd_classify(p, stream, outdir):
    """Attribute entries and SLDs to tunnel implementations."""
    from pdnskit.fingerprint import ClassifyTally, ProfileSet

    profiles = ProfileSet.from_file(p["profiles_path"]) if p["profiles_path"] else ProfileSet.default()
    labels = read_labels(p["labels_path"]) if p["labels_path"] else None
    classify, min_matches = getattr(sys.modules[__name__], "classify"), p["min_matches"]
    tally = ClassifyTally(profiles, _load_psl(p["psl_path"]), labels).add_all(
        (entry, classify(entry, profiles, min_matches=min_matches)) for entry in stream
    )
    metrics = tally.write(outdir)
    if metrics and metrics["tunnel_entries"]:
        click.echo(f"classify: tunnel accuracy {metrics['tunnel_accuracy']:.4f} over {metrics['tunnel_entries']} entries")
    return f"classify: {tally.entries} entries over {len(tally.totals)} SLDs"


# ----------------------------------------------------------------------


@cli.command("gen")
@click.option("--config", "config_path", default=None, help="Generator config JSON.")
@click.option("--demo", is_flag=True, default=False, help="Use the built-in demo corpus config.")
@click.option("--out", "outdir", required=True, type=click.Path(file_okay=False))
@click.option("--name", default="corpus.ndjson", show_default=True, help="Corpus file name (.gz compresses).")
@click.option("--seed", default=None, type=int, help="Override the config seed.")
@click.option("--profiles", "profiles_path", default=None, envvar="PDNSKIT_PROFILES")
def cmd_gen(config_path, demo, outdir, name, seed, profiles_path):
    """Generate a labeled synthetic corpus (NDJSON + labels sidecar)."""
    from pdnskit.fingerprint import ProfileSet
    from pdnskit.tunnelgen import GenConfig, demo_config, generate, write_corpus

    if demo == bool(config_path):
        raise click.UsageError("pass exactly one of --config or --demo")
    if name in ("", ".", "..") or "/" in name:
        raise click.UsageError(f"--name must be a bare file name, not {name!r}")
    cfg = demo_config() if demo else GenConfig.from_json_file(config_path)
    if seed is not None:
        cfg.seed = seed
    profiles = ProfileSet.from_file(profiles_path) if profiles_path else ProfileSet.default()
    entries = generate(cfg, profiles)  # checks the config before anything is made
    with _staged(Path(outdir)) as staging:
        corpus, labels = write_corpus(entries, staging / name)
    click.echo(f"gen: wrote {Path(outdir, corpus.name)} and {Path(outdir, labels.name)}")


# ----------------------------------------------------------------------


# Lines of attributions.csv, its header included, that `report` quotes.
_REPORT_ATT_LINES = 42


def _quote(path: Path, render) -> list[str]:
    """The report lines `render` makes of an artifact's text. An artifact
    that is not UTF-8, not the JSON `render` reads, or that gives a line no
    UTF-8 report can hold, is damaged: a fatal I/O error that names it."""
    try:
        lines = render(path.read_text(encoding="utf-8"))
        "\n".join(lines).encode()  # a \u escape that is a lone surrogate
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
        raise OSError(f"damaged artifact {path}: {type(exc).__name__}: {exc}") from None
    return lines


def _stats_lines(text: str) -> list[str]:
    summary = json.loads(text)
    return [
        f"corpus: {summary['total_entries']} entries, "
        f"{summary['distinct_slds']} SLDs, "
        f"{summary['distinct_fqdns']} distinct FQDNs "
        f"({summary['first_day']} .. {summary['last_day']})",
        "",
        "record type shares:",
        *(f"  {row['rrtype']:<8} {row['count']:>12}  {row['share'] * 100:6.2f}%" for row in summary["rrtype_shares"]),
        "",
        "top SLDs by entries:",
        *(f"  {row['sld']:<32} {row['count']:>12}  {row['share'] * 100:6.2f}%" for row in summary["top_slds"]),
        "",
    ]


def _attribution_lines(text: str) -> list[str]:
    att_lines = text.splitlines()
    more = ["  ..."] if len(att_lines) > _REPORT_ATT_LINES else []
    return ["implementation attributions per SLD:", *(f"  {line}" for line in att_lines[:_REPORT_ATT_LINES]), *more]


def _accuracy_lines(text: str) -> list[str]:
    metrics = json.loads(text)
    if metrics.get("tunnel_accuracy") is None:
        return []
    return ["", f"labeled accuracy: {metrics['tunnel_accuracy']:.4f} "
                f"over {metrics['tunnel_entries']} tunnel entries"]


@cli.command("report")
@click.option("--stats", "stats_dir", default=None, type=click.Path(file_okay=False))
@click.option("--filter", "filter_dir", default=None, type=click.Path(file_okay=False))
@click.option("--classify", "classify_dir", default=None, type=click.Path(file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_report(stats_dir, filter_dir, classify_dir, out_path):
    """Combine stats/filter/classify artifacts into one text summary."""
    if not (stats_dir or filter_dir or classify_dir):
        raise click.UsageError("pass at least one of --stats/--filter/--classify")
    lines = ["passive-DNS analysis summary", "=" * 28, ""]
    if stats_dir:
        lines += _quote(Path(stats_dir) / "stats_summary.json", _stats_lines)
    if filter_dir:
        lines += _quote(Path(filter_dir) / "candidates.txt", lambda text: [text.rstrip(), ""])
    if classify_dir:
        lines += _quote(Path(classify_dir) / "attributions.csv", _attribution_lines)
        metrics_path = Path(classify_dir) / "metrics.json"
        if metrics_path.exists():
            lines += _quote(metrics_path, _accuracy_lines)
        lines.append("")
    out_path = Path(out_path)
    with _staged(out_path.parent) as staging:
        (staging / out_path.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"report: wrote {out_path}")


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="pdnskit", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:  # Ctrl-C; click has ended the ^C line
        click.echo("interrupted", err=True)
        return 130
    except click.ClickException as exc:
        exc.show()
        return 1
    except ConfigError as exc:  # the generator's and profile errors subclass it
        click.echo(f"config error: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
