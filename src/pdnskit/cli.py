"""Command-line front end: stats, filter, classify, gen, report.

Exit codes: 0 success, 1 usage error, 2 fatal I/O, 3 config validation.
Flag defaults mirror the pipeline defaults (types NULL,TXT; level 4;
two subdomains); a JSON config file can override defaults, and explicit
flags override the file.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
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
from pdnskit.model import ConfigError, PublicSuffixList, RRType, sld_name
from pdnskit.tables import fmt_share, read_domain_list, read_labels, write_csv, write_json


# Each command imports the modules only it runs, so a process loads no more
# than its command needs. The two library functions a command calls through
# this module's namespace are bound here on first use (PEP 562), so
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


def _bound(name: str):
    """The function bound at `cli.<name>`, as the command must call it."""
    return globals().get(name) or __getattr__(name)


def _apply_config_file(ctx: click.Context) -> None:
    """Fill parameters still at their defaults from --config JSON values,
    each checked and converted by its option's declared type."""
    path = ctx.params.get("config")
    if not path:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise UnreadableSourceError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


def _input_streams(inputs, fmt, stats: IngestStats, dedup: bool):
    stream = (entry for path in inputs for entry in read_stream(path, fmt=fmt, stats=stats))
    return first_seen_filter(stream, FirstSeenState(), stats=stats) if dedup else stream


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


def _write_ingest_stats(outdir: Path, stats: IngestStats) -> None:
    """Write `ingest_stats.json`, a command's last artifact. Then, if an
    input was cut short, fail with exit 2: the artifacts cover only the
    records before the cut."""
    write_json(
        outdir / "ingest_stats.json",
        {
            "read": stats.read,
            "accepted": stats.accepted,
            "rejected_by_error": dict(sorted(stats.rejected_by_error.items())),
            "deduplicated": stats.deduplicated,
            "warnings": dict(sorted(stats.warnings.items())),
        },
    )
    truncated = stats.rejected_by_error["TruncatedInput"]
    if truncated:
        raise TruncatedInputError(
            f"{truncated} gzip input(s) ended early; artifacts in {outdir} "
            "cover the records before the cut"
        )


@click.group()
@click.version_option(version=__version__, prog_name="pdnskit")
def cli():
    """Passive-DNS measurement statistics and tunnel-candidate filtering."""


# ----------------------------------------------------------------------


@cli.command("stats")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", "outdir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["ndjson", "csv"]), default="ndjson")
@click.option("--dedup/--no-dedup", default=False, help="Drop repeated rrnames (newly-observed semantics).")
@click.option("--psl", "psl_path", default=None, help="Public-suffix list file for SLD extraction.")
@click.option("--top", "top_n", default=10, show_default=True, type=click.IntRange(min=1), help="Rows in top-SLD tables.")
@click.option("--config", default=None, help="JSON file of option overrides (flags win).")
@click.pass_context
def cmd_stats(ctx, inputs, outdir, fmt, dedup, psl_path, top_n, config):
    """Aggregate measurement tables and series from pDNS inputs."""
    from pdnskit.stats import StatsBundle

    _apply_config_file(ctx)
    fmt, dedup, psl_path = ctx.params["fmt"], ctx.params["dedup"], ctx.params["psl_path"]
    top_n = ctx.params["top_n"]
    stats = IngestStats()
    stream = _input_streams(inputs, fmt, stats, dedup)
    bundle = StatsBundle(psl=_load_psl(psl_path)).accumulate_all(stream)
    outdir = Path(outdir)
    bundle.emit_all(outdir, top_n=top_n)
    _write_ingest_stats(outdir, stats)
    if bundle.total == 0:
        click.echo("warning: no entries accumulated; tables contain headers only", err=True)
    click.echo(f"stats: {bundle.total} entries, {len(bundle.sld_entries)} SLDs -> {outdir}")


# ----------------------------------------------------------------------


@cli.command("filter")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", "outdir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["ndjson", "csv"]), default="ndjson")
@click.option("--types", default="NULL,TXT", show_default=True, type=RRTypeList(), help="Record types kept by the prefilter.")
@click.option("--min-level", default=4, show_default=True)
@click.option("--min-subdomains", default=2, show_default=True, help="Distinct FQDNs an SLD needs to stay a candidate.")
@click.option("--cdn-list", default=None, help="File of CDN SLDs to drop at stage 1.")
@click.option("--tunnel-list", default=None, help="File of known tunnel SLDs (default: bundled provider list).")
@click.option("--watchlist", default=None, help="File of IOC SLDs to annotate ('builtin' for the bundled example).")
@click.option("--drop-daily-seen", is_flag=True, default=False, help="Drop SLDs seen on every observation day.")
@click.option("--drop-single-entry", is_flag=True, default=False, help="Drop SLDs left with a single entry.")
@click.option("--alexa", "alexa_path", default=None, help="Ranked domain list; candidates on it are dropped.")
@click.option("--observation-days", default=None, type=int, help="Override the day count for --drop-daily-seen.")
@click.option("--dedup/--no-dedup", default=False)
@click.option("--psl", "psl_path", default=None)
@click.option("--config", default=None, help="JSON file of option overrides (flags win).")
@click.pass_context
def cmd_filter(
    ctx, inputs, outdir, fmt, types, min_level, min_subdomains, cdn_list,
    tunnel_list, watchlist, drop_daily_seen, drop_single_entry, alexa_path,
    observation_days, dedup, psl_path, config,
):
    """Reduce pDNS inputs to candidate tunnel SLDs with stage accounting."""
    from pdnskit.pipeline import FilterConfig, KnownLists, PostFilterConfig

    _apply_config_file(ctx)
    p = ctx.params
    watchlist = p["watchlist"]
    if watchlist == "builtin":
        known = KnownLists.from_files(cdn=p["cdn_list"], known_tunnels=p["tunnel_list"])
        known = KnownLists(
            cdn=known.cdn,
            known_tunnels=known.known_tunnels,
            watchlist=KnownLists.default(include_watchlist=True).watchlist,
        )
    else:
        known = KnownLists.from_files(
            cdn=p["cdn_list"], known_tunnels=p["tunnel_list"], watchlist=watchlist
        )
    alexa = read_domain_list(p["alexa_path"]) if p["alexa_path"] else frozenset()
    cfg = FilterConfig(
        prefilter_types=p["types"],
        known=known,
        min_level=p["min_level"],
        min_distinct_fqdns=p["min_subdomains"],
        post_filters=PostFilterConfig(
            drop_daily_seen=p["drop_daily_seen"],
            drop_single_entry=p["drop_single_entry"],
            drop_alexa_top=bool(p["alexa_path"]),
            alexa_domains=alexa,
            observation_days=p["observation_days"],
        ),
        psl=_load_psl(p["psl_path"]),
    )
    stats = IngestStats()
    stream = _input_streams(inputs, p["fmt"], stats, p["dedup"])
    report = _bound("run_pipeline")(stream, cfg)
    outdir = Path(outdir)
    report.write(outdir)
    _write_ingest_stats(outdir, stats)
    click.echo(
        f"filter: {report.input_entries} entries -> {len(report.candidates)} candidate SLDs -> {outdir}"
    )


# ----------------------------------------------------------------------


@cli.command("classify")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", "outdir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["ndjson", "csv"]), default="ndjson")
@click.option(
    "--profiles", "profiles_path", default=None, envvar="PDNSKIT_PROFILES",
    help="Implementation profile file (default: bundled; env PDNSKIT_PROFILES).",
)
@click.option("--labels", "labels_path", default=None, help="Labels sidecar; enables the confusion matrix.")
@click.option("--min-matches", default=6, show_default=True, type=click.IntRange(0, 8), help="Attribute threshold out of 8.")
@click.option("--psl", "psl_path", default=None)
@click.option("--config", default=None, help="JSON file of option overrides (flags win).")
@click.pass_context
def cmd_classify(ctx, inputs, outdir, fmt, profiles_path, labels_path, min_matches, psl_path, config):
    """Attribute entries and SLDs to tunnel implementations."""
    from pdnskit.fingerprint import UNKNOWN, ProfileSet, SldVotes

    _apply_config_file(ctx)
    p = ctx.params
    profiles = (
        ProfileSet.from_file(p["profiles_path"]) if p["profiles_path"] else ProfileSet.default()
    )
    psl = _load_psl(p["psl_path"])
    min_matches = p["min_matches"]
    labels = read_labels(p["labels_path"]) if p["labels_path"] else None
    stats = IngestStats()
    stream = _input_streams(inputs, p["fmt"], stats, dedup=False)

    classify = _bound("classify")
    votes = SldVotes()
    confusion: Counter = Counter()
    n_entries = 0
    for entry in stream:
        n_entries += 1
        result = classify(entry, profiles, min_matches=min_matches)
        votes.add(sld_name(entry, psl), result)
        if labels is not None:
            kind, cls = labels.get(entry.rrname.name, ("?", "?"))
            truth = cls if kind == "tunnel" else f"benign:{cls}"
            confusion[(truth, result.implementation)] += 1

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    totals = votes.totals
    for sld in sorted(totals, key=lambda s: (-totals[s], s)):
        att = votes.resolve(sld, profiles)
        rows.append(
            (
                sld,
                att.implementation,
                fmt_share(att.agreement),
                fmt_share(att.unknown_fraction),
                att.entry_count,
            )
        )
    write_csv(
        outdir / "attributions.csv",
        ("sld", "implementation", "agreement", "unknown_fraction", "entry_count"),
        rows,
    )
    if labels is not None:
        write_csv(
            outdir / "confusion_matrix.csv",
            ("true_class", "predicted", "count"),
            [(t, pred, c) for (t, pred), c in sorted(confusion.items())],
        )
        tunnel_total = sum(c for (t, _), c in confusion.items() if not t.startswith("benign:") and t != "?")
        tunnel_correct = sum(c for (t, pred), c in confusion.items() if t == pred)
        benign_total = sum(c for (t, _), c in confusion.items() if t.startswith("benign:"))
        benign_unknown = sum(
            c for (t, pred), c in confusion.items() if t.startswith("benign:") and pred == UNKNOWN
        )
        metrics = {
            "entries": n_entries,
            "tunnel_entries": tunnel_total,
            "tunnel_correct": tunnel_correct,
            "tunnel_accuracy": round(tunnel_correct / tunnel_total, 6) if tunnel_total else None,
            "benign_entries": benign_total,
            "benign_unknown": benign_unknown,
            "benign_unknown_rate": round(benign_unknown / benign_total, 6) if benign_total else None,
        }
        write_json(outdir / "metrics.json", metrics)
        if tunnel_total:
            click.echo(f"classify: tunnel accuracy {metrics['tunnel_accuracy']:.4f} over {tunnel_total} entries")
    _write_ingest_stats(outdir, stats)
    click.echo(f"classify: {n_entries} entries over {len(totals)} SLDs -> {outdir}")


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
    cfg = demo_config() if demo else GenConfig.from_json_file(config_path)
    if seed is not None:
        cfg.seed = seed
    profiles = ProfileSet.from_file(profiles_path) if profiles_path else ProfileSet.default()
    corpus_path = Path(outdir) / name
    corpus, labels = write_corpus(generate(cfg, profiles), corpus_path)
    click.echo(f"gen: wrote {corpus} and {labels}")


# ----------------------------------------------------------------------


# Lines of attributions.csv, its header included, that `report` quotes.
_REPORT_ATT_LINES = 42


def _require(path: Path) -> Path:
    if not path.exists():
        raise click.FileError(str(path), hint="expected artifact is missing")
    return path


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
        summary_path = _require(Path(stats_dir) / "stats_summary.json")
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        lines.append(f"corpus: {summary['total_entries']} entries, "
                     f"{summary['distinct_slds']} SLDs, "
                     f"{summary['distinct_fqdns']} distinct FQDNs "
                     f"({summary['first_day']} .. {summary['last_day']})")
        lines.append("")
        lines.append("record type shares:")
        for row in summary["rrtype_shares"]:
            lines.append(f"  {row['rrtype']:<8} {row['count']:>12}  {row['share'] * 100:6.2f}%")
        lines.append("")
        lines.append("top SLDs by entries:")
        for row in summary["top_slds"]:
            lines.append(f"  {row['sld']:<32} {row['count']:>12}  {row['share'] * 100:6.2f}%")
        lines.append("")
    if filter_dir:
        candidates_path = _require(Path(filter_dir) / "candidates.txt")
        lines.append(candidates_path.read_text(encoding="utf-8").rstrip())
        lines.append("")
    if classify_dir:
        att_path = _require(Path(classify_dir) / "attributions.csv")
        lines.append("implementation attributions per SLD:")
        att_lines = att_path.read_text(encoding="utf-8").splitlines()
        lines.extend(f"  {line}" for line in att_lines[:_REPORT_ATT_LINES])
        if len(att_lines) > _REPORT_ATT_LINES:
            lines.append("  ...")
        metrics_path = Path(classify_dir) / "metrics.json"
        if metrics_path.exists():
            metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
            if metrics.get("tunnel_accuracy") is not None:
                lines.append("")
                lines.append(f"labeled accuracy: {metrics['tunnel_accuracy']:.4f} "
                             f"over {metrics['tunnel_entries']} tunnel entries")
        lines.append("")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    click.echo(f"report: wrote {out_path}")


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="pdnskit", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.FileError as exc:
        exc.show()
        return 2
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
