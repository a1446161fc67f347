"""Command-line front end: stats, filter, classify, gen, report.

Exit codes: 0 success, 1 usage error, 2 fatal I/O, 3 config validation,
130 interrupt, 143 SIGTERM (129 SIGHUP). Flag defaults mirror the pipeline
defaults (types NULL,TXT; level 4; two subdomains). Each option's value
comes from its flag, else (for --profiles) a non-empty PDNSKIT_PROFILES,
else the --config JSON file of a command that reads a corpus, else its
default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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


class UsageError(Exception):
    """A command line that cannot run as given: exit 1."""


# ----------------------------------------------------------------------
# Options. A converter takes an option's value, as flag text (`flag` true)
# or as the JSON value a --config file holds, and returns what the command
# reads; its ValueError says what is wrong with the value.


def _shown(value, flag: bool) -> str:
    return repr(value) if flag else json.dumps(value)


def _path(value, flag: bool) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{_shown(value, flag)} is not a string.")
    if "\0" in value:
        raise ValueError(f"{_shown(value, flag)} holds a NUL character, which no file name can.")
    return value


def _switch(value, flag: bool) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{_shown(value, flag)} is not true or false.")
    return value


def _integer(low: Optional[int] = None, high: Optional[int] = None):
    """Integers within [low, high] where given: flag text `int` reads, or a
    JSON integer (not a float, not `true`)."""
    bounds = f"{low}<=x<={high}" if high is not None else f"x>={low}" if low is not None else ""

    def convert(value, flag: bool) -> int:
        if flag:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"{value!r} is not a valid integer{' range' if bounds else ''}.") from None
        elif not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{json.dumps(value)} is not an integer.")
        if (low is not None and value < low) or (high is not None and value > high):
            raise ValueError(f"{value} is not in the range {bounds}.")
        return value

    return convert


def _choice(*choices: str):
    def convert(value, flag: bool) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"{_shown(value, flag)} is not one of {', '.join(map(repr, choices))}.")
        return value

    return convert


def _types(value, flag: bool) -> frozenset[RRType]:
    """Record types as a comma-separated string or, from a config file, a
    JSON list of strings."""
    names = value.split(",") if isinstance(value, str) else value
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"expected a comma-separated string or a list of strings, got {value!r}")
    types = frozenset(RRType.parse(n) for n in names if n.strip())
    if not types:
        raise ValueError(f"{_shown(value, flag)} names no record type.")
    return types


def _directory(value, flag: bool) -> str:
    if os.path.isfile(_path(value, flag)):
        raise ValueError(f"Directory {value!r} is a file.")
    return value


def _file(value, flag: bool) -> str:
    if os.path.isdir(_path(value, flag)):
        raise ValueError(f"File {value!r} is a directory.")
    return value


_REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    """One option: its flag (and a switch's negating flag), the name the
    command reads its value under, which is also its --config key, its
    converter, its default, its help and the environment variable that may
    set it."""

    flags: tuple[str, ...]
    dest: str
    convert: Callable
    default: object = None
    help: str = ""
    env: Optional[str] = None


class Command(NamedTuple):
    """`run(params)` does a command's work, given each option's value by
    its `dest` (and `inputs`, the paths of a command that reads a corpus)."""

    run: Callable[[dict], None]
    help: str
    options: tuple[Option, ...]
    corpus: bool  # takes INPUTS... and a --config file of option values


_COMMANDS: dict[str, Command] = {}

# What a --config file cannot set: the inputs are arguments, and these two.
_NOT_IN_CONFIG = ("outdir", "config")


def _usage(name: Optional[str]) -> str:
    if name is None:
        return "pdnskit [OPTIONS] COMMAND [ARGS]..."
    return f"pdnskit {name} [OPTIONS]" + (" INPUTS..." if _COMMANDS[name].corpus else "")


def _parser(name: str, command: Command) -> argparse.ArgumentParser:
    """The command's parser. It only splits the command line: a flag not
    given stays out of the namespace, and no value is converted yet."""
    parser = argparse.ArgumentParser(
        prog=f"pdnskit {name}", usage=_usage(name), description=command.help, add_help=False,
        allow_abbrev=False, argument_default=argparse.SUPPRESS, exit_on_error=False,
    )
    if command.corpus:
        parser.add_argument("inputs", nargs="*", metavar="INPUTS", help="Corpus files; - reads stdin.")
    for option in command.options:
        shown = " [required]" if option.default is _REQUIRED else ""
        if option.convert is _switch:
            parser.add_argument(option.flags[0], dest=option.dest, action="store_const", const=True, help=option.help)
            for negation in option.flags[1:]:
                parser.add_argument(negation, dest=option.dest, action="store_const", const=False)
        else:
            parser.add_argument(*option.flags, dest=option.dest, help=option.help + shown)
    parser.add_argument("--help", action="store_true", help="Show this message and exit.")
    return parser


def _converted(option: Option, value, flag: bool):
    try:
        return option.convert(value, flag)
    except ValueError as exc:
        raise ValueError(f"Invalid value for '{option.flags[0]}': {exc}") from None


def _read_config(path: str, options: tuple[Option, ...]) -> dict:
    """The option values a --config file holds, by option name."""
    try:
        values = read_json(path)
    except OSError as exc:
        raise UnreadableSourceError(f"cannot open config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    settable = {option.dest for option in options}.difference(_NOT_IN_CONFIG)
    for name in values:
        if name not in settable:
            raise ConfigError(f"config file {path}: unknown option {name!r}")
    return values


def _parse(name: str, args: list[str]) -> Optional[dict]:
    """Each option's value for one command line, or None after --help.

    A flag's value is converted as it is read, so every usage error (exit 1)
    is raised before the --config file is read. The rest resolve in one
    ordered merge: flag, environment, config file, default."""
    command = _COMMANDS[name]
    parser = _parser(name, command)
    try:
        namespace, extras = parser.parse_known_intermixed_args(args)
    except argparse.ArgumentError as exc:
        raise UsageError(f"Option '{exc.argument_name}': {exc.message}.") from None
    if extras:
        extra = extras[0]
        if extra.startswith("-") and extra != "-":
            raise UsageError(f"No such option '{extra.partition('=')[0]}'.")
        raise UsageError(f"Got unexpected extra argument ({extra}).")
    given = vars(namespace)
    if given.pop("help", False):
        parser.print_help()
        return None
    if command.corpus and not given.get("inputs"):
        raise UsageError("Missing argument 'INPUTS...'.")
    for path in given.get("inputs", ()):
        try:
            _path(path, flag=True)
        except ValueError as exc:
            raise UsageError(f"Invalid value for 'INPUTS...': {exc}") from None
    for option in command.options:
        if option.dest in given:
            try:
                given[option.dest] = _converted(option, given[option.dest], flag=True)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        elif option.default is _REQUIRED:
            raise UsageError(f"Missing option '{option.flags[0]}'.")

    path = given.get("config") if command.corpus else None
    file = _read_config(path, command.options) if path else {}
    params = {"inputs": given.get("inputs")}
    for option in command.options:
        dest, env = option.dest, option.env and os.environ.get(option.env)
        if dest in given:
            params[dest] = given[dest]
        elif env:
            params[dest] = _converted(option, env, flag=True)
        elif file.get(dest) is not None:
            try:
                params[dest] = _converted(option, file[dest], flag=False)
            except ValueError as exc:
                raise ConfigError(f"config file {path}: {exc}") from None
        else:
            params[dest] = option.default
    return params


def _load_psl(path: Optional[str]) -> Optional[PublicSuffixList]:
    return PublicSuffixList.from_file(path) if path else None


@contextlib.contextmanager
def _staged(outdir: Path, artifacts: tuple[str, ...] = ()):
    """Yield a directory inside `outdir`, made if need be, to write a set into.
    On success, rename each file into `outdir` (so it may be a mount point)
    and remove the `artifacts` not written; on any failure, remove what was
    made, so `outdir` is left as it was."""
    made = [d for d in (outdir, *outdir.parents) if not d.exists()]  # the last is the topmost
    # Named before it is made, so that a signal raised as mkdir returns is
    # still cleaned up; 64 random bits keep concurrent runs apart.
    staging = outdir / f".staging.{os.urandom(8).hex()}"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        staging.mkdir(mode=0o700)
        yield staging
        written = sorted(staging.iterdir())
        for path in written:
            os.replace(path, outdir / path.name)
        for name in set(artifacts).difference(path.name for path in written):
            (outdir / name).unlink(missing_ok=True)
        staging.rmdir()
    except BaseException:
        shutil.rmtree(made[-1] if made else staging, ignore_errors=True)
        raise


def _run(produce, artifacts: tuple[str, ...], p: dict) -> None:
    """Run a command that reads a corpus: read the inputs (first-seen only
    under --dedup), and stage into --out what `produce(p, stream, outdir)`
    writes, then `ingest_stats.json`. Exits 2 if an input was cut short,
    else prints `produce`'s summary."""
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
    print(f"{summary} -> {outdir}")


def _command(name: str, *options: Option):
    """Register `run(params)` as the command `name` with `options`."""

    def register(run):
        _COMMANDS[name] = Command(run, run.__doc__, options, corpus=False)
        return run

    return register


def _corpus_command(name: str, *options: Option, optional: tuple[str, ...] = ()):
    """Register `produce` as the command `name`, run through `_run`. It takes
    INPUTS... --out DIR [--format] and `options`, then [--psl] [--config].
    `optional` names the files only some runs write into --out."""

    def register(produce):
        _COMMANDS[name] = Command(partial(_run, produce, optional), produce.__doc__, (
            Option(("--out",), "outdir", _directory, _REQUIRED),
            Option(("--format",), "fmt", _choice("ndjson", "csv"), "ndjson", "ndjson or csv."),
            *options,
            Option(("--psl",), "psl_path", _path, None, "Public-suffix list file for SLD extraction."),
            Option(("--config",), "config", _path, None, "JSON file of option values (flags win)."),
        ), corpus=True)
        return produce

    return register


_DEDUP = Option(("--dedup", "--no-dedup"), "dedup", _switch, False, "Drop repeated rrnames (newly-observed semantics).")
_PROFILES_HELP = "Implementation profile file (default: bundled; env PDNSKIT_PROFILES)."


# ----------------------------------------------------------------------


@_corpus_command(
    "stats",
    _DEDUP,
    Option(("--top",), "top_n", _integer(1), 10, "Rows in top-SLD tables. [default: 10]"),
)
def cmd_stats(p, stream, outdir):
    """Aggregate measurement tables and series from pDNS inputs."""
    from pdnskit.stats import StatsBundle

    bundle = StatsBundle(psl=_load_psl(p["psl_path"])).accumulate_all(stream)
    bundle.emit_all(outdir, top_n=p["top_n"])
    if bundle.total == 0:
        print("warning: no entries accumulated; tables contain headers only", file=sys.stderr)
    return f"stats: {bundle.total} entries, {len(bundle.sld_rdata_sum)} SLDs"


# ----------------------------------------------------------------------


@_corpus_command(
    "filter",
    Option(("--types",), "types", _types, _types("NULL,TXT", True), "Record types kept by the prefilter. [default: NULL,TXT]"),
    Option(("--min-level",), "min_level", _integer(1), 4, "[default: 4]"),
    Option(("--min-subdomains",), "min_subdomains", _integer(1), 2, "Distinct FQDNs an SLD needs to stay a candidate. [default: 2]"),
    Option(("--cdn-list",), "cdn_list", _path, None, "File of CDN SLDs to drop at stage 1."),
    Option(("--tunnel-list",), "tunnel_list", _path, None, "File of known tunnel SLDs (default: bundled provider list)."),
    Option(("--watchlist",), "watchlist", _path, None, "File of IOC SLDs to annotate ('builtin' for the bundled example)."),
    Option(("--drop-daily-seen",), "drop_daily_seen", _switch, False, "Drop SLDs seen on every observation day."),
    Option(("--drop-single-entry",), "drop_single_entry", _switch, False, "Drop SLDs left with a single entry."),
    Option(("--alexa",), "alexa_path", _path, None, "Ranked domain list; candidates on it are dropped."),
    Option(("--observation-days",), "observation_days", _integer(1), None, "Override the day count for --drop-daily-seen."),
    _DEDUP,
)
def cmd_filter(p, stream, outdir):
    """Reduce pDNS inputs to candidate tunnel SLDs with stage accounting."""
    from pdnskit.pipeline import FilterConfig

    alexa = read_domain_list(p["alexa_path"]) if p["alexa_path"] else frozenset()
    cfg = FilterConfig.from_files(
        cdn=p["cdn_list"],
        known_tunnels=p["tunnel_list"],
        watchlist=p["watchlist"],
        prefilter_types=p["types"],
        min_level=p["min_level"],
        min_distinct_fqdns=p["min_subdomains"],
        drop_daily_seen=p["drop_daily_seen"],
        drop_single_entry=p["drop_single_entry"],
        alexa_domains=alexa,
        observation_days=p["observation_days"],
        psl=_load_psl(p["psl_path"]),
    )
    if p["alexa_path"] and not alexa:
        raise ConfigError(f"--alexa {p['alexa_path']}: the list holds no domains")
    report = getattr(sys.modules[__name__], "run_pipeline")(stream, cfg)
    report.write(outdir)
    return f"filter: {report.input_entries} entries -> {len(report.candidates)} candidate SLDs"


# ----------------------------------------------------------------------


@_corpus_command(
    "classify",
    Option(("--profiles",), "profiles_path", _path, None, _PROFILES_HELP, env="PDNSKIT_PROFILES"),
    Option(("--labels",), "labels_path", _path, None, "Labels sidecar; enables the confusion matrix."),
    Option(("--min-matches",), "min_matches", _integer(0, 8), 6, "Attribute threshold out of 8. [default: 6]"),
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
        print(f"classify: tunnel accuracy {metrics['tunnel_accuracy']:.4f} over {metrics['tunnel_entries']} entries")
    return f"classify: {tally.entries} entries over {len(tally.totals)} SLDs"


# ----------------------------------------------------------------------


@_command(
    "gen",
    Option(("--config",), "config_path", _path, None, "Generator config JSON."),
    Option(("--demo",), "demo", _switch, False, "Use the built-in demo corpus config."),
    Option(("--out",), "outdir", _directory, _REQUIRED),
    Option(("--name",), "name", _path, "corpus.ndjson", "Corpus file name (.gz compresses). [default: corpus.ndjson]"),
    Option(("--seed",), "seed", _integer(), None, "Override the config seed."),
    Option(("--profiles",), "profiles_path", _path, None, _PROFILES_HELP, env="PDNSKIT_PROFILES"),
)
def cmd_gen(p):
    """Generate a labeled synthetic corpus (NDJSON + labels sidecar)."""
    from pdnskit.fingerprint import ProfileSet
    from pdnskit.tunnelgen import GenConfig, demo_config, generate, write_corpus

    name = p["name"]
    if p["demo"] == bool(p["config_path"]):
        raise UsageError("pass exactly one of --config or --demo")
    if name in ("", ".", "..") or "/" in name:
        raise UsageError(f"--name must be a bare file name, not {name!r}")
    cfg = demo_config() if p["demo"] else GenConfig.from_json_file(p["config_path"])
    if p["seed"] is not None:
        cfg = cfg._replace(seed=p["seed"])
    profiles = ProfileSet.from_file(p["profiles_path"]) if p["profiles_path"] else ProfileSet.default()
    entries = generate(cfg, profiles)  # checks the config before anything is made
    with _staged(Path(p["outdir"])) as staging:
        corpus, labels = write_corpus(entries, staging / name)
    print(f"gen: wrote {Path(p['outdir'], corpus.name)} and {Path(p['outdir'], labels.name)}")


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


@_command(
    "report",
    Option(("--stats",), "stats_dir", _directory),
    Option(("--filter",), "filter_dir", _directory),
    Option(("--classify",), "classify_dir", _directory),
    Option(("--out",), "out_path", _file, _REQUIRED),
)
def cmd_report(p):
    """Combine stats/filter/classify artifacts into one text summary."""
    stats_dir, filter_dir, classify_dir = p["stats_dir"], p["filter_dir"], p["classify_dir"]
    if not (stats_dir or filter_dir or classify_dir):
        raise UsageError("pass at least one of --stats/--filter/--classify")
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
    out_path = Path(p["out_path"])
    with _staged(out_path.parent) as staging:
        (staging / out_path.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"report: wrote {out_path}")


# ----------------------------------------------------------------------


def _help() -> str:
    width = max(map(len, _COMMANDS))
    return "\n".join([
        f"Usage: {_usage(None)}",
        "",
        "  Passive-DNS measurement statistics and tunnel-candidate filtering.",
        "",
        "Options:",
        "  --version  Show the version and exit.",
        "  --help     Show this message and exit.",
        "",
        "Commands:",
        *(f"  {name:<{width}}  {_COMMANDS[name].help}" for name in sorted(_COMMANDS)),
    ])


# The signals that end a run as ^C does; Windows has no SIGHUP.
_TERMINATING = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name))


class _Terminated(BaseException):
    """A terminating signal arrived; `args[0]` is its number. Like ^C's
    KeyboardInterrupt, it unwinds through `_staged`'s cleanup."""


def _terminate(signum, frame):
    raise _Terminated(signum)


def _usage_error(name: Optional[str], message: str) -> int:
    prog = f"pdnskit {name}" if name else "pdnskit"
    print(f"Usage: {_usage(name)}\nTry '{prog} --help' for help.\n\nError: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    """Run one command line (`sys.argv[1:]` by default); return its exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    name = args[0] if args else None
    if name in (None, "--help"):  # with no command, the help is the error
        print(_help(), file=sys.stderr if name is None else sys.stdout)
        return 1 if name is None else 0
    if name == "--version":
        print(f"pdnskit, version {__version__}")
        return 0
    if name not in _COMMANDS:
        return _usage_error(None, f"No such {'option' if name.startswith('-') else 'command'} {name!r}.")
    previous = {}  # the handlers to put back when the command ends
    with contextlib.suppress(ValueError):  # off the main thread, none can be set
        for signum in _TERMINATING:
            previous[signum] = signal.signal(signum, _terminate)
    try:
        params = _parse(name, args[1:])
        if params is not None:
            _COMMANDS[name].run(params)
    except UsageError as exc:
        return _usage_error(name, str(exc))
    except KeyboardInterrupt:  # end the terminal's ^C line first
        print("\ninterrupted", file=sys.stderr)
        return 130
    except _Terminated as exc:
        print(f"terminated by {signal.Signals(exc.args[0]).name}", file=sys.stderr)
        return 128 + exc.args[0]
    except ConfigError as exc:  # the generator's and profile errors subclass it
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
