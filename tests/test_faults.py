"""Fault matrix: one bad record between good ones, read by `pdnskit stats`.

Each row runs the real command in its own process and asserts that it
exits 0 and that `ingest_stats.json` counts the bad record under its error
kind while keeping the good records on both sides of it. A gzip input cut
short is the one fault that ends the input: every command keeps the records
before the cut, writes its artifacts and then exits 2. A write that fails
or is interrupted part-way, in any command, `gen` and `report` included,
leaves what a previous run wrote as it was (an interrupt exits 130, SIGTERM
143 and SIGHUP 129), and a run removes those of its command's artifacts that it did not write. A side
input that is not UTF-8, a labels row short of fields or an `--alexa` list
with no domain exits 3, a domain list line that is not a hostname exits 3
naming the file and the line, and `report` on a damaged artifact exits 2,
each with one line on stderr that names the file; any labels sidecar, built
from random bytes and rows, exits 0 or 3. A `gen` config from which
the generator would make a host over 253 bytes, or that holds an unknown
key or a value of the wrong type, exits 3 with one line that names the key,
field or SLD, and writes nothing. A JSON `\\u` escape that decodes
to a lone surrogate, in a name field or in rdata, counts as `BadEncoding`
in every command; in a `--config` or `gen --config` file, it exits 3.
A CSV corpus, or a side input of any kind, that starts with a UTF-8 byte
order mark reads as it would without it, and a `gen` corpus dated before the year 1000 reads back whole.
"""

import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pdnskit
from pdnskit.ingest import CSV_COLUMNS

from conftest import TABLE_RECORD

SRC = str(Path(pdnskit.__file__).resolve().parents[1])

BAD_TIMESTAMPS = [
    "2017-07-01T09:35:04",
    "2017-07-01 09:35x04",
    "2017-07-01 09:35:+4",
    "2017-07-01 09:35: 4",
    "２017-07-01 09:35:04",
]


def record_bytes(fmt: str, **overrides) -> bytes:
    """One record as a line of NDJSON or CSV; a list in CSV is a JSON string."""
    fields = dict(TABLE_RECORD, **overrides)
    if fmt == "ndjson":
        return json.dumps(fields).encode() + b"\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        v if isinstance(v, str) else json.dumps(v) for v in (fields[c] for c in CSV_COLUMNS)
    )
    return buf.getvalue().encode()


def good(fmt: str, i: int) -> bytes:
    return record_bytes(fmt, rrname=f"good{i}.teriava.com.")


def non_utf8(fmt: str) -> bytes:
    # A Latin-1 byte inside an otherwise valid record.
    return record_bytes(fmt, rrname="cafe-x.teriava.com.").replace(b"e-x", b"\xe9")


FAULTS = [
    # (id, formats, bad records between the good ones, expected rejections)
    (
        "lenient-timestamp",
        ("ndjson", "csv"),
        lambda fmt: b"".join(record_bytes(fmt, time_seen=t) for t in BAD_TIMESTAMPS),
        {"BadTimestamp": len(BAD_TIMESTAMPS)},
    ),
    (
        "non-string-rrname",
        ("ndjson",),
        lambda fmt: record_bytes(fmt, rrname=["x.y.teriava.com"]) + record_bytes(fmt, rrname=7),
        {"BadField": 2},
    ),
    (
        "non-string-rrclass",
        ("ndjson",),
        lambda fmt: record_bytes(fmt, rrclass=["IN"]) + record_bytes(fmt, rrclass=7),
        {"BadField": 2},
    ),
    (
        "blank-rrname",
        ("ndjson", "csv"),
        lambda fmt: record_bytes(fmt, rrname="   ") + record_bytes(fmt, rrname=""),
        {"MissingField": 2},
    ),
    (
        "oversized-csv-field",
        ("csv",),
        lambda fmt: record_bytes(fmt, rdata="x" * 140_000),
        {"BadRecord": 1},
    ),
    (
        "non-utf8-byte",
        ("ndjson", "csv"),
        non_utf8,
        {"BadEncoding": 1},
    ),
    (
        # Whitespace that JSON does not allow between values, but that makes a
        # line blank: an NDJSON blank line is skipped, not read or counted.
        "vt-ff-only-lines",
        ("ndjson",),
        lambda fmt: b"\x0b\n\x0c\n \x0b\t\x0c\r\n",
        {},
    ),
    (
        # Strings first, then one item of another JSON type.
        "non-string-rdata-item-after-strings",
        ("ndjson", "csv"),
        lambda fmt: b"".join(
            record_bytes(fmt, rdata=["127.0.0.1", *tail]) for tail in ([7], ["b", None], ["b", ["c"]], ["b", {}])
        ),
        {"BadRdata": 4},
    ),
    (
        # A \u escape for half a surrogate pair: valid JSON, but no Unicode.
        "lone-surrogate-rdata",
        ("ndjson", "csv"),
        lambda fmt: record_bytes(fmt, rdata=["x\ud800"]),
        {"BadEncoding": 1},
    ),
    # A value that is false but is not a string: only null, an absent key and
    # "" are missing.
    *(
        (
            f"falsy-{field}-{name}",
            ("ndjson",),
            lambda fmt, field=field, value=value: record_bytes(fmt, **{field: value}),
            {kind: 1},
        )
        for field, kind in (("rrclass", "BadField"), ("rrtype", "BadField"), ("time_seen", "BadTimestamp"))
        for name, value in (("false", False), ("zero", 0), ("empty-list", []), ("empty-object", {}))
    ),
]

ROWS = [
    pytest.param(fmt, make_bad, rejected, id=f"{name}-{fmt}")
    for name, formats, make_bad, rejected in FAULTS
    for fmt in formats
]


def stats_of(tmp_path, fmt: str, data: bytes) -> dict:
    """`ingest_stats.json` of `pdnskit stats`, run in its own process on
    `data` as a corpus, which must exit 0."""
    corpus = tmp_path / f"in.{fmt}"
    corpus.write_bytes(data)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "pdnskit", "stats", str(corpus), "--out", str(out), "--format", fmt],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))


def accepted_only(n: int) -> dict:
    return {"read": n, "accepted": n, "rejected_by_error": {}, "deduplicated": 0, "warnings": {}}


@pytest.mark.parametrize("fmt, make_bad, rejected", ROWS)
def test_fault_is_counted_and_stream_continues(tmp_path, fmt, make_bad, rejected):
    n_bad = sum(rejected.values())
    assert stats_of(tmp_path, fmt, good(fmt, 1) + good(fmt, 2) + make_bad(fmt) + good(fmt, 3)) == {
        "read": 3 + n_bad,
        "accepted": 3,
        "rejected_by_error": rejected,
        "deduplicated": 0,
        "warnings": {},
    }
    summary = json.loads((tmp_path / "out" / "stats_summary.json").read_text(encoding="utf-8"))
    assert summary["total_entries"] == 3


# A CSV corpus may start with the UTF-8 byte order mark that spreadsheet
# exports write; it is dropped before the header test.
BOM_CSV = [
    pytest.param(b"\xef\xbb\xbf" + ",".join(CSV_COLUMNS).encode() + b"\n", id="bom-header-csv"),
    pytest.param(b"\xef\xbb\xbf", id="bom-first-row-csv"),
]


@pytest.mark.parametrize("head", BOM_CSV)
def test_csv_corpus_starting_with_a_bom(tmp_path, head):
    assert stats_of(tmp_path, "csv", head + good("csv", 1) + good("csv", 2)) == accepted_only(2)


# (command, option, a side input whose first line changes what the command
# does): each reader of a side input drops a leading byte order mark.
BOM_SIDE_INPUTS = [
    ("stats", "--config", '{"top_n": 1}\n'),
    ("stats", "--psl", "teriava.com\n"),
    ("filter", "--cdn-list", "teriava.com\n"),
    ("classify", "--labels", "good1.teriava.com,tunnel,iodine-null\n"),
    ("classify", "--profiles", (Path(pdnskit.__file__).parent / "data" / "tunnel_profiles.conf").read_text("utf-8")),
]


@pytest.mark.parametrize(
    "command, option, text", BOM_SIDE_INPUTS, ids=["json-config", "psl", "domain-list", "labels", "profiles"]
)
def test_side_input_starting_with_a_bom(tmp_path, capsys, command, option, text):
    # NULL records pass the filter's prefilter; with no domain, a --psl decides the SLD.
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(b"".join(
        record_bytes("ndjson", rrname=f"good{i}.teriava.com.", rrtype="NULL", domain="", bailiwick="") for i in (1, 2)
    ))
    side = tmp_path / "side"
    outputs = []
    for head in (b"", b"\xef\xbb\xbf"):
        side.write_bytes(head + text.encode())
        out = tmp_path / f"out{len(outputs)}"
        assert run_cli(capsys, command, corpus, "--out", out, option, side) == (0, [])
        outputs.append(snapshot(out))
    assert outputs[0] == outputs[1]


def test_gen_before_year_1000_reads_back(tmp_path, capsys):
    """`gen` writes a four-digit year, zero-padded, which its reader takes."""
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "start_date": "0999-07-01",
        "background": [{"kind": "plain-a", "sld": "shop.example", "queries": 4}],
    }), encoding="utf-8")
    assert run_cli(capsys, "gen", "--config", config, "--out", tmp_path / "gen") == (0, [])
    corpus = (tmp_path / "gen" / "corpus.ndjson").read_bytes()
    assert all(json.loads(line)["time_seen"].startswith("0999-07-") for line in corpus.splitlines())
    assert stats_of(tmp_path, "ndjson", corpus) == accepted_only(4)


def cut_gzip(data: bytes) -> bytes:
    """`data` as a gzip stream that stops after its last complete block:
    every byte of `data` decodes, and no end-of-stream marker follows."""
    compressor = zlib.compressobj(wbits=31)
    return compressor.compress(data) + compressor.flush(zlib.Z_FULL_FLUSH)


@pytest.mark.parametrize(
    "command, artifact",
    [
        ("stats", "stats_summary.json"),
        ("filter", "stage_counts.csv"),
        ("classify", "attributions.csv"),
    ],
)
def test_truncated_gzip_keeps_records_and_exits_two(tmp_path, command, artifact):
    corpus = tmp_path / "in.ndjson.gz"
    corpus.write_bytes(cut_gzip(good("ndjson", 1) + good("ndjson", 2) + good("ndjson", 3)))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "pdnskit", command, str(corpus), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2, result.stderr
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("i/o error: 1 gzip input(s) ended early")
    assert json.loads((out / "ingest_stats.json").read_text(encoding="utf-8")) == {
        "read": 4,
        "accepted": 3,
        "rejected_by_error": {"TruncatedInput": 1},
        "deduplicated": 0,
        "warnings": {},
    }
    assert (out / artifact).is_file()
    if command == "stats":
        summary = json.loads((out / "stats_summary.json").read_text(encoding="utf-8"))
        assert summary["total_entries"] == 3


# (command, the `write_csv` call that fails): each fails after another
# artifact of its set has been written. `classify` runs with labels, so that
# it writes a second CSV.
WRITE_FAULTS = [
    ("stats", 2),
    ("filter", 1),  # after candidates.json and candidates.txt
    ("classify", 2),  # confusion_matrix.csv, after attributions.csv
]


@pytest.mark.parametrize("command, failing_call", WRITE_FAULTS, ids=[f[0] for f in WRITE_FAULTS])
def test_failed_write_leaves_previous_set(tmp_path, monkeypatch, command, failing_call):
    from pdnskit import cli, fingerprint, pipeline, stats, tables

    labels = tmp_path / "labels.csv"
    labels.write_text("rrname,kind,class\ngood1.teriava.com,benign,plain-a\n", encoding="utf-8")
    extra = ["--labels", str(labels)] if command == "classify" else []
    first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
    first.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    second.write_bytes(good("ndjson", 3) + good("ndjson", 4) + good("ndjson", 5))
    out = tmp_path / "out"
    assert cli.main([command, str(first), "--out", str(out), *extra]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    write_csv, calls = tables.write_csv, []

    def failing_write_csv(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == failing_call:
            raise OSError(28, "No space left on device")
        return write_csv(*args, **kwargs)

    # Each module binds the name at import, so it is replaced where it is called.
    for module in (tables, stats, pipeline, fingerprint):
        monkeypatch.setattr(module, "write_csv", failing_write_csv)
    assert cli.main([command, str(second), "--out", str(out), *extra]) == 2
    assert len(calls) == failing_call
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "first.ndjson", "labels.csv", "out", "second.ndjson"
    ]


def test_out_on_its_own_filesystem(tmp_path, monkeypatch):
    """`--out` as a mount point: a rename into it from outside fails with
    EXDEV, so the set must be staged inside `--out` itself."""
    import errno

    from pdnskit import cli

    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    out = tmp_path / "out"
    out.mkdir()
    rename = os.replace

    def replace_within_out(src, dst):
        if out not in Path(src).parents or out not in Path(dst).parents:
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        return rename(src, dst)

    monkeypatch.setattr(os, "replace", replace_within_out)
    runs = [
        (["stats", corpus, "--out", out], "stats_summary.json"),
        (["filter", corpus, "--out", out], "candidates.json"),
        (["classify", corpus, "--out", out], "attributions.csv"),
        (["gen", "--demo", "--out", out], "corpus.labels.csv"),
        (["report", "--stats", out, "--out", out / "report.txt"], "report.txt"),
    ]
    for argv, artifact in runs:
        assert cli.main([str(arg) for arg in argv]) == 0
        assert (out / artifact).exists()
    assert not [path for path in out.iterdir() if path.name.startswith(".")]


@pytest.mark.skipif(os.geteuid() == 0, reason="root writes into a read-only directory")
def test_out_under_read_only_parent(tmp_path):
    from pdnskit import cli

    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    parent = tmp_path / "ro"
    (parent / "out").mkdir(parents=True)
    parent.chmod(0o555)
    try:
        assert cli.main(["stats", str(corpus), "--out", str(parent / "out")]) == 0
    finally:
        parent.chmod(0o755)
    assert sorted(path.name for path in parent.iterdir()) == ["out"]


def test_truncated_labeled_classify_still_reports_accuracy(tmp_path, capsys):
    from pdnskit import cli

    corpus = tmp_path / "in.ndjson.gz"
    corpus.write_bytes(cut_gzip(good("ndjson", 1) + good("ndjson", 2)))
    labels = tmp_path / "labels.csv"
    labels.write_text("rrname,kind,class\ngood1.teriava.com,tunnel,iodine\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["classify", str(corpus), "--out", str(out), "--labels", str(labels)]) == 2
    assert capsys.readouterr().out == "classify: tunnel accuracy 0.0000 over 1 entries\n"
    assert json.loads((out / "metrics.json").read_text(encoding="utf-8"))["tunnel_entries"] == 1


def break_write(monkeypatch, command: str, exc: BaseException) -> None:
    """Make the write of `gen` or `report` raise `exc` part-way: `gen` after
    500 corpus records, `report` after half of its text."""
    from pdnskit import tunnelgen

    if command == "gen":
        record, calls = tunnelgen._corpus_record, iter(range(500))

        def failing_record(entry):
            if next(calls, None) is None:
                raise exc
            return record(entry)

        monkeypatch.setattr(tunnelgen, "_corpus_record", failing_record)
    else:
        write_text = Path.write_text

        def failing_write_text(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise exc

        monkeypatch.setattr(Path, "write_text", failing_write_text)


def test_failed_run_removes_the_directories_it_made(tmp_path):
    from pdnskit import cli

    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    profiles = tmp_path / "profiles.json"
    profiles.write_text("{}", encoding="utf-8")
    out = tmp_path / "a" / "b" / "out"
    assert cli.main(["classify", str(corpus), "--out", str(out), "--profiles", str(profiles)]) == 3
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.ndjson", "profiles.json"]


@pytest.mark.parametrize("command", ["gen", "report"])
def test_failed_write_removes_the_directories_it_made(tmp_path, monkeypatch, command):
    from pdnskit import cli

    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    assert cli.main(["stats", str(corpus), "--out", str(tmp_path / "stats")]) == 0
    out = tmp_path / "a" / "b" / "out"
    argv = {
        "gen": ["--demo", "--out", out],
        "report": ["--stats", tmp_path / "stats", "--out", out / "report.txt"],
    }[command]
    break_write(monkeypatch, command, OSError(28, "No space left on device"))
    assert cli.main([command, *map(str, argv)]) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.ndjson", "stats"]


@pytest.mark.parametrize("command", ["gen", "report"])
@pytest.mark.parametrize(
    "exc, code, errors",
    [
        # The interrupt ends the terminal's ^C line with a newline of its own.
        (KeyboardInterrupt(), 130, ["", "interrupted"]),
        (OSError(28, "No space left on device"), 2, ["i/o error: [Errno 28] No space left on device"]),
    ],
    ids=["interrupt", "disk-full"],
)
def test_broken_write_leaves_previous_output(tmp_path, capsys, monkeypatch, command, exc, code, errors):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    stats, out = tmp_path / "stats", tmp_path / "out"
    assert run_cli(capsys, "stats", corpus, "--out", stats)[0] == 0
    argv = {
        "gen": ["gen", "--demo", "--out", out],
        "report": ["report", "--stats", stats, "--out", out / "report.txt"],
    }[command]
    assert run_cli(capsys, *argv)[0] == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    # Had it finished, the second run would have written other bytes.
    corpus.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    assert run_cli(capsys, "stats", corpus, "--out", stats)[0] == 0
    break_write(monkeypatch, command, exc)
    reseed = ["--seed", 8] if command == "gen" else []
    assert run_cli(capsys, *argv, *reseed) == (code, errors)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


TERMINATIONS = [
    pytest.param(getattr(signal, name), made, id=f"{name}-{'made' if made else 'existing'}-out")
    for name, made in (("SIGTERM", True), ("SIGTERM", False), ("SIGHUP", True))
    if hasattr(signal, name)
]


@pytest.mark.parametrize("signum, made", TERMINATIONS)
def test_terminating_signal_leaves_out_as_it_was(tmp_path, signum, made):
    # `stats -` waits on stdin, held open, once its staging directory exists.
    out = tmp_path / "made" / "out" if made else tmp_path / "out"
    if not made:
        corpus = tmp_path / "c.ndjson"
        corpus.write_bytes(good("ndjson", 1))
        from pdnskit import cli

        assert cli.main(["stats", str(corpus), "--out", str(out)]) == 0
    before = sorted(tmp_path.rglob("*"))
    contents = {path: path.read_bytes() for path in before if path.is_file()}
    run = subprocess.Popen(
        [sys.executable, "-m", "pdnskit", "stats", "-", "--dedup", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=SRC),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob(".staging.*")):
            assert run.poll() is None, run.stderr.read()
            assert time.monotonic() < deadline, "no staging directory appeared"
            time.sleep(0.01)
        run.send_signal(signum)
        _, stderr = run.communicate(timeout=60)
    finally:
        run.kill()
        run.wait()
    assert run.returncode == 128 + signum
    assert stderr.splitlines() == [f"terminated by {signal.Signals(signum).name}"]
    assert sorted(tmp_path.rglob("*")) == before
    assert {path: path.read_bytes() for path in before if path.is_file()} == contents


def test_signal_handlers_are_restored_and_threads_run(tmp_path):
    from pdnskit import cli

    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    previous = signal.getsignal(signal.SIGTERM)
    assert cli.main(["stats", str(corpus), "--out", str(tmp_path / "main")]) == 0
    assert signal.getsignal(signal.SIGTERM) is previous
    # Off the main thread no handler can be set; the command runs all the same.
    codes = []
    argv = ["stats", str(corpus), "--out", str(tmp_path / "thread")]
    worker = threading.Thread(target=lambda: codes.append(cli.main(argv)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [0]
    assert signal.getsignal(signal.SIGTERM) is previous


def run_cli(capsys, *args) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process command."""
    from pdnskit import cli

    capsys.readouterr()
    code = cli.main([str(arg) for arg in args])
    return code, capsys.readouterr().err.splitlines()


# (field, its value with a \u escape that decodes to a lone surrogate)
LONE_SURROGATES = [
    ("rrname", "a\ud800.teriava.com."),
    ("domain", "te\ud800riava.com."),
    ("bailiwick", "te\udc00riava.com."),
    ("rdata", ["x\udbff"]),
]


@pytest.mark.parametrize("command", ["stats", "filter", "classify"])
@pytest.mark.parametrize("field, value", LONE_SURROGATES, ids=[row[0] for row in LONE_SURROGATES])
def test_lone_surrogate_escape_is_bad_encoding(tmp_path, capsys, command, field, value):
    from pdnskit.ingest import IngestStats

    bad = record_bytes("ndjson", **{field: value})
    assert b"\\u" in bad
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1) + bad + good("ndjson", 2))
    out = tmp_path / "out"
    assert run_cli(capsys, command, corpus, "--out", out) == (0, [])
    counts = json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))
    assert counts["rejected_by_error"] == {"BadEncoding": 1}
    assert counts["accepted"] == 2
    assert IngestStats(**counts).consistent()


def test_classify_without_labels_removes_its_stale_labeled_artifacts(tmp_path, capsys):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    labels = tmp_path / "labels.csv"
    labels.write_text("rrname,kind,class\ngood1.teriava.com,tunnel,iodine\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(capsys, "classify", corpus, "--out", out, "--labels", labels) == (0, [])
    assert run_cli(capsys, "stats", corpus, "--out", out) == (0, [])
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert {"metrics.json", "confusion_matrix.csv", "stats_summary.json"} <= set(before)

    assert run_cli(capsys, "classify", corpus, "--out", out) == (0, [])
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(before) - set(after) == {"metrics.json", "confusion_matrix.csv"}
    rewritten = {"attributions.csv", "ingest_stats.json"}
    assert {name: after[name] for name in set(after) - rewritten} == {
        name: before[name] for name in set(after) - rewritten
    }
    report = tmp_path / "report.txt"
    assert run_cli(capsys, "report", "--classify", out, "--out", report) == (0, [])
    assert "accuracy" not in report.read_text(encoding="utf-8")


def _without_top_slds(path: Path) -> bytes:
    summary = json.loads(path.read_text(encoding="utf-8"))
    del summary["top_slds"]
    return json.dumps(summary).encode()


# (report option, the command whose artifact is damaged, the artifact, its damage)
DAMAGED_ARTIFACTS = [
    ("--stats", ["stats"], "stats_summary.json", _without_top_slds),
    ("--stats", ["stats"], "stats_summary.json", lambda path: b"\x00not json\n"),
    ("--classify", ["classify", "--labels"], "metrics.json", lambda path: path.read_bytes()[:-20]),
    ("--stats", ["stats"], "stats_summary.json", lambda path: b"[" * 100_000),
    ("--stats", ["stats"], "stats_summary.json", lambda path: path.read_bytes().replace(b'"sld": "', b'"sld": "\\ud800')),
]


@pytest.mark.parametrize(
    "option, command, artifact, damage",
    DAMAGED_ARTIFACTS,
    ids=["stats-key", "stats-not-json", "metrics-cut", "stats-nested", "stats-lone-surrogate"],
)
def test_report_on_a_damaged_artifact_exits_two(tmp_path, capsys, option, command, artifact, damage):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    labels = tmp_path / "labels.csv"
    labels.write_text("rrname,kind,class\ngood1.teriava.com,tunnel,iodine\n", encoding="utf-8")
    out = tmp_path / "out"
    extra = [labels] if command[-1] == "--labels" else []
    assert run_cli(capsys, command[0], corpus, "--out", out, *command[1:], *extra)[0] == 0
    path = out / artifact
    path.write_bytes(damage(path))

    report = tmp_path / "report.txt"
    code, errors = run_cli(capsys, "report", option, out, "--out", report)
    assert code == 2
    assert len(errors) == 1 and errors[0].startswith(f"i/o error: damaged artifact {path}: ")
    assert not report.exists()


# (command, option, file content): each side input holds one byte that is not UTF-8.
NON_UTF8_SIDE_INPUTS = [
    ("stats", "--psl", "bad public suffix list", b"com\n\xff.example\n"),
    ("filter", "--cdn-list", "bad domain list", b"cdn.example\n\xff.example\n"),
    ("classify", "--labels", "bad labels file", b"rrname,kind,class\ngood1.teriava.com,tunnel,io\xffine\n"),
    ("stats", "--config", "bad config file", b'{"top_n": 3, "note": "\xff"}\n'),
]


@pytest.mark.parametrize(
    "command, option, message, content", NON_UTF8_SIDE_INPUTS, ids=[row[1][2:] for row in NON_UTF8_SIDE_INPUTS]
)
def test_non_utf8_side_input_exits_three(tmp_path, capsys, command, option, message, content):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    side = tmp_path / "side.txt"
    side.write_bytes(content)
    out = tmp_path / "out"
    code, errors = run_cli(capsys, command, corpus, "--out", out, option, side)
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith(f"config error: {message} {side}: ")
    assert not out.exists()


# (command, the start of the stderr line, the config file's JSON): each holds
# a \u escape that decodes to a lone surrogate.
LONE_SURROGATE_CONFIGS = [
    ("filter", "config error: bad config file", {"cdn_list": "x\ud800.txt"}),
    ("gen", "config error: bad generator config", {"tunnels": [{"profile": "iodine-null", "sld": "a\ud800.com"}]}),
    ("gen", "config error: bad generator config", {"background": [{"kind": "plain-a", "sld": "a\udc00.com"}]}),
]


@pytest.mark.parametrize(
    "command, message, config", LONE_SURROGATE_CONFIGS, ids=["filter-cdn-list", "gen-tunnel-sld", "gen-background-sld"]
)
def test_lone_surrogate_in_a_config_file_exits_three(tmp_path, capsys, command, message, config):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert b"\\u" in path.read_bytes()
    out = tmp_path / "out"
    inputs = [corpus] if command == "filter" else []
    code, errors = run_cli(capsys, command, *inputs, "--config", path, "--out", out)
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith(message) and errors[0].endswith("surrogates not allowed")
    assert not out.exists()


# (command, the start of the stderr line): the config file is JSON nested
# deeper than the parser goes.
DEEP_JSON_CONFIGS = [
    ("filter", "config error: bad config file"),
    ("gen", "config error: bad generator config"),
]


@pytest.mark.parametrize("command, message", DEEP_JSON_CONFIGS, ids=["filter", "gen"])
def test_deeply_nested_config_file_exits_three(tmp_path, capsys, command, message):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    out = tmp_path / "out"
    inputs = [corpus] if command == "filter" else []
    code, errors = run_cli(capsys, command, *inputs, "--config", path, "--out", out)
    assert code == 3
    assert len(errors) == 1 and errors[0].startswith(message) and "nested too deeply" in errors[0]
    assert not out.exists()


BAD_LABELS = [
    # A blank line and a fourth field are still read as before.
    ("rrname,kind,class\ngood1.teriava.com,tunnel,iodine,x\n\ngood2.teriava.com,tunnel\n", "line 4 has 2 of 3 fields"),
    ("rrname,kind,class\ngood1.teriava.com,tunnel," + "x" * 140_000 + "\n", "field larger than field limit (131072)"),
]


@pytest.mark.parametrize("content, message", BAD_LABELS, ids=["short-row", "oversized-field"])
def test_bad_labels_file_exits_three(tmp_path, capsys, content, message):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    labels = tmp_path / "labels.csv"
    labels.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    code, errors = run_cli(capsys, "classify", corpus, "--out", out, "--labels", labels)
    assert code == 3
    assert errors == [f"config error: bad labels file {labels}: {message}"]
    assert not out.exists()


def csv_line(fields: list[str]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue().encode()


# The pieces of a hostile labels sidecar: rows of any width whose rrnames
# repeat, blank lines, raw bytes (not UTF-8, NUL, a stray quote or CR) and a
# field over csv.field_size_limit, under no header, a header or a BOM and one.
_cell = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_label_line = st.one_of(
    st.lists(_cell, max_size=5).map(csv_line),
    st.tuples(st.sampled_from(["good1.teriava.com", "good2.teriava.com", "GOOD1.teriava.com."]), _cell, _cell).map(
        lambda row: csv_line(list(row))
    ),
    st.sampled_from([b"", b" ", b"\t\x0b"]),
    st.binary(max_size=12),
    st.just(b"good1.teriava.com,tunnel," + b"x" * 131_073),
)
hostile_labels_st = st.builds(
    lambda head, lines, end: head + end.join(lines),
    st.sampled_from([b"", b"rrname,kind,class\n", b"\xef\xbb\xbfrrname,kind,class\n"]),
    st.lists(_label_line, max_size=8),
    st.sampled_from([b"\n", b"\r\n"]),
)


def snapshot(directory: Path):
    """The bytes of each file in `directory`, or None if it does not exist."""
    return {path.name: path.read_bytes() for path in directory.iterdir()} if directory.exists() else None


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=hostile_labels_st)
def test_hostile_labels_file_exits_zero_or_three(tmp_path, capsys, content):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    labels = tmp_path / "labels.csv"
    labels.write_bytes(content)
    out = tmp_path / "out"
    before = snapshot(out)
    code, errors = run_cli(capsys, "classify", corpus, "--out", out, "--labels", labels)
    assert code in (0, 3)
    assert len(errors) <= 1 and not any("Traceback" in line for line in errors)
    if code == 3:
        assert errors[0].startswith(f"config error: bad labels file {labels}: ")
        assert snapshot(out) == before


# Each command's --config keys: key -> (its flag, the JSON values it takes).
_CORPUS_KEYS = {"fmt": ("--format", "format"), "psl_path": ("--psl", "path")}
CONFIG_KEYS = {
    "stats": {**_CORPUS_KEYS, "dedup": ("--dedup", "switch"), "top_n": ("--top", "count")},
    "filter": {
        **_CORPUS_KEYS,
        "types": ("--types", "types"),
        "min_level": ("--min-level", "count"),
        "min_subdomains": ("--min-subdomains", "count"),
        "cdn_list": ("--cdn-list", "path"),
        "tunnel_list": ("--tunnel-list", "path"),
        "watchlist": ("--watchlist", "path"),
        "drop_daily_seen": ("--drop-daily-seen", "switch"),
        "drop_single_entry": ("--drop-single-entry", "switch"),
        "alexa_path": ("--alexa", "path"),
        "observation_days": ("--observation-days", "count"),
        "dedup": ("--dedup", "switch"),
    },
    "classify": {
        **_CORPUS_KEYS,
        "profiles_path": ("--profiles", "path"),
        "labels_path": ("--labels", "path"),
        "min_matches": ("--min-matches", "threshold"),
    },
}
# Keys of options no config file sets: the inputs, --out and --config.
UNSETTABLE_KEYS = ["inputs", "outdir", "config"]
_RRTYPE_NAME = re.compile(r"[A-Za-z0-9-]*[A-Za-z0-9][A-Za-z0-9-]*")


def config_value_ok(kind: str, value) -> bool:
    """Whether a config value is null or of its option's JSON type and range,
    as README states the rules."""
    if value is None:
        return True
    if kind == "switch":
        return isinstance(value, bool)
    if kind in ("count", "threshold"):
        low, high = (1, None) if kind == "count" else (0, 8)
        is_int = isinstance(value, int) and not isinstance(value, bool)
        return is_int and value >= low and (high is None or value <= high)
    if kind == "format":
        return isinstance(value, str) and value in ("ndjson", "csv")
    if kind == "path":
        return isinstance(value, str) and "\0" not in value
    names = value.split(",") if isinstance(value, str) else value  # types
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        return False
    names = [name.strip() for name in names if name.strip()]
    return bool(names) and all(_RRTYPE_NAME.fullmatch(name) for name in names)


_config_text = st.one_of(
    st.sampled_from(["", ".", "builtin", "missing.txt", "NULL", "NULL,TXT", " ,txt", "NULL,A.B", "csv", "ndjson"]),
    st.text(max_size=8),
)
_config_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.integers(),
    st.just(10**40),
    st.floats(),
    _config_text,
)
_config_value = st.one_of(
    _config_scalar,
    st.lists(st.one_of(_config_text, st.integers()), max_size=3),
    st.dictionaries(st.text(max_size=3), _config_scalar, max_size=2),
)

# A value of each option type, mostly in range.
_typical_value = {
    "switch": st.booleans(),
    "count": st.integers(0, 10**6),
    "threshold": st.integers(-1, 9),
    "format": st.sampled_from(["ndjson", "csv", "CSV"]),
    "path": _config_text,
    "types": st.one_of(_config_text, st.lists(_config_text, max_size=3)),
}


@st.composite
def hostile_config_st(draw):
    """(command, config): up to four of the command's keys, each as likely
    to hold a value of its option's type as any value, and at most one key
    that is unsettable or a random name."""
    command = draw(st.sampled_from(sorted(CONFIG_KEYS)))
    keys = CONFIG_KEYS[command]
    config = {
        key: draw(st.one_of(_typical_value[keys[key][1]], _config_value))
        for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=4, unique=True))
    }
    for key in draw(st.lists(st.one_of(st.sampled_from(UNSETTABLE_KEYS), st.text(max_size=6)), max_size=1)):
        config[key] = draw(_config_value)
    return command, config


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=hostile_config_st())
def test_hostile_config_file_exits_zero_two_or_three(tmp_path, capsys, monkeypatch, case):
    command, config = case
    monkeypatch.delenv("PDNSKIT_PROFILES", raising=False)
    cwd = tmp_path / "cwd"  # empty: no relative path a value names exists
    cwd.mkdir(exist_ok=True)
    monkeypatch.chdir(cwd)
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    before = snapshot(out)
    code, errors = run_cli(capsys, command, corpus, "--out", out, "--config", path)
    assert code in (0, 2, 3)
    assert len(errors) <= 1 and not any("Traceback" in line for line in errors)
    keys = CONFIG_KEYS[command]
    unknown = [key for key in config if key not in keys]
    bad = [keys[key][0] for key, value in config.items() if key in keys and not config_value_ok(keys[key][1], value)]
    assert (code == 3) == bool(unknown or bad), (code, errors)
    if code == 3:
        assert errors[0].startswith(f"config error: config file {path}: ")
        named = [f"unknown option {key!r}" for key in unknown] + [f"Invalid value for '{flag}'" for flag in bad]
        assert any(name in errors[0] for name in named), errors
        assert snapshot(out) == before


@pytest.mark.parametrize("content", [b"", b"# ranked list\n\n#\n"], ids=["empty", "comments-only"])
def test_alexa_list_without_domains_exits_three(tmp_path, capsys, content):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    alexa = tmp_path / "alexa.txt"
    alexa.write_bytes(content)
    out = tmp_path / "out"
    code, errors = run_cli(capsys, "filter", corpus, "--out", out, "--alexa", alexa)
    assert code == 3
    assert errors == [f"config error: --alexa {alexa}: the list holds no domains"]
    assert not out.exists()


# (option, a line that is not a hostname, what the error says of it)
BAD_DOMAIN_LINES = [
    ("--cdn-list", "foo.com..", "empty label in 'foo.com..'"),
    ("--watchlist", "a" * 64 + ".com", f"label exceeds 63 bytes in {'a' * 64 + '.com'!r}"),
    ("--alexa", ".example", "empty label in '.example'"),
]


@pytest.mark.parametrize(
    "option, line, message", BAD_DOMAIN_LINES, ids=["double-root-dot", "long-label", "leading-dot"]
)
def test_domain_list_line_not_a_hostname_exits_three(tmp_path, capsys, option, line, message):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1))
    domains = tmp_path / "domains.txt"
    domains.write_text(f"# list\nok.example\n{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    code, errors = run_cli(capsys, "filter", corpus, "--out", out, option, domains)
    assert code == 3
    assert errors == [f"config error: bad domain list {domains}: line 3: {message}"]
    assert not out.exists()


# The lines of a hostile domain list: names the lists share (re-cased, with
# a root dot), comments, blank and dot-only lines, a 64-byte label, NUL and
# raw bytes that are not UTF-8, under no BOM or one.
_domain_line = st.one_of(
    st.sampled_from([b"teriava.com", b"TERIAVA.COM.", b"shared.example", b"53r.de", b"x.y.example"]),
    st.sampled_from([b"#", b"# ranked list", b"", b" ", b".", b"..", b"a" * 64 + b".com", b"\0", b"ok\0.example"]),
    st.binary(max_size=12),
)
hostile_domain_list_st = st.builds(
    lambda head, lines, end: head + end.join(lines),
    st.sampled_from([b"", b"\xef\xbb\xbf"]),
    st.lists(_domain_line, max_size=6),
    st.sampled_from([b"\n", b"\r\n"]),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lists=st.dictionaries(
    st.sampled_from(["--cdn-list", "--tunnel-list", "--watchlist", "--alexa"]),
    hostile_domain_list_st, min_size=1, max_size=3,
))
def test_hostile_domain_lists_exit_zero_or_three(tmp_path, capsys, lists):
    corpus = tmp_path / "c.ndjson"
    corpus.write_bytes(good("ndjson", 1) + good("ndjson", 2))
    args = []
    for option, content in lists.items():
        path = tmp_path / f"{option.lstrip('-')}.txt"
        path.write_bytes(content)
        args += [option, path]
    out = tmp_path / "out"
    before = snapshot(out)
    code, errors = run_cli(capsys, "filter", corpus, "--out", out, *args)
    assert code in (0, 3), errors
    assert len(errors) <= 1 and not any("Traceback" in line for line in errors)
    if code == 3:
        assert snapshot(out) == before


def assert_gen_refuses(tmp_path, capsys, config, message: str) -> None:
    """`gen --config` with `config` exits 3 with `message` as its one stderr
    line and writes nothing."""
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    code, errors = run_cli(capsys, "gen", "--config", path, "--out", out)
    assert code == 3
    assert errors == [message]
    assert not out.exists()


def _too_long_under(kind: str, sld: str) -> str:
    return f"config error: bad generator config: {kind} hosts under {sld[:80]!r} exceed 253 bytes"


_SLD_244 = "b" * 58 + "." + ".".join(["a" * 61] * 3)
_SLD_249 = "b" * 63 + "." + ".".join(["a" * 61] * 3)
_SLD_253 = ".".join(["a" * 62] * 4)

# (gen config, the stderr line): every name in it is valid, but a host the
# generator would make from it is longer than 253 bytes.
LONG_GENERATED_HOSTS = [
    # img0.cdn.<SLD>
    ({"background": [{"kind": "cdn-like", "sld": _SLD_253, "queries": 3}]}, _too_long_under("cdn-like", _SLD_253)),
    # img10.cdn.<SLD>: only the eleventh query's host is too long.
    ({"background": [{"kind": "cdn-like", "sld": _SLD_244, "queries": 11}]}, _too_long_under("cdn-like", _SLD_244)),
    # mail.<SLD>
    ({"background": [{"kind": "plain-a", "sld": _SLD_249, "queries": 3}]}, _too_long_under("plain-a", _SLD_249)),
    # The SLD and third-level label are 94 characters but 187 bytes.
    (
        {"tunnels": [{"profile": "iodine-null", "sld": "ä" * 31 + "." + "ü" * 31, "third": "ö" * 31}]},
        "config error: bad generator config: tunnel SLD "
        f"{'ä' * 31 + '.' + 'ü' * 31!r}: profile iodine-null: derived layout is inconsistent (61 chars into 3 labels of 48)",
    ),
]


@pytest.mark.parametrize(
    "config, message", LONG_GENERATED_HOSTS, ids=["four-long-labels", "cdn-host-grows", "plain-a-mail", "non-ascii-tunnel"]
)
def test_gen_host_over_253_bytes_exits_three(tmp_path, capsys, config, message):
    assert_gen_refuses(tmp_path, capsys, config, message)


_BAD = "config error: bad generator config: "

# (gen config, the stderr line): each names the key, field or SLD at fault.
BAD_GEN_CONFIGS = [
    ({"backgrund": [{"kind": "plain-a", "sld": "shop.example"}]}, _BAD + "unknown key 'backgrund'"),
    ({"start_date": 20170701}, _BAD + "start_date must be a YYYY-MM-DD string, got 20170701"),
    ({"start_date": "2017-13-01"}, _BAD + "start_date is not a date: '2017-13-01'"),
    ({"start_date": "20170701"}, _BAD + "start_date must be a YYYY-MM-DD string, got '20170701'"),
    ({"tunnels": {"profile": "iodine-null"}}, _BAD + 'tunnels must be a list of objects, got {"profile": "iodine-null"}'),
    ({"tunnels": ["iodine-null"]}, _BAD + 'tunnels[0] must be a JSON object, got "iodine-null"'),
    ({"background": None}, _BAD + "background must be a list of objects, got null"),
    ({"tunnels": [{"profile": "iodine-null"}]}, _BAD + "tunnels[0]: missing key 'sld'"),
    (
        {"background": [{"kind": "plain-a", "sld": "shop.example", "querys": 3}]},
        _BAD + "background[0]: unknown key 'querys'",
    ),
    ({"background": [{"kind": ["plain-a"], "sld": "shop.example"}]}, _BAD + "unknown background class: ['plain-a']"),
    (["not", "an", "object"], _BAD + 'the top level must be a JSON object, got ["not", "an", "object"]'),
]


@pytest.mark.parametrize(
    "config, message",
    BAD_GEN_CONFIGS,
    ids=[
        "unknown-top-level-key", "integer-start-date", "impossible-start-date", "compact-start-date", "tunnels-object",
        "tunnels-of-strings", "background-null", "spec-missing-key", "spec-unknown-key",
        "kind-not-a-string", "top-level-list",
    ],
)
def test_bad_gen_config_names_the_key_and_exits_three(tmp_path, capsys, config, message):
    assert_gen_refuses(tmp_path, capsys, config, message)
