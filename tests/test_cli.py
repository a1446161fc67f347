import gzip
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from pdnskit.cli import main
from pdnskit.fingerprint import ProfileSet
from pdnskit.tunnelgen import MAX_TOTAL_QUERIES, demo_config, generate, write_corpus

from conftest import ndjson_line, write_ndjson


@pytest.fixture(scope="module")
def demo_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus, labels = write_corpus(
        generate(demo_config(seed=99), ProfileSet.default()), root / "demo.ndjson"
    )
    return corpus, labels


@pytest.fixture
def run_cli(capsys):
    """Run one command line in process: its exit code, stdout, stderr, and
    the two together as `output`."""

    def run(*args):
        capsys.readouterr()
        code = main([str(a) for a in args])
        out, err = capsys.readouterr()
        return SimpleNamespace(exit_code=code, stdout=out, stderr=err, output=out + err)

    return run


class TestStatsCommand:
    def test_writes_artifacts(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        result = run_cli("stats", corpus, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        for name in ("rrtype_shares.csv", "top_slds.csv", "sld_cdf.csv", "stats_summary.json"):
            assert (tmp_path / name).exists()
        summary = json.loads((tmp_path / "stats_summary.json").read_text())
        assert summary["total_entries"] > 0
        assert f"stats: {summary['total_entries']} entries, {summary['distinct_slds']} SLDs" in result.output

    def test_empty_input_warns_and_exits_zero(self, run_cli, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("", encoding="utf-8")
        result = run_cli("stats", empty, "--out", tmp_path / "out")
        assert result.exit_code == 0
        assert (tmp_path / "out" / "rrtype_shares.csv").read_text().startswith("rrtype")

    def test_two_files_equal_concatenation(self, run_cli, tmp_path):
        lines = [ndjson_line(rrname=f"h{i}.x{i % 3}.com.", domain=f"x{i % 3}.com.") for i in range(30)]
        whole = tmp_path / "whole.ndjson"
        write_ndjson(whole, lines)
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        write_ndjson(a, lines[:11])
        write_ndjson(b, lines[11:])
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert run_cli("stats", whole, "--out", out1).exit_code == 0
        assert run_cli("stats", a, b, "--out", out2).exit_code == 0
        for name in ("rrtype_shares.csv", "top_slds.csv", "sld_cdf.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gzip_on_stdin_read_like_a_path(self, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        from_path, from_stdin = tmp_path / "path", tmp_path / "stdin"
        assert main(["stats", str(corpus), "--out", str(from_path)]) == 0
        result = subprocess.run(
            [sys.executable, "-m", "pdnskit", "stats", "-", "--out", str(from_stdin)],
            input=gzip.compress(corpus.read_bytes()), capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        ingest = json.loads((from_stdin / "ingest_stats.json").read_text())
        assert ingest["read"] > 0 and ingest["rejected_by_error"] == {}
        assert sorted(p.name for p in from_stdin.iterdir()) == sorted(p.name for p in from_path.iterdir())
        for path in sorted(from_path.iterdir()):
            assert path.read_bytes() == (from_stdin / path.name).read_bytes(), path.name

    def test_deterministic_across_runs(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("stats", corpus, "--out", out1)
        run_cli("stats", corpus, "--out", out2)
        for path in sorted(out1.iterdir()):
            assert path.read_bytes() == (out2 / path.name).read_bytes()


class TestFilterCommand:
    def test_planted_tunnels_reported(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        out = tmp_path / "flt"
        result = run_cli("filter", corpus, "--out", out)
        assert result.exit_code == 0, result.output
        report = json.loads((out / "candidates.json").read_text())
        slds = {c["sld"] for c in report["candidates"]}
        # provider SLDs land in dropped_known_tunnels, not candidates
        assert slds == {
            "tun-alpha.net", "tun-epsilon.com", "tun-beta.org",
            "tun-gamma.me", "tun-delta.io",
        }
        dropped = {d["sld"] for d in report["dropped_known_tunnels"]}
        assert dropped == {"53r.de", "qv4.in"}
        assert (out / "stage_counts.csv").read_text().splitlines()[0] == (
            "stage_id,name,entries_in,entries_out,slds_out"
        )

    def test_types_flag_changes_prefilter(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        out = tmp_path / "nullonly"
        result = run_cli("filter", corpus, "--out", out, "--types", "NULL")
        assert result.exit_code == 0
        report = json.loads((out / "candidates.json").read_text())
        stage0 = report["stages"][0]
        # stage-0 survivors are exactly the NULL entries of the corpus
        assert stage0["entries_out"] < stage0["entries_in"]
        for candidate in report["candidates"]:
            assert set(candidate["rrtype_mix"]) == {"NULL"}

    def test_types_list_in_config_file(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"types": ["NULL", "TXT"]}), encoding="utf-8")
        from_flag, from_config = tmp_path / "flag", tmp_path / "config"
        assert run_cli("filter", corpus, "--out", from_flag, "--types", "NULL,TXT").exit_code == 0
        assert run_cli("filter", corpus, "--out", from_config, "--config", cfg).exit_code == 0
        stage_counts = (from_config / "stage_counts.csv").read_bytes()
        assert stage_counts == (from_flag / "stage_counts.csv").read_bytes()
        assert json.loads((from_config / "candidates.json").read_text())["candidates"]

    def test_watchlist_annotation(self, run_cli, tmp_path):
        lines = [
            ndjson_line(rrname=f"x{i}.t.teriava.com.", domain="teriava.com.", rrtype="NULL")
            for i in range(4)
        ]
        corpus = tmp_path / "w.ndjson"
        write_ndjson(corpus, lines)
        out = tmp_path / "out"
        result = run_cli("filter", corpus, "--out", out, "--watchlist", "builtin")
        assert result.exit_code == 0
        report = json.loads((out / "candidates.json").read_text())
        assert report["candidates"][0]["sld"] == "teriava.com"
        assert report["candidates"][0]["watchlist"] is True
        assert report["watchlist_hits"][0]["sld"] == "teriava.com"

    def test_tunnel_list_with_builtin_watchlist(self, run_cli, tmp_path, capsys):
        lines = [
            ndjson_line(rrname=f"x{i}.t.{sld}.", domain=f"{sld}.", rrtype="NULL")
            for sld in ("teriava.com", "my-tunnel.net", "other.org")
            for i in range(3)
        ]
        corpus = tmp_path / "w.ndjson"
        write_ndjson(corpus, lines)
        tunnels = tmp_path / "tunnels.txt"
        tunnels.write_text("my-tunnel.net\nother.org\n", encoding="utf-8")
        out = tmp_path / "out"
        result = run_cli("filter", corpus, "--out", out, "--tunnel-list", tunnels, "--watchlist", "builtin")
        assert result.exit_code == 0, result.output
        report = json.loads((out / "candidates.json").read_text())
        assert report["dropped_known_tunnels"] == [
            {"sld": "my-tunnel.net", "entry_count": 3}, {"sld": "other.org", "entry_count": 3}
        ]
        assert [c["sld"] for c in report["candidates"]] == ["teriava.com"]
        assert [h["sld"] for h in report["watchlist_hits"]] == ["teriava.com"]

        # An SLD on the tunnel list and the bundled watchlist is a config error.
        tunnels.write_text("my-tunnel.net\nteriava.com\n", encoding="utf-8")
        capsys.readouterr()
        argv = ["filter", str(corpus), "--out", str(tmp_path / "both"), "--tunnel-list", str(tunnels)]
        assert main(argv + ["--watchlist", "builtin"]) == 3
        assert capsys.readouterr().err == "config error: known lists overlap: ['teriava.com']\n"
        assert not (tmp_path / "both").exists()

    def test_config_file_overridden_by_flags(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"types": "NULL", "min_level": 5}), encoding="utf-8")
        out = tmp_path / "cfgout"
        result = run_cli(
            "filter", corpus, "--out", out, "--config", cfg, "--types", "NULL,TXT"
        )
        assert result.exit_code == 0
        report = json.loads((out / "candidates.json").read_text())
        # --types flag wins over file; min_level comes from the file
        mixes = set()
        for candidate in report["candidates"]:
            mixes |= set(candidate["rrtype_mix"])
        assert "TXT" in mixes
        # min_level 5 drops the level-4 single-chunk tools (dnscat et al.)
        assert all(
            len(sample.split(".")) >= 5
            for c in report["candidates"]
            for sample in c["samples"]
        )


# Each filter option that configures the pipeline, as flags with a value
# that is not its default (L a domain list, P a public-suffix list), and
# the one FilterConfig field it sets.
FILTER_OPTION_FIELDS = [
    (["--types", "NULL"], "prefilter_types"),
    (["--min-level", "3"], "min_level"),
    (["--min-subdomains", "1"], "min_distinct_fqdns"),
    (["--cdn-list", "L"], "cdn"),
    (["--tunnel-list", "L"], "known_tunnels"),
    (["--watchlist", "L"], "watchlist"),
    (["--drop-daily-seen"], "drop_daily_seen"),
    (["--drop-single-entry"], "drop_single_entry"),
    (["--alexa", "L"], "alexa_domains"),
    (["--observation-days", "5"], "observation_days"),
    (["--psl", "P"], "psl"),
]


class TestFilterOptions:
    """No filter option does nothing: each sets its own config field."""

    def test_every_pipeline_option_has_a_row(self):
        from pdnskit.cli import _COMMANDS

        flags = {option.flags[0] for option in _COMMANDS["filter"].options}
        not_pipeline = {"--out", "--format", "--dedup", "--config"}
        assert flags - not_pipeline == {args[0] for args, _ in FILTER_OPTION_FIELDS}

    @pytest.mark.parametrize("args, field", FILTER_OPTION_FIELDS, ids=[args[0] for args, _ in FILTER_OPTION_FIELDS])
    def test_option_sets_exactly_its_field(self, run_cli, tmp_path, monkeypatch, args, field):
        from pdnskit import cli, pipeline

        configs = []

        def record(stream, config):
            configs.append(config)
            return pipeline.run_pipeline(stream, config)

        monkeypatch.setattr(cli, "run_pipeline", record)
        corpus = tmp_path / "c.ndjson"
        write_ndjson(corpus, [ndjson_line(rrname=f"x{i}.t.teriava.com.", rrtype="NULL") for i in range(3)])
        values = {"L": tmp_path / "domains.txt", "P": tmp_path / "psl.dat"}
        values["L"].write_text("example.org\n", encoding="utf-8")
        values["P"].write_text("com\n", encoding="utf-8")
        assert run_cli("filter", corpus, "--out", tmp_path / "default").exit_code == 0
        result = run_cli("filter", corpus, "--out", tmp_path / "given", *(values.get(a, a) for a in args))
        assert result.exit_code == 0, result.output
        default, given = configs
        assert [f for f in default._fields if getattr(given, f) != getattr(default, f)] == [field]


class TestClassifyCommand:
    def test_attributions_and_metrics(self, run_cli, demo_corpus, tmp_path):
        corpus, labels = demo_corpus
        out = tmp_path / "cls"
        result = run_cli("classify", corpus, "--out", out, "--labels", labels)
        assert result.exit_code == 0, result.output
        rows = (out / "attributions.csv").read_text().splitlines()
        assert rows[0] == "sld,implementation,agreement,unknown_fraction,entry_count"
        by_sld = {line.split(",")[0]: line.split(",")[1] for line in rows[1:]}
        assert by_sld["tun-alpha.net"] == "iodine-null"
        assert by_sld["tun-beta.org"] == "dns2tcp"
        assert by_sld["53r.de"] == "your-freedom"
        assert by_sld["qv4.in"] == "tunnelguru"
        assert by_sld["example-shop.com"] == "unknown"
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["tunnel_accuracy"] >= 0.97
        assert metrics["benign_unknown_rate"] == 1.0
        assert (out / "confusion_matrix.csv").exists()

    def test_profiles_env_var(self, run_cli, demo_corpus, tmp_path, monkeypatch):
        # A one-profile file via PDNSKIT_PROFILES: nothing else matches.
        custom = tmp_path / "only_dnscat.conf"
        custom.write_text(
            "[dnscat]\n"
            "rrtypes = CNAME\n"
            "levels = 4..4\n"
            "label4_len = 60..60\n"
            "label5_len = 60..60\n"
            "payload_len = 55..65\n"
            "encodings = hex\n"
            "first_char = digit\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("PDNSKIT_PROFILES", str(custom))
        corpus, _ = demo_corpus
        out = tmp_path / "envout"
        result = run_cli("classify", corpus, "--out", out)
        assert result.exit_code == 0
        rows = (out / "attributions.csv").read_text().splitlines()[1:]
        implementations = {line.split(",")[1] for line in rows}
        assert implementations <= {"dnscat", "unknown"}

    def test_stats_dedup_flag(self, run_cli, tmp_path):
        lines = [ndjson_line(rrname="same.x.com.", domain="x.com.")] * 5
        corpus = tmp_path / "dup.ndjson"
        write_ndjson(corpus, lines)
        out = tmp_path / "dd"
        assert run_cli("stats", corpus, "--out", out, "--dedup").exit_code == 0
        summary = json.loads((out / "stats_summary.json").read_text())
        assert summary["total_entries"] == 1
        ingest = json.loads((out / "ingest_stats.json").read_text())
        assert ingest["deduplicated"] == 4
        assert ingest["accepted"] == 1
        rejected = sum(ingest["rejected_by_error"].values())
        assert ingest["read"] == ingest["accepted"] + rejected + ingest["deduplicated"]

    def test_benign_only_corpus_all_unknown(self, run_cli, tmp_path):
        from pdnskit.tunnelgen import BackgroundSpec, GenConfig

        cfg = GenConfig(
            seed=55,
            background=[BackgroundSpec(k, f"b-{k}.org", 8) for k in (
                "plain-a", "cdn-like", "spf-txt", "dkim-txt", "localhost-style"
            )],
        )
        corpus, _ = write_corpus(generate(cfg, ProfileSet.default()), tmp_path / "b.ndjson")
        out = tmp_path / "out"
        assert run_cli("classify", corpus, "--out", out).exit_code == 0
        rows = (out / "attributions.csv").read_text().splitlines()[1:]
        assert rows and all(line.split(",")[1] == "unknown" for line in rows)


class TestGenCommand:
    def test_demo_corpus_roundtrip(self, run_cli, tmp_path):
        out = tmp_path / "gen"
        result = run_cli("gen", "--demo", "--out", out)
        assert result.exit_code == 0
        assert (out / "corpus.ndjson").exists()
        assert (out / "corpus.labels.csv").exists()

    def test_config_and_demo_are_exclusive(self, tmp_path):
        assert main(["gen", "--demo", "--config", "x.json", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("name", ["../escaped.ndjson", "sub/c.ndjson", "", ".", ".."])
    def test_name_must_be_bare(self, tmp_path, capsys, name):
        out = tmp_path / "gen"
        assert main(["gen", "--demo", "--out", str(out), "--name", name]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"Error: --name must be a bare file name, not {name!r}"
        assert list(tmp_path.iterdir()) == []

    def test_from_config_json(self, run_cli, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "days": 1,
                    "tunnels": [
                        {"profile": "dnscat", "sld": "ct.example", "third": "c", "payload_bytes": 300}
                    ],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        result = run_cli("gen", "--config", cfg, "--out", out, "--name", "c.ndjson.gz")
        assert result.exit_code == 0
        assert (out / "c.ndjson.gz").exists()
        assert (out / "c.labels.csv").exists()

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        config = Path(__file__).resolve().parent / "golden" / "gen" / "every_shape.json"
        values = json.loads(config.read_text(encoding="utf-8"))
        assert values["seed"] != 12
        reseeded = tmp_path / "reseeded.json"
        reseeded.write_text(json.dumps(dict(values, seed=12)), encoding="utf-8")
        runs = {
            "flag": ["--config", config, "--seed", 12],
            "file": ["--config", reseeded],
            "own": ["--config", config],
        }
        written = {}
        for run, args in runs.items():
            assert main(["gen", *map(str, args), "--out", str(tmp_path / run)]) == 0
            written[run] = {path.name: path.read_bytes() for path in (tmp_path / run).iterdir()}
        assert written["flag"] == written["file"]
        assert written["flag"]["corpus.ndjson"] != written["own"]["corpus.ndjson"]


class TestReportCommand:
    def test_combined_summary(self, run_cli, demo_corpus, tmp_path):
        corpus, labels = demo_corpus
        stats_dir, filter_dir, cls_dir = tmp_path / "s", tmp_path / "f", tmp_path / "c"
        run_cli("stats", corpus, "--out", stats_dir)
        run_cli("filter", corpus, "--out", filter_dir)
        run_cli("classify", corpus, "--out", cls_dir, "--labels", labels)
        out = tmp_path / "report.txt"
        result = run_cli(
            "report", "--stats", stats_dir, "--filter", filter_dir,
            "--classify", cls_dir, "--out", out,
        )
        assert result.exit_code == 0
        text = out.read_text()
        assert "record type shares" in text
        assert "candidate SLDs" in text
        assert "labeled accuracy" in text

    def test_missing_artifact_names_file(self, tmp_path, capsys):
        (tmp_path / "hollow").mkdir()
        code = main(["report", "--stats", str(tmp_path / "hollow"), "--out", str(tmp_path / "r.txt")])
        assert code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and str(tmp_path / "hollow" / "stats_summary.json") in errors[0]
        assert [path.name for path in tmp_path.iterdir()] == ["hollow"]

    @pytest.mark.parametrize("n_lines, cut", [(41, False), (42, False), (43, True), (60, True)])
    def test_attributions_cut_only_when_a_line_is_left_out(self, tmp_path, n_lines, cut):
        cls_dir = tmp_path / "c"
        cls_dir.mkdir()
        rows = ["sld,implementation,agreement,unknown_fraction,entry_count"]
        rows += [f"s{i}.example,unknown,1.000000,1.000000,1" for i in range(n_lines - 1)]
        (cls_dir / "attributions.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "r.txt"
        assert main(["report", "--classify", str(cls_dir), "--out", str(out)]) == 0
        quoted = out.read_text().split("implementation attributions per SLD:\n")[1].splitlines()
        shown = [line for line in quoted if line.startswith("  ") and line != "  ..."]
        assert shown == [f"  {row}" for row in rows[:42]]
        assert ("  ..." in quoted) == cut

    def test_stable_across_runs(self, run_cli, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        stats_dir = tmp_path / "s"
        run_cli("stats", corpus, "--out", stats_dir)
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        run_cli("report", "--stats", stats_dir, "--out", out1)
        run_cli("report", "--stats", stats_dir, "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()


# Usage errors, one row each: (id, argv, the text the last stderr line
# names). In argv, C is a corpus, O a --out directory that does not exist,
# F an existing file, S a stats --out directory and R a report path.
USAGE_ERRORS = [
    ("unknown-command", ["frobnicate"], "'frobnicate'"),
    ("no-inputs", ["stats"], "INPUTS"),
    ("no-out", ["stats", "C"], "--out"),
    ("out-is-a-file", ["stats", "C", "--out", "F"], "--out"),
    ("unknown-format", ["stats", "C", "--out", "O", "--format", "xml"], "--format"),
    ("unknown-option", ["stats", "C", "--out", "O", "--frobnicate"], "--frobnicate"),
    ("abbreviated-option", ["stats", "C", "--ou", "O"], "--ou"),
    ("top-without-value", ["stats", "C", "--out", "O", "--top"], "--top"),
    ("top-not-an-integer", ["stats", "C", "--out", "O", "--top", "abc"], "--top"),
    ("report-out-is-a-directory", ["report", "--stats", "S", "--out", "S"], "--out"),
    ("report-stats-is-a-file", ["report", "--stats", "F", "--out", "R"], "--stats"),
    ("nul-in-input", ["stats", "a\0b", "--out", "O"], "Invalid value for 'INPUTS...'"),
]


class TestCommandLineContract:
    """What a command line gets, in process through `main(argv)`."""

    @pytest.fixture
    def paths(self, tmp_path):
        lines = [ndjson_line(rrname=f"h{i}.x{i % 3}.com.", domain=f"x{i % 3}.com.") for i in range(6)]
        write_ndjson(tmp_path / "c.ndjson", lines + lines[:2])  # two repeats
        (tmp_path / "file").write_text("x", encoding="utf-8")
        assert main(["stats", str(tmp_path / "c.ndjson"), "--out", str(tmp_path / "s")]) == 0
        return {"C": tmp_path / "c.ndjson", "O": tmp_path / "out", "F": tmp_path / "file",
                "S": tmp_path / "s", "R": tmp_path / "r.txt"}

    @pytest.mark.parametrize("argv, names", [row[1:] for row in USAGE_ERRORS], ids=[row[0] for row in USAGE_ERRORS])
    def test_usage_error_exits_one_naming_the_argument(self, run_cli, paths, argv, names):
        result = run_cli(*(paths.get(arg, arg) for arg in argv))
        assert result.exit_code == 1
        last = result.stderr.splitlines()[-1]
        assert last.startswith("Error: ") and names in last, result.stderr
        assert not paths["O"].exists() and not paths["R"].exists()

    def test_no_command_prints_the_commands_on_stderr(self, run_cli):
        result = run_cli()
        assert result.exit_code == 1 and result.stdout == ""
        assert all(name in result.stderr for name in ("stats", "filter", "classify", "gen", "report"))

    @pytest.mark.parametrize("argv, shown", [(["--help"], "classify"), (["stats", "--help"], "--top")])
    def test_help_on_stdout(self, run_cli, argv, shown):
        result = run_cli(*argv)
        assert result.exit_code == 0 and result.stderr == ""
        assert shown in result.stdout and "--help" in result.stdout

    def test_version(self, run_cli):
        result = run_cli("--version")
        assert (result.exit_code, result.output) == (0, "pdnskit, version 0.1.0\n")

    def read(self, outdir: Path) -> dict:
        return json.loads((outdir / "ingest_stats.json").read_text(encoding="utf-8"))

    def test_inputs_on_both_sides_of_an_option(self, run_cli, paths):
        assert run_cli("stats", paths["C"], "--out", paths["O"], paths["C"]).exit_code == 0
        assert self.read(paths["O"])["read"] == 16

    def test_option_values_after_an_equals_sign(self, run_cli, paths):
        assert run_cli("stats", paths["C"], f"--out={paths['O']}", "--top=2").exit_code == 0
        assert len((paths["O"] / "top_slds.csv").read_text(encoding="utf-8").splitlines()) == 1 + 2

    def test_dash_reads_stdin(self, run_cli, paths, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(paths["C"].read_bytes())))
        assert run_cli("stats", "-", "--out", paths["O"]).exit_code == 0
        assert self.read(paths["O"])["read"] == 8

    @pytest.mark.parametrize("flags, deduplicated", [(["--dedup", "--no-dedup"], 0), (["--no-dedup", "--dedup"], 2)])
    def test_last_dedup_flag_wins(self, run_cli, paths, flags, deduplicated):
        assert run_cli("stats", paths["C"], "--out", paths["O"], *flags).exit_code == 0
        assert self.read(paths["O"])["deduplicated"] == deduplicated

    @pytest.mark.parametrize("env, code", [(True, 0), (False, 2)], ids=["set", "empty"])
    def test_profiles_env_var_wins_over_the_config_file(self, run_cli, paths, monkeypatch, tmp_path, env, code):
        # The config file names a missing profile file: read, it exits 2.
        copy = tmp_path / "profiles.conf"
        copy.write_bytes(resources.files("pdnskit.data").joinpath("tunnel_profiles.conf").read_bytes())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profiles_path": str(tmp_path / "missing.conf")}), encoding="utf-8")
        monkeypatch.setenv("PDNSKIT_PROFILES", str(copy) if env else "")
        assert run_cli("classify", paths["C"], "--out", paths["O"], "--config", cfg).exit_code == code


GOOD_PROFILE = (
    b"[toy]\n"
    b"rrtypes = TXT\n"
    b"levels = 4..5\n"
    b"label4_len = 10..20\n"
    b"label5_len = 10..20\n"
    b"payload_len = 10..41\n"
    b"encodings = hex\n"
    b"first_char = letter\n"
    b"markers = toytool\n"
)


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["stats"]) == 1  # missing inputs
        assert main(["frobnicate"]) == 1

    def test_missing_input_is_two(self, tmp_path):
        assert main(["stats", str(tmp_path / "missing.ndjson"), "--out", str(tmp_path)]) == 2

    def test_config_error_is_three(self, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_level": 0}), encoding="utf-8")
        assert main(["filter", str(corpus), "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("option", ["--min-level", "--min-subdomains", "--observation-days"])
    def test_filter_count_below_one_rejected(self, demo_corpus, tmp_path, capsys, option, value):
        corpus, _ = demo_corpus
        out = tmp_path / "out"
        assert main(["filter", str(corpus), "--out", str(out), option, value, "--drop-daily-seen"]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if option in line]
        assert len(errors) == 1 and "x>=1" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, config, code",
        [
            (["--top", "-1"], None, 1),
            (["--top", "0"], None, 1),
            ([], {"top_n": -1}, 3),
            ([], {"top_n": 0}, 3),
        ],
    )
    def test_top_below_one_rejected(self, demo_corpus, tmp_path, capsys, args, config, code):
        corpus, _ = demo_corpus
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            args = args + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["stats", str(corpus), "--out", str(out)] + args) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "--top" in line]
        assert len(errors) == 1 and "x>=1" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, config, code",
        [
            (["--min-matches", "9"], None, 1),
            (["--min-matches", "-3"], None, 1),
            ([], {"min_matches": 9}, 3),
            ([], {"min_matches": -1}, 3),
        ],
    )
    def test_min_matches_outside_zero_to_eight_rejected(
        self, demo_corpus, tmp_path, capsys, args, config, code
    ):
        corpus, _ = demo_corpus
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            args = args + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["classify", str(corpus), "--out", str(out)] + args) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "--min-matches" in line]
        assert len(errors) == 1 and "0<=x<=8" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("via", ["classify", "gen", "env"])
    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"[bad\n" + GOOD_PROFILE, id="no-section-header"),
            pytest.param(GOOD_PROFILE + GOOD_PROFILE, id="duplicate-section"),
            pytest.param(GOOD_PROFILE.replace(b"payload_len = 10..41\n", b""), id="missing-key"),
            pytest.param(GOOD_PROFILE.replace(b"10..41", b"41..10"), id="empty-range"),
            pytest.param(GOOD_PROFILE.replace(b"10..41", b"ten"), id="non-numeric-range"),
            pytest.param(GOOD_PROFILE.replace(b"= hex", b"= rot13"), id="unknown-encoding"),
            pytest.param(GOOD_PROFILE.replace(b"= letter", b"= vowel"), id="unknown-char-class"),
            pytest.param(GOOD_PROFILE.replace(b"= TXT", b"= BOGUS TYPE"), id="bad-rrtype"),
            pytest.param(GOOD_PROFILE + b"provider_sld = xchar.de\n", id="bad-provider"),
            pytest.param(GOOD_PROFILE.replace(b"toytool", b"toyt\xe9ol"), id="non-utf8"),
            pytest.param(b"", id="empty-file"),
        ],
    )
    def test_bad_profile_file_is_three(
        self, demo_corpus, tmp_path, capsys, monkeypatch, via, content
    ):
        corpus, _ = demo_corpus
        path = tmp_path / "profiles.conf"
        path.write_bytes(content)
        out = tmp_path / "out"
        if via == "gen":
            args = ["gen", "--demo", "--out", str(out), "--profiles", str(path)]
        elif via == "classify":
            args = ["classify", str(corpus), "--out", str(out), "--profiles", str(path)]
        else:
            monkeypatch.setenv("PDNSKIT_PROFILES", str(path))
            args = ["classify", str(corpus), "--out", str(out)]
        assert main(args) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("config error: bad profile file")
        assert not out.exists()

    def test_good_profile_file_loads(self, tmp_path):
        # Each bad file above breaks this one in one way.
        path = tmp_path / "profiles.conf"
        path.write_bytes(GOOD_PROFILE)
        assert [p.name for p in ProfileSet.from_file(path)] == ["toy"]

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'{"seed": 1,', id="truncated-json"),
            pytest.param(b"[1, 2]", id="top-level-array"),
            pytest.param(b'"seed"', id="top-level-string"),
            pytest.param(b'{"seed": "\xff"}', id="non-utf8"),
            pytest.param(
                b'{"tunnels": [{"profile": "iodine-null", "sld": "t.example", "payload_bytes": 1e12}]}',
                id="float-payload-bytes",
            ),
            pytest.param(
                b'{"tunnels": [{"profile": "iodine-null", "sld": "t.example", "payload_bytes": 1000000000000}]}',
                id="payload-over-query-cap",
            ),
            pytest.param(
                b'{"background": [{"kind": "plain-a", "sld": "x.example", "queries": 2.5}]}',
                id="float-queries",
            ),
            pytest.param(
                b'{"background": [{"kind": "plain-a", "sld": "x.example", "queries": %d}]}'
                % (MAX_TOTAL_QUERIES + 1),
                id="queries-over-cap",
            ),
            pytest.param(b'{"seed": 2.5}', id="float-seed"),
            pytest.param(b'{"seed": true}', id="bool-seed"),
            pytest.param(b'{"seed": "7"}', id="string-seed"),
            pytest.param(b'{"days": true}', id="bool-days"),
            pytest.param(b'{"days": 1e3}', id="float-days"),
            pytest.param(
                b'{"tunnels": [{"profile": "iodine-null", "sld": "bad..example"}]}',
                id="bad-sld-name",
            ),
            pytest.param(b'{"background": [{"kind": "plain-a", "sld": 7}]}', id="non-string-sld"),
            pytest.param(b'{"tunnels": [{"profile": ["x"], "sld": "t.example"}]}', id="non-string-profile"),
            pytest.param(
                b'{"days": 100000000, "background": [{"kind": "plain-a", "sld": "x.example"}]}',
                id="days-past-year-9999",
            ),
        ],
    )
    def test_bad_gen_config_is_three(self, tmp_path, capsys, content):
        cfg = tmp_path / "gen.json"
        cfg.write_bytes(content)
        out = tmp_path / "out"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("config error: bad generator config")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, config, code",
        [
            (["--types", "NULL,BOGUS TYPE"], None, 1),
            (["--types", '["NULL"]'], None, 1),
            ([], {"types": ["NULL", "BOGUS TYPE"]}, 3),
            ([], {"types": "NULL,A.B"}, 3),
            ([], {"types": ["NULL", 16]}, 3),
            ([], {"types": {"NULL": True}}, 3),
        ],
    )
    def test_bad_types_rejected(self, demo_corpus, tmp_path, capsys, args, config, code):
        corpus, _ = demo_corpus
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            args = args + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["filter", str(corpus), "--out", str(out)] + args) == code
        errors = [line for line in capsys.readouterr().err.splitlines() if "--types" in line]
        assert len(errors) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config",
        [
            ("stats", {"top_n": 2.5}),
            ("stats", {"top_n": True}),
            ("filter", {"min_level": 3.9}),
            ("filter", {"min_level": 4.0}),
            ("filter", {"min_subdomains": False}),
            ("filter", {"observation_days": 7.5}),
            ("classify", {"min_matches": 6.7}),
            ("classify", {"min_matches": True}),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={json.dumps(x)}" for k, x in v.items()),
    )
    def test_non_integer_config_value_is_three(self, demo_corpus, tmp_path, capsys, command, config):
        # An integer option neither truncates 2.5 to 2 nor reads true as 1.
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, str(corpus), "--out", str(out), "--config", str(cfg)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("config error:")
        assert "is not an integer" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("stats", {"dedup": 1}, "'--dedup'"),
            ("stats", {"dedup": "yes"}, "'--dedup'"),
            ("stats", {"top_n": "3"}, "'--top'"),
            ("stats", {"psl_path": 5}, "'--psl'"),
            ("stats", {"fmt": "xml"}, "'--format'"),
            ("filter", {"types": ""}, "'--types'"),
            ("classify", {"labels_path": ["a.csv"]}, "'--labels'"),
            ("stats", {"inputs": ["c.ndjson"]}, "'inputs'"),
            ("stats", {"outdir": "elsewhere"}, "'outdir'"),
            ("filter", {"config": "other.json"}, "'config'"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={json.dumps(x)}" for k, x in v.items()),
    )
    def test_config_value_of_another_type_or_unsettable_key_is_three(
        self, demo_corpus, tmp_path, capsys, command, config, named
    ):
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, str(corpus), "--out", str(out), "--config", str(cfg)]) == 3
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"config error: config file {cfg}: ")
        assert named in errors[0]
        assert not out.exists()

    def test_null_config_value_keeps_the_default(self, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_n": None, "fmt": None, "dedup": None, "psl_path": None}), encoding="utf-8")
        plain, nulls = tmp_path / "plain", tmp_path / "nulls"
        assert main(["stats", str(corpus), "--out", str(plain)]) == 0
        assert main(["stats", str(corpus), "--out", str(nulls), "--config", str(cfg)]) == 0
        assert sorted(p.name for p in nulls.iterdir()) == sorted(p.name for p in plain.iterdir())
        for path in plain.iterdir():
            assert path.read_bytes() == (nulls / path.name).read_bytes(), path.name

    def test_integer_config_value_still_applies(self, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_n": 2}), encoding="utf-8")
        assert main(["stats", str(corpus), "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 0
        assert len((tmp_path / "out" / "top_slds.csv").read_text().splitlines()) == 1 + 2

    def test_success_is_zero(self, demo_corpus, tmp_path):
        corpus, _ = demo_corpus
        assert main(["stats", str(corpus), "--out", str(tmp_path / "ok")]) == 0

    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pdnskit", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "stats" in result.stdout and "classify" in result.stdout

    def test_version_from_source_tree(self):
        result = subprocess.run(
            [sys.executable, "-m", "pdnskit", "--version"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "0.1.0" in result.stdout


def test_run_demo_script_writes_the_combined_report(tmp_path):
    """The README's end-to-end entry point: gen, stats, filter, classify, report."""
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_demo.py"), str(tmp_path / "demo")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    report = (tmp_path / "demo" / "report.txt").read_text(encoding="utf-8")
    stats = json.loads((tmp_path / "demo" / "stats" / "stats_summary.json").read_text(encoding="utf-8"))
    candidates = (tmp_path / "demo" / "filter" / "candidates.txt").read_text(encoding="utf-8")
    attributions = (tmp_path / "demo" / "classify" / "attributions.csv").read_text(encoding="utf-8")
    assert f"corpus: {stats['total_entries']} entries, {stats['distinct_slds']} SLDs" in report
    assert candidates.rstrip() in report
    assert "implementation attributions per SLD:" in report
    assert all(f"  {line}" in report for line in attributions.splitlines()[:5])
    assert "labeled accuracy: " in report
    assert sorted(p.name for p in (tmp_path / "demo").iterdir()) == [
        "classify", "corpus", "filter", "report.txt", "stats"
    ]
