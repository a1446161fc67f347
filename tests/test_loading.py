"""What each command loads, the names a tracer replaces on `pdnskit.cli`,
and the names each module exports.

Every command is its own process, so whatever `pdnskit.cli` imports at
start-up is paid by every command. The budget below keeps a top-level import
from loading another command's modules, OpenSSL's `_hashlib`, or `click`,
`dataclasses` and `inspect` (which `dataclasses` imports) again: no command
needs `click`, `dataclasses` or `inspect`, and only `gen` hashes. `gen`'s
deflate worker needs `threading`, which every command loads, and `queue`,
which no reading command loads; no command loads `concurrent.futures`.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pdnskit
from pdnskit.fingerprint import ProfileSet
from pdnskit.tunnelgen import demo_config, generate, write_corpus

SRC = str(Path(pdnskit.__file__).resolve().parent.parent)

# Runs `pdnskit.cli.main(argv)` in a fresh interpreter and prints what it loaded.
_PROBE = """
import json, sys
from pdnskit.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "pdnskit": sorted(m for m in sys.modules if m.startswith("pdnskit.")),
    "hashlib": "hashlib" in sys.modules,
    "_hashlib": "_hashlib" in sys.modules,
    "heavy": sorted(m for m in ("click", "dataclasses", "inspect") if m in sys.modules),
    "queue": "queue" in sys.modules,
    "concurrent": "concurrent.futures" in sys.modules,
}))
"""


def _fresh_python(code: str, *args, cwd=None) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = demo_config(seed=3)
    cfg = cfg._replace(tunnels=cfg.tunnels[:1], background=cfg.background[:2])
    return write_corpus(generate(cfg, ProfileSet.default()), root / "tiny.ndjson")


def _loaded(*args, cwd):
    facts = json.loads(_fresh_python(_PROBE, *args, cwd=cwd))
    assert facts["code"] == 0
    return facts


class TestImportBudget:
    COMMON = {"pdnskit.cli", "pdnskit.ingest", "pdnskit.model", "pdnskit.tables"}

    def test_help_loads_only_the_common_modules(self, tmp_path):
        facts = _loaded("--help", cwd=tmp_path)
        assert set(facts["pdnskit"]) == self.COMMON
        assert not facts["hashlib"] and not facts["_hashlib"]
        assert facts["heavy"] == []

    @pytest.mark.parametrize(
        "command, extra, absent",
        [
            ("stats", ["--dedup"], {"pdnskit.pipeline", "pdnskit.fingerprint", "pdnskit.tunnelgen"}),
            ("filter", [], {"pdnskit.fingerprint", "pdnskit.stats", "pdnskit.tunnelgen"}),
            ("classify", ["--labels"], {"pdnskit.tunnelgen", "pdnskit.stats", "pdnskit.pipeline"}),
        ],
    )
    def test_command_loads_its_own_modules_and_no_hashlib(
        self, tiny_corpus, tmp_path, command, extra, absent
    ):
        corpus, labels = tiny_corpus
        if extra == ["--labels"]:
            extra = ["--labels", labels]
        facts = _loaded(command, corpus, "--out", tmp_path / "out", *extra, cwd=tmp_path)
        loaded = set(facts["pdnskit"])
        assert self.COMMON <= loaded
        assert not loaded & absent, sorted(loaded & absent)
        assert not facts["hashlib"] and not facts["_hashlib"]
        assert facts["heavy"] == []
        assert not facts["queue"] and not facts["concurrent"]

    def test_gen_loads_the_generator_and_hashlib(self, tmp_path):
        facts = _loaded("gen", "--demo", "--out", tmp_path / "out", "--name", "corpus.ndjson.gz", cwd=tmp_path)
        assert {"pdnskit.tunnelgen", "pdnskit.fingerprint"} <= set(facts["pdnskit"])
        assert facts["hashlib"]
        assert facts["heavy"] == []
        assert facts["queue"] and not facts["concurrent"]

    def test_report_loads_only_the_common_modules(self, tiny_corpus, tmp_path):
        from pdnskit.cli import main

        assert main(["stats", str(tiny_corpus[0]), "--out", str(tmp_path / "stats")]) == 0
        facts = _loaded("report", "--stats", tmp_path / "stats", "--out", tmp_path / "report.txt", cwd=tmp_path)
        assert set(facts["pdnskit"]) == self.COMMON
        assert not facts["hashlib"] and not facts["_hashlib"]
        assert facts["heavy"] == []


# (name on pdnskit.cli, the command that calls it, extra arguments)
HOOKED = [
    ("read_stream", "stats", []),
    ("first_seen_filter", "stats", ["--dedup"]),
    ("run_pipeline", "filter", []),
    ("classify", "classify", []),
]


class TestTraceHooks:
    """A tracer replaces these names on the `pdnskit.cli` module, before any
    command has run, and counts the calls the command makes through them."""

    def test_names_resolve_before_any_command(self):
        code = """
import pdnskit.cli as cli
from pdnskit import fingerprint, ingest, pipeline
names = ("read_stream", "first_seen_filter", "run_pipeline", "classify")
owners = (ingest, ingest, pipeline, fingerprint)
print(all(getattr(cli, n) is getattr(m, n) for n, m in zip(names, owners)))
"""
        assert _fresh_python(code) == "True"

    def test_unknown_name_is_an_attribute_error(self):
        cli_module = importlib.import_module("pdnskit.cli")
        assert getattr(cli_module, "no_such_name", None) is None

    @pytest.mark.parametrize("name, command, extra", HOOKED, ids=[h[0] for h in HOOKED])
    def test_command_calls_the_bound_name(self, tiny_corpus, tmp_path, monkeypatch, name, command, extra):
        cli_module = importlib.import_module("pdnskit.cli")
        original = getattr(cli_module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli_module, name, counting)
        corpus, _ = tiny_corpus
        assert cli_module.main([command, str(corpus), "--out", str(tmp_path / "out"), *extra]) == 0
        assert calls, f"{command} did not call cli.{name}"
        if name == "classify":
            n_entries = json.loads((tmp_path / "out" / "ingest_stats.json").read_text())["accepted"]
            assert len(calls) == n_entries


# Every module of the package but `__main__`, which runs the CLI on import.
MODULES = ["pdnskit"] + [f"pdnskit.{m.name}" for m in pkgutil.iter_modules(pdnskit.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name left in `__all__` after its definition is deleted is caught here."""
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
