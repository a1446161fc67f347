"""Byte-exact golden-file checks on a hand-written mini corpus.

The corpus in tests/golden/ exercises every pipeline stage: a planted
NULL tunnel, provider-domain traffic, a watchlist IOC seen via type A,
plain/benign names, SPF and DKIM records, reverse DNS, and a
single-hostname SLD. Expected artifacts were verified by hand and
frozen; any byte-level drift in the emitters fails here.

tests/golden/post_filters/ holds the same corpus filtered with every
post-filter on and `covert-x.net` on the alexa list. It pins that the
first post-filter to drop a row names its reason (`covert-x.net` is
reported as daily-seen, not alexa-top), that `one-shot.io` falls to the
single-entry filter, and that the alexa row then removes nothing.

tests/golden/gen/SHA256SUMS pins the bytes `gen` writes for `--demo` and
for every_shape.json, which holds every shipped profile and every
background class: the NDJSON text, the decompressed text of a `.gz` run
(the compressed bytes depend on the zlib build) and the labels sidecar.
"""

import gzip
import hashlib
from pathlib import Path

import pytest

from pdnskit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def filter_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_filter")
    code = main(
        [
            "filter",
            str(GOLDEN / "mini_corpus.ndjson"),
            "--out",
            str(out),
            "--watchlist",
            "builtin",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def post_filter_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_post_filters")
    code = main(
        [
            "filter",
            str(GOLDEN / "mini_corpus.ndjson"),
            "--out",
            str(out),
            "--watchlist",
            "builtin",
            "--min-subdomains",
            "1",
            "--drop-daily-seen",
            "--drop-single-entry",
            "--alexa",
            str(GOLDEN / "post_filters" / "alexa.txt"),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def stats_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_stats")
    assert main(["stats", str(GOLDEN / "mini_corpus.ndjson"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["stage_counts.csv", "candidates.json", "candidates.txt"])
def test_filter_artifacts_match_golden(filter_out, name):
    assert (filter_out / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["stage_counts.csv", "candidates.json", "candidates.txt"])
def test_post_filter_artifacts_match_golden(post_filter_out, name):
    assert (post_filter_out / name).read_bytes() == (GOLDEN / "post_filters" / name).read_bytes()


@pytest.mark.parametrize("name", ["rrtype_shares.csv", "sld_cdf.csv"])
def test_stats_artifacts_match_golden(stats_out, name):
    assert (stats_out / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_stage_counts_hand_traceable(filter_out):
    # 13 entries; 8 are NULL/TXT; provider drops 2; special-use drops the
    # SPF and DKIM records; one single-hostname SLD falls at grouping.
    rows = (filter_out / "stage_counts.csv").read_text().splitlines()
    assert rows[1:] == [
        "0,rrtype-prefilter,13,8,5",
        "1,known-domains,8,6,4",
        "2,min-level,6,6,4",
        "4,special-use,6,4,2",
        "3,min-subdomains,4,3,1",
    ]


GEN_SUMS = {
    name: digest
    for digest, name in (line.split("  ") for line in (GOLDEN / "gen" / "SHA256SUMS").read_text().splitlines())
}


@pytest.mark.parametrize("config", ["demo", "every_shape"])
@pytest.mark.parametrize("name", ["corpus.ndjson", "corpus.ndjson.gz"])
def test_gen_output_matches_golden_digests(tmp_path, config, name):
    source = ["--demo"] if config == "demo" else ["--config", str(GOLDEN / "gen" / f"{config}.json")]
    assert main(["gen", *source, "--out", str(tmp_path), "--name", name]) == 0
    corpus = (tmp_path / name).read_bytes()
    if name.endswith(".gz"):
        corpus = gzip.decompress(corpus)
    assert hashlib.sha256(corpus).hexdigest() == GEN_SUMS[f"{config}/corpus.ndjson"]
    labels = (tmp_path / "corpus.labels.csv").read_bytes()
    assert hashlib.sha256(labels).hexdigest() == GEN_SUMS[f"{config}/corpus.labels.csv"]
