"""Golden `ngg net` artifacts: SHA-256 of edges.txt and stats.json.

The digests were taken from the dense-matrix statistics and the per-row
edge-list writer. Any change to generation, statistics or the artifact
writers must leave them unchanged, so the files stay byte-identical for the
same seed. The M=1000 knobs are those of the benchmark's net_build workload.
"""

import hashlib

import pytest

from ngg.cli import main

SEED = 2013

# name -> (`ngg net` model arguments, sha256 of edges.txt, of stats.json)
GOLDEN = {
    "rg-1000": (
        ["--model", "rg", "--m", "1000", "--p", "0.05"],
        "e9e919f7ea1a956e0b03d3bada63531c104ff4df58ca7e76d1b9d6f042be3efc",
        "7ebd3061c8e8bf6b9bffb49d57f460f822cd25b3072edb6d4cf26b6f1acb3faf"),
    "ws-1000": (
        ["--model", "ws", "--m", "1000", "--k", "20", "--rp", "0.2"],
        "e9b59c0b2d1474ecdbcb430d58877e4f435459413a072896ae0b73f901c03bd6",
        "66631cbba622c0f63339923312e7037828a8fc2cd6063a20a222b7c2a2059295"),
    "ba-1000": (
        ["--model", "ba", "--m", "1000", "--n0", "51", "--e", "50"],
        "26844bcacd1f2c0f4c671111d38dbc4dcea6785603e83e1fb198b2bbc6d6e76f",
        "767b3a65a33747e9d1de643acbf93fdbeb25a279f5d959233dc29dd9d393e7da"),
    "rg-60": (
        ["--model", "rg", "--m", "60", "--p", "0.1"],
        "8904e69b0068a17af74d5fc613d976d2c7f4989fc4c66adf0410f90493da1c09",
        "1100a033b473e08177a69ce3bc1535f6059cf4c4aac4a630fda427741d9c6d6e"),
    "ws-60": (
        ["--model", "ws", "--m", "60", "--k", "3", "--rp", "0.25"],
        "f990f90af734c20eedc5cca8d99e2a1afe6b495deeccb36a6b12e7aefdcebf27",
        "e0d1a53c6980d1ba8b76d3780ee323b7306d3671cc75b953dd8056da2a4b27ea"),
    "ba-60": (
        ["--model", "ba", "--m", "60", "--n0", "4", "--e", "3"],
        "52380b755c2b1f6e941be1dbff90ef63fe9c9365f4b93b27d0c0d5dcc431d410",
        "db48a84d02cf9edc9b47105a61d5e313cc91a3d3885e59893a4be596771b9ca0"),
    # the first two samples are disconnected, so the third is built from
    # where the second left the generator
    "ws-30-retry": (
        ["--model", "ws", "--m", "30", "--k", "1", "--rp", "0.5"],
        "23a1dc02dd6e0b928a08c8f66ad734c3d100e35a37c418c4b5b5a453b5c1739d",
        "a4f7ae2aa8852e1034e348e520502c3cff19f7b2db8271bacdbc4a25ae827c8e"),
    "ws-60-rp1": (
        ["--model", "ws", "--m", "60", "--k", "3", "--rp", "1.0"],
        "a3d92c2ff78093726dea64d3be18056118c1cf4917516d02b5165bc30f00423e",
        "5f5ae7f6588f437f80e54f91c39f49a4314cefd74e8212795cbe85dd6729fbb3"),
    "rg-3": (
        ["--model", "rg", "--m", "3", "--p", "0.9"],
        "0b3cf00b23b6326ad092eee8085e08aae69de649967f0c67855d9d18a34aa5af",
        "679288b2d68760fda9d549e0dd9bc47fab7d34c4ee03e73b3d429ac0f0799137"),
    # n0 = 1: every new node makes one uniform draw, so the network is a tree
    "ba-200-n0-1": (
        ["--model", "ba", "--m", "200", "--n0", "1", "--e", "1"],
        "faa2cb2c4fecd556098ad7357fc37c3280271f87a992dfc13629b88c983d7ea7",
        "3eb08199fb5ce57db1ee568f04b42af765c4d7f7fbc28660911cd865dc4ed640"),
    # e = n0, and m is a multiple of neither 8 nor 64 (the packed row widths)
    "ba-130-e-n0": (
        ["--model", "ba", "--m", "130", "--n0", "5", "--e", "5"],
        "d8f501b56a9f999abf35a4bc3ad03d1c293fa965a9a0c77cb1e15c7bb1f2a05f",
        "2d3a0ac94dfc1b5ac0c3eedb877eada32ec8bdc042fb8f0a5b68655785beb17e"),
    # node ids run from two digits to three in the edge list
    "rg-101": (
        ["--model", "rg", "--m", "101", "--p", "0.1"],
        "134bfe7526ab18c005b3a9702a6a1c3ca08540fd0b874de4b7862c30234d86b7",
        "7d57c798ab56884f76c37d8b0cfdc7c88cadf796d1b57fe392bae569a551963f"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_net_artifacts_are_golden(tmp_path, capsys, name):
    argv, edges_digest, stats_digest = GOLDEN[name]
    assert main(["net", *argv, "--seed", str(SEED), "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.txt", "stats.json"]
    assert sha256(tmp_path / "edges.txt") == edges_digest
    assert sha256(tmp_path / "stats.json") == stats_digest
