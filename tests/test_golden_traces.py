"""Golden traces: SHA-256 of the trace CSV for fixed seeds.

The digests were taken from the straightforward dense-matrix engine. Any
change to the round code must leave them unchanged, which pins the RNG
stream, the order of every draw and every counter the trace records, not
only the statistics of the game.
"""

import hashlib

import numpy as np
import pytest

from ngg.engine import GameParams, run_to_convergence
from ngg.metrics import write_trace_csv
from ngg.netgen import NetworkSpec, generate

NET_SEED = 2013
GAME_SEED = 7

SPECS = {
    "rg": NetworkSpec("rg", 150, p=0.08),
    "ws": NetworkSpec("ws", 150, k=4, rp=0.1),
    "ba": NetworkSpec("ba", 150, n0=4, e=3),
}

# (family, mode, extra GameParams fields) -> (iterations, sha256 of the CSV)
GOLDEN = {
    ("rg", "ngg", ()): (
        263, "4058645d3d41c8ab7d8a894f78fd3a235f231c5f2b5aff8d1b93a4d98b369946"),
    ("rg", "ngmh", ()): (
        397, "de2a1a357b32b386c447fecdfee17ec588cc16a55145b06862c2e371d0478583"),
    ("rg", "minimal", ()): (
        4666, "ff461da71887351c0ef9dbb1a9cc5277d02b321af5a2239f2206850cc639ddbc"),
    ("ws", "ngg", ()): (
        766, "a9e8b8f919b74db353bb23ee46dc55550710da629b24b960abc1e2baebcd70a8"),
    ("ws", "ngmh", ()): (
        6501, "6c831d6d8785e67da0f0a9aada6541344fb5c837801856f14ece9f3db93635d8"),
    ("ws", "minimal", ()): (
        25015, "548e5c9a7380f81c11c35ad7bdbb095b98e21cd1d4be81aadcd5d4d62a1e6a5f"),
    ("ba", "ngg", ()): (
        379, "24602bcc67182cd8ae84889c922155d9a9118b70e041a9f30b78a108c60a2306"),
    ("ba", "ngmh", ()): (
        1152, "ef911c3ee76caef52aff709ffe82604592d0e96c974199bc443865895857f3f2"),
    ("ba", "minimal", ()): (
        8629, "e9d607738bbd0e1273ea8785d6a6d957f07b664e2631eda1a7532963a6e5a3f1"),
    # bounded vocabulary: inventions draw from the game RNG
    ("rg", "ngg", (("vocabulary", 3),)): (
        126, "3db1aa679a02fc5c237459d58da46cc64e3bf9bf74ce48dcce19f4eab3b6217b"),
    # three words for the whole population: memories keep colliding, so
    # hearers often hold the word already and adopts often change nothing
    ("ba", "minimal", (("vocabulary", 3),)): (
        4345, "20c89ef9b3840c234ef3059d74f37ea1e43bdc81dc89a7a5d0f298d2c93623e3"),
    ("rg", "ngmh", (("vocabulary", 3),)): (
        471, "e12ddb5176d76d30349ddabcbdcb87e5b19c29acfa4650790fa92726068ff489"),
    # above 2**32 inventions take numpy's integers(), not the scalar draw
    ("rg", "ngg", (("vocabulary", 2**40),)): (
        248, "b95e8c31c6510de7ca8538a83288bbca954378e2e9c6f0c25b150d6cf6f0292a"),
    ("ba", "minimal", (("vocabulary", 2**40),)): (
        8373, "ef52868550049fb301825cdfd51cfc6f4b95608162edffbb56f9b38253b3d4db"),
    ("rg", "ngmh", (("vocabulary", 2**40),)): (
        721, "53adb6452419b2674e6ff390e55233ef4145bc8d571e70a981690d3f3bee75a3"),
    # ba groups vary in size, so the realised size changes count and feedback
    ("ba", "ngg", (("group_size_basis", "actual"),)): (
        537, "c972c7f6411245ff0b202ac9571e24eee3d68a5f0994b3178d507e2693630f67"),
}


@pytest.mark.parametrize("family,mode,extra", list(GOLDEN),
                         ids=[f"{f}-{m}" + "".join(f"-{k}={v}" for k, v in e)
                              for f, m, e in GOLDEN])
def test_trace_digest_is_golden(tmp_path, family, mode, extra):
    net = generate(SPECS[family], np.random.default_rng(NET_SEED))
    params = GameParams(n=10, beta=0.5, mode=mode, **dict(extra))
    records, summary = run_to_convergence(net, params, GAME_SEED)
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    iterations, digest = GOLDEN[(family, mode, extra)]
    assert summary.converged
    assert len(records) == iterations
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# Paper scale: M=1000, N=20, so a round broadcasts 4 (beta 0.2) or 16
# (beta 0.8) weighted draws, on the networks of the canonical points.
PAPER_SPECS = {
    "rg": NetworkSpec("rg", 1000, p=0.05),
    "ws": NetworkSpec("ws", 1000, k=20, rp=0.2),
    "ba": NetworkSpec("ba", 1000, n0=51, e=50),
}

# (family, beta) -> (iterations, sha256 of the CSV)
GOLDEN_PAPER = {
    ("rg", 0.2): (
        946, "5f1f491cda41b9efd7d0085adf823a447ae12a5bbb8c68a08a6a261acaec4ec1"),
    ("rg", 0.8): (
        623, "4ee3872ad7e08a6f7d979e2cdb1ef64fac365ee8cda2e05376360fb0e6bc847a"),
    ("ws", 0.2): (
        2352, "f697081bb78f15da6c9cf494b686d148a9978827b3f32d893b3da11c5eaaac9c"),
    ("ws", 0.8): (
        1440, "e0042d78589d46dbc18e0d193014e8aab823d737037b746cb2d1ac05cd7d52c6"),
    ("ba", 0.2): (
        697, "1ef714567bfee8c8ba61cd3c0dde885075ce9cbe0df8de976e9a0ba976c2bc2c"),
    ("ba", 0.8): (
        601, "a3b9db276ae44a21785a1798b8e4073f466c261441847c43456e0666ea3a7624"),
}


@pytest.mark.parametrize("family,beta", list(GOLDEN_PAPER),
                         ids=[f"{f}-ngg-beta{b}" for f, b in GOLDEN_PAPER])
def test_paper_scale_trace_digest_is_golden(tmp_path, family, beta):
    net = generate(PAPER_SPECS[family], np.random.default_rng(NET_SEED))
    records, summary = run_to_convergence(net, GameParams(n=20, beta=beta),
                                          GAME_SEED)
    path = tmp_path / "trace.csv"
    write_trace_csv(records, path)
    iterations, digest = GOLDEN_PAPER[(family, beta)]
    assert summary.converged
    assert len(records) == iterations
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
