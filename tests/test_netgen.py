"""Network generators and statistics against brute-force oracles."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngg.engine import GameParams, PopulationState, run_group_round
from ngg.errors import ConnectivityFailureError, InvalidParamError
from ngg.netgen import (
    MAX_ATTEMPTS,
    Network,
    NetworkSpec,
    _random_graph,
    _scale_free,
    _small_world,
    all_pairs_distances,
    compute_stats,
    generate,
    is_connected,
    write_edge_list,
)

from conftest import (
    complete_net,
    connected_labeled_graphs,
    floyd_warshall,
    net_from_edges,
    oracle_compute_stats,
    oracle_random_graph,
    oracle_scale_free,
    oracle_small_world,
    oracle_stats,
    oracle_write_edge_list,
    path_net,
    plain,
    star_net,
    twin_generators,
)

DISCONNECTED = "average path length needs a connected network"


def rng(seed=0):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [
    NetworkSpec("er", 10, p=0.5),
    NetworkSpec("rg", 1, p=0.5),
    NetworkSpec("rg", 10),
    NetworkSpec("rg", 10, p=0.0),
    NetworkSpec("rg", 10, p=1.2),
    NetworkSpec("rg", 10, p=0.5, k=3),
    NetworkSpec("ws", 10, k=0, rp=0.1),
    NetworkSpec("ws", 10, k=5, rp=0.1),
    NetworkSpec("ws", 10, k=3, rp=-0.1),
    NetworkSpec("ws", 10, k=3, rp=1.5),
    NetworkSpec("ws", 10, k=3),
    NetworkSpec("ws", 10, k=3, rp=0.1, e=2),
    NetworkSpec("ba", 10, n0=4),
    NetworkSpec("ba", 10, n0=4, e=0),
    NetworkSpec("ba", 10, n0=4, e=5),
    NetworkSpec("ba", 10, n0=10, e=3),
    NetworkSpec("ba", 10, n0=4, e=2, p=0.3),
    NetworkSpec("rg", 3_037_000_500, p=0.5),  # m * m past numpy's index range
    NetworkSpec("rg", np.int64(3_037_000_500), p=0.5),  # where int64 m * m wraps
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(InvalidParamError):
        bad.validate()


@pytest.mark.parametrize("spec, field, value, what", [
    (dict(model="rg", m=30.0, p=0.3), "m", 30.0, "an integer"),
    (dict(model="rg", m=True, p=0.3), "m", True, "an integer"),
    (dict(model="rg", m=30, p=True), "p", True, "a number"),
    (dict(model="ws", m=30, k=2.0, rp=0.1), "k", 2.0, "an integer"),
    (dict(model="ws", m=30, k=2, rp=False), "rp", False, "a number"),
    (dict(model="ba", m=30, n0=3.0, e=2), "n0", 3.0, "an integer"),
    (dict(model="ba", m=30, n0=3, e=True), "e", True, "an integer"),
    (dict(model="rg", m=None, p=0.3), "m", None, "an integer"),
    (dict(model="rg", m=30), "p", None, "a number"),
    (dict(model="ws", m=30, rp=0.1), "k", None, "an integer"),
    (dict(model="ws", m=30, k=2), "rp", None, "a number"),
    (dict(model="ba", m=30, e=2), "n0", None, "an integer"),
    (dict(model="ba", m=30, n0=3), "e", None, "an integer"),
])
def test_wrong_type_specs_rejected_naming_the_field(spec, field, value, what):
    with pytest.raises(InvalidParamError) as exc:
        generate(NetworkSpec(**spec), rng(0))
    assert str(exc.value) == f"{field} must be {what}, got {value!r}"
    assert exc.value.field == field


def test_valid_specs_pass():
    NetworkSpec("rg", 10, p=1.0).validate()
    NetworkSpec("ws", 10, k=3, rp=0.0).validate()
    NetworkSpec("ba", 10, n0=4, e=4).validate()
    NetworkSpec("rg", 3_037_000_499, p=0.5).validate()  # m * m just fits intp
    NetworkSpec("rg", np.int64(10), p=np.float32(0.5)).validate()
    NetworkSpec("ws", np.int32(10), k=np.int64(3), rp=np.float64(0.1)).validate()
    NetworkSpec("ba", np.int64(10), n0=np.uint8(4), e=np.int16(2)).validate()


def test_labels():
    assert NetworkSpec("rg", 1000, p=0.05).label() == "RG-0.05"
    assert NetworkSpec("ws", 1000, k=20, rp=0.1).label() == "WS-20-0.1"
    assert NetworkSpec("ba", 1000, n0=26, e=25).label() == "BA-25"


# ----------------------------------------------------------------------
# Random graph
# ----------------------------------------------------------------------


def test_rg_p1_is_complete():
    net = generate(NetworkSpec("rg", 2, p=1.0), rng(1))
    assert net.adj.tolist() == [[False, True], [True, False]]
    net = generate(NetworkSpec("rg", 6, p=1.0), rng(2))
    assert net.edge_count == 15


def test_rg_edge_count_binomial():
    # M=50, P=0.2: 1225 pair trials, mean 245, var 196. The mean over 100
    # seeds has sd 1.4; a 3-sigma band is +/- 4.2. Connectivity retries bias
    # this by far less than the band at average degree ~10.
    spec = NetworkSpec("rg", 50, p=0.2)
    counts = [generate(spec, rng(s)).edge_count for s in range(100)]
    assert abs(np.mean(counts) - 245.0) <= 4.2


def test_rg_connectivity_failure():
    spec = NetworkSpec("rg", 50, p=0.001)
    with pytest.raises(ConnectivityFailureError) as exc:
        generate(spec, rng(0))
    assert exc.value.attempts == MAX_ATTEMPTS


# ----------------------------------------------------------------------
# Small world
# ----------------------------------------------------------------------


def test_ws_rp0_is_ring_lattice():
    m, k = 12, 3
    net = generate(NetworkSpec("ws", m, k=k, rp=0.0), rng(0))
    expect = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(1, k + 1):
            expect[i, (i + j) % m] = expect[(i + j) % m, i] = True
    assert np.array_equal(net.adj, expect)
    assert np.all(net.degrees == 2 * k)


def test_ws_lattice_clustering_closed_form():
    # Pure ring lattice: every node's local clustering is 3(K-1)/(2(2K-1)).
    for m, k in [(1000, 20), (50, 4)]:
        net = generate(NetworkSpec("ws", m, k=k, rp=0.0), rng(0))
        stats = compute_stats(net)
        assert abs(stats.clustering_coefficient - 3 * (k - 1) / (2 * (2 * k - 1))) < 1e-12
        assert stats.avg_degree == 2 * k


def test_ws_cycle_path_length():
    # 10-cycle: distances from any node are 1,1,2,2,3,3,4,4,5 -> mean 25/9.
    net = generate(NetworkSpec("ws", 10, k=1, rp=0.0), rng(0))
    stats = compute_stats(net)
    assert abs(stats.avg_path_length - 25.0 / 9.0) < 1e-12


def test_ws_rewiring_preserves_edge_count():
    for seed in range(20):
        net = generate(NetworkSpec("ws", 100, k=3, rp=0.3), rng(seed))
        assert net.edge_count == 300
        stats = compute_stats(net)
        assert stats.avg_degree == 6.0


def test_ws_rewiring_reduces_clustering():
    lattice = compute_stats(generate(NetworkSpec("ws", 200, k=5, rp=0.0), rng(0)))
    rewired = [
        compute_stats(generate(NetworkSpec("ws", 200, k=5, rp=0.3), rng(s)))
        for s in range(5)
    ]
    assert all(r.clustering_coefficient < lattice.clustering_coefficient
               for r in rewired)
    assert all(r.avg_path_length < lattice.avg_path_length for r in rewired)


# ----------------------------------------------------------------------
# rg and ws draw exactly what the scalar oracles draw
# ----------------------------------------------------------------------

WORD_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64,
                   np.random.Philox]


_M_K = st.integers(3, 48).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, (m - 1) // 2)))


@settings(deadline=None)
@given(st.sampled_from(WORD_GENERATORS), _M_K, st.floats(0.0, 1.0),
       st.integers(0, 2**64 - 1), st.booleans())
@example(np.random.PCG64, (10, 3), 0.0, 1, True)
@example(np.random.PCG64, (10, 3), 1.0, 1, True)
@example(np.random.SFC64, (47, 23), 1.0, 5, False)
def test_ws_matches_scalar_loop(bitgen, m_k, rp, seed, buffered):
    (m, k), (new, old) = m_k, twin_generators(bitgen, seed, buffered)
    assert np.array_equal(_small_world(m, k, rp, new),
                          oracle_small_world(m, k, rp, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


@pytest.mark.parametrize("bitgen", WORD_GENERATORS)
def test_ws_matches_scalar_loop_at_paper_scale(bitgen):
    new, old = twin_generators(bitgen, 2013, True)
    assert np.array_equal(_small_world(1000, 20, 0.2, new),
                          oracle_small_world(1000, 20, 0.2, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


@settings(deadline=None)
@given(st.sampled_from([*WORD_GENERATORS, np.random.MT19937]),
       st.integers(2, 60), st.floats(0.0, 1.0, exclude_min=True),
       st.integers(0, 2**64 - 1), st.booleans())
@example(np.random.PCG64, 2, 1.0, 0, True)
def test_rg_matches_triu_indices_coins(bitgen, m, p, seed, buffered):
    new, old = twin_generators(bitgen, seed, buffered)
    assert np.array_equal(_random_graph(m, p, new), oracle_random_graph(m, p, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


class CraftedWords:
    """Stands in for a bit generator: random_raw hands out fixed 64-bit words."""

    def __init__(self, words):
        self.words = list(words)
        self.state = {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, size=None):
        if size is None:
            return np.uint64(self.words.pop(0))
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def test_ws_lemire_rejection_takes_the_next_half():
    # m=5: integers(5) rejects a low half whose product with 5 leaves a
    # remainder below (2**32 - 5) % 5 = 1, as numpy does; a low half of 0
    # (t=0) is rejected and the buffered high half gives t=4. Sampling
    # cannot reach this: the chance is about 5 / 2**32 per draw.
    miss, high = 2**64 - 1, 3435973837  # (high * 5) >> 32 == 4
    words = [miss, miss, 0, high << 32, miss, miss]  # coin 2 hits, then integers()
    bg = CraftedWords(words)
    adj = _small_world(5, 1, 0.5, SimpleNamespace(bit_generator=bg))
    ring = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    expect = ring - {(2, 3)} | {(2, 4)}
    assert {(u, v) for u, v in zip(*np.nonzero(np.triu(adj, 1)))} == expect
    assert bg.words == []  # every word read, none beyond
    assert bg.state == {"has_uint32": 0, "uinteger": high}


@pytest.mark.parametrize("rp", [0.0, 0.2])
def test_ws_rejects_mt19937_naming_it(rp):
    # MT19937's random() joins two 32-bit outputs and its state keeps no
    # 32-bit half, so ws rewiring cannot read it as raw words
    gen = np.random.Generator(np.random.MT19937(3))
    with pytest.raises(InvalidParamError, match="MT19937"):
        generate(NetworkSpec("ws", 20, k=2, rp=rp), gen)


def test_rg_and_ba_accept_mt19937():
    gen = np.random.Generator(np.random.MT19937(3))
    assert is_connected(generate(NetworkSpec("rg", 20, p=0.5), gen).adj)
    assert is_connected(generate(NetworkSpec("ba", 20, n0=3, e=2), gen).adj)


# ----------------------------------------------------------------------
# Scale free
# ----------------------------------------------------------------------


def test_ba_seed_clique_and_attachment():
    for seed in range(20):
        net = generate(NetworkSpec("ba", 6, n0=3, e=3), rng(seed))
        assert np.all(net.adj[:3, :3] == ~np.eye(3, dtype=bool))
        for v in range(3, 6):
            nbrs = net.neighbors(v)
            below = nbrs[nbrs < v]
            # e draws with replacement collapse to between 1 and e edges
            assert 1 <= below.size <= 3
        assert is_connected(net.adj)


def test_ba_edge_count_bounds():
    # Complete seed contributes C(5,2)=10; each of the 195 added nodes
    # contributes between 1 and e=3 edges.
    spec = NetworkSpec("ba", 200, n0=5, e=3)
    for seed in range(20):
        net = generate(spec, rng(seed))
        assert 10 + 195 <= net.edge_count <= 10 + 3 * 195
        assert is_connected(net.adj)


def test_ba_degenerate_single_seed():
    for seed in range(10):
        net = generate(NetworkSpec("ba", 5, n0=1, e=1), rng(seed))
        assert is_connected(net.adj)
        assert net.edge_count == 4  # always a tree


@pytest.mark.parametrize("m, n0, e", [
    (30, 1, 1), (40, 3, 3), (60, 5, 2), (80, 8, 8), (120, 12, 5)])
def test_ba_matches_choice_loop(m, n0, e):
    # the vectorised generator draws exactly what rng.choice drew, so the
    # adjacency and the generator state afterwards are the same
    for seed in range(30):
        r_new, r_old = rng(seed), rng(seed)
        net = generate(NetworkSpec("ba", m, n0=n0, e=e), r_new)
        assert np.array_equal(net.adj, oracle_scale_free(m, n0, e, r_old))
        assert r_new.random() == r_old.random()


_M_N0_E = st.integers(2, 40).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m - 1))).flatmap(
    lambda mn: st.tuples(*map(st.just, mn), st.integers(1, mn[1])))


@settings(deadline=None)
@given(st.sampled_from([*WORD_GENERATORS, np.random.MT19937]), _M_N0_E,
       st.integers(0, 2**64 - 1), st.booleans())
@example(np.random.PCG64, (30, 1, 1), 7, True)  # n0 = 1: uniform first pick
@example(np.random.SFC64, (40, 6, 6), 3, True)  # e = n0
@example(np.random.MT19937, (2, 1, 1), 0, False)
def test_ba_matches_choice_oracle_with_equal_state(bitgen, m_n0_e, seed, buffered):
    (m, n0, e), (new, old) = m_n0_e, twin_generators(bitgen, seed, buffered)
    assert np.array_equal(_scale_free(m, n0, e, new), oracle_scale_free(m, n0, e, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


@pytest.mark.parametrize("bitgen", [*WORD_GENERATORS, np.random.MT19937])
def test_ba_matches_choice_oracle_at_paper_scale(bitgen):
    new, old = twin_generators(bitgen, 2013, True)
    assert np.array_equal(_scale_free(1000, 51, 50, new),
                          oracle_scale_free(1000, 51, 50, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


class BoundaryUniforms:
    """Stands in for the Generator of _scale_free (n0 >= 2). For each new node
    it builds numpy's cdf of choice(p=deg / deg.sum()) from its own copy of
    the network, attaches the node there, and hands out uniforms on, just
    below and just above the cdf's entries."""

    def __init__(self, m: int, n0: int):
        self.adj = ~np.eye(m, dtype=bool)
        self.adj[n0:] = self.adj[:, n0:] = False
        self.v = n0

    def random(self, e: int) -> np.ndarray:
        deg = self.adj.sum(axis=1)[:self.v].astype(np.float64)
        cdf = (deg / deg.sum()).cumsum()
        cdf /= cdf[-1]
        near = [x for c in cdf[:-1].tolist()
                for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)) if x < 1.0]
        u = np.array(near)[rng(self.v).integers(len(near), size=e)]
        targets = cdf.searchsorted(u, side="right")
        self.adj[self.v, targets] = self.adj[targets, self.v] = True
        self.v += 1
        return u


@pytest.mark.parametrize("m, n0, e", [(60, 3, 3), (130, 8, 4), (200, 5, 5)])
def test_ba_picks_at_the_exact_cdf_boundaries(m, n0, e):
    # Random draws almost never land on a boundary, so put them there: the
    # picks equal numpy's only if the cdf is numpy's to the bit.
    stub = BoundaryUniforms(m, n0)
    assert np.array_equal(_scale_free(m, n0, e, stub), stub.adj)


def test_ba_hubs_form():
    # Preferential attachment should leave the max degree well above the
    # minimum; a uniform-attachment graph of this size would not reach 3x.
    net = generate(NetworkSpec("ba", 400, n0=4, e=3), rng(7))
    deg = net.degrees
    assert deg.max() >= 3 * np.median(deg)


# ----------------------------------------------------------------------
# Statistics: fixed cases, then exhaustive/randomized vs the oracle
# ----------------------------------------------------------------------


def test_stats_complete_5():
    stats = compute_stats(complete_net(5))
    assert stats.avg_degree == 4.0
    assert stats.avg_path_length == 1.0
    assert stats.clustering_coefficient == 1.0


def test_stats_star_5():
    stats = compute_stats(star_net(4))
    assert abs(stats.avg_degree - 1.6) < 1e-12
    assert abs(stats.avg_path_length - 1.6) < 1e-12
    assert stats.clustering_coefficient == 0.0


def test_stats_match_oracle_exhaustive_small():
    for n in (2, 3, 4):
        for adj in connected_labeled_graphs(n):
            net = net_from_edges(n, zip(*np.nonzero(np.triu(adj, 1))))
            got = compute_stats(net)
            d, apl, cc = oracle_stats(adj)
            assert abs(got.avg_degree - d) < 1e-12
            assert abs(got.avg_path_length - apl) < 1e-12
            assert abs(got.clustering_coefficient - cc) < 1e-12


def test_stats_match_oracle_random_graphs():
    r = rng(42)
    done = 0
    while done < 60:
        n = int(r.integers(5, 9))
        adj = np.triu(r.random((n, n)) < 0.45, 1)
        adj = adj | adj.T
        if not is_connected(adj):
            continue
        done += 1
        net = Network(NetworkSpec("rg", n, p=0.5), adj)
        got = compute_stats(net)
        d, apl, cc = oracle_stats(adj)
        assert abs(got.avg_degree - d) < 1e-12
        assert abs(got.avg_path_length - apl) < 1e-12
        assert abs(got.clustering_coefficient - cc) < 1e-12


PAPER_SPECS = [
    NetworkSpec("rg", 1000, p=0.05),
    NetworkSpec("ws", 1000, k=20, rp=0.2),
    NetworkSpec("ba", 1000, n0=51, e=50),
]


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=lambda s: s.model)
@pytest.mark.parametrize("seed", [11, 12])
def test_stats_equal_dense_oracle_at_paper_scale(spec, seed):
    net = generate(spec, rng(seed))
    assert compute_stats(net) == oracle_compute_stats(net)


@pytest.mark.parametrize("net", [
    star_net(1), star_net(9), complete_net(2), complete_net(7), path_net(2),
    path_net(13), generate(NetworkSpec("ws", 50, k=4, rp=0.0), rng(0)),
], ids=["star1", "star9", "complete2", "complete7", "path2", "path13",
        "ws-lattice"])
def test_stats_equal_dense_oracle_on_fixed_graphs(net):
    assert compute_stats(net) == oracle_compute_stats(net)


@pytest.mark.parametrize("spec", [
    NetworkSpec("rg", 150, p=0.08),
    NetworkSpec("ws", 150, k=4, rp=0.1),
    NetworkSpec("ba", 150, n0=4, e=3),
], ids=lambda s: s.model)
def test_stats_match_networkx(spec):
    import networkx as nx

    for seed in range(5):
        net = generate(spec, rng(seed))
        graph = nx.from_numpy_array(net.adj)
        stats = compute_stats(net)
        assert abs(stats.avg_path_length
                   - nx.average_shortest_path_length(graph)) <= 1e-12
        assert abs(stats.clustering_coefficient
                   - nx.average_clustering(graph)) <= 1e-12
        assert stats.avg_degree == 2 * graph.number_of_edges() / net.m


def test_distances_match_floyd_warshall():
    r = rng(3)
    for _ in range(30):
        n = int(r.integers(4, 9))
        adj = np.triu(r.random((n, n)) < 0.35, 1)
        adj = adj | adj.T
        dist = all_pairs_distances(adj)
        ref = floyd_warshall(adj)
        for i in range(n):
            for j in range(n):
                if ref[i][j] is None:
                    assert np.isinf(dist[i, j])
                else:
                    assert dist[i, j] == ref[i][j]
        assert is_connected(adj) == (not np.isinf(dist).any())


# Sizes around the byte and 64-bit word edges of the packed neighbour masks.
BIT_EDGE_SIZES = (2, 3, 7, 8, 9, 63, 64, 65, 127, 129)


@pytest.mark.parametrize("m", BIT_EDGE_SIZES)
def test_stats_equal_dense_oracle_at_bit_edges(m):
    # 40 graphs per size with an expected degree from 0.5 to 5, so some are
    # disconnected; there both must raise
    r = rng(m)
    raised = 0
    for _ in range(40):
        p = min(1.0, r.uniform(0.5, 5.0) / (m - 1))
        adj = np.triu(r.random((m, m)) < p, 1)
        net = Network(NetworkSpec("rg", m, p=p), adj | adj.T)
        try:
            want = oracle_compute_stats(net)
        except InvalidParamError:
            raised += 1
            with pytest.raises(InvalidParamError, match=DISCONNECTED):
                compute_stats(net)
        else:
            assert compute_stats(net) == want
    assert 0 < raised < 40


def symmetric_samples(m: int):
    """Random symmetric adjacencies on m nodes, from empty to complete, each
    with node m // 2 isolated (all of them when the density is 0)."""
    r = rng(m)
    for density in (0.0, 0.05, 0.3, 1.0):
        adj = np.triu(r.random((m, m)) < density, 1)
        adj |= adj.T
        adj[m // 2] = adj[:, m // 2] = False
        yield Network(NetworkSpec("rg", m, p=0.5), adj)


@pytest.mark.parametrize("m", BIT_EDGE_SIZES)
def test_adjacency_views_agree_with_dense_adj(m):
    for net in symmetric_samples(m):
        rows = [np.flatnonzero(row) for row in net.adj]
        for i, want in enumerate(rows):
            got = net.neighbors(i)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert net._neighbor_lists == [row.tolist() for row in rows]
        assert net.neighbor_masks() == [sum(1 << j for j in row.tolist())
                                        for row in rows]
        # the packed rows hold the same bits, and zeros past column m
        bits = np.unpackbits(net._rows.view(np.uint8), axis=1, bitorder="little")
        assert bits.shape[1] % 64 == 0 and bits.shape[1] - m < 64
        assert np.array_equal(bits[:, :m], net.adj) and not bits[:, m:].any()
        u, v = np.nonzero(np.triu(net.adj, 1))
        want = np.column_stack([u, v])
        assert net.edges().dtype == want.dtype
        assert np.array_equal(net.edges(), want)
        assert net.edges().flags.c_contiguous  # minimal rounds read edges().data
        want = net.adj.sum(axis=1)
        assert net.degrees.dtype == want.dtype
        assert np.array_equal(net.degrees, want)
        assert net.edge_count == int(net.adj.sum()) // 2


@pytest.mark.parametrize("m", sorted({*BIT_EDGE_SIZES, 9, 10, 11, 99, 100, 101}))
def test_edge_list_bytes_match_percent_d_writer(tmp_path, m):
    # node ids cross a digit boundary at 10 and 100; density 0 has no edges
    for k, net in enumerate(symmetric_samples(m)):
        got, want = tmp_path / f"got{k}.txt", tmp_path / f"want{k}.txt"
        write_edge_list(net, got)
        oracle_write_edge_list(net, want)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("m", [63, 64, 65])
def test_distances_match_floyd_warshall_at_word_edge(m):
    r = rng(m)
    for degree in (1.0, 3.0):  # small components, then a giant one
        adj = np.triu(r.random((m, m)) < degree / (m - 1), 1)
        adj = adj | adj.T
        ref = floyd_warshall(adj)
        want = np.array([[np.inf if d is None else d for d in row] for row in ref])
        assert np.array_equal(all_pairs_distances(adj), want)


@pytest.mark.parametrize("spec", [
    NetworkSpec("rg", 129, p=0.05),
    NetworkSpec("ws", 64, k=3, rp=0.2),
    NetworkSpec("ba", 65, n0=4, e=3),
], ids=lambda s: s.model)
def test_stats_same_after_engine_filled_mask_cache(spec):
    net = generate(spec, rng(4))
    pop, r = PopulationState(net.m), rng(5)
    for _ in range(20):
        run_group_round(net, pop, GameParams(n=5, beta=0.5), r)
    assert "_masks" in vars(net)
    assert compute_stats(net) == compute_stats(Network(spec, net.adj.copy()))


@pytest.mark.parametrize("first", ["_rows", "edges", "_neighbor_lists",
                                   "neighbor_masks"])
@pytest.mark.parametrize("spec", [
    NetworkSpec("rg", 129, p=0.05),
    NetworkSpec("ws", 64, k=3, rp=0.2),
    NetworkSpec("ba", 65, n0=4, e=3),
], ids=lambda s: s.model)
def test_stats_same_whichever_view_is_read_first(spec, first):
    adj = generate(spec, rng(4)).adj
    net = Network(spec, adj.copy())
    view = getattr(net, first)
    if callable(view):
        view()
    bits = np.unpackbits(net._rows.view(np.uint8), axis=1, bitorder="little")
    assert np.array_equal(bits[:, :net.m], adj)
    assert compute_stats(net) == compute_stats(Network(spec, adj))


def test_network_equality_is_identity():
    a = complete_net(4)
    b = Network(a.spec, a.adj.copy())
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_stats_raise_on_disconnected():
    net = net_from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidParamError, match=DISCONNECTED):
        compute_stats(net)


# ----------------------------------------------------------------------
# Structural invariants and determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    NetworkSpec("rg", 60, p=0.1),
    NetworkSpec("ws", 60, k=3, rp=0.25),
    NetworkSpec("ba", 60, n0=4, e=3),
])
def test_generated_graphs_are_wellformed(spec):
    for seed in range(10):
        net = generate(spec, rng(seed))
        assert net.adj.dtype == bool
        assert not net.adj.diagonal().any()
        assert np.array_equal(net.adj, net.adj.T)
        assert is_connected(net.adj)
        assert net.m == spec.m


@pytest.mark.parametrize("spec", [
    NetworkSpec("rg", 80, p=0.08),
    NetworkSpec("ws", 80, k=4, rp=0.2),
    NetworkSpec("ba", 80, n0=5, e=4),
])
def test_generation_is_deterministic(spec):
    a = generate(spec, rng(123))
    b = generate(spec, rng(123))
    assert np.array_equal(a.adj, b.adj)


def test_edges_sorted_unique():
    net = generate(NetworkSpec("rg", 30, p=0.2), rng(5))
    edges = net.edges()
    assert np.all(edges[:, 0] < edges[:, 1])
    as_tuples = [tuple(e) for e in edges]
    assert as_tuples == sorted(as_tuples)
    assert len(set(as_tuples)) == len(as_tuples) == net.edge_count


def test_edge_list_roundtrip(tmp_path):
    net = generate(NetworkSpec("ws", 40, k=2, rp=0.3), rng(9))
    path = tmp_path / "edges.txt"
    write_edge_list(net, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == net.edge_count
    u0, v0 = (int(x) for x in lines[0].split())
    assert u0 < v0
    pairs = np.loadtxt(path, dtype=np.int64, ndmin=2)
    back = np.zeros_like(net.adj)
    back[pairs[:, 0], pairs[:, 1]] = back[pairs[:, 1], pairs[:, 0]] = True
    assert np.array_equal(back, net.adj)
