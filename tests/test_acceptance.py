"""Acceptance gate: one test per shipped criterion, at full scale.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per criterion.
Every tolerance is stated inline next to its assertion; the statistical
criteria run 20 repetitions per parameter point with seeds derived from a
fixed master seed, so the whole module is reproducible run to run.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from ngg.engine import (
    GameParams,
    Group,
    PopulationState,
    _ngmh_apply,
    form_group,
    minimal_ng_round,
    ngmh_round,
    node_weights,
    run_group_round,
    run_to_convergence,
    transmit_word,
    word_weights,
)
from ngg.harness import _run_streams, derive_seed
from ngg.netgen import NetworkSpec, compute_stats, generate

from conftest import (
    connected_labeled_graphs,
    net_from_edges,
    oracle_group_weights,
    set_partitions,
)

M = 1000
RUNS = 20
MASTER = 20260501

# distinct seed-derivation namespaces for every experiment in this module
PT_RG_BETA = {0.1: 0, 0.5: 1, 1.0: 2}
PT_RG_N = {10: 3, 20: 1, 50: 4, 100: 5}   # N=20 shares the beta=0.5 point
PT_WS_RP = {0.1: 6, 0.3: 7}
PT_NGMH = 8
PT_CONSENSUS = 100  # + enumeration offset per (network, beta) pair


@dataclass(frozen=True)
class PointStats:
    n: int
    total_max_mean: float
    total_max_std: float
    diff_max_mean: float
    diff_max_std: float
    iter_cvg_mean: float
    iter_cvg_std: float
    early_sr_mean: float
    all_converged: bool


def run_point(net_spec, params, point_index, runs=RUNS) -> PointStats:
    totals, diffs, cvgs, early = [], [], [], []
    all_cvg = True
    for ri in range(runs):
        net_stream, game_stream = _run_streams(derive_seed(MASTER, point_index, ri))
        net = generate(net_spec, np.random.default_rng(net_stream))
        records, summary = run_to_convergence(net, params, game_stream)
        all_cvg &= summary.converged
        totals.append(summary.n_total_max)
        diffs.append(summary.n_diff_max)
        if summary.converged:
            cvgs.append(summary.n_iter_cvg)
        window = max(1, len(records) // 10)
        early.append(float(np.mean([r.sr for r in records[:window]])))
    return PointStats(
        n=runs,
        total_max_mean=float(np.mean(totals)),
        total_max_std=float(np.std(totals, ddof=1)),
        diff_max_mean=float(np.mean(diffs)),
        diff_max_std=float(np.std(diffs, ddof=1)),
        iter_cvg_mean=float(np.mean(cvgs)) if cvgs else math.inf,
        iter_cvg_std=float(np.std(cvgs, ddof=1)) if len(cvgs) > 1 else 0.0,
        early_sr_mean=float(np.mean(early)),
        all_converged=all_cvg,
    )


def assert_monotone_nonincreasing(points, label):
    """Strict trend check allowing one inversion within 1 pooled SE."""
    inversions = []
    for (m1, s1, n1), (m2, s2, n2) in zip(points, points[1:]):
        if m2 > m1:
            se = math.sqrt(s1 ** 2 / n1 + s2 ** 2 / n2)
            inversions.append((m2 - m1, se))
    assert len(inversions) <= 1, f"{label}: {len(inversions)} inversions {inversions}"
    for gap, se in inversions:
        assert gap <= se, f"{label}: inversion {gap:.3g} exceeds pooled SE {se:.3g}"


@pytest.fixture(scope="module")
def rg_sweep():
    """Group-size and beta sweeps on the sparse random graph (criteria 3-5)."""
    spec = NetworkSpec("rg", M, p=0.05)
    points = {}
    for beta, pt in PT_RG_BETA.items():
        points[("beta", beta)] = run_point(spec, GameParams(n=20, beta=beta), pt)
    points[("n", 20)] = points[("beta", 0.5)]
    for n, pt in PT_RG_N.items():
        if n != 20:
            points[("n", n)] = run_point(spec, GameParams(n=n, beta=0.5), pt)
    return points


@pytest.fixture(scope="module")
def ws_sweep():
    points = {}
    for rp, pt in PT_WS_RP.items():
        points[rp] = run_point(NetworkSpec("ws", M, k=20, rp=rp),
                               GameParams(n=20, beta=0.5), pt)
    return points


# ----------------------------------------------------------------------
# Criterion 1: topology statistics of the three network families
# ----------------------------------------------------------------------


def test_criterion_1_network_statistics():
    # 5 seeds per configuration, M=1000; targets with relative tolerance
    # (avg degree, path length, clustering): rg/ws rows 5%/5%/15%, ba rows
    # 15% across the board. Whole-criterion budget: 120 s.
    table = [
        (NetworkSpec("rg", M, p=0.03), (30.0, 2.3643, 0.0294), (.05, .05, .15)),
        (NetworkSpec("rg", M, p=0.05), (49.9, 2.0285, 0.0502), (.05, .05, .15)),
        (NetworkSpec("rg", M, p=0.1), (99.9, 1.9000, 0.1007), (.05, .05, .15)),
        (NetworkSpec("ws", M, k=20, rp=0.1), (40.0, 2.6281, 0.5366), (.05, .05, .15)),
        (NetworkSpec("ws", M, k=20, rp=0.2), (40.0, 2.4651, 0.3837), (.05, .05, .15)),
        (NetworkSpec("ws", M, k=20, rp=0.3), (40.0, 2.3517, 0.2661), (.05, .05, .15)),
        (NetworkSpec("ba", M, n0=26, e=25), (46.9, 2.0727, 0.1081), (.15, .15, .15)),
        (NetworkSpec("ba", M, n0=51, e=50), (89.7, 1.9133, 0.1681), (.15, .15, .15)),
        (NetworkSpec("ba", M, n0=76, e=75), (121.6, 1.8700, 0.1906), (.15, .15, .15)),
    ]
    start = time.monotonic()
    for spec, targets, tols in table:
        stats = [compute_stats(generate(spec, np.random.default_rng(
            derive_seed(MASTER, 90, s)))) for s in range(5)]
        got = (
            float(np.mean([s.avg_degree for s in stats])),
            float(np.mean([s.avg_path_length for s in stats])),
            float(np.mean([s.clustering_coefficient for s in stats])),
        )
        for name, g, t, tol in zip(("avg_degree", "path_length", "clustering"),
                                   got, targets, tols):
            assert abs(g - t) <= tol * t, (
                f"{spec.label()} {name}: measured {g:.4f}, "
                f"target {t} +/- {tol:.0%}")
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s (budget 120s)"


# ----------------------------------------------------------------------
# Criterion 2: consensus on every topology and beta
# ----------------------------------------------------------------------


def test_criterion_2_consensus_reached_exactly():
    specs = [
        NetworkSpec("rg", M, p=0.05),
        NetworkSpec("ws", M, k=20, rp=0.2),
        NetworkSpec("ba", M, n0=51, e=50),
    ]
    for si, spec in enumerate(specs):
        for bi, beta in enumerate((0.2, 0.5, 0.8)):
            point = PT_CONSENSUS + si * 3 + bi
            for ri in range(RUNS):
                net_stream, game_stream = _run_streams(
                    derive_seed(MASTER, point, ri))
                net = generate(spec, np.random.default_rng(net_stream))
                records, summary = run_to_convergence(
                    net, GameParams(n=20, beta=beta), game_stream)
                assert summary.converged, (
                    f"{spec.label()} beta={beta} run={ri} hit the cap")
                final = records[-1]
                assert final.n_total == M, f"{spec.label()} beta={beta}: " \
                    f"final n_total {final.n_total} != {M}"
                assert final.n_diff == 1


# ----------------------------------------------------------------------
# Criterion 3: pressure metrics fall as beta and N grow
# ----------------------------------------------------------------------


def test_criterion_3_metrics_monotone_in_beta_and_n(rg_sweep):
    for axis, values in (("beta", (0.1, 0.5, 1.0)), ("n", (10, 20, 50, 100))):
        pts = [rg_sweep[(axis, v)] for v in values]
        assert all(p.all_converged for p in pts)
        for metric in ("total_max", "diff_max", "iter_cvg"):
            series = [(getattr(p, f"{metric}_mean"), getattr(p, f"{metric}_std"),
                       p.n) for p in pts]
            assert_monotone_nonincreasing(series, f"{metric} vs {axis}")


# ----------------------------------------------------------------------
# Criterion 4: early success rate and the small-world contrast
# ----------------------------------------------------------------------


def test_criterion_4_early_success_rate(rg_sweep, ws_sweep):
    # early SR = mean sr over the first 10% of each run's iterations
    by_beta = [rg_sweep[("beta", b)].early_sr_mean for b in (0.1, 0.5, 1.0)]
    assert by_beta[0] < by_beta[1] < by_beta[2], f"early SR vs beta: {by_beta}"

    by_n = [rg_sweep[("n", n)].early_sr_mean for n in (10, 20, 50, 100)]
    assert all(a < b for a, b in zip(by_n, by_n[1:])), f"early SR vs N: {by_n}"

    # strong local clustering: high early success but slower global consensus
    assert ws_sweep[0.1].early_sr_mean > ws_sweep[0.3].early_sr_mean, (
        f"ws early SR: rp=0.1 {ws_sweep[0.1].early_sr_mean:.3f} "
        f"<= rp=0.3 {ws_sweep[0.3].early_sr_mean:.3f}")
    assert ws_sweep[0.1].iter_cvg_mean > ws_sweep[0.3].iter_cvg_mean, (
        "rewiring must speed up convergence")


# ----------------------------------------------------------------------
# Criterion 5: group conversation beats the single-speaker variant
# ----------------------------------------------------------------------


def test_criterion_5_group_mode_converges_faster(rg_sweep):
    ngmh = run_point(NetworkSpec("rg", M, p=0.05),
                     GameParams(n=20, beta=0.5, mode="ngmh"), PT_NGMH)
    ngg = rg_sweep[("beta", 0.5)]
    assert ngmh.all_converged
    assert ngg.iter_cvg_mean < ngmh.iter_cvg_mean, (
        f"ngg {ngg.iter_cvg_mean:.0f} should beat ngmh {ngmh.iter_cvg_mean:.0f}")


# ----------------------------------------------------------------------
# Criterion 6: weight pipeline against brute force
# ----------------------------------------------------------------------


def _check_group_against_oracle(net, members, spoken):
    wt = word_weights(Group(members[0], members), spoken, net)
    ip, node, words, word_w, probs = oracle_group_weights(
        members, net.adj, spoken)
    pw, nw = node_weights(members, net)
    assert pw.tolist() == ip
    assert nw.tolist() == node
    assert wt.node_w.tolist() == node
    assert wt.words == words
    assert wt.word_w.tolist() == word_w
    assert wt.probs.tolist() == probs


def test_criterion_6_weights_match_brute_force():
    # (a) every connected labeled graph on <= 4 nodes, every legal group
    # (a seed plus any non-empty subset of its neighbours), every partition
    # of the group into word classes: exact match with the naive oracle.
    for size in (2, 3, 4):
        for adj in connected_labeled_graphs(size):
            net = net_from_edges(size, zip(*np.nonzero(np.triu(adj, 1))))
            for seed in range(size):
                nbrs = [v for v in range(size) if adj[seed, v]]
                for r in range(1, len(nbrs) + 1):
                    for subset in itertools.combinations(nbrs, r):
                        members = (seed, *subset)
                        for part in set_partitions(members):
                            spoken = {a: 100 + bi
                                      for bi, block in enumerate(part)
                                      for a in block}
                            _check_group_against_oracle(net, members, spoken)

    # (b) groups of 5 and 6: the computation only reads the group-internal
    # submatrix, and a legal group is its seed joined to every recruit, so
    # enumerating all recruit-recruit adjacency patterns covers every group
    # that can occur inside *any* graph on <= 6 nodes.
    r = np.random.default_rng(MASTER)
    for g in (5, 6):
        recruit_pairs = list(itertools.combinations(range(1, g), 2))
        for bits in range(1 << len(recruit_pairs)):
            edges = [(0, v) for v in range(1, g)]
            edges += [rp for b, rp in enumerate(recruit_pairs) if bits >> b & 1]
            net = net_from_edges(g, edges)
            members = tuple(range(g))
            assignments = [
                {a: 7 for a in members},                      # single word
                {a: 100 + a for a in members},                # all distinct
            ]
            for _ in range(2):
                assignments.append(
                    {a: int(r.integers(3)) for a in members})
            for spoken in assignments:
                _check_group_against_oracle(net, members, spoken)

    # (c) probability normalisation over 1e5 randomized group rounds
    checked = 0
    while checked < 100_000:
        m = int(r.integers(3, 11))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if r.random() < 0.4]
        net = net_from_edges(m, edges)
        for _ in range(500):
            size = int(r.integers(2, m + 1))
            members = tuple(int(x) for x in r.choice(m, size=size, replace=False))
            spoken = {a: int(r.integers(4)) for a in members}
            wt = word_weights(Group(members[0], members), spoken, net)
            assert abs(wt.probs.sum() - 1.0) <= 1e-12
            checked += 1


# ----------------------------------------------------------------------
# Criterion 7: running invariants
# ----------------------------------------------------------------------


def test_criterion_7_invariants():
    # (a) a converged population is absorbing for 100 further rounds, all modes
    net = generate(NetworkSpec("rg", 60, p=0.12),
                   np.random.default_rng(derive_seed(MASTER, 91, 0)))
    for mode, round_fn in (("ngg", run_group_round), ("ngmh", ngmh_round),
                           ("minimal", minimal_ng_round)):
        pop = PopulationState(60)
        for a in range(60):
            pop.learn(a, 12)
        params = GameParams(n=8, beta=0.6, mode=mode)
        r = np.random.default_rng(derive_seed(MASTER, 92, 0))
        for _ in range(100):
            round_fn(net, pop, params, r)
        assert all(mem == [12] for mem in pop.memories), f"{mode} disturbed consensus"

    # (b)+(c) across randomized broadcasts: members that succeed collapse to
    # exactly the broadcast word, and members that already succeeded this
    # round are never touched again
    r = np.random.default_rng(derive_seed(MASTER, 93, 0))
    net = generate(NetworkSpec("rg", 30, p=0.2), r)
    for _ in range(2000):
        pop = PopulationState(30)
        for a in range(30):
            for w in r.choice(6, size=int(r.integers(1, 4)), replace=False):
                pop.learn(a, int(w))
        group = form_group(net, 6, r)
        spoken = {a: pop.memories[a][int(r.integers(len(pop.memories[a])))]
                  for a in group.members}
        unsuccessful = {a for a in group.members if r.random() < 0.7}
        frozen = {a: list(pop.memories[a]) for a in group.members
                  if a not in unsuccessful}
        word = spoken[group.members[int(r.integers(len(group.members)))]]
        transmit_word(word, spoken, group, net, pop, unsuccessful, 6, r)
        for a in group.members:
            if a in frozen:
                assert pop.memories[a] == frozen[a], "excluded member mutated"
            elif a not in unsuccessful:
                assert pop.memories[a] == [word], "success must collapse memory"

    # (d) bit-identical traces for identical seeds at full scale
    spec = NetworkSpec("rg", M, p=0.05)
    runs = []
    for _ in range(2):
        net_stream, game_stream = _run_streams(derive_seed(MASTER, 94, 0))
        net = generate(spec, np.random.default_rng(net_stream))
        runs.append(run_to_convergence(net, GameParams(n=20, beta=0.5),
                                       game_stream))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


# ----------------------------------------------------------------------
# Criterion 8: the single-speaker mode is a reduction of the group mode
# ----------------------------------------------------------------------


def _reduction_oracle(group, word, pop, basis):
    """Independent expectation: every recruit hears; known word adopts,
    unknown word appends; the seed needs floor(n_succ/basis) >= 1."""
    n_succ = 0
    for agent in group.members[1:]:
        if word in pop.memories[agent]:
            pop.adopt(agent, word)
            n_succ += 1
        else:
            pop.learn(agent, word)
    if n_succ // basis >= 1:
        pop.adopt(group.seed, word)
        return n_succ, n_succ + 1
    return n_succ, n_succ


MEMORY_CHOICES = ([], [0], [1], [0, 1], [1, 0])


def test_criterion_8_group_round_reduces_to_single_speaker():
    # exhaustive over all connected 3-node graphs, every legal group, every
    # memory configuration over two words, every word the seed can utter,
    # and both feedback bases
    cases = 0
    for adj in connected_labeled_graphs(3):
        net = net_from_edges(3, zip(*np.nonzero(np.triu(adj, 1))))
        for seed in range(3):
            nbrs = [v for v in range(3) if adj[seed, v]]
            for r in range(1, len(nbrs) + 1):
                for subset in itertools.combinations(nbrs, r):
                    group = Group(seed, (seed, *subset))
                    for mems in itertools.product(MEMORY_CHOICES, repeat=3):
                        seed_words = mems[seed] if mems[seed] else [5]
                        for word in seed_words:
                            for basis in (2, 3):
                                cases += 1
                                pops = []
                                for _ in range(3):
                                    pop = PopulationState(3)
                                    for a in range(3):
                                        for w in mems[a]:
                                            pop.learn(a, w)
                                    if not mems[seed]:
                                        pop.learn(seed, word)  # invention
                                    pops.append(pop)

                                unsuccessful = set(group.members)
                                n_a = transmit_word(
                                    word, {seed: word}, group, net, pops[0],
                                    unsuccessful, basis,
                                    np.random.default_rng(cases),
                                    deterministic_feedback=True)
                                succ_a = len(group.members) - len(unsuccessful)

                                out_b = _ngmh_apply(group, word, pops[1], basis)

                                n_c, succ_c = _reduction_oracle(
                                    group, word, pops[2], basis)

                                assert pops[0].memories == pops[1].memories \
                                    == pops[2].memories, f"case {cases}"
                                assert n_a == out_b.heard == n_c
                                assert succ_a == out_b.successful_members == succ_c
    # 24 legal (graph, group) pairs x 125 memory configs x seed words x 2 bases
    assert cases == 8400
