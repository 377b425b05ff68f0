"""Game engine: weights, transmission, rounds, convergence."""

import numpy as np
import pytest

from ngg.engine import (
    GameParams,
    Group,
    PopulationState,
    _ngmh_apply,
    form_group,
    hearing_prob,
    is_converged,
    minimal_ng_round,
    ngmh_round,
    node_weights,
    pair_weight,
    run_group_round,
    run_to_convergence,
    select_transmitting_words,
    speak,
    transmit_count,
    transmit_word,
    word_weights,
)
from ngg.errors import InvalidParamError, UnknownSourceError
from ngg.netgen import NetworkSpec, generate

from conftest import complete_net, net_from_edges, oracle_group_weights, path_net, star_net


def rng(seed=0):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------------
# Parameters and population state
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(n=1, beta=0.5),
    dict(n=10, beta=0.0),
    dict(n=10, beta=1.5),
    dict(n=10, beta=0.5, mode="pairwise"),
    dict(n=10, beta=0.5, max_iterations=0),
    dict(n=10, beta=0.5, vocabulary=0),
    dict(n=10, beta=0.5, group_size_basis="median"),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidParamError):
        GameParams(**kwargs).validate()


def test_population_counters_track_mutations():
    pop = PopulationState(3)
    assert (pop.total_words, pop.distinct_words) == (0, 0)
    pop.learn(0, 5)
    pop.learn(1, 5)
    pop.learn(1, 7)
    assert (pop.total_words, pop.distinct_words) == (3, 2)
    assert pop.recount() == (3, 2)
    pop.adopt(1, 5)  # drops 7, keeps 5
    assert pop.memories[1] == [5]
    assert (pop.total_words, pop.distinct_words) == (2, 1)
    assert pop.converged_word() is None  # agent 2 is still empty
    pop.learn(2, 5)
    assert pop.converged_word() == 5
    assert pop.recount() == (3, 1)


def test_adopt_word_not_previously_held():
    pop = PopulationState(2)
    pop.learn(0, 1)
    pop.learn(0, 2)
    pop.adopt(0, 9)
    assert pop.memories[0] == [9]
    assert pop.recount() == (pop.total_words, pop.distinct_words) == (1, 1)


# ----------------------------------------------------------------------
# Group formation and speaking
# ----------------------------------------------------------------------


def test_form_group_invariants():
    net = generate(NetworkSpec("rg", 40, p=0.15), rng(1))
    for seed in range(200):
        g = form_group(net, 5, rng(seed))
        assert g.members[0] == g.seed
        assert len(set(g.members)) == len(g.members)
        assert len(g.members) == 1 + min(len(net.neighbors(g.seed)), 4)
        for m in g.members[1:]:
            assert net.adj[g.seed, m]


def test_form_group_can_contain_nonadjacent_pair():
    # On a path 0-1-2, a group seeded at 1 recruits both leaves, which are
    # not adjacent to each other.
    net = path_net(3)
    r = rng(0)
    while True:
        g = form_group(net, 20, r)
        if g.seed == 1:
            assert set(g.members) == {0, 1, 2}
            assert not net.adj[0, 2]
            break


def test_speak_from_memory_and_invention():
    params = GameParams(n=5, beta=0.5)
    pop = PopulationState(3)
    pop.learn(0, 42)
    assert speak(pop, 0, params, rng(0)) == 42

    # inventions take consecutive fresh ids and enter the inventor's memory
    assert speak(pop, 1, params, rng(0)) == 0
    assert pop.memories[1] == [0]
    assert speak(pop, 2, params, rng(0)) == 1
    assert pop.memories[2] == [1]
    assert pop.next_fresh_word == 2


def test_speak_uniform_over_memory():
    params = GameParams(n=5, beta=0.5)
    pop = PopulationState(1)
    pop.learn(0, 10)
    pop.learn(0, 11)
    r = rng(7)
    hits = sum(speak(pop, 0, params, r) == 10 for _ in range(20000))
    assert abs(hits / 20000 - 0.5) < 0.015


def test_speak_bounded_vocabulary():
    params = GameParams(n=5, beta=0.5, vocabulary=4)
    pop = PopulationState(50)
    words = {speak(pop, i, params, rng(i)) for i in range(50)}
    assert words <= {0, 1, 2, 3}
    assert pop.next_fresh_word == 0


# ----------------------------------------------------------------------
# Weights
# ----------------------------------------------------------------------


def test_pair_weight_cases():
    net = path_net(3)
    assert pair_weight(1, 1, net) == 0.0
    assert pair_weight(0, 1, net) == 1.0
    assert pair_weight(0, 2, net) == 0.5


def test_node_weights_complete_group():
    net = complete_net(5)
    _, nw = node_weights((0, 1, 2, 3, 4), net)
    assert np.all(nw == 4.0)


def test_node_weights_star_group():
    # hub weight 4, each leaf 1 (to hub) + 3 * 0.5 (to other leaves)
    net = star_net(4)
    pw, nw = node_weights((0, 1, 2, 3, 4), net)
    assert nw[0] == 4.0
    assert np.all(nw[1:] == 2.5)
    assert np.array_equal(pw, pw.T)
    assert np.all(pw.diagonal() == 0.0)


def test_node_weights_pair():
    net = path_net(2)
    _, nw = node_weights((0, 1), net)
    assert nw.tolist() == [1.0, 1.0]


def test_word_weights_complete_group():
    # K4, speakers of word 5: two members -> weight 6 of total 12
    net = complete_net(4)
    group = Group(0, (0, 1, 2, 3))
    wt = word_weights(group, {0: 5, 1: 5, 2: 6, 3: 7}, net)
    assert wt.words == [5, 6, 7]
    assert wt.word_w.tolist() == [6.0, 3.0, 3.0]
    assert wt.probs.tolist() == [0.5, 0.25, 0.25]


def test_word_weights_star_group():
    # hub says 9 (weight 4), four leaves say 5 (weight 4 * 2.5 = 10)
    net = star_net(4)
    group = Group(0, (0, 1, 2, 3, 4))
    wt = word_weights(group, {0: 9, 1: 5, 2: 5, 3: 5, 4: 5}, net)
    assert wt.words == [9, 5]  # first-spoken order, hub speaks first
    assert wt.word_w.tolist() == [4.0, 10.0]
    assert abs(wt.probs[1] - 10.0 / 14.0) < 1e-15


def test_word_weights_match_oracle_randomized():
    r = rng(11)
    for _ in range(250):
        m = int(r.integers(3, 9))
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if r.random() < 0.5]
        net = net_from_edges(m, edges)
        size = int(r.integers(2, m + 1))
        members = tuple(int(x) for x in r.choice(m, size=size, replace=False))
        spoken = {a: int(r.integers(3)) for a in members}
        wt = word_weights(Group(members[0], members), spoken, net)
        _, node, words, word_w, probs = oracle_group_weights(
            members, net.adj, spoken)
        _, nw = node_weights(members, net)
        assert nw.tolist() == node
        assert wt.node_w.tolist() == node
        assert wt.words == words
        assert wt.word_w.tolist() == word_w
        assert wt.probs.tolist() == probs
        assert abs(wt.probs.sum() - 1.0) < 1e-12


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def test_transmit_count_rounding():
    assert transmit_count(GameParams(n=10, beta=0.1), 10) == 1
    assert transmit_count(GameParams(n=20, beta=0.5), 20) == 10
    assert transmit_count(GameParams(n=2, beta=1.0), 2) == 2
    assert transmit_count(GameParams(n=10, beta=0.25), 10) == 3  # 2.5 rounds up
    assert transmit_count(GameParams(n=10, beta=0.01), 10) == 1  # floor of 1
    assert transmit_count(
        GameParams(n=50, beta=0.5, group_size_basis="actual"), 11) == 6


def test_select_single_candidate():
    net = path_net(2)
    wt = word_weights(Group(0, (0, 1)), {0: 3, 1: 3}, net)
    picks = select_transmitting_words(wt, GameParams(n=8, beta=0.5), 2, rng(0))
    assert picks == [3, 3, 3, 3]


def test_select_follows_weights():
    net = star_net(4)
    wt = word_weights(Group(0, (0, 1, 2, 3, 4)), {0: 9, 1: 5, 2: 5, 3: 5, 4: 5}, net)
    picks = select_transmitting_words(
        wt, GameParams(n=20000, beta=1.0), 5, rng(3))
    assert len(picks) == 20000
    freq = picks.count(5) / 20000
    assert abs(freq - 10.0 / 14.0) < 0.01


# ----------------------------------------------------------------------
# Transmission
# ----------------------------------------------------------------------


def test_hearing_prob_cases():
    net = path_net(3)
    assert hearing_prob(0, [1], net) == 1.0
    assert hearing_prob(0, [2], net) == 0.5
    assert hearing_prob(0, [0], net) == 0.0
    assert hearing_prob(0, [0, 2, 1], net) == 1.0  # best source wins


def test_transmit_all_sources_adopt_each_other():
    # K3, everyone spoke word 5 and holds it: all three hear another source
    # (pair weight 1) and succeed as hearers.
    net = complete_net(3)
    pop = PopulationState(3)
    for a in range(3):
        pop.learn(a, 5)
        pop.learn(a, a + 10)
    group = Group(0, (0, 1, 2))
    unsuccessful = {0, 1, 2}
    n_succ = transmit_word(5, {0: 5, 1: 5, 2: 5}, group, net, pop,
                           unsuccessful, 3, rng(0))
    assert n_succ == 3
    assert unsuccessful == set()
    assert [pop.memories[a] for a in range(3)] == [[5], [5], [5]]


def test_transmit_sole_source_cannot_hear_itself():
    # star hub speaks alone; a leaf that lacks the word only learns it, so
    # n_succ = 0 and the hub gets no feedback success regardless of rng.
    net = star_net(2)
    for seed in range(50):
        pop = PopulationState(3)
        pop.learn(0, 4)
        pop.learn(1, 6)
        pop.learn(2, 6)
        unsuccessful = {0, 1, 2}
        n_succ = transmit_word(4, {0: 4}, Group(0, (0, 1, 2)), net,
                               pop, unsuccessful, 3, rng(seed))
        assert n_succ == 0
        assert 0 in unsuccessful
        assert pop.memories[1] == [6, 4]
        assert pop.memories[2] == [6, 4]


def test_transmit_repeat_word_persuades():
    # adjacent pair; the second broadcast of the same word converts the
    # hearer that learned it on the first one. basis=1 makes the speaker
    # feedback deterministic once n_succ reaches 1.
    net = path_net(2)
    pop = PopulationState(2)
    pop.learn(0, 7)
    pop.learn(1, 9)
    group = Group(0, (0, 1))
    unsuccessful = {0, 1}
    assert transmit_word(7, {0: 7, 1: 9}, group, net, pop, unsuccessful,
                         1, rng(0)) == 0
    assert pop.memories[1] == [9, 7]
    assert transmit_word(7, {0: 7, 1: 9}, group, net, pop, unsuccessful,
                         1, rng(1)) == 1
    assert unsuccessful == set()
    assert pop.memories == [[7], [7]]


def test_transmit_source_succeeds_as_hearer():
    # two sources of word 3 on a star: each hears the other and adopts;
    # the third member merely learns.
    net = star_net(2)
    pop = PopulationState(3)
    pop.learn(0, 3)
    pop.learn(1, 3)
    pop.learn(2, 8)
    group = Group(0, (0, 1, 2))
    unsuccessful = {0, 1, 2}
    n_succ = transmit_word(3, {0: 3, 1: 3, 2: 8}, group, net, pop,
                           unsuccessful, 3, rng(0))
    assert n_succ == 2
    assert unsuccessful == {2}
    assert pop.memories[0] == [3]
    assert pop.memories[1] == [3]
    assert pop.memories[2] == [8, 3]


def test_transmit_skips_members_outside_unsuccessful():
    # agent 1 already succeeded this round: its memory must not change even
    # though it would hear with probability 1.
    net = complete_net(3)
    pop = PopulationState(3)
    pop.learn(0, 2)
    pop.learn(1, 5)
    pop.learn(2, 2)
    group = Group(0, (0, 1, 2))
    unsuccessful = {0, 2}
    n_succ = transmit_word(2, {0: 2, 1: 5, 2: 2}, group, net, pop,
                           unsuccessful, 3, rng(0))
    assert n_succ == 2
    assert pop.memories[1] == [5]
    assert unsuccessful == set()


def test_transmit_nonadjacent_hearing_frequency():
    # path 0-1-2: sole source 0, listener 2 at pair weight 0.5
    net = path_net(3)
    heard = 0
    trials = 4000
    for seed in range(trials):
        pop = PopulationState(3)
        pop.learn(0, 11)
        pop.learn(2, 11)
        unsuccessful = {2}
        transmit_word(11, {0: 11}, Group(1, (1, 0, 2)), net, pop,
                      unsuccessful, 3, rng(seed))
        heard += 2 not in unsuccessful
    assert abs(heard / trials - 0.5) < 0.03


def test_transmit_feedback_frequency():
    # star hub as sole source, 4 leaves all adopt -> n_succ = 4, so the hub
    # succeeds with probability 4/5 under basis 5.
    net = star_net(4)
    ok = 0
    trials = 4000
    for seed in range(trials):
        pop = PopulationState(5)
        for a in range(5):
            pop.learn(a, 2)
        unsuccessful = {0, 1, 2, 3, 4}
        n_succ = transmit_word(2, {0: 2}, Group(0, (0, 1, 2, 3, 4)), net,
                               pop, unsuccessful, 5, rng(seed))
        assert n_succ == 4
        ok += 0 not in unsuccessful
    assert abs(ok / trials - 0.8) < 0.025


def test_transmit_deterministic_feedback_floor():
    net = star_net(4)
    for basis, expect_seed_success in ((5, False), (4, True)):
        pop = PopulationState(5)
        for a in range(5):
            pop.learn(a, 2)
        unsuccessful = {0, 1, 2, 3, 4}
        transmit_word(2, {0: 2}, Group(0, (0, 1, 2, 3, 4)), net, pop,
                      unsuccessful, basis, rng(0), deterministic_feedback=True)
        assert (0 not in unsuccessful) == expect_seed_success


def test_transmit_unknown_source():
    net = path_net(2)
    pop = PopulationState(2)
    with pytest.raises(UnknownSourceError):
        transmit_word(1, {0: 2}, Group(0, (0, 1)), net, pop, {0, 1}, 2, rng(0))


def test_successful_members_have_singleton_memory():
    # across random rounds, every member that left the unsuccessful set holds
    # exactly the word that converted it
    net = generate(NetworkSpec("rg", 25, p=0.2), rng(5))
    params = GameParams(n=6, beta=0.6)
    pop = PopulationState(25)
    r = rng(99)
    for _ in range(300):
        before = {a: list(pop.memories[a]) for a in range(25)}
        outcome = run_group_round(net, pop, params, r)
        words = set(outcome.transmitted)
        for a in range(25):
            if len(pop.memories[a]) < len(before[a]):
                # memory can only shrink through adoption
                assert len(pop.memories[a]) == 1
                assert pop.memories[a][0] in words


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def test_round_outcome_invariants_and_counters():
    net = generate(NetworkSpec("ws", 30, k=3, rp=0.2), rng(2))
    params = GameParams(n=7, beta=0.4)
    pop = PopulationState(30)
    r = rng(4)
    for _ in range(400):
        outcome = run_group_round(net, pop, params, r)
        assert 2 <= outcome.group_size <= 7
        assert len(outcome.transmitted) == transmit_count(params, outcome.group_size)
        assert 0 <= outcome.successful_members <= outcome.group_size
        assert outcome.sr == outcome.successful_members / outcome.group_size
        # every hearer success is a member leaving the unsuccessful set
        assert 0 <= outcome.heard <= outcome.successful_members
    assert pop.recount() == (pop.total_words, pop.distinct_words)


def test_two_node_round_stays_small():
    net = path_net(2)
    params = GameParams(n=2, beta=1.0)
    for seed in range(300):
        pop = PopulationState(2)
        run_group_round(net, pop, params, rng(seed))
        assert pop.distinct_words <= 2
        assert all(len(m) >= 1 for m in pop.memories)


def test_converged_population_is_absorbing():
    net = generate(NetworkSpec("rg", 20, p=0.3), rng(8))
    for mode, round_fn in (("ngg", run_group_round), ("ngmh", ngmh_round),
                           ("minimal", minimal_ng_round)):
        pop = PopulationState(20)
        for a in range(20):
            pop.learn(a, 7)
        params = GameParams(n=5, beta=0.5, mode=mode)
        r = rng(13)
        for _ in range(100):
            round_fn(net, pop, params, r)
        assert pop.converged_word() == 7
        assert all(m == [7] for m in pop.memories)


# ----------------------------------------------------------------------
# Alternative modes
# ----------------------------------------------------------------------


def test_ngmh_apply_hearers_adopt_seed_waits():
    pop = PopulationState(5)
    for a in range(5):
        pop.learn(a, 2)
        pop.learn(a, a + 10)
    group = Group(0, (0, 1, 2, 3, 4))
    outcome = _ngmh_apply(group, 2, pop, 5)
    assert outcome.transmitted == [2]
    assert outcome.heard == 4
    assert outcome.successful_members == 4  # floor(4/5) = 0: seed excluded
    assert pop.memories[0] == [2, 10]
    assert all(pop.memories[a] == [2] for a in range(1, 5))


def test_ngmh_apply_unknown_word_spreads():
    pop = PopulationState(3)
    pop.learn(0, 1)
    outcome = _ngmh_apply(Group(0, (0, 1, 2)), 1, pop, 3)
    assert outcome.transmitted == [1]
    assert outcome.heard == 0
    assert outcome.successful_members == 0
    assert pop.memories == [[1], [1], [1]]


def test_ngmh_seed_never_succeeds_in_rounds():
    net = generate(NetworkSpec("rg", 15, p=0.4), rng(3))
    params = GameParams(n=5, beta=0.5, mode="ngmh")
    pop = PopulationState(15)
    r = rng(21)
    for _ in range(500):
        outcome = ngmh_round(net, pop, params, r)
        # group size <= n means floor(n_succ/n) = 0: hearer successes only
        assert len(outcome.transmitted) == 1
        assert outcome.successful_members == outcome.heard


def test_ngmh_converges_via_hearers():
    net = complete_net(6)
    params = GameParams(n=3, beta=0.5, mode="ngmh", max_iterations=50000)
    for seed in range(5):
        _, summary = run_to_convergence(net, params, seed)
        assert summary.converged


def test_minimal_round_success_and_failure():
    net = path_net(2)

    # guaranteed failure: no shared word, so the hearer learns one
    pop = PopulationState(2)
    pop.learn(0, 4)
    pop.learn(0, 5)
    pop.learn(1, 9)
    out = minimal_ng_round(net, pop, GameParams(n=2, beta=1.0, mode="minimal"),
                           rng(1))
    assert out.successful_members == 0 and out.sr == 0.0
    assert sum(len(m) for m in pop.memories) == 4

    # guaranteed success: both agents hold exactly word 3
    pop = PopulationState(2)
    pop.learn(0, 3)
    pop.learn(1, 3)
    out = minimal_ng_round(net, pop, GameParams(n=2, beta=1.0, mode="minimal"),
                           rng(2))
    assert out.successful_members == 2 and out.sr == 1.0
    assert pop.memories == [[3], [3]]


def test_minimal_two_agents_converge_first_round():
    # both memories start empty: the invention is stored and taught, leaving
    # identical singletons after one iteration
    net = path_net(2)
    params = GameParams(n=2, beta=1.0, mode="minimal")
    for seed in range(20):
        records, summary = run_to_convergence(net, params, seed)
        assert summary.converged and summary.n_iter_cvg == 1
        assert records[0].n_total == 2 and records[0].n_diff == 1


# ----------------------------------------------------------------------
# Full runs
# ----------------------------------------------------------------------


def test_run_to_convergence_two_agents():
    net = path_net(2)
    params = GameParams(n=2, beta=1.0)
    for seed in range(100):
        records, summary = run_to_convergence(net, params, seed)
        assert summary.converged
        assert records[-1].n_total == 2
        assert records[-1].n_diff == 1
        assert summary.n_iter_cvg == records[-1].iteration
        assert [r.iteration for r in records] == list(range(1, len(records) + 1))


def test_run_to_convergence_trace_consistency():
    net = generate(NetworkSpec("rg", 30, p=0.2), rng(17))
    params = GameParams(n=5, beta=0.5)
    records, summary = run_to_convergence(net, params, 123)
    assert summary.converged
    assert summary.converged_word is not None
    assert summary.n_total_max == max(r.n_total for r in records)
    assert summary.n_diff_max == max(r.n_diff for r in records)
    for r in records:
        assert r.n_diff <= r.n_total
        assert 0.0 <= r.sr <= 1.0


def test_run_to_convergence_hits_cap():
    net = generate(NetworkSpec("rg", 50, p=0.15), rng(2))
    params = GameParams(n=5, beta=0.2, max_iterations=3)
    records, summary = run_to_convergence(net, params, 0)
    assert not summary.converged
    assert summary.n_iter_cvg is None
    assert summary.converged_word is None
    assert len(records) == 3


def test_run_to_convergence_rejects_oversized_group():
    net = path_net(4)
    with pytest.raises(InvalidParamError):
        run_to_convergence(net, GameParams(n=5, beta=0.5), 0)


def test_run_to_convergence_deterministic():
    net = generate(NetworkSpec("rg", 40, p=0.15), rng(31))
    params = GameParams(n=6, beta=0.5)
    r1, s1 = run_to_convergence(net, params, 777)
    r2, s2 = run_to_convergence(net, params, 777)
    assert r1 == r2
    assert s1 == s2
    r3, _ = run_to_convergence(net, params, 778)
    assert r3 != r1


def test_is_converged_alias():
    pop = PopulationState(2)
    assert is_converged(pop) is None
    pop.learn(0, 3)
    pop.learn(1, 3)
    assert is_converged(pop) == 3
