"""Game engine: weights, transmission, rounds, convergence."""

from collections import Counter
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngg import metrics
from ngg.engine import (
    GROUP_SIZE_BASES,
    MODES,
    GameParams,
    Group,
    PopulationState,
    WeightTable,
    _Draws,
    _minimal_steps,
    _ngmh_apply,
    _speak_all,
    form_group,
    minimal_ng_round,
    ngmh_round,
    run_group_round,
    run_to_convergence,
    select_transmitting_words,
    speak,
    transmit_count,
    transmit_word,
    word_weights,
)
from ngg.errors import InvalidParamError
from ngg.netgen import NetworkSpec, generate

from conftest import (
    complete_net,
    hearing_prob,
    make_trace,
    net_from_edges,
    node_weights,
    oracle_group_weights,
    oracle_minimal_step,
    oracle_n_iter_cvg,
    oracle_recount,
    oracle_run,
    oracle_speak_all,
    oracle_weighted_picks,
    pair_weight,
    path_net,
    plain,
    snapshot_run,
    star_net,
    twin_generators,
)


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


@pytest.mark.parametrize("field, value, what", [
    ("n", 5.0, "an integer"),
    ("n", True, "an integer"),
    ("max_iterations", 1e3, "an integer"),
    ("vocabulary", 2.0, "an integer"),
    ("beta", True, "a number"),
    ("n", None, "an integer"),
    ("beta", None, "a number"),
])
def test_wrong_type_params_rejected_naming_the_field(field, value, what):
    params = GameParams(**{"n": 5, "beta": 0.5, field: value})
    with pytest.raises(InvalidParamError) as exc:
        run_to_convergence(path_net(6), params, rng(0))
    assert str(exc.value) == f"{field} must be {what}, got {value!r}"
    assert exc.value.field == field


def test_vocabulary_bounded_by_numpy_integers():
    # numpy's integers(high) takes high up to 2**63 and no further
    top = GameParams(n=3, beta=0.5, vocabulary=2**63, max_iterations=50)
    trace, _ = run_to_convergence(path_net(6), top, 0)
    assert len(trace) >= 1
    with pytest.raises(InvalidParamError) as exc:
        GameParams(n=3, beta=0.5, vocabulary=2**63 + 1).validate()
    assert exc.value.field == "vocabulary"
    assert str(exc.value) == (
        f"vocabulary size must be in [1, 2**63], got {2**63 + 1}")


def test_numpy_scalar_params_accepted():
    GameParams(n=np.int64(5), beta=np.float32(0.5), max_iterations=np.int32(9),
               vocabulary=np.uint8(3)).validate()


def test_group_size_checked_against_network_size():
    # n <= m is one GameParams rule: the harness and run_to_convergence pass m
    with pytest.raises(InvalidParamError) as exc:
        GameParams(n=5, beta=0.5).validate(4)
    assert exc.value.field == "n"
    GameParams(n=5, beta=0.5).validate(5)


def test_population_counters_track_mutations():
    pop = PopulationState(3)
    assert (pop.total_words, pop.distinct_words) == (0, 0)
    pop.learn(0, 5)
    pop.learn(1, 5)
    pop.learn(1, 7)
    assert (pop.total_words, pop.distinct_words) == (3, 2)
    assert oracle_recount(pop) == (3, 2)
    pop.adopt(1, 5)  # drops 7, keeps 5
    assert pop.memories[1] == [5]
    assert (pop.total_words, pop.distinct_words) == (2, 1)
    assert pop.converged_word() is None  # agent 2 is still empty
    pop.learn(2, 5)
    assert pop.converged_word() == 5
    assert oracle_recount(pop) == (3, 1)


@given(st.lists(st.tuples(st.sampled_from(["learn", "adopt", "readopt"]),
                          st.integers(0, 4), st.integers(0, 6)), max_size=60))
def test_population_counters_match_recount(ops):
    # "readopt" adopts a one-word memory's own word: adopt's no-op path
    pop = PopulationState(5)
    for op, agent, word in ops:
        mem = pop.memories[agent]
        if op == "readopt" and len(mem) == 1:
            pop.adopt(agent, mem[0])
        elif op == "adopt":
            pop.adopt(agent, word)
            assert mem == [word]
        elif word not in mem:
            pop.learn(agent, word)
        assert (pop.total_words, pop.distinct_words) == oracle_recount(pop)
        assert pop._counts == Counter(w for m in pop.memories for w in m)
        held = {tuple(mem) for mem in pop.memories}
        single = len(held) == 1 and len(next(iter(held))) == 1
        assert pop.converged_word() == (next(iter(held))[0] if single else None)


def test_adopt_word_not_previously_held():
    pop = PopulationState(2)
    pop.learn(0, 1)
    pop.learn(0, 2)
    pop.adopt(0, 9)
    assert pop.memories[0] == [9]
    assert oracle_recount(pop) == (pop.total_words, pop.distinct_words) == (1, 1)


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


def test_form_group_members_are_plain_ints():
    # word_weights shifts 1 << agent, which overflows on a numpy int64 member
    net = generate(NetworkSpec("rg", 40, p=0.15), rng(1))
    branches = set()
    for seed in range(200):
        g = form_group(net, 5, rng(seed))
        branches.add(len(g.members) == 1 + len(net.neighbors(g.seed)))
        assert all(type(agent) is int for agent in g.members), g.members
        word_weights(g, dict.fromkeys(g.members, 0), net)
    assert branches == {True, False}  # whole neighbourhood, and a sample


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


def _population(memories) -> PopulationState:
    """The given memories; the fresh-word counter is past their words."""
    pop = PopulationState(len(memories))
    for agent, mem in enumerate(memories):
        for word in mem:
            pop.learn(agent, word)
    pop.next_fresh_word = 10
    return pop


_DRAW_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64,
                    np.random.Philox, np.random.MT19937]
_VOCABULARIES = [None, 1, 2, 3, 2**32, 2**32 + 1, 2**40]
# memories, and a member order over their agents
_GROUPS = st.lists(st.lists(st.integers(0, 9), unique=True, max_size=3),
                   min_size=1, max_size=12).flatmap(
    lambda mems: st.tuples(st.just(mems), st.permutations(range(len(mems)))))


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(_DRAW_GENERATORS), st.sampled_from(_VOCABULARIES),
       _GROUPS, st.integers(0, 2**64 - 1), st.booleans(), st.booleans())
@example(np.random.PCG64, 2**40, ([[], [3], [], [], [1, 2], []],
                                  [5, 0, 1, 2, 3, 4]), 7, True, True)
@example(np.random.Philox, 3, ([[], [], [], []], [0, 1, 2, 3]), 1, True, False)
def test_speak_all_matches_bulk_draw_oracle(bitgen, vocabulary, group, seed,
                                            buffered, via_draws):
    # Inventions one scalar integers(vocabulary) at a time, in member order
    # after the bulk random(n), give the words and the stream of one sized
    # integers(vocabulary, size=empties) draw.
    memories, members = group
    params = GameParams(n=20, beta=0.5, vocabulary=vocabulary)
    new_gen, old_gen = twin_generators(bitgen, seed, buffered)
    new, old = _population(memories), _population(memories)
    spoken = _speak_all(new, members, params,
                        _Draws(new_gen) if via_draws else new_gen)
    want = oracle_speak_all(old, members, params, old_gen)
    assert list(spoken.items()) == list(want.items())
    assert new.memories == old.memories
    assert (new.next_fresh_word, new.total_words, new.distinct_words) == (
        old.next_fresh_word, old.total_words, old.distinct_words)
    assert plain(new_gen.bit_generator.state) == plain(old_gen.bit_generator.state)


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


def test_weight_table_rejects_the_old_positional_probs():
    # the fourth field used to be probs; it must not pass as sources
    with pytest.raises(TypeError):
        WeightTable([1.0, 1.0], [3, 4], [1.0, 1.0], np.array([0.5, 0.5]))


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


# word_weights gives multiples of 0.5; any positive floats test the rest
_WORD_WEIGHTS = st.lists(st.integers(1, 40).map(lambda k: k / 2),
                         min_size=2, max_size=20) | st.lists(
    st.floats(0.0, 1e12, exclude_min=True), min_size=2, max_size=20)


def _weight_table(weights) -> WeightTable:
    """A table over distinct words with the given weights, one speaker each,
    as word_weights builds it."""
    words = [100 + 3 * i for i in range(len(weights))]
    return WeightTable(list(weights), words, list(weights),
                       sources={w: [i] for i, w in enumerate(words)})


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_DRAW_GENERATORS), _WORD_WEIGHTS, st.integers(1, 16),
       st.integers(0, 2**64 - 1), st.booleans())
@example(np.random.PCG64, [0.5, 1.0, 1.5], 16, 7, True)
@example(np.random.MT19937, [5e-324, 1e12], 3, 0, True)
def test_select_matches_numpy_weighted_choice(bitgen, weights, count, seed,
                                              buffered):
    new, old = twin_generators(bitgen, seed, buffered)
    wt = _weight_table(weights)
    params = GameParams(n=16, beta=count / 16)
    assert select_transmitting_words(wt, params, 16, new) == (
        oracle_weighted_picks(wt.words, wt.probs, count, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


class FixedUniforms:
    """Stands in for a Generator: random(size) hands out the given values."""

    def __init__(self, values):
        self.values = values

    def random(self, size):
        assert size == len(self.values)
        return np.asarray(self.values)


@settings(deadline=None)
@given(_WORD_WEIGHTS)
@example([0.5, 1.0, 1.5])
def test_select_picks_at_the_exact_cdf_boundaries(weights):
    # Random draws almost never land on a boundary, so put them there: the
    # picks equal numpy's only if the cumulative sums are numpy's to the bit.
    wt = _weight_table(weights)
    cdf = wt.probs.cumsum()  # Generator.choice(p=) takes these two steps,
    cdf /= cdf[-1]           # then searchsorted(random(size), side="right")
    u = [x for c in cdf[:-1].tolist()
         for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)) if x < 1.0]
    params = GameParams(n=64, beta=len(u) / 64)
    assert select_transmitting_words(wt, params, 64, FixedUniforms(u)) == [
        wt.words[i] for i in cdf.searchsorted(u, side="right")]


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


@st.composite
def _broadcasts(draw):
    """A group on a random graph, its spoken words, everyone's memories and
    an unsuccessful set that may hold non-members."""
    m = draw(st.integers(2, 9))
    pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=20))
    members = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m,
                            unique=True))
    spoken = {a: draw(st.integers(0, 3)) for a in members}
    memories = [draw(st.lists(st.integers(0, 4), unique=True, max_size=3))
                for _ in range(m)]
    if draw(st.booleans()):
        unsuccessful = set(members)
    else:
        unsuccessful = draw(st.sets(st.sampled_from(members)))
    # outsiders: nodes of the network outside the group, and no node at all
    unsuccessful |= draw(st.sets(st.integers(0, m + 2).filter(
        lambda i: i not in spoken)))
    return net_from_edges(m, edges), members, spoken, memories, unsuccessful


@settings(deadline=None, max_examples=300)
@given(_broadcasts(), st.data(), st.booleans(), st.integers(0, 2**32))
def test_transmit_with_sources_map_matches_comprehension(case, data,
                                                         deterministic, seed):
    net, members, spoken, memories, unsuccessful = case
    group = Group(members[0], tuple(members))
    wt = word_weights(group, spoken, net)
    assert list(wt.sources) == wt.words
    for w in wt.words:
        assert wt.sources[w] == [i for i in members if spoken[i] == w]

    pops, sets, gens = [], [], []
    for _ in range(2):
        pop = PopulationState(net.m)
        for agent, mem in enumerate(memories):
            for w in mem:
                pop.learn(agent, w)
        pops.append(pop)
        sets.append(set(unsuccessful))
        gens.append(rng(seed))
    basis = data.draw(st.integers(1, len(members)))
    broadcast = data.draw(st.lists(st.sampled_from(wt.words), min_size=1,
                                   max_size=4))
    for w in broadcast:
        a = transmit_word(w, spoken, group, net, pops[0], sets[0], basis,
                          gens[0], deterministic_feedback=deterministic)
        b = transmit_word(w, spoken, group, net, pops[1], sets[1], basis,
                          gens[1], deterministic_feedback=deterministic,
                          sources=wt.sources[w])
        assert a == b
        assert pops[0].memories == pops[1].memories
        assert pops[0]._counts == pops[1]._counts
        assert pops[0].total_words == pops[1].total_words
        assert sets[0] == sets[1]
        assert plain(gens[0].bit_generator.state) == plain(
            gens[1].bit_generator.state)
    # only the members still waiting at the start can hear or adopt
    for agent, mem in enumerate(memories):
        if agent not in unsuccessful or agent not in spoken:
            assert pops[1].memories[agent] == mem


def test_transmit_unknown_source():
    net = path_net(2)
    pop = PopulationState(2)
    with pytest.raises(InvalidParamError,
                       match="word 1 has no round-start speaker"):
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
    assert oracle_recount(pop) == (pop.total_words, pop.distinct_words)


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
        assert summary.converged_word == 0   # the first fresh word
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


@pytest.mark.parametrize("mode", MODES)
def test_run_to_convergence_looks_summarize_up_per_call(monkeypatch, mode):
    # the benchmark times metrics.summarize by wrapping it in the module; a
    # run that bound the original at import would bypass the wrapper
    calls = []
    real = metrics.summarize
    monkeypatch.setattr(metrics, "summarize",
                        lambda *args: calls.append(mode) or real(*args))
    net = generate(NetworkSpec("rg", 20, p=0.4), rng(3))
    for seed in range(3):
        run_to_convergence(net, GameParams(n=4, beta=0.5, mode=mode), seed)
    assert calls == [mode] * 3


def test_run_to_convergence_deterministic():
    net = generate(NetworkSpec("rg", 40, p=0.15), rng(31))
    params = GameParams(n=6, beta=0.5)
    r1, s1 = run_to_convergence(net, params, 777)
    r2, s2 = run_to_convergence(net, params, 777)
    assert r1 == r2
    assert s1 == s2
    r3, _ = run_to_convergence(net, params, 778)
    assert r3 != r1


def test_converged_word():
    pop = PopulationState(2)
    assert pop.converged_word() is None
    pop.learn(0, 3)
    pop.learn(1, 3)
    assert pop.converged_word() == 3


@st.composite
def _oracle_games(draw):
    """A connected graph of 2-30 nodes (a random tree plus extra edges) and
    game knobs that fit it, with a small cap."""
    m = draw(st.integers(2, 30))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, m)]
    edges += draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=3 * m))
    params = GameParams(
        n=draw(st.integers(2, m)),
        beta=draw(st.floats(0.0, 1.0, exclude_min=True)),
        mode=draw(st.sampled_from(MODES)),
        max_iterations=draw(st.integers(1, 150)),
        vocabulary=draw(st.sampled_from([None, 1, 3, 2**40])),
        group_size_basis=draw(st.sampled_from(GROUP_SIZE_BASES)))
    return net_from_edges(m, edges), params


@settings(deadline=None, max_examples=200)
@given(_oracle_games(), st.sampled_from(_DRAW_GENERATORS),
       st.integers(0, 2**64 - 1), st.booleans())
@example((star_net(4), GameParams(n=3, beta=0.5, mode="minimal",
                                  max_iterations=150, vocabulary=2**40)),
         np.random.Philox, 7, True)
def test_run_matches_whole_run_oracle(game, bitgen, seed, buffered):
    # The networks are built apart from the game stream, so MT19937, which
    # ws rewiring rejects, plays here on every graph.
    net, params = game
    new, old = twin_generators(bitgen, seed, buffered)
    trace, summary = run_to_convergence(net, params, new)
    records = oracle_run(net, params, old)
    assert trace == make_trace(records)
    assert summary.converged == (records[-1].n_total == net.m
                                 and records[-1].n_diff == 1)
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


@pytest.mark.parametrize("mode", ["ngg", "ngmh", "minimal"])
def test_trace_matches_snapshot_loop(mode):
    # the snapshot loop calls the round functions, minimal_ng_round among
    # them, where run_to_convergence runs the fused minimal loop
    net = generate(NetworkSpec("ws", 30, k=2, rp=0.2), rng(5))
    # 5 rounds reach at most 25 of the 30 agents: that run is capped
    for vocabulary, (cap, seed) in product(
            (None, 3, 2**40),
            ((1_000_000, 0), (1_000_000, 1), (1_000_000, 2), (5, 0))):
        params = GameParams(n=5, beta=0.5, mode=mode, max_iterations=cap,
                            vocabulary=vocabulary)
        trace, summary = run_to_convergence(net, params, seed)
        records = snapshot_run(net, params, seed)
        assert len(trace) == len(records) == summary.iterations
        assert list(trace) == records
        assert all(type(a) is type(b) for a, b in zip(trace, records))
        n_total, n_diff = trace.arrays()[:2]
        assert summary.n_iter_cvg == oracle_n_iter_cvg(n_total, n_diff, net.m)
        assert summary.converged == (cap > 5)


# ----------------------------------------------------------------------
# The run's random stream
# ----------------------------------------------------------------------

# numpy rejects about a quarter of the draws at 2**31 + 1.
_BOUNDS = (st.sampled_from([1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32,
                            2**32 + 1, 2**40])
           | st.integers(1, 2**32 - 1))
_WEIGHTS = st.lists(st.integers(1, 9), min_size=1, max_size=8)
# The calls the engine makes on a run's stream, plus integers() at the
# edges of numpy's 32-bit path.
_DRAWS = st.one_of(
    st.tuples(st.just("integers"), _BOUNDS),
    st.tuples(st.just("random")),
    st.tuples(st.just("next_double")),
    st.tuples(st.just("random_k"), st.integers(0, 6)),
    st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just("choice"), st.just(n), st.integers(0, n))),
    st.tuples(st.just("choice_p"), _WEIGHTS, st.integers(1, 16)),
)


def _draw(stream, call):
    kind, *args = call
    if kind == "integers":
        return int(stream.integers(args[0]))
    if kind == "random":
        return stream.random()
    if kind == "next_double":  # _Draws' scalar random() on ctypes
        return stream._next_double() if isinstance(stream, _Draws) else stream.random()
    if kind == "random_k":
        return stream.random(args[0]).tolist()
    if kind == "choice":
        n, size = args
        return stream.choice(np.arange(n) * 3, size=size, replace=False).tolist()
    weights, size = args
    p = np.asarray(weights) / sum(weights)
    return stream.choice(len(weights), size=size, replace=True, p=p).tolist()


@settings(deadline=None)
@given(st.sampled_from(_DRAW_GENERATORS), st.integers(0, 2**64 - 1),
       st.booleans(), st.lists(_DRAWS, max_size=40))
def test_draws_match_generator(bitgen, seed, buffered, calls):
    new, gen = twin_generators(bitgen, seed, buffered)
    draws = _Draws(new)
    for call in calls:
        assert _draw(draws, call) == _draw(gen, call), call
    assert plain(new.bit_generator.state) == plain(gen.bit_generator.state)


def test_draws_advance_a_passed_generator():
    gen, ref = rng(3), rng(3)
    draws = _Draws(gen)
    assert [draws.integers(1000) for _ in range(5)] == [
        int(ref.integers(1000)) for _ in range(5)]
    assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [0, -1])
def test_draws_reject_empty_range_as_numpy_does(n):
    with pytest.raises(ValueError, match="high <= 0"):
        rng(0).integers(n)
    with pytest.raises(ValueError, match="high <= 0"):
        _Draws(0).integers(n)


# ----------------------------------------------------------------------
# The minimal game's scalar draws
# ----------------------------------------------------------------------

_WIDE_GENERATORS = _DRAW_GENERATORS[:4]  # the ones that keep a 32-bit half


def _minimal_steps_match_scalar_calls(net, memories, params, new, old, rounds):
    """rounds of _minimal_steps on Generator new against the scalar rule on
    old, from the same memories: each round the same pair and word, and
    after close() the same population and the same generator state."""
    pop, want, fresh = _population(memories), [list(m) for m in memories], [10]
    edges = net.edges().tolist()
    steps = _minimal_steps(net, pop, params, _Draws(new))
    for got in islice(steps, rounds):
        sr, speaker, hearer, word = oracle_minimal_step(edges, want, params, old,
                                                        fresh)
        assert got == (sr, 2, [word])
        assert pop.memories[speaker] == want[speaker]
        assert pop.memories[hearer] == want[hearer]
    steps.close()
    assert pop.memories == want
    assert pop.next_fresh_word == fresh[0]
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


def _ring_game(m: int, empty: float, seed: int):
    """A ring of m nodes plus m // 4 chords, and memories of 1-4 of the words
    0-9, each empty with probability `empty`."""
    r = rng(seed)
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [tuple(r.choice(m, 2, replace=False)) for _ in range(m // 4)]
    memories = [[] if r.random() < empty else
                r.choice(10, r.integers(1, 5), replace=False).tolist()
                for _ in range(m)]
    return net_from_edges(m, edges), memories


# inventions at bounds where Lemire keeps or rejects, and above 2**32
_STEP_VOCABULARIES = [None, 1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
                      2**40]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(_DRAW_GENERATORS), st.integers(0, 2**64 - 1),
       st.booleans(), st.integers(2, 500), st.floats(0.0, 1.0),
       st.sampled_from(_STEP_VOCABULARIES), st.integers(0, 2200))
@example(np.random.PCG64, 1, True, 500, 1.0, 2**31 + 1, 2200)
@example(np.random.PCG64DXSM, 2, False, 500, 0.5, 2**40, 2200)
@example(np.random.SFC64, 3, True, 500, 0.9, 3, 2200)
@example(np.random.Philox, 4, True, 500, 1.0, 2**32, 2200)
def test_minimal_steps_draw_as_the_generator_would(bitgen, seed, buffered, m,
                                                   empty, vocabulary, rounds):
    # Up to about three blocks of raw words, from a state that may hold a
    # kept half, with inventions wherever a memory is still empty.
    net, memories = _ring_game(m, empty, seed)
    params = GameParams(n=2, beta=0.5, mode="minimal", vocabulary=vocabulary)
    new, old = twin_generators(bitgen, seed, buffered)
    _minimal_steps_match_scalar_calls(net, memories, params, new, old, rounds)


def _sfc64_at(a, counter, has, half):
    """Two SFC64 Generators whose next raw words are a + counter, then
    counter + 1 (b = c = 0), holding the kept half (has, half)."""
    pair = []
    for _ in range(2):
        bg = np.random.SFC64()
        bg.state = {"bit_generator": "SFC64",
                    "state": {"state": np.array([a, 0, 0, counter], np.uint64)},
                    "has_uint32": has, "uinteger": half}
        pair.append(np.random.Generator(bg))
    return pair


@pytest.mark.parametrize("a, counter, has, half", [
    (5 << 32, 0, 0, 0),           # the edge's fresh low half is 0
    (1 << 63, 0, 1, 0),           # the edge's kept half is 0
    (5, 0, 0, 0),                 # the pick's kept half is 0
    (1, 2**64 - 1, 1, 7),         # the pick's fresh low half is 0
], ids=["edge-fresh", "edge-kept", "pick-kept", "pick-fresh"])
def test_minimal_steps_lemire_rejection(a, counter, has, half):
    # A 32-bit half of 0 makes integers(3) reject it ((2**32 - 3) % 3 == 1):
    # on a triangle where every memory holds three words, at the edge draw or
    # at the speaker's pick, from a kept half or from a fresh word.
    net = complete_net(3)
    params = GameParams(n=2, beta=0.5, mode="minimal")
    new, old = _sfc64_at(a, counter, has, half)
    _minimal_steps_match_scalar_calls(net, [[0, 1, 2]] * 3, params, new, old, 3)


@pytest.mark.parametrize("bitgen, vocabulary", zip(
    _WIDE_GENERATORS, [None, 3, 2**31 + 1, 2**40]))
def test_long_minimal_run_matches_whole_run_oracle(bitgen, vocabulary):
    # Every round reads at least one raw word (its random()), so a run of
    # 3,300 rounds reads past three blocks of 1,024; it stops at the cap.
    net = net_from_edges(30, [(i, (i + 1) % 30) for i in range(30)])
    params = GameParams(n=2, beta=0.5, mode="minimal", max_iterations=3300,
                        vocabulary=vocabulary)
    new, old = twin_generators(bitgen, 11, True)
    trace, summary = run_to_convergence(net, params, new)
    assert len(trace) == 3300 > 3 * 1024 and not summary.converged
    assert trace == make_trace(oracle_run(net, params, old))
    assert plain(new.bit_generator.state) == plain(old.bit_generator.state)


@pytest.mark.parametrize("bitgen", _DRAW_GENERATORS)
def test_minimal_rounds_leave_the_generator_as_scalar_calls_would(bitgen):
    net = generate(NetworkSpec("ba", 40, n0=3, e=2), rng(8))
    params = GameParams(n=2, beta=0.5, mode="minimal", vocabulary=2**40)
    new, old = twin_generators(bitgen, 9, True)
    pop, want, fresh = PopulationState(40), [[] for _ in range(40)], [0]
    edges = net.edges().tolist()
    for _ in range(100):
        out = minimal_ng_round(net, pop, params, new)
        sr, _, _, word = oracle_minimal_step(edges, want, params, old, fresh)
        assert (out.sr, out.transmitted) == (sr, [word])
        assert plain(new.bit_generator.state) == plain(old.bit_generator.state)
    assert pop.memories == want
