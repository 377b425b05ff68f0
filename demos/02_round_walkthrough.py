"""Dissect a single group round on a ten-node network.

Shows every stage the engine goes through in one iteration: group
formation, speaking, the pair/node/word weight tables, word selection,
and the per-broadcast success bookkeeping.

Run:  python demos/02_round_walkthrough.py
"""

import numpy as np

from ngg.engine import (
    GameParams,
    PopulationState,
    _speak_all,
    form_group,
    select_transmitting_words,
    transmit_count,
    transmit_word,
    word_weights,
)
from ngg.netgen import NetworkSpec, generate

PARAMS = GameParams(n=5, beta=0.6)


def main():
    rng = np.random.default_rng(11)
    net = generate(NetworkSpec("rg", 10, p=0.35), rng)
    pop = PopulationState(net.m)

    # give the population a little history so the round has words to work with
    warm = np.random.default_rng(1)
    for agent in range(net.m):
        for w in warm.choice(6, size=warm.integers(1, 3), replace=False):
            pop.learn(agent, int(w))
    print("memories before the round:")
    for agent, mem in enumerate(pop.memories):
        print(f"  agent {agent}: {mem}")

    group = form_group(net, PARAMS.n, rng)
    print(f"\nseed {group.seed} recruits {list(group.members[1:])}")

    spoken = _speak_all(pop, group.members, PARAMS, rng)
    print(f"spoken words: {spoken}")

    wt = word_weights(group, spoken, net)
    print("\nnode weights (adjacent pair counts 1, non-adjacent 0.5):")
    for agent, w in zip(group.members, wt.node_w):
        print(f"  agent {agent}: {w:.1f}")
    print("word selection probabilities:")
    for word, weight, prob in zip(wt.words, wt.word_w, wt.probs):
        print(f"  word {word}: weight {weight:.1f} -> p = {prob:.3f}")

    count = transmit_count(PARAMS, len(group.members))
    picks = select_transmitting_words(wt, PARAMS, len(group.members), rng)
    print(f"\nbroadcasting {count} draws: {picks}")

    unsuccessful = set(group.members)
    for word in picks:
        if not unsuccessful:
            print("  everyone has succeeded: the remaining draws reach nobody")
            break
        n_succ = transmit_word(word, spoken, group, net, pop, unsuccessful,
                               PARAMS.n, rng)
        done = sorted(set(group.members) - unsuccessful)
        print(f"  word {word}: {n_succ} hearer successes, settled so far {done}")

    print("\nmemories after the round:")
    for agent in group.members:
        print(f"  agent {agent}: {pop.memories[agent]}")
    sr = (len(group.members) - len(unsuccessful)) / len(group.members)
    print(f"round success rate: {sr:.2f}")


if __name__ == "__main__":
    main()
