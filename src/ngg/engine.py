"""Group-conversation naming game engine.

One iteration of the group game (mode "ngg"):

  1. a uniformly random seed node recruits min(degree, N-1) random
     neighbours; the group is the seed plus the recruits
  2. every member speaks one word: a uniform pick from its memory, or a
     fresh invention if the memory is empty (the invention enters the
     inventor's memory)
  3. every distinct spoken word gets a selection probability proportional
     to the summed node weights of its speakers, where a node's weight is
     the sum of its pair weights to the other members (1 for an adjacent
     pair, 0.5 for a non-adjacent pair, 0 for self)
  4. max(1, round(beta*N)) words are drawn from that distribution with
     replacement and broadcast one at a time, in draw order
  5. per broadcast: members that have not yet succeeded this round hear
     the word with probability equal to their best pair weight to any of
     its round-start speakers; hearing a known word is a success (memory
     collapses to that word), hearing an unknown word appends it; each
     speaker still waiting then succeeds with probability n_succ/N, where
     n_succ is the number of hearer successes of this broadcast

Members that succeed once are left alone for the rest of the round; once
all of them have, the remaining draws reach nobody and are not broadcast
(they would consume no randomness, so the RNG stream is the same). The
population has converged when every memory is exactly the same single word.

Mode "ngmh" keeps the group but only the seed speaks: its word is broadcast
once to the other members (all adjacent, so they always hear), and the seed
itself succeeds only when floor(n_succ/N) reaches 1, which for a group of at
most N members can never happen; the speaker relies on later rounds where it
listens. Mode "minimal" is the classic two-agent game on a random edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParamError, UnknownSourceError
from .netgen import Network

MODES = ("ngg", "ngmh", "minimal")
GROUP_SIZE_BASES = ("nominal", "actual")

# ----------------------------------------------------------------------
# Parameters and state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GameParams:
    """Game knobs shared by all modes.

    n is the nominal group size N (the seed plus up to N-1 neighbours),
    beta scales how many words a group transmits per round. vocabulary=None
    means inventions take fresh ids from an unbounded counter; an int makes
    inventions uniform over {0..vocabulary-1}. group_size_basis picks the
    denominator used for beta*N and the speaker-feedback probability:
    "nominal" uses N as written, "actual" substitutes the realised group size.
    """

    n: int
    beta: float
    mode: str = "ngg"
    max_iterations: int = 1_000_000
    vocabulary: Optional[int] = None
    group_size_basis: str = "nominal"

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidParamError(f"n must be >= 2, got {self.n}")
        if not (0.0 < self.beta <= 1.0):
            raise InvalidParamError(f"beta must be in (0, 1], got {self.beta}")
        if self.mode not in MODES:
            raise InvalidParamError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iterations < 1:
            raise InvalidParamError("max_iterations must be >= 1")
        if self.vocabulary is not None and self.vocabulary < 1:
            raise InvalidParamError("vocabulary size must be >= 1")
        if self.group_size_basis not in GROUP_SIZE_BASES:
            raise InvalidParamError(
                f"group_size_basis must be one of {GROUP_SIZE_BASES}")


class PopulationState:
    """Memories of all M agents plus bookkeeping for O(1) global metrics.

    A memory is an insertion-ordered list of distinct word ids. All memory
    mutations must go through learn()/adopt() so that the population-wide
    word counts stay in sync; total_words and distinct_words then come for
    free after every round instead of costing an O(M) rescan.
    """

    __slots__ = ("memories", "next_fresh_word", "total_words", "_counts")

    def __init__(self, m: int):
        self.memories: list[list[int]] = [[] for _ in range(m)]
        self.next_fresh_word = 0
        self.total_words = 0
        self._counts: dict[int, int] = {}

    @property
    def m(self) -> int:
        return len(self.memories)

    @property
    def distinct_words(self) -> int:
        return len(self._counts)

    def has(self, agent: int, word: int) -> bool:
        return word in self.memories[agent]

    def learn(self, agent: int, word: int) -> None:
        """Append a word the agent does not already hold."""
        self.memories[agent].append(word)
        self._counts[word] = self._counts.get(word, 0) + 1
        self.total_words += 1

    def adopt(self, agent: int, word: int) -> None:
        """Success: collapse the agent's memory to exactly [word]."""
        mem = self.memories[agent]
        for x in mem:
            c = self._counts[x] - 1
            if c:
                self._counts[x] = c
            else:
                del self._counts[x]
        self.total_words += 1 - len(mem)
        mem.clear()
        mem.append(word)
        self._counts[word] = self._counts.get(word, 0) + 1

    def converged_word(self) -> Optional[int]:
        """The consensus word if every memory is exactly {w}, else None.

        total_words == M together with a single distinct word forces every
        memory to hold exactly one word, so the two counters suffice.
        """
        if self.total_words == self.m and len(self._counts) == 1:
            return next(iter(self._counts))
        return None

    def recount(self) -> tuple[int, int]:
        """Recompute (total, distinct) from scratch; for verification only."""
        total = sum(len(mem) for mem in self.memories)
        distinct = len({w for mem in self.memories for w in mem})
        return total, distinct


@dataclass(frozen=True)
class Group:
    seed: int
    members: tuple  # seed first, then the recruited neighbours


@dataclass
class WeightTable:
    """Node/word weights of one round, before transmission."""

    members: tuple
    node_w: np.ndarray   # per member: summed pair weights to the others
    words: list          # distinct spoken words, first-spoken order
    word_w: np.ndarray   # aligned with words
    probs: np.ndarray    # word_w normalised to sum 1


@dataclass
class RoundOutcome:
    group_size: int
    transmitted: list       # broadcast words in transmission order
    heard: int              # hearer successes summed over the broadcasts
    successful_members: int
    sr: float               # successful_members / group_size


# ----------------------------------------------------------------------
# Round building blocks
# ----------------------------------------------------------------------


def form_group(net: Network, n: int, rng: np.random.Generator) -> Group:
    """Uniform seed plus min(degree, n-1) of its neighbours without replacement."""
    seed = int(rng.integers(net.m))
    neigh = net.neighbors(seed)
    take = min(len(neigh), n - 1)
    if take == len(neigh):
        recruits = neigh
    else:
        recruits = rng.choice(neigh, size=take, replace=False)
    return Group(seed, (seed, *(int(x) for x in recruits)))


def speak(pop: PopulationState, agent: int, params: GameParams,
          rng: np.random.Generator) -> int:
    """The agent's word for this round; inventions enter its memory."""
    mem = pop.memories[agent]
    if mem:
        return mem[int(rng.integers(len(mem)))]
    if params.vocabulary is None:
        word = pop.next_fresh_word
        pop.next_fresh_word += 1
    else:
        word = int(rng.integers(params.vocabulary))
    pop.learn(agent, word)
    return word


def _speak_all(pop: PopulationState, members: Sequence[int], params: GameParams,
               rng: np.random.Generator) -> dict:
    """speak() for every member with one bulk uniform draw (hot path).

    Returns {member: word} in member order.
    """
    u = rng.random(len(members))
    empties = sum(1 for i in members if not pop.memories[i])
    fresh = None
    if empties and params.vocabulary is not None:
        fresh = iter(rng.integers(params.vocabulary, size=empties))
    out = {}
    for idx, agent in enumerate(members):
        mem = pop.memories[agent]
        if mem:
            k = len(mem)
            out[agent] = mem[min(int(u[idx] * k), k - 1)]
        else:
            if fresh is None:
                word = pop.next_fresh_word
                pop.next_fresh_word += 1
            else:
                word = int(next(fresh))
            pop.learn(agent, word)
            out[agent] = word
    return out


def pair_weight(i: int, j: int, net: Network) -> float:
    """0 for self, 1 for an adjacent pair, 0.5 for a non-adjacent pair."""
    if i == j:
        return 0.0
    return 1.0 if net.adj[i, j] else 0.5


def node_weights(members: Sequence[int], net: Network) -> tuple:
    """(pair matrix, per-member sums) for the group-internal weights.

    The dense reference for the node weights word_weights computes from
    neighbour bitmasks.
    """
    sub = net.adj[np.ix_(members, members)]
    pw = np.where(sub, 1.0, 0.5)
    np.fill_diagonal(pw, 0.0)
    return pw, pw.sum(axis=1)


def word_weights(group: Group, spoken: dict, net: Network) -> WeightTable:
    """Aggregate speaker node-weights into per-word selection probabilities.

    spoken maps every group member to the word it spoke this round. Words
    are kept in first-spoken order (member order), which fixes the layout
    of the probability vector for reproducible draws.

    A member's node weight is 0.5 per other member plus another 0.5 per
    adjacent one. Every term is a multiple of 0.5, so all sums are exact:
    the weights equal, bit for bit, the row sums of the dense pair matrix,
    and the total does not depend on the order of summation.
    """
    members = group.members
    masks = net.neighbor_masks()
    member_mask = 0
    for agent in members:
        member_mask |= 1 << agent
    base = 0.5 * (len(members) - 1)
    node: list = []
    words: list = []
    index: dict = {}
    acc: list = []
    for agent in members:
        nw = base + 0.5 * (masks[agent] & member_mask).bit_count()
        node.append(nw)
        w = spoken[agent]
        at = index.get(w)
        if at is None:
            index[w] = len(words)
            words.append(w)
            acc.append(nw)
        else:
            acc[at] += nw
    word_w = np.asarray(acc)
    return WeightTable(members, np.asarray(node), words, word_w,
                       word_w / sum(acc))


def transmit_count(params: GameParams, actual_size: int) -> int:
    """How many words one round broadcasts: max(1, round(beta * basis))."""
    basis = params.n if params.group_size_basis == "nominal" else actual_size
    return max(1, int(np.floor(params.beta * basis + 0.5)))


def select_transmitting_words(wt: WeightTable, params: GameParams,
                              actual_size: int, rng: np.random.Generator) -> list:
    """Independent draws (with replacement); list order is transmission order."""
    count = transmit_count(params, actual_size)
    if len(wt.words) == 1:
        return [wt.words[0]] * count
    picks = rng.choice(len(wt.words), size=count, replace=True, p=wt.probs)
    return [wt.words[i] for i in picks]


def hearing_prob(agent: int, sources: Sequence[int], net: Network) -> float:
    """Best pair weight from the agent to any source of the word."""
    return max(pair_weight(agent, s, net) for s in sources)


def transmit_word(word: int, spoken: dict, group: Group, net: Network,
                  pop: PopulationState, unsuccessful: set, basis: int,
                  rng: np.random.Generator, *,
                  deterministic_feedback: bool = False) -> int:
    """Broadcast one word; returns the number of hearer successes.

    Mutates pop and unsuccessful. Sources are the round-start speakers of
    the word (their memories may have changed since; the source set does
    not). Only members still in `unsuccessful` can hear, succeed, or get
    feedback. With deterministic_feedback the speakers succeed exactly when
    floor(n_succ/basis) >= 1 instead of with probability n_succ/basis.
    """
    members = group.members
    sources = [i for i in members if spoken.get(i) == word]
    if not sources:
        raise UnknownSourceError(f"word {word} has no round-start speaker")
    sole = sources[0] if len(sources) == 1 else None
    src_mask = 0
    for s in sources:
        src_mask |= 1 << s

    masks = net.neighbor_masks()
    listeners = [i for i in members if i in unsuccessful]
    # No node is its own neighbour, so a source's mask only reacts to the
    # *other* sources; non-adjacent listeners fall through to the 0.5 coin.
    u = rng.random(len(listeners)).tolist()
    n_succ = 0
    for agent, ui in zip(listeners, u):
        if agent == sole:
            continue  # a lone source cannot hear itself (pair weight 0)
        if not (masks[agent] & src_mask or ui < 0.5):
            continue
        if word in pop.memories[agent]:
            pop.adopt(agent, word)
            unsuccessful.discard(agent)
            n_succ += 1
        else:
            pop.learn(agent, word)

    waiting = [s for s in sources if s in unsuccessful]
    if deterministic_feedback:
        if n_succ // basis >= 1:
            for s in waiting:
                pop.adopt(s, word)
                unsuccessful.discard(s)
    else:
        v = rng.random(len(waiting))
        p = n_succ / basis
        for k, s in enumerate(waiting):
            if v[k] < p:
                pop.adopt(s, word)
                unsuccessful.discard(s)
    return n_succ


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def run_group_round(net: Network, pop: PopulationState, params: GameParams,
                    rng: np.random.Generator) -> RoundOutcome:
    """One full group conversation (mode "ngg")."""
    group = form_group(net, params.n, rng)
    members = group.members
    spoken = _speak_all(pop, members, params, rng)
    wt = word_weights(group, spoken, net)
    picks = select_transmitting_words(wt, params, len(members), rng)
    basis = params.n if params.group_size_basis == "nominal" else len(members)
    unsuccessful = set(members)
    heard = 0
    for w in picks:
        if not unsuccessful:
            break  # members never rejoin: the rest of the picks reach nobody
        heard += transmit_word(w, spoken, group, net, pop, unsuccessful, basis, rng)
    successful = len(members) - len(unsuccessful)
    return RoundOutcome(len(members), picks, heard, successful,
                        successful / len(members))


def _ngmh_apply(group: Group, word: int, pop: PopulationState,
                basis: int) -> RoundOutcome:
    """Deterministic part of an ngmh round: one word from seed to the rest.

    Every non-seed member is adjacent to the seed, so all of them hear.
    The seed succeeds only on floor(n_succ/basis) >= 1.
    """
    n_succ = 0
    for agent in group.members[1:]:
        if word in pop.memories[agent]:
            pop.adopt(agent, word)
            n_succ += 1
        else:
            pop.learn(agent, word)
    seed_ok = n_succ // basis >= 1
    if seed_ok:
        pop.adopt(group.seed, word)
    successful = n_succ + (1 if seed_ok else 0)
    size = len(group.members)
    return RoundOutcome(size, [word], n_succ, successful, successful / size)


def ngmh_round(net: Network, pop: PopulationState, params: GameParams,
               rng: np.random.Generator) -> RoundOutcome:
    """Single-speaker group round: the seed alone speaks one word."""
    group = form_group(net, params.n, rng)
    word = speak(pop, group.seed, params, rng)
    basis = params.n if params.group_size_basis == "nominal" else len(group.members)
    return _ngmh_apply(group, word, pop, basis)


def minimal_ng_round(net: Network, pop: PopulationState, params: GameParams,
                     rng: np.random.Generator) -> RoundOutcome:
    """Classic pairwise game on a uniform edge with a uniform orientation."""
    edges = net.edges()
    u, v = edges[int(rng.integers(len(edges)))]
    speaker, hearer = (int(u), int(v)) if rng.random() < 0.5 else (int(v), int(u))
    word = speak(pop, speaker, params, rng)
    if word in pop.memories[hearer]:
        pop.adopt(hearer, word)
        pop.adopt(speaker, word)
        return RoundOutcome(2, [word], 1, 2, 1.0)
    pop.learn(hearer, word)
    return RoundOutcome(2, [word], 0, 0, 0.0)


_ROUNDS = {"ngg": run_group_round, "ngmh": ngmh_round, "minimal": minimal_ng_round}


def is_converged(pop: PopulationState) -> Optional[int]:
    """The consensus word once every memory equals exactly {w}, else None."""
    return pop.converged_word()


def run_to_convergence(net: Network, params: GameParams, seed):
    """Iterate rounds until consensus or the iteration cap.

    Returns (trace records, run summary). Non-convergence at the cap is not
    an error: the summary comes back flagged (converged=False) so callers
    can decide what a capped run means for them.
    """
    from .metrics import snapshot, summarize

    params.validate()
    if params.n > net.m:
        raise InvalidParamError(f"n={params.n} exceeds network size {net.m}")
    rng = np.random.default_rng(seed)
    pop = PopulationState(net.m)
    round_fn = _ROUNDS[params.mode]
    records = []
    word = None
    for iteration in range(1, params.max_iterations + 1):
        outcome = round_fn(net, pop, params, rng)
        records.append(snapshot(pop, outcome, iteration))
        word = pop.converged_word()
        if word is not None:
            break
    return records, summarize(records, net.m, converged_word=word)
