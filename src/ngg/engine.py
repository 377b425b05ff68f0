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

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice, repeat
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParamError
from .netgen import Network, _bounded, _check_types, _keep_half

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

    def validate(self, m: Optional[int] = None) -> None:
        """InvalidParamError naming in .field the first field out of type or
        range; given a network size m, n may not exceed it."""
        _check_types(self)
        if self.n < 2:
            raise InvalidParamError(f"n must be >= 2, got {self.n}", "n")
        if not (0.0 < self.beta <= 1.0):
            raise InvalidParamError(f"beta must be in (0, 1], got {self.beta}", "beta")
        if self.mode not in MODES:
            raise InvalidParamError(f"mode must be one of {MODES}, got {self.mode!r}",
                                    "mode")
        if self.max_iterations < 1:
            raise InvalidParamError("max_iterations must be >= 1", "max_iterations")
        if self.vocabulary is not None and not 1 <= self.vocabulary <= 1 << 63:
            # numpy's integers(high) takes at most 2**63
            raise InvalidParamError(
                f"vocabulary size must be in [1, 2**63], got {self.vocabulary}",
                "vocabulary")
        if self.group_size_basis not in GROUP_SIZE_BASES:
            raise InvalidParamError(
                f"group_size_basis must be one of {GROUP_SIZE_BASES}", "group_size_basis")
        if m is not None and self.n > m:
            raise InvalidParamError(f"n={self.n} exceeds network size m={m}", "n")

    def basis(self, group_size: int) -> int:
        """The group size that beta*N and the feedback n_succ/N divide by."""
        return self.n if self.group_size_basis == "nominal" else group_size


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

    def learn(self, agent: int, word: int) -> None:
        """Append a word the agent does not already hold."""
        self.memories[agent].append(word)
        self._counts[word] = self._counts.get(word, 0) + 1
        self.total_words += 1

    def adopt(self, agent: int, word: int) -> None:
        """Success: collapse the agent's memory to exactly [word]."""
        mem = self.memories[agent]
        if len(mem) == 1 and mem[0] == word:
            return  # already [word]: no count changes
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


@dataclass(frozen=True)
class Group:
    seed: int
    members: tuple  # seed first, then the recruited neighbours


def _probs(weights: list) -> list:
    """Each weight over the sum: the floats numpy's elementwise division gives."""
    total = sum(weights)
    return [w / total for w in weights]


@dataclass
class WeightTable:
    """Node/word weights of one round, before transmission, as plain lists;
    node_w, word_w and probs serve them as numpy arrays."""

    node_sums: list   # per member: summed pair weights to the others
    words: list       # distinct spoken words, first-spoken order
    word_sums: list   # aligned with words: summed weights of the speakers
    sources: dict = field(kw_only=True)  # word -> its speakers, member order

    @property
    def node_w(self) -> np.ndarray:
        return np.asarray(self.node_sums)

    @property
    def word_w(self) -> np.ndarray:
        return np.asarray(self.word_sums)

    @property
    def probs(self) -> np.ndarray:
        """word_w normalised to sum 1."""
        return np.asarray(_probs(self.word_sums))


@dataclass
class RoundOutcome:
    group_size: int
    transmitted: list       # every word drawn for broadcast, in draw order
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
        recruits = neigh.tolist()
    else:
        recruits = rng.choice(neigh, size=take, replace=False).tolist()
    return Group(seed, (seed, *recruits))


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
    """speak() for every member, with one bulk uniform draw for the picks
    from non-empty memories (hot path); an empty memory invents through
    speak(), in member order after that draw.

    Returns {member: word} in member order.
    """
    u = rng.random(len(members)).tolist()
    memories = pop.memories
    out = {}
    for idx, agent in enumerate(members):
        mem = memories[agent]
        k = len(mem)
        if k == 1:
            out[agent] = mem[0]  # its pick u[idx] is drawn all the same
        elif k:
            out[agent] = mem[min(int(u[idx] * k), k - 1)]
        else:
            out[agent] = speak(pop, agent, params, rng)
    return out


def word_weights(group: Group, spoken: dict, net: Network) -> WeightTable:
    """Aggregate speaker node-weights into per-word selection probabilities.

    spoken maps every group member to the word it spoke this round. Words
    are kept in first-spoken order (member order), which fixes the layout
    of the probability vector for reproducible draws. sources lists each
    word's speakers in member order, for transmit_word.

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
    weight: dict = {}   # both dicts keep first-spoken order
    sources: dict = {}
    for agent in members:
        nw = base + 0.5 * (masks[agent] & member_mask).bit_count()
        node.append(nw)
        w = spoken[agent]
        if w in sources:
            weight[w] += nw
            sources[w].append(agent)
        else:
            weight[w] = nw
            sources[w] = [agent]
    return WeightTable(node, list(sources), list(weight.values()),
                       sources=sources)


def transmit_count(params: GameParams, actual_size: int) -> int:
    """How many words one round broadcasts: max(1, round(beta * basis))."""
    return max(1, math.floor(params.beta * params.basis(actual_size) + 0.5))


def select_transmitting_words(wt: WeightTable, params: GameParams,
                              actual_size: int, rng: np.random.Generator) -> list:
    """Independent draws (with replacement); list order is transmission order.

    The arithmetic of rng.choice(len(words), count, p=probs): probs (each
    weight over the sum, as numpy divides), a sequential cumulative sum
    divided by its last entry, searched from the right by random(count):
    the same picks and the same generator state.
    """
    count = transmit_count(params, actual_size)
    words = wt.words
    if len(words) == 1:
        return [words[0]] * count
    cdf = list(accumulate(_probs(wt.word_sums)))
    last = cdf[-1]
    cdf = [c / last for c in cdf]
    return [words[bisect_right(cdf, u)] for u in rng.random(count).tolist()]


def transmit_word(word: int, spoken: dict, group: Group, net: Network,
                  pop: PopulationState, unsuccessful: set, basis: int,
                  rng: np.random.Generator, *,
                  deterministic_feedback: bool = False,
                  sources: Optional[list] = None) -> int:
    """Broadcast one word; returns the number of hearer successes.

    Mutates pop and unsuccessful. Sources are the round-start speakers of
    the word in member order (their memories may have changed since; the
    source set does not): WeightTable.sources[word], or worked out from
    spoken when not given. Only members still in `unsuccessful` can hear,
    succeed, or get feedback. With deterministic_feedback the speakers
    succeed exactly when floor(n_succ/basis) >= 1 instead of with
    probability n_succ/basis.
    """
    members = group.members
    if sources is None:
        sources = [i for i in members if spoken.get(i) == word]
    if not sources:
        raise InvalidParamError(f"word {word} has no round-start speaker")
    sole = sources[0] if len(sources) == 1 else None
    src_mask = 0
    for s in sources:
        src_mask |= 1 << s

    masks = net.neighbor_masks()
    listeners = [i for i in members if i in unsuccessful]
    # No node is its own neighbour, so a source's mask only reacts to the
    # *other* sources; non-adjacent listeners fall through to the 0.5 coin,
    # tested first because it is the cheaper of the two.
    u = rng.random(len(listeners)).tolist()
    memories, adopt, learn = pop.memories, pop.adopt, pop.learn
    n_succ = 0
    for agent, ui in zip(listeners, u):
        if agent == sole:
            continue  # a lone source cannot hear itself (pair weight 0)
        if ui >= 0.5 and not masks[agent] & src_mask:
            continue
        if word in memories[agent]:
            adopt(agent, word)
            unsuccessful.discard(agent)
            n_succ += 1
        else:
            learn(agent, word)

    waiting = [s for s in sources if s in unsuccessful]
    if deterministic_feedback:
        if n_succ // basis >= 1:
            for s in waiting:
                pop.adopt(s, word)
                unsuccessful.discard(s)
    elif waiting:  # random(0) would draw nothing
        p = n_succ / basis
        for s, v in zip(waiting, rng.random(len(waiting)).tolist()):
            if v < p:
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
    basis = params.basis(len(members))
    unsuccessful = set(members)
    heard = 0
    for w in picks:
        if not unsuccessful:
            break  # members never rejoin: the rest of the picks reach nobody
        heard += transmit_word(w, spoken, group, net, pop, unsuccessful, basis, rng,
                               sources=wt.sources[w])
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
    return _ngmh_apply(group, word, pop, params.basis(len(group.members)))


_BLOCK = 1024  # raw words per random_raw read of a minimal run
_ROUND_WORDS = 3  # the most words one minimal round reads from a block
_M32 = 0xFFFFFFFF


def _write_back(bg, mark: dict, used: int, has: int, half: int) -> None:
    """Set bg to its state mark advanced by `used` raw words, holding numpy's
    kept 32-bit half (has_uint32, uinteger) = (has, half). SFC64 has no
    advance(), so the words are replayed."""
    bg.state = mark
    bg.random_raw(used)
    _keep_half(bg, has, half)


def _minimal_steps(net: Network, pop: PopulationState, params: GameParams,
                   draws: _Draws, block: int = _BLOCK):
    """Rounds of the classic pairwise game on a uniform edge with a uniform
    orientation, without end, yielding each round's (sr, group_size,
    transmitted): the run loop iterates it, minimal_ng_round takes one step.
    The speaker speaks by speak()'s rule.

    The scalar draws are read from random_raw(block) words as numpy computes
    them: random() is (w >> 11) * 2**-53 of a fresh word w, so random() < 0.5
    is w's top bit clear; integers(n) is netgen._bounded on the words' 32-bit
    halves, low half first, the high half kept as numpy's has_uint32/uinteger,
    read here where it accepts its first half. A half it may reject, or an
    invention from a bounded vocabulary, writes the words used back to the
    Generator and is drawn by `draws`, as is the rest of its round; so is
    every draw when block is 0 (one step, where a block costs more than it
    saves), of a bit generator with no kept half (MT19937) or on a single
    edge (integers(1) draws nothing). Closing the steps writes the state
    back, so the Generator ends where numpy's scalar calls would leave it.
    """
    edges = net.edges().data  # a 2-D memoryview: items come back as ints
    n_edges, vocabulary = len(edges), params.vocabulary
    memories, adopt, learn = pop.memories, pop.adopt, pop.learn
    integers, coin = draws.integers, draws._next_double
    bg = draws._gen.bit_generator
    blocks = block > 0 and n_edges > 1 and "has_uint32" in bg.state
    last = block - _ROUND_WORDS  # the last p a round may start a block at
    raw, p = False, 0  # reading the block words[p:], which starts at state mark
    try:
        while True:
            if blocks and (not raw or p > last):
                if raw:
                    _write_back(bg, mark, p, has, half)
                mark = bg.state
                has, half = mark["has_uint32"], mark["uinteger"]
                words, p, raw = bg.random_raw(block).tolist(), 0, True
            if raw:  # e = integers(n_edges)
                m = (half if has else words[p] & _M32) * n_edges
                if m & _M32 < n_edges:  # _bounded may reject: it decides
                    _write_back(bg, mark, p, has, half)
                    raw = False
                elif has:
                    has = 0
                else:
                    has, half, p = 1, words[p] >> 32, p + 1
            e = m >> 32 if raw else integers(n_edges)
            if raw:
                s, p = words[p] >> 63, p + 1
            else:
                s = 0 if coin() < 0.5 else 1
            speaker, hearer = edges[e, s], edges[e, 1 - s]
            mem = memories[speaker]
            k = len(mem)
            if k == 1:  # integers(1) draws nothing
                word = mem[0]
            elif k:
                if raw:  # integers(k), as for the edge
                    m = (half if has else words[p] & _M32) * k
                    if m & _M32 < k:
                        _write_back(bg, mark, p, has, half)
                        raw = False
                    elif has:
                        has = 0
                    else:
                        has, half, p = 1, words[p] >> 32, p + 1
                word = mem[m >> 32 if raw else integers(k)]
            else:  # an empty memory invents by speak()'s rule
                if raw and vocabulary is not None:  # its draw is `draws`'
                    _write_back(bg, mark, p, has, half)
                    raw = False
                word = speak(pop, speaker, params, draws)
            if word in memories[hearer]:
                adopt(hearer, word)
                adopt(speaker, word)
                yield 1.0, 2, [word]
            else:
                learn(hearer, word)
                yield 0.0, 2, [word]
    finally:
        if raw:
            _write_back(bg, mark, p, has, half)


def minimal_ng_round(net: Network, pop: PopulationState, params: GameParams,
                     rng: np.random.Generator) -> RoundOutcome:
    """One round of the pairwise game: a success is both agents'."""
    sr, size, transmitted = next(_minimal_steps(net, pop, params, _Draws(rng),
                                                block=0))
    return RoundOutcome(size, transmitted, int(sr), 2 * int(sr), sr)


_ROUNDS = {"ngg": run_group_round, "ngmh": ngmh_round, "minimal": minimal_ng_round}
MODES = tuple(_ROUNDS)


class _Draws:
    """One run's random stream: a Generator with fast scalar draws.

    integers(n), for a plain int 0 < n <= 2**32, is netgen._bounded on ctypes
    next_uint32, which shares the Generator's half-word buffer; _next_double()
    is ctypes next_double, the scalar random(). Values and state match the
    Generator's; other n, sized random() and choice() are the Generator's
    (the engine draws no sized integers). Skipping its lock is safe in a
    one-run stream; default_rng(g) is g, so a passed g advances as before.
    """

    def __init__(self, seed):
        self._gen = gen = np.random.default_rng(seed)  # owns the ctypes state
        ctypes = gen.bit_generator.ctypes
        self._next32 = partial(ctypes.next_uint32, ctypes.state)
        self._next_double = partial(ctypes.next_double, ctypes.state)
        self.random, self.choice = gen.random, gen.choice

    def integers(self, n):
        if type(n) is not int or not 0 < n <= 1 << 32:
            return self._gen.integers(n)  # numpy raises as before
        return _bounded(self._next32, n)


def run_to_convergence(net: Network, params: GameParams, seed):
    """Iterate rounds until consensus or the iteration cap.

    Returns (metrics.Trace, run summary). Non-convergence at the cap is not
    an error: the summary comes back flagged (converged=False) so callers
    can decide what a capped run means for them.
    """
    from .metrics import Trace, summarize  # per call, so a wrapper on summarize fires

    params.validate(net.m)
    rng = _Draws(seed)
    pop = PopulationState(net.m)
    m, counts = net.m, pop._counts
    if params.mode == "minimal":  # the fused loop: no round call, no outcome
        steps = _minimal_steps(net, pop, params, rng)
    else:  # one round call after another, read as _minimal_steps yields them
        steps = map(attrgetter("sr", "group_size", "transmitted"), map(
            partial(_ROUNDS[params.mode], net, pop, params), repeat(rng)))
    trace = Trace()
    n_total, n_diff, sr, group_size, n_transmitted = (
        c.append for c in trace.columns)
    for rate, size, transmitted in islice(steps, params.max_iterations):
        n_total(total := pop.total_words)
        n_diff(distinct := len(counts))
        sr(rate)
        group_size(size)
        n_transmitted(len(transmitted))
        if total == m and distinct == 1:
            break
    if params.mode == "minimal":
        steps.close()  # writes the draws back to a passed Generator
    return trace, summarize(trace, pop.converged_word())
