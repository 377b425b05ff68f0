"""Shared brute-force oracles and graph helpers.

Everything here is deliberately naive (triple loops, Floyd-Warshall,
fraction arithmetic) and independent of the package's vectorised routines;
tests compare the two implementations against each other.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import subprocess
import sys
from array import array
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

import ngg
from ngg.engine import _ROUNDS, PopulationState
from ngg.errors import InvalidParamError
from ngg.metrics import TRACE_FIELDS, Trace, TraceRecord, snapshot
from ngg.netgen import Network, NetworkSpec, NetworkStats


def net_from_edges(m: int, edges) -> Network:
    """Hand-built network; the spec attached is a placeholder."""
    adj = np.zeros((m, m), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return Network(NetworkSpec("rg", m, p=0.5), adj)


def star_net(leaves: int) -> Network:
    return net_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_net(m: int) -> Network:
    return net_from_edges(m, list(combinations(range(m), 2)))


def path_net(m: int) -> Network:
    return net_from_edges(m, [(i, i + 1) for i in range(m - 1)])


# ----------------------------------------------------------------------
# Graph statistics oracle
# ----------------------------------------------------------------------


def floyd_warshall(adj: np.ndarray) -> list:
    """Integer all-pairs distances, None when unreachable."""
    m = adj.shape[0]
    inf = None
    dist = [[0 if i == j else (1 if adj[i][j] else inf) for j in range(m)]
            for i in range(m)]
    for k in range(m):
        for i in range(m):
            dik = dist[i][k]
            if dik is inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(m):
                dkj = row_k[j]
                if dkj is inf:
                    continue
                alt = dik + dkj
                if row_i[j] is inf or alt < row_i[j]:
                    row_i[j] = alt
    return dist


def oracle_stats(adj: np.ndarray):
    """(avg_degree, avg_path_length, clustering) with exact rational steps.

    Returns None for avg_path_length when the graph is disconnected.
    """
    m = adj.shape[0]
    deg = [int(adj[i].sum()) for i in range(m)]
    avg_degree = Fraction(sum(deg), m)

    dist = floyd_warshall(adj)
    total = 0
    for i in range(m):
        for j in range(i + 1, m):
            if dist[i][j] is None:
                return float(avg_degree), None, None
            total += dist[i][j]
    apl = Fraction(total, m * (m - 1) // 2)

    cc_sum = Fraction(0)
    for i in range(m):
        if deg[i] < 2:
            continue
        nbrs = [j for j in range(m) if adj[i][j]]
        links = sum(1 for a, b in combinations(nbrs, 2) if adj[a][b])
        cc_sum += Fraction(links, len(nbrs) * (len(nbrs) - 1) // 2)
    cc = cc_sum / m
    return float(avg_degree), float(apl), float(cc)


def connected_labeled_graphs(n: int):
    """Yield the adjacency matrix of every connected labeled graph on n nodes."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        adj = np.zeros((n, n), dtype=bool)
        for b, (u, v) in enumerate(pairs):
            if bits >> b & 1:
                adj[u, v] = adj[v, u] = True
        # union-find connectivity
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b, (u, v) in enumerate(pairs):
            if bits >> b & 1:
                parent[find(u)] = find(v)
        if len({find(i) for i in range(n)}) == 1:
            yield adj


# ----------------------------------------------------------------------
# Group-weight oracle (direct evaluation of the definitions)
# ----------------------------------------------------------------------


def oracle_pair_weight(i: int, j: int, adj: np.ndarray) -> float:
    if i == j:
        return 0.0
    if adj[i, j]:
        return 1.0
    return 0.5


def pair_weight(i: int, j: int, net: Network) -> float:
    """0 for self, 1 for an adjacent pair, 0.5 for a non-adjacent pair."""
    return oracle_pair_weight(i, j, net.adj)


def hearing_prob(agent: int, sources, net: Network) -> float:
    """Best pair weight from the agent to any source of the word."""
    return max(pair_weight(agent, s, net) for s in sources)


def node_weights(members, net: Network) -> tuple:
    """(pair matrix, per-member sums): the dense numpy reference for the
    node weights word_weights computes from neighbour bitmasks."""
    sub = net.adj[np.ix_(members, members)]
    pw = np.where(sub, 1.0, 0.5)
    np.fill_diagonal(pw, 0.0)
    return pw, pw.sum(axis=1)


def set_partitions(items):
    """Every partition of `items` into non-empty blocks (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def oracle_group_weights(members, adj: np.ndarray, spoken: dict):
    """(pair matrix, node weights, word order, word weights, probabilities)."""
    g = len(members)
    ip = [[oracle_pair_weight(members[a], members[b], adj) for b in range(g)]
          for a in range(g)]
    node = [sum(ip[a]) for a in range(g)]
    words, word_w = [], {}
    for a, agent in enumerate(members):
        w = spoken[agent]
        if w not in word_w:
            words.append(w)
            word_w[w] = 0.0
        word_w[w] += node[a]
    total = sum(word_w[w] for w in words)
    probs = [word_w[w] / total for w in words]
    return ip, node, words, [word_w[w] for w in words], probs


# ----------------------------------------------------------------------
# Reference implementations the vectorised code replaced
# ----------------------------------------------------------------------


def oracle_compute_stats(net: Network) -> NetworkStats:
    """compute_stats through a float distance matrix and a separate A @ A
    triangle count: the dense reference the one-pass statistics replaced."""
    m = net.m
    deg = net.degrees.astype(np.float64)
    af = net.adj.astype(np.float32)
    dist = np.where(net.adj, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    reach = net.adj | np.eye(m, dtype=bool)
    d = 1
    while np.isinf(dist).any():
        nxt = ((reach.astype(np.float32) @ af) > 0) | reach
        new = nxt & ~reach
        if not new.any():
            raise InvalidParamError("average path length needs a connected network")
        d += 1
        dist[new] = d
        reach = nxt
    apl = float(dist[np.triu_indices(m, 1)].mean())
    triangles = ((af @ af) * af).sum(axis=1).astype(np.float64) / 2.0
    possible = deg * (deg - 1.0) / 2.0
    local = np.divide(triangles, possible, out=np.zeros(m), where=possible > 0)
    return NetworkStats(
        avg_degree=float(deg.mean()),
        avg_path_length=apl,
        clustering_coefficient=float(local.mean()),
    )


def oracle_speak_all(pop: PopulationState, members, params, rng) -> dict:
    """{member: word} through one bulk random(n) for the memory picks, then
    one sized integers(vocabulary, size=empties) for every invention: the
    group's speaking before inventions went through speak() one at a time."""
    u = rng.random(len(members)).tolist()
    fresh = None
    if params.vocabulary is not None:
        empties = sum(1 for i in members if not pop.memories[i])
        if empties:
            fresh = iter(rng.integers(params.vocabulary, size=empties).tolist())
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
                word = next(fresh)
            pop.learn(agent, word)
            out[agent] = word
    return out


def oracle_random_graph(m: int, p: float, rng) -> np.ndarray:
    """Erdos-Renyi adjacency with one coin per pair, in np.triu_indices order."""
    iu = np.triu_indices(m, 1)
    hit = rng.random(iu[0].size) < p
    adj = np.zeros((m, m), dtype=bool)
    adj[iu[0][hit], iu[1][hit]] = True
    return adj | adj.T


def oracle_small_world(m: int, k: int, rp: float, rng) -> np.ndarray:
    """Watts-Strogatz adjacency through scalar rng.random() and rng.integers(m)."""
    adj = np.zeros((m, m), dtype=bool)
    for j in range(1, k + 1):
        idx = np.arange(m)
        adj[idx, (idx + j) % m] = True
        adj[(idx + j) % m, idx] = True
    if rp == 0.0:
        return adj
    for j in range(1, k + 1):
        for i in range(m):
            if rng.random() >= rp:
                continue
            old = (i + j) % m
            if not adj[i, old]:
                continue  # already rewired away by an earlier step
            if np.count_nonzero(adj[i]) >= m - 1:
                continue  # node is saturated, nowhere to rewire to
            while True:
                t = int(rng.integers(m))
                if t != i and not adj[i, t]:
                    break
            adj[i, old] = adj[old, i] = False
            adj[i, t] = adj[t, i] = True
    return adj


def plain(state):
    """A bit_generator.state with its arrays as lists, so == compares it."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def twin_generators(bitgen, seed, buffered):
    """Two Generators in one state; buffered leaves a 32-bit half in both."""
    pair = [np.random.Generator(bitgen(seed)) for _ in range(2)]
    if buffered:
        for gen in pair:
            gen.integers(7)
    return pair


def oracle_weighted_picks(words, probs, count: int, rng) -> list:
    """count words drawn with replacement by numpy's rng.choice(p=probs)."""
    picks = rng.choice(len(words), size=count, replace=True, p=probs)
    return [words[i] for i in picks]


def oracle_scale_free(m: int, n0: int, e: int, rng) -> np.ndarray:
    """Barabasi-Albert adjacency through rng.choice and a loop over targets."""
    adj = np.zeros((m, m), dtype=bool)
    adj[:n0, :n0] = True
    np.fill_diagonal(adj, False)
    deg = adj.sum(axis=1).astype(np.float64)
    for v in range(n0, m):
        if deg[:v].sum() == 0.0:
            targets = [int(rng.integers(v))]
        else:
            p = deg[:v] / deg[:v].sum()
            targets = np.unique(rng.choice(v, size=e, replace=True, p=p))
        for t in targets:
            adj[v, t] = adj[t, v] = True
            deg[t] += 1.0
            deg[v] += 1.0
    return adj


def oracle_write_edge_list(net: Network, path) -> None:
    """The edge list through one "%d %d\n" format per edge, the edges read
    off the upper triangle of the dense adjacency."""
    edges = np.argwhere(np.triu(net.adj, 1))
    Path(path).write_text(("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist()))


def snapshot_run(net: Network, params, seed) -> list:
    """A run's trace as a list of records, one metrics.snapshot per round."""
    rng = np.random.default_rng(seed)
    pop = PopulationState(net.m)
    records = []
    for iteration in range(1, params.max_iterations + 1):
        outcome = _ROUNDS[params.mode](net, pop, params, rng)
        records.append(snapshot(pop, outcome, iteration))
        if pop.converged_word() is not None:
            break
    return records


def _oracle_speak(memories, agent, params, rng, fresh) -> int:
    """A scalar word pick from a non-empty memory, else an invention that
    enters the memory (fresh is a one-item list: the next unused word id)."""
    mem = memories[agent]
    if mem:
        return mem[int(rng.integers(len(mem)))]
    if params.vocabulary is None:
        word, fresh[0] = fresh[0], fresh[0] + 1
    else:
        word = int(rng.integers(params.vocabulary))
    mem.append(word)
    return word


def _oracle_group(adj, n: int, rng) -> list:
    """Seed integers(m), then choice(neigh, take, replace=False) of its
    sorted neighbours when it has more than n-1, else all of them."""
    seed = int(rng.integers(adj.shape[0]))
    neigh = np.flatnonzero(adj[seed])
    take = min(len(neigh), n - 1)
    if take < len(neigh):
        neigh = rng.choice(neigh, take, replace=False)
    return [seed, *neigh.tolist()]


def _oracle_ngg_round(adj, memories, params, rng, fresh) -> tuple:
    members = _oracle_group(adj, params.n, rng)
    size = len(members)
    u = rng.random(size)
    spoken = {}
    for agent, ua in zip(members, u):
        k = len(memories[agent])
        if k:
            spoken[agent] = memories[agent][min(math.floor(ua * k), k - 1)]
    for agent in members:
        if agent not in spoken:  # empty memories invent, in member order
            spoken[agent] = _oracle_speak(memories, agent, params, rng, fresh)
    node = [sum(oracle_pair_weight(a, b, adj) for b in members) for a in members]
    words = list(dict.fromkeys(spoken[a] for a in members))
    word_w = [sum(node[i] for i, a in enumerate(members) if spoken[a] == w)
              for w in words]
    probs = np.asarray(word_w) / sum(word_w)
    basis = params.n if params.group_size_basis == "nominal" else size
    count = max(1, math.floor(params.beta * basis + 0.5))
    # a single spoken word is broadcast count times without a draw
    picks = ([words[0]] * count if len(words) == 1
             else [words[i] for i in rng.choice(len(words), count, p=probs)])
    waiting = list(members)  # members that have not succeeded this round
    heard = 0
    for word in picks:
        if not waiting:
            break  # the rest of the picks reach nobody and draw nothing
        sources = [a for a in members if spoken[a] == word]
        n_succ = 0
        for agent, ua in zip(list(waiting), rng.random(len(waiting))):
            if ua < max(oracle_pair_weight(agent, s, adj) for s in sources):
                if word in memories[agent]:
                    memories[agent] = [word]
                    waiting.remove(agent)
                    n_succ += 1
                else:
                    memories[agent].append(word)
        heard += n_succ
        feedback = [s for s in sources if s in waiting]
        if feedback:
            for s, v in zip(feedback, rng.random(len(feedback))):
                if v < n_succ / basis:
                    memories[s] = [word]
                    waiting.remove(s)
    return (size - len(waiting)) / size, size, count


def _oracle_ngmh_round(adj, memories, params, rng, fresh) -> tuple:
    members = _oracle_group(adj, params.n, rng)
    seed, size = members[0], len(members)
    word = _oracle_speak(memories, seed, params, rng, fresh)
    n_succ = 0
    for agent in members[1:]:  # all adjacent to the seed: all of them hear
        if word in memories[agent]:
            memories[agent] = [word]
            n_succ += 1
        else:
            memories[agent].append(word)
    basis = params.n if params.group_size_basis == "nominal" else size
    seed_ok = n_succ // basis >= 1
    if seed_ok:
        memories[seed] = [word]
    return (n_succ + seed_ok) / size, size, 1


def oracle_minimal_step(edges, memories, params, rng, fresh) -> tuple:
    """One pairwise round on an edge list (u < v, lexicographic) with scalar
    draws: integers(len(edges)), then random() < 0.5 picks the speaker end.
    Returns (sr, speaker, hearer, word)."""
    e = int(rng.integers(len(edges)))
    s = 0 if rng.random() < 0.5 else 1
    speaker, hearer = edges[e][s], edges[e][1 - s]
    word = _oracle_speak(memories, speaker, params, rng, fresh)
    if word in memories[hearer]:
        memories[hearer] = [word]
        memories[speaker] = [word]
        return 1.0, speaker, hearer, word
    memories[hearer].append(word)
    return 0.0, speaker, hearer, word


def _oracle_minimal_round(adj, memories, params, rng, fresh) -> tuple:
    edges = np.argwhere(np.triu(adj, 1)).tolist()
    return oracle_minimal_step(edges, memories, params, rng, fresh)[0], 2, 1


_ORACLE_ROUNDS = {"ngg": _oracle_ngg_round, "ngmh": _oracle_ngmh_round,
                  "minimal": _oracle_minimal_round}


def oracle_run(net: Network, params, rng) -> list:
    """A whole run's records from the documented rules, stated with numpy's
    own calls on the Generator rng and no engine code. n_total and n_diff
    are recounted from the memories every round; the run stops at the first
    round after which every memory is the same single word, or at the cap."""
    adj = net.adj
    memories = [[] for _ in range(net.m)]
    fresh = [0]
    records = []
    for iteration in range(1, params.max_iterations + 1):
        sr, size, sent = _ORACLE_ROUNDS[params.mode](adj, memories, params,
                                                     rng, fresh)
        words = [w for mem in memories for w in mem]
        records.append(TraceRecord(iteration, len(words), len(set(words)), sr,
                                   size, sent))
        if all(mem == memories[0] for mem in memories) and len(memories[0]) == 1:
            break
    return records


def oracle_recount(pop: PopulationState) -> tuple:
    """(total, distinct) words recounted from the memories, for checking the
    counters PopulationState keeps up to date."""
    total = sum(len(mem) for mem in pop.memories)
    distinct = len({w for mem in pop.memories for w in mem})
    return total, distinct


def make_trace(records) -> Trace:
    """A Trace of TraceRecords numbered 1, 2, ... in order. A column is
    float ('d') where the first record's field is a float and int ('q')
    where it is an int; with no records, a run trace's columns."""
    records = list(records)
    assert [r.iteration for r in records] == list(range(1, len(records) + 1))
    codes = ["d" if isinstance(getattr(records[0], f), float) else "q"
             for f in TRACE_FIELDS[1:]] if records else "qqdqq"
    return Trace(tuple(array(code, [getattr(r, f) for r in records])
                       for code, f in zip(codes, TRACE_FIELDS[1:])))


def oracle_n_iter_cvg(n_total, n_diff, m: int):
    """First 1-based iteration with n_total == m and n_diff == 1, else None.

    The convergence rule read back off a trace's columns: M words in all
    with one distinct word means every memory holds exactly that word.
    """
    for iteration, (total, diff) in enumerate(zip(n_total, n_diff), 1):
        if total == m and diff == 1:
            return iteration
    return None


def oracle_average_runs(traces, m: int) -> list:
    """Pointwise mean of record lists, summed row by row in trace order."""
    longest = max(len(t) for t in traces)
    cols = {f: np.zeros(longest) for f in TRACE_FIELDS[1:]}
    for t in traces:
        last = t[-1]
        for i in range(longest):
            r = t[i] if i < len(t) else None
            cols["n_total"][i] += r.n_total if r else m
            cols["n_diff"][i] += r.n_diff if r else 1
            cols["sr"][i] += r.sr if r else 1.0
            cols["group_size"][i] += (r or last).group_size
            cols["n_transmitted"][i] += (r or last).n_transmitted
    k = len(traces)
    return [TraceRecord(i + 1, *(cols[f][i] / k for f in TRACE_FIELDS[1:]))
            for i in range(longest)]


def oracle_write_trace_csv(records, path) -> None:
    """Trace CSV through csv.writer: ints as str, floats as repr(float)."""
    def fmt(x):
        return x if isinstance(x, int) else repr(float(x))

    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(TRACE_FIELDS)
        for r in records:
            out.writerow([r.iteration, *(fmt(getattr(r, f))
                                         for f in TRACE_FIELDS[1:])])


# ----------------------------------------------------------------------
# Failing writes
# ----------------------------------------------------------------------


class HalfFile:
    """An open file whose writes go through whole `after` times; the next
    keeps `keep` characters, then raises the error of a full disk."""

    def __init__(self, fh, keep: int, after: int = 0):
        self.fh, self.keep, self.after = fh, keep, after

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if self.after:
            self.after -= 1
            return self.fh.write(text)
        self.fh.write(text[:self.keep])
        raise OSError(28, "No space left on device")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def prepend(env, var, entry):
    env[var] = os.pathsep.join(filter(None, [str(entry), env.get(var)]))


def child_env():
    """Environment for a child process that imports the same ngg as this one.

    The directory holding the imported ``ngg`` package goes first on
    ``PYTHONPATH``, so the tests need neither an install nor an exported
    variable.
    """
    env = dict(os.environ)
    prepend(env, "PYTHONPATH", Path(ngg.__file__).resolve().parents[1])
    return env


def run_capped(args, timeout=30, limit=1 << 30):
    """Run ``python *args`` in a child whose address space is capped at
    ``limit`` bytes, so a loop that never ends fails fast instead of taking
    the host's memory; a child still running after ``timeout`` seconds is
    killed, and ``subprocess.TimeoutExpired`` is raised here."""
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"  # numpy's per-thread buffers fit the cap
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
