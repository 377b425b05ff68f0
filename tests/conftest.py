"""Shared brute-force oracles and graph helpers.

Everything here is deliberately naive (triple loops, Floyd-Warshall,
fraction arithmetic) and independent of the package's vectorised routines;
tests compare the two implementations against each other.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

import ngg
from ngg.netgen import Network, NetworkSpec


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
