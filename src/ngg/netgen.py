"""Generators and statistics for the three network families the game runs on.

Three undirected, unweighted, connected topologies:

  rg  -- Erdos-Renyi random graph: every pair is an edge with probability P.
  ws  -- Watts-Strogatz small world: ring lattice with K neighbours per side,
         each lattice edge rewired with probability RP.
  ba  -- Barabasi-Albert scale free: a complete seed of n0 nodes, then each
         new node makes e preferential-attachment draws (with replacement,
         duplicate picks collapse into one edge).

Adjacency is a dense boolean matrix; node ids are 0-based. Generators that can
produce a disconnected sample (rg, ws) regenerate from fresh randomness up to
MAX_ATTEMPTS times and raise ConnectivityFailureError after that. ba output is
connected by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConnectivityFailureError, DisconnectedError, InvalidParamError

MAX_ATTEMPTS = 100

# ----------------------------------------------------------------------
# Specs and the Network container
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSpec:
    """Which family to build and with what knobs.

    Exactly the fields relevant to `model` may be set:
      rg: p          edge probability, 0 < p <= 1
      ws: k, rp      neighbours per side (>= 1), rewiring probability in [0, 1]
      ba: n0, e      seed size and edges per new node, 1 <= e <= n0 < m
    """

    model: str
    m: int
    p: Optional[float] = None
    k: Optional[int] = None
    rp: Optional[float] = None
    n0: Optional[int] = None
    e: Optional[int] = None

    def validate(self) -> None:
        if self.model not in ("rg", "ws", "ba"):
            raise InvalidParamError(f"unknown model {self.model!r}")
        if self.m < 2:
            raise InvalidParamError(f"m must be >= 2, got {self.m}")
        if self.model == "rg":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise InvalidParamError(f"rg needs 0 < p <= 1, got {self.p}")
            self._forbid(k=self.k, rp=self.rp, n0=self.n0, e=self.e)
        elif self.model == "ws":
            if self.k is None or self.k < 1:
                raise InvalidParamError(f"ws needs k >= 1, got {self.k}")
            if 2 * self.k >= self.m:
                raise InvalidParamError(
                    f"ws needs 2k < m, got k={self.k} m={self.m}")
            if self.rp is None or not (0.0 <= self.rp <= 1.0):
                raise InvalidParamError(f"ws needs 0 <= rp <= 1, got {self.rp}")
            self._forbid(p=self.p, n0=self.n0, e=self.e)
        else:
            if self.n0 is None or self.e is None:
                raise InvalidParamError("ba needs n0 and e")
            if not (1 <= self.e <= self.n0):
                raise InvalidParamError(
                    f"ba needs 1 <= e <= n0, got e={self.e} n0={self.n0}")
            if self.n0 >= self.m:
                raise InvalidParamError(
                    f"ba needs n0 < m, got n0={self.n0} m={self.m}")
            self._forbid(p=self.p, k=self.k, rp=self.rp)

    @staticmethod
    def _forbid(**fields) -> None:
        for name, value in fields.items():
            if value is not None:
                raise InvalidParamError(f"{name} does not apply to this model")

    def params(self) -> dict:
        """The model-relevant knobs as a plain dict (for JSON records)."""
        names = {"rg": ("p",), "ws": ("k", "rp"), "ba": ("n0", "e")}[self.model]
        return {n: getattr(self, n) for n in names}

    def label(self) -> str:
        if self.model == "rg":
            return f"RG-{self.p:g}"
        if self.model == "ws":
            return f"WS-{self.k}-{self.rp:g}"
        return f"BA-{self.e}"


@dataclass
class Network:
    """A generated network: spec, size, and dense boolean adjacency."""

    spec: NetworkSpec
    adj: np.ndarray

    _neighbors: Optional[tuple] = field(default=None, repr=False, compare=False)
    _masks: Optional[list] = field(default=None, repr=False, compare=False)
    _edge_list: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.adj.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour ids of node i (cached per network)."""
        if self._neighbors is None:
            self._neighbors = tuple(
                np.flatnonzero(self.adj[j]) for j in range(self.m))
        return self._neighbors[i]

    def neighbor_masks(self) -> list:
        """One int per node with bit j set iff j is adjacent (cached per network)."""
        if self._masks is None:
            packed = np.packbits(self.adj, axis=1, bitorder="little")
            self._masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return self._masks

    def edges(self) -> np.ndarray:
        """(E, 2) array of edges with u < v, lexicographically sorted."""
        if self._edge_list is None:
            u, v = np.nonzero(np.triu(self.adj, 1))
            self._edge_list = np.column_stack([u, v])
        return self._edge_list


@dataclass(frozen=True)
class NetworkStats:
    avg_degree: float
    avg_path_length: float
    clustering_coefficient: float


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def generate(spec: NetworkSpec, rng: np.random.Generator) -> Network:
    """Build a connected network for `spec`, drawing all randomness from rng."""
    spec.validate()
    if spec.model == "rg":
        return _retry_connected(spec, rng, lambda: _random_graph(spec.m, spec.p, rng))
    if spec.model == "ws":
        return _retry_connected(
            spec, rng, lambda: _small_world(spec.m, spec.k, spec.rp, rng))
    return Network(spec, _scale_free(spec.m, spec.n0, spec.e, rng))


def _retry_connected(spec, rng, build) -> Network:
    for _ in range(MAX_ATTEMPTS):
        adj = build()
        if is_connected(adj):
            return Network(spec, adj)
    raise ConnectivityFailureError(MAX_ATTEMPTS, spec.label())


def _random_graph(m: int, p: float, rng: np.random.Generator) -> np.ndarray:
    iu = np.triu_indices(m, 1)
    hit = rng.random(iu[0].size) < p
    adj = np.zeros((m, m), dtype=bool)
    adj[iu[0][hit], iu[1][hit]] = True
    return adj | adj.T


def _small_world(m: int, k: int, rp: float, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((m, m), dtype=bool)
    for j in range(1, k + 1):
        idx = np.arange(m)
        adj[idx, (idx + j) % m] = True
        adj[(idx + j) % m, idx] = True
    if rp == 0.0:
        return adj
    # Rewire the far endpoint of each original lattice edge (i, i+j), keeping
    # i fixed; the new endpoint avoids self-loops and already-present edges.
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


def _scale_free(m: int, n0: int, e: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((m, m), dtype=bool)
    adj[:n0, :n0] = True
    np.fill_diagonal(adj, False)
    deg = adj.sum(axis=1).astype(np.float64)
    for v in range(n0, m):
        if deg[:v].sum() == 0.0:  # degenerate n0=1 seed: only uniform choice
            targets = [int(rng.integers(v))]
        else:
            p = deg[:v] / deg[:v].sum()
            targets = np.unique(rng.choice(v, size=e, replace=True, p=p))
        for t in targets:
            adj[v, t] = adj[t, v] = True
            deg[t] += 1.0
            deg[v] += 1.0
    return adj


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def is_connected(adj: np.ndarray) -> bool:
    """Breadth-first reachability from node 0 over the boolean adjacency."""
    m = adj.shape[0]
    visited = np.zeros(m, dtype=bool)
    visited[0] = True
    frontier = adj[0] & ~visited
    while frontier.any():
        visited |= frontier
        frontier = adj[frontier].any(axis=0) & ~visited
    return bool(visited.all())


def all_pairs_distances(adj: np.ndarray) -> np.ndarray:
    """Hop-count matrix via synchronous level expansion (inf if unreachable).

    Each level is one boolean-reachability matrix product, so the cost is
    (diameter) dense matmuls; for the dense, small-diameter networks used here
    that beats per-source BFS by a wide margin.
    """
    m = adj.shape[0]
    dist = np.where(adj, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    af = adj.astype(np.float32)
    reach = adj | np.eye(m, dtype=bool)
    d = 1
    while np.isinf(dist).any():
        nxt = ((reach.astype(np.float32) @ af) > 0) | reach
        new = nxt & ~reach
        if not new.any():
            break  # disconnected: remaining entries stay inf
        d += 1
        dist[new] = d
        reach = nxt
    return dist


def compute_stats(net: Network) -> NetworkStats:
    """Average degree, average path length over unordered pairs, and the mean
    local clustering coefficient (nodes of degree < 2 contribute 0).

    Raises DisconnectedError if any pair is unreachable.
    """
    m = net.m
    deg = net.degrees.astype(np.float64)
    dist = all_pairs_distances(net.adj)
    if np.isinf(dist).any():
        raise DisconnectedError("average path length needs a connected network")
    iu = np.triu_indices(m, 1)
    apl = float(dist[iu].mean())
    af = net.adj.astype(np.float32)
    triangles = ((af @ af) * af).sum(axis=1).astype(np.float64) / 2.0
    possible = deg * (deg - 1.0) / 2.0
    local = np.divide(triangles, possible, out=np.zeros(m), where=possible > 0)
    return NetworkStats(
        avg_degree=float(deg.mean()),
        avg_path_length=apl,
        clustering_coefficient=float(local.mean()),
    )


# ----------------------------------------------------------------------
# Edge-list round trip
# ----------------------------------------------------------------------


def write_edge_list(net: Network, path) -> None:
    """One 'u v' line per edge, u < v, 0-based, lexicographic order."""
    with open(path, "w") as fh:
        for u, v in net.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path, m: Optional[int] = None) -> np.ndarray:
    """Parse an edge-list file back into a boolean adjacency matrix."""
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = (int(x) for x in line.split())
            pairs.append((u, v))
    size = m if m is not None else (max(max(p) for p in pairs) + 1 if pairs else 0)
    adj = np.zeros((size, size), dtype=bool)
    for u, v in pairs:
        adj[u, v] = adj[v, u] = True
    return adj
