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

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from numbers import Integral, Real
from typing import Optional, get_args, get_type_hints

import numpy as np

from .errors import ConnectivityFailureError, InvalidParamError
from .metrics import write_atomic

MAX_ATTEMPTS = 100
# The network families and the knobs each one takes, in config order.
KNOBS = {"rg": ("p",), "ws": ("k", "rp"), "ba": ("n0", "e")}


# the test and the wording of a number field's type; any other is its class
_NUMBERS = {int: (Integral, "an integer"), float: (Real, "a number")}


@cache
def _field_types(cls) -> dict:
    """Each field of dataclass cls -> (its class: the annotation, or Optional's
    one class; whether it is Optional), read once per class."""
    return {name: (next((a for a in get_args(hint) if a is not type(None)), hint),
                   type(None) in get_args(hint))
            for name, hint in get_type_hints(cls).items()}


def _check_types(obj, optional=None) -> None:
    """InvalidParamError naming the first field of obj whose value is not of
    its annotated type: an int field takes any Integral (numpy's too), a float
    field any Real, and a bool passes only a bool field. None passes an
    Optional field, or, given optional, only the fields it names."""
    for name, (kind, none) in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if value is None and (none if optional is None else name in optional):
            continue
        test, what = _NUMBERS.get(kind, (kind, f"a {kind.__name__}"))
        if not isinstance(value, test) or isinstance(value, bool) and kind is not bool:
            raise InvalidParamError(f"{name} must be {what}, got {value!r}", name)

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
        """InvalidParamError naming in .field the first field out of type or
        range; each knob of the model is required, every other one unset."""
        # a tuple, not the dict: an unhashable model is unknown, not a TypeError
        if self.model not in tuple(KNOBS):
            raise InvalidParamError(
                f"model must be one of {tuple(KNOBS)}, got {self.model!r}", "model")
        unused = [name for name in itertools.chain.from_iterable(KNOBS.values())
                  if name not in KNOBS[self.model]]
        _check_types(self, optional=unused)
        if self.m < 2:
            raise InvalidParamError(f"m must be >= 2, got {self.m}", "m")
        if int(self.m) ** 2 > np.iinfo(np.intp).max:  # numpy cannot index adj
            raise InvalidParamError(
                f"m={self.m} is too large for an m x m adjacency", "m")
        if self.model == "rg":
            if not (0.0 < self.p <= 1.0):
                raise InvalidParamError(f"rg needs 0 < p <= 1, got {self.p}", "p")
        elif self.model == "ws":
            if self.k < 1:
                raise InvalidParamError(f"ws needs k >= 1, got {self.k}", "k")
            if 2 * self.k >= self.m:
                raise InvalidParamError(
                    f"ws needs 2k < m, got k={self.k} m={self.m}", "k")
            if not (0.0 <= self.rp <= 1.0):
                raise InvalidParamError(f"ws needs 0 <= rp <= 1, got {self.rp}", "rp")
        else:
            if not (1 <= self.e <= self.n0):
                raise InvalidParamError(
                    f"ba needs 1 <= e <= n0, got e={self.e} n0={self.n0}", "e")
            if self.n0 >= self.m:
                raise InvalidParamError(
                    f"ba needs n0 < m, got n0={self.n0} m={self.m}", "n0")
        for name in unused:
            if getattr(self, name) is not None:
                raise InvalidParamError(f"{name} does not apply to this model", name)

    def params(self) -> dict:
        """The model-relevant knobs as a plain dict (for JSON records)."""
        return {n: getattr(self, n) for n in KNOBS[self.model]}

    def label(self) -> str:
        if self.model == "rg":
            return f"RG-{self.p:g}"
        if self.model == "ws":
            return f"WS-{self.k}-{self.rp:g}"
        return f"BA-{self.e}"


@dataclass(eq=False)
class Network:
    """A generated network: spec, size, and dense boolean adjacency. Every view
    below is cached where it is first read; == is identity."""

    spec: NetworkSpec
    adj: np.ndarray

    @property
    def m(self) -> int:
        return self.adj.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._adjacency[1])

    @property
    def edge_count(self) -> int:
        return self._adjacency[1][-1] // 2

    @cached_property
    def _adjacency(self) -> tuple:
        """(dst, bounds), one pass over adj: row i is dst[bounds[i]:bounds[i + 1]]."""
        src, dst = np.divmod(np.flatnonzero(self.adj), self.m)
        return dst, np.searchsorted(src, np.arange(self.m + 1)).tolist()

    @cached_property
    def _neighbor_lists(self) -> list:
        """Sorted neighbour ids of every node as lists of ints."""
        dst, bounds = self._adjacency
        flat = dst.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def _rows(self) -> np.ndarray:
        """adj's rows as zero-padded uint64 words: bit j of row i is adj[i, j]."""
        rows = np.packbits(self.adj, axis=1, bitorder="little")
        return np.pad(rows, ((0, 0), (0, -rows.shape[1] % 8))).view("<u8")

    @cached_property
    def _masks(self) -> list:
        return [int.from_bytes(r.tobytes(), "little") for r in self._rows]

    @cached_property
    def _edge_list(self) -> np.ndarray:
        dst = self._adjacency[0]
        src = np.repeat(np.arange(self.m), self.degrees)
        return np.column_stack([src, dst])[src < dst]

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour ids of node i, a view into the shared dst array."""
        dst, bounds = self._adjacency
        return dst[bounds[i]:bounds[i + 1]]

    def neighbor_masks(self) -> list:
        """One int per node with bit j set iff j is adjacent: _rows as ints."""
        return self._masks

    def edges(self) -> np.ndarray:
        """(E, 2) array of edges with u < v, lexicographically sorted."""
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
    """Build a connected network for `spec`, drawing all randomness from rng;
    ws reads it as 64-bit words, so it rejects an MT19937 bit generator."""
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
    # np.triu_indices' coin order, row by row into one buffer: no per-row arrays
    adj, coins = np.zeros((m, m), dtype=bool), np.empty(m)
    for i in range(m - 1):
        np.less(rng.random(out=coins[i + 1:]), p, out=adj[i, i + 1:])
    return adj | adj.T


def _bounded(next32, n: int) -> int:
    """numpy's integers(n) for an int 0 < n <= 2**32 from next32()'s 32-bit
    words: Lemire's multiply-and-reject (n = 1 draws nothing)."""
    if n == 1:
        return 0
    m = next32() * n
    if m & 0xFFFFFFFF < n:
        threshold = ((1 << 32) - n) % n
        while m & 0xFFFFFFFF < threshold:
            m = next32() * n
    return m >> 32


def _keep_half(bg, has: int, half: int) -> None:
    """Set bg's kept 32-bit half, numpy's (has_uint32, uinteger), after words
    read from random_raw, which neither reads nor moves it."""
    bg.state = {**bg.state, "has_uint32": has, "uinteger": half}


def _small_world(m: int, k: int, rp: float, rng: np.random.Generator) -> np.ndarray:
    """Ring lattice; each lattice edge (i, i+j), j-major, moves its far end with
    probability rp to a node that is not i and not adjacent. The draws are the
    scalar loop's, random() < rp per edge and integers(m) until a free end, read
    from random_raw words as numpy computes them: random() is (w >> 11) * 2**-53
    of one word, integers(m) is _bounded on their 32-bit halves, low first."""
    adj, idx = np.zeros((m, m), dtype=bool), np.arange(m)
    for j in range(1, k + 1):
        adj[idx, (idx + j) % m] = adj[(idx + j) % m, idx] = True
    bg = rng.bit_generator
    state = bg.state
    if "has_uint32" not in state:  # MT19937: random() joins two 32-bit outputs
        raise InvalidParamError(f"ws rewiring reads 64-bit words, which "
                                f"{type(bg).__name__} does not give")
    if rp == 0.0:
        return adj
    has, half = state["has_uint32"], state["uinteger"]  # numpy's spare high half
    cell, deg = adj.reshape(-1).data, [2 * k] * m  # cell[i * m + j] is adj[i, j]

    def next32():
        nonlocal has, half, p
        if has:
            has = 0
            return half
        if p < len(words):
            w, p = int(words[p]), p + 1
        else:  # past the block: only integers() draws here
            w = int(bg.random_raw())
        has, half = 1, w >> 32
        return w & 0xFFFFFFFF

    e, n = 0, k * m  # coins tossed, coins in all
    while e < n:
        words, p = bg.random_raw(n - e), 0  # a word per coin left: none to spare
        for q in np.flatnonzero((words >> 11) * 2.0**-53 < rp).tolist():
            if q < p:
                continue  # taken by integers()
            e, p = e + q - p + 1, q + 1
            j, i = divmod(e - 1, m)
            old = (i + j + 1) % m
            if not cell[i * m + old] or deg[i] >= m - 1:
                continue  # rewired away already, or nowhere to rewire to
            while True:
                t = _bounded(next32, m)
                if t != i and not cell[i * m + t]:
                    break
            cell[i * m + old] = cell[old * m + i] = False
            cell[i * m + t] = cell[t * m + i] = True
            deg[old], deg[t] = deg[old] - 1, deg[t] + 1
        e += len(words) - p
    _keep_half(bg, has, half)
    return adj


def _scale_free(m: int, n0: int, e: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((m, m), dtype=bool)
    adj[:n0, :n0] = True
    np.fill_diagonal(adj, False)
    deg = adj.sum(axis=1).astype(np.float64)
    total, buf = n0 * (n0 - 1), np.empty(m)  # total is deg[:v].sum(), exactly
    for v in range(n0, m):
        if total == 0:  # degenerate n0=1 seed: only uniform choice
            targets = [int(rng.integers(v))]
        else:
            # rng.choice(v, e, p=deg[:v] / total) as numpy does it; repeats count once
            cdf = np.cumsum(np.divide(deg[:v], total, out=buf[:v]), out=buf[:v])
            cdf /= cdf[-1]
            targets = cdf.searchsorted(rng.random(e), side="right")
        adj[v, targets] = adj[targets, v] = True
        deg[targets] += 1.0
        deg[v] = np.count_nonzero(adj[v])
        total += 2 * int(deg[v])
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


def _levels(masks: list, nbrs: list):
    """BFS from every node at once: yields reach for k = 1, 2, ... until a level
    adds nothing; bit j of reach[i] is set iff j is at most k hops from i. Each
    level ORs the last one's rows of i's neighbours into row i until it is full."""
    full = (1 << len(masks)) - 1
    reach = [mask | 1 << i for i, mask in enumerate(masks)]
    while True:
        yield reach
        prev, reach = reach, []
        for row, nb in zip(prev, nbrs):
            for j in nb:
                if row == full:
                    break
                row |= prev[j]
            reach.append(row)
        if reach == prev:
            return


def all_pairs_distances(adj: np.ndarray) -> np.ndarray:
    """Hop-count matrix (inf if unreachable): a pair's distance is the number
    of levels, level 0 included, at which its bit is still clear."""
    m, net = adj.shape[0], Network(None, adj)
    dist = 1.0 - np.eye(m)
    for rows in _levels(net.neighbor_masks(), net._neighbor_lists):
        bits = "".join(format(row, f"0{m}b")[::-1] for row in rows)  # char j: bit j
        reach = np.frombuffer(bits.encode(), np.uint8).reshape(m, m) == ord("1")
        dist += ~reach
    dist[~reach] = np.inf
    return dist


def compute_stats(net: Network) -> NetworkStats:
    """Average degree, average path length over unordered pairs, and the mean
    local clustering coefficient (degree < 2 counts 0), from exact integer bit
    counts: the pairs still unreached at each BFS level, level 0 included, sum
    to twice the path total; each edge i < j credits popcount(row_i & row_j)
    to both ends. Raises InvalidParamError if any pair is unreachable."""
    m, masks, nbrs = net.m, net.neighbor_masks(), net._neighbor_lists
    unreached = [m * m - sum(map(int.bit_count, r)) for r in _levels(masks, nbrs)]
    if unreached[-1]:
        raise InvalidParamError("average path length needs a connected network")
    # a triangle at i is seen from both its edges at i; sums of ints < 2**53 are exact
    rows, edges, twice = net._rows, net.edges(), np.zeros(m)
    for at in range(0, len(edges), 4096):  # chunks keep the AND table small
        u, v = edges[at:at + 4096].T
        shared = np.bitwise_count(rows[u] & rows[v]).sum(axis=1)
        twice += np.bincount(u, shared, m) + np.bincount(v, shared, m)
    deg = net.degrees.astype(np.float64)
    local = np.divide(twice, deg * (deg - 1.0), out=np.zeros(m), where=deg > 1)
    return NetworkStats(avg_degree=float(deg.mean()),
                        avg_path_length=(m * m - m + sum(unreached)) / (m * (m - 1)),
                        clustering_coefficient=float(local.mean()))


# ----------------------------------------------------------------------
# Edge-list output
# ----------------------------------------------------------------------


def write_edge_list(net: Network, path) -> None:
    """One 'u v' line per edge, u < v, 0-based, lexicographic order; atomic."""
    tail = [f"{v}\n" for v in range(net.m)]  # row u: "u " before each v > u
    write_atomic(path, "".join(
        f"{u} " + f"{u} ".join([tail[v] for v in nb[bisect_right(nb, u):]])
        for u, nb in enumerate(net._neighbor_lists) if nb and nb[-1] > u))
