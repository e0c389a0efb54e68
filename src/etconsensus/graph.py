"""Weighted (di)graphs, Laplacians, and the spectral quantities trigger bounds need.

Every convergence rate, inter-event floor, and admissible sampling period in
this package is expressed through three numbers attached to a graph: the
algebraic connectivity ``lambda_2`` and the largest eigenvalue ``lambda_n`` of
the symmetrized Laplacian, and the induced 2-norm of the Laplacian itself.
This module builds graphs from edge lists or files, checks the structural
preconditions (strong connectivity, weight balance; :func:`validate_graph`,
with no eigendecomposition where a bound certifies connectivity), and
computes those numbers (:func:`spectral_info`) for what reads them. It is
also the one place that derives each vertex's neighbours from the weights
(:attr:`WeightedDigraph.neighbors`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import NotBalanced, NotConnected

#: Tolerance on |d_out - d_in| for the weight-balance test, relative to the
#: largest vertex degree.
BALANCE_TOL = 1e-12

#: lambda_2 at or below this times the largest vertex degree means the zero
#: eigenvalue is not simple.
CONNECTIVITY_TOL = 1e-10


def _rounding_margin(n: int) -> float:
    """The rounding the connectivity certificate allows for at n vertices,
    in units of the largest degree (see ``_certified_connected``)."""
    return (2.0 * n + 3.0) * n * float(np.finfo(float).eps)


def _vertex_count(n) -> int:
    """n as an int, if it is a positive integer."""
    try:
        count = operator.index(n)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"vertex count n must be a positive integer, got {n!r}")
    return count


def _edge_matrix(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, directed: bool):
    """The weight matrix of edges given as arrays, or None if any edge is
    bad (as ``from_edges`` defines it)."""
    if not (np.all((0 <= i) & (i < n) & (0 <= j) & (j < n) & (i != j)) and np.all((0.0 < w) & (w < math.inf))):
        return None
    m = np.zeros((n, n))
    m[i, j] = w
    if not directed:
        m[j, i] = w
    if np.count_nonzero(m) != len(w) * (1 if directed else 2):  # a duplicate set a weight twice
        return None
    return m


def _edge_matrix_one_by_one(n: int, edges, directed: bool) -> np.ndarray:
    """The weight matrix of ``(i, j, w)`` triples, checked one edge at a
    time; raises ValueError naming the first bad edge."""
    w = np.zeros((n, n))
    for i, j, wij in edges:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise ValueError(f"edge ({i!r}, {j!r}): vertex ids must be integers")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}): vertex id out of range for n={n}")
        if i == j:
            raise ValueError(f"edge ({i}, {j}): self-loop")
        wij = float(wij)
        if not (0.0 < wij < math.inf):
            raise ValueError(f"edge ({i}, {j}): weight must be positive and finite, got {wij}")
        if w[i, j]:  # an earlier edge set it; undirected, (j, i) sets both
            raise ValueError(f"duplicate edge ({i}, {j})")
        w[i, j] = wij
        if not directed:
            w[j, i] = wij
    return w


class Neighbors(NamedTuple):
    """Per-vertex neighbour lists, each in ascending vertex id."""

    out: tuple  # out[i]: the j with w_ij > 0
    out_weights: tuple  # out_weights[i]: those w_ij, in the same order
    into: tuple  # into[j]: the i with w_ij > 0


@dataclass(frozen=True, eq=False)
class WeightedDigraph:
    """Vertex/edge/weight structure; ``weights[i, j] > 0`` is an edge i -> j.

    Weights are nonnegative with a zero diagonal; undirected graphs are stored
    as symmetric weight matrices. Instances are immutable and safe to share
    across threads; the neighbour table, the check of
    :func:`validate_graph` and :func:`spectral_info` are each computed once
    per instance, when first read, and kept on it. Every simulation validates
    its graph; the spectrum is computed only for the default ``dt``, the
    ideal run's decay line, the centralized law and its floor ``tau``, and
    the time-dependent law's radius. Equality and hashing are by identity,
    as for the cached values: two graphs built alike are distinct objects.
    """

    n: int
    weights: np.ndarray
    directed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _vertex_count(self.n))
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("self-loops are not allowed (nonzero diagonal)")
        if not self.directed and not np.array_equal(w, w.T):
            raise ValueError("undirected graph requires a symmetric weight matrix")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, n: int, edges, directed: bool = True) -> "WeightedDigraph":
        """Build a graph from ``(i, j, w)`` triples with 0-based vertex ids.

        Rejects non-integer or out-of-range ids, self-loops, weights that are
        not positive and finite, and duplicate edges (for undirected graphs,
        ``(j, i)`` duplicates ``(i, j)``), naming the first bad edge.
        """
        n = _vertex_count(n)
        return cls._holding(n, _edge_matrix_one_by_one(n, edges, directed), directed)

    @classmethod
    def _holding(cls, n: int, w: np.ndarray, directed: bool) -> "WeightedDigraph":
        """A graph that keeps ``w`` itself, made read-only: a weight matrix
        this module built from edges that passed the checks of
        ``from_edges``, so it meets the constructor's checks and no caller
        holds it. One dense n x n matrix, not the constructor's second copy."""
        w.setflags(write=False)
        g = object.__new__(cls)
        for name, value in (("n", n), ("weights", w), ("directed", directed)):
            object.__setattr__(g, name, value)
        return g

    @functools.cached_property
    def neighbors(self) -> Neighbors:
        """Out-neighbours with their weights, and in-neighbours, of every
        vertex. The engine's per-agent sums run over these tuples in their
        ascending order, which fixes the bits of each threshold and
        velocity."""
        edge = self.weights > 0.0

        def by_row(mask, values):  # mask's row-major nonzero values, one tuple per row
            ends = np.cumsum(np.count_nonzero(mask, axis=1)).tolist()
            return tuple(tuple(values[a:b]) for a, b in zip([0, *ends], ends))

        return Neighbors(
            out=by_row(edge, np.nonzero(edge)[1].tolist()),
            out_weights=by_row(edge, self.weights[edge].tolist()),
            into=by_row(edge.T, np.nonzero(edge.T)[1].tolist()),
        )

    @functools.cached_property
    def _validated(self) -> bool:
        # Nothing is kept when a check raises, so a failing graph raises again.
        _check_balance(self)
        if not _certified_connected(self):
            spectral_info(self)  # the eigenvalue test decides
        return True

    @functools.cached_property
    def _spectral(self) -> SpectralInfo:
        _check_balance(self)
        lap = laplacian(self)
        sym_eigs = np.linalg.eigvalsh(0.5 * (lap + lap.T))
        if self.n < 2 or sym_eigs[1] <= CONNECTIVITY_TOL * _degree_scale(self):
            raise NotConnected(
                "zero eigenvalue of the symmetrized Laplacian is not simple; "
                "graph is not strongly connected"
            )
        return SpectralInfo(
            lambda2=float(sym_eigs[1]),
            lambda_n=float(sym_eigs[-1]),
            laplacian_norm=float(np.linalg.norm(lap, 2)),
        )

    @property
    def out_degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    @property
    def in_degrees(self) -> np.ndarray:
        return self.weights.sum(axis=0)

    @property
    def max_out_neighbors(self) -> int:
        """Largest out-neighborhood cardinality over all vertices."""
        return max(map(len, self.neighbors.out))

    @property
    def max_weight(self) -> float:
        return float(self.weights.max())


@dataclass(frozen=True)
class SpectralInfo:
    """Spectral summary of a strongly connected, weight-balanced digraph.

    ``lambda2`` and ``lambda_n`` are the second-smallest and largest
    eigenvalues of the symmetrized Laplacian (L + L^T)/2; ``laplacian_norm``
    is the induced 2-norm of L itself.
    """

    lambda2: float
    lambda_n: float
    laplacian_norm: float


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Weighted Laplacian D_out - W. Row sums are zero by construction."""
    return np.diag(g.out_degrees) - g.weights


def _degree_scale(g: WeightedDigraph) -> float:
    """Largest out- or in-degree. The balance and connectivity tolerances are
    relative to it, so scaling every weight by one factor keeps the verdicts."""
    return float(max(g.out_degrees.max(), g.in_degrees.max()))


def is_weight_balanced(g: WeightedDigraph) -> bool:
    """True iff every vertex has equal out- and in-degree within ``BALANCE_TOL``
    times the largest degree."""
    return bool(np.max(np.abs(g.out_degrees - g.in_degrees)) <= BALANCE_TOL * _degree_scale(g))


def _check_balance(g: WeightedDigraph) -> None:
    if not is_weight_balanced(g):
        raise NotBalanced("graph is not weight-balanced; out- and in-degrees differ")


def _depth(*tables) -> Optional[int]:
    """Largest BFS distance from vertex 0 along the union of the neighbour
    ``tables``, or None if some vertex is not reached."""
    dist, queue = {0: 0}, [0]
    for u in queue:
        for table in tables:
            for v in table[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
    return dist[queue[-1]] if len(queue) == len(tables[0]) else None


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff every vertex reaches every other along positive-weight edges."""
    return _depth(g.neighbors.out) is not None and _depth(g.neighbors.into) is not None


def _certified_connected(g: WeightedDigraph) -> bool:
    """True if a bound, with no eigendecomposition, shows that a graph which
    passed the balance test passes the eigenvalue test of :func:`spectral_info`.

    If the support graph (i ~ j where w_ij > 0 or w_ji > 0) is connected, its
    diameter is at most twice the BFS depth from vertex 0, and (L + L^T)/2 is
    the Laplacian of weights (w_ij + w_ji)/2 >= w_min/2 on it plus
    diag(d_out - d_in)/2. So Mohar's lambda_2 >= 4 / (n diameter) for unit
    weights (Graphs Combin. 7, 1991) and Weyl's inequality give
    lambda_2 >= w_min / (n depth) - max |d_out - d_in| / 2.

    The bound must clear ``CONNECTIVITY_TOL`` times the largest degree d_max
    by ``(2 n + 3) n`` eps d_max, for rounding. The degree sums of both tests
    are each within about n eps d_max. LAPACK's symmetric eigensolvers return
    each eigenvalue within p(n) eps ||A||_2 of the exact one of the matrix
    they are given (LAPACK Users' Guide, 3rd ed., section 4.7), and
    ||A||_2 <= 2 d_max here. The Guide calls p(n) a modestly growing function
    of n and takes p(n) = 1 in its own error estimates; the margin assumes
    p(n) <= n^2. So the two tests agree wherever ``eigvalsh`` is that
    accurate: ``tests/test_graph.py`` measures its error on Laplacians of
    known spectrum at n = 1000, where it is below n eps ||A||_2.
    """
    nbrs = g.neighbors
    depth = _depth(nbrs.out, nbrs.into)
    if not depth:  # None: not connected; 0: one vertex, which the test rejects
        return False
    scale = _degree_scale(g)
    w_min = min(min(ws) for ws in nbrs.out_weights if ws)
    imbalance = float(np.abs(g.out_degrees - g.in_degrees).max())
    slack = 0.5 * imbalance + _rounding_margin(g.n) * scale
    return w_min / (g.n * depth) - slack > CONNECTIVITY_TOL * scale


def validate_graph(g: WeightedDigraph) -> None:
    """Raise what :func:`spectral_info` raises, with no eigendecomposition
    where a bound certifies connectivity.

    The balance test is the same. Connectivity is certified by a breadth-first
    search and a lower bound on lambda_2 (``_certified_connected``), O(m) work
    in the edges m besides the degree sums; where the bound does not clear
    the tolerance, as for a graph of weak bridges, :func:`spectral_info`
    decides. Checked once per graph instance; a graph that fails raises
    again on every call.
    """
    g._validated


def spectral_info(g: WeightedDigraph) -> SpectralInfo:
    """Eigen-summary of the symmetrized Laplacian: a dense ``eigvalsh`` and
    an SVD for ||L||_2.

    Computed once per graph instance and kept on it; a graph that fails a
    check raises again on every call. Only what reads these numbers calls
    it: the default ``dt`` (``engine.sim_config``), the ideal decay line, the
    centralized law and its floor, and the time-dependent radius. To check
    a graph alone, :func:`validate_graph` raises the same errors, without an
    eigendecomposition where a bound certifies connectivity.

    Raises:
        NotBalanced: if the balance test fails (no spectral claim holds then).
        NotConnected: if lambda_2 <= CONNECTIVITY_TOL times the largest
            degree, i.e. the zero eigenvalue of the symmetrized Laplacian is
            not simple.
    """
    return g._spectral


# ---------------------------------------------------------------------------
# Plain-text graph files
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> WeightedDigraph:
    """Parse the plain-text graph format.

    First content line is ``"<n> directed|undirected"``; each following line
    is one ``"i j w"`` edge entry (see :func:`graph_from_fields`). Blank lines
    and ``#`` comments are skipped.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("graph file is empty")
    head = lines[0].split()
    if len(head) != 2 or head[1] not in ("directed", "undirected"):
        raise ValueError(
            f"graph header must be '<n> directed|undirected', got {lines[0]!r}"
        )
    return graph_from_fields(head[0], head[1] == "directed", lines[1:], "graph header")


def graph_from_fields(n: str, directed: bool, entries, count_field: str) -> WeightedDigraph:
    """Graph from the text of a vertex count (``count_field`` names it in
    errors) and of ``"i j w"`` edge entries: the one parser of graph files
    and inline ``[graph]`` sections. The entries are parsed and checked as
    arrays; if that fails, they are parsed one by one, and an error quotes
    the first entry that does not parse or names the first bad edge."""
    try:
        count = int(n)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{count_field}: vertex count must be a positive integer, got {n!r}")
    entries = list(entries)
    columns = _parse_entries(entries)
    w = None if columns is None else _edge_matrix(count, *columns, directed)
    if w is None:
        return WeightedDigraph.from_edges(count, [_parse_entry(entry) for entry in entries], directed)
    return WeightedDigraph._holding(count, w, directed)


def _parse_entries(entries):
    """The ids and weights of ``"i j w"`` entries as three arrays, parsed by
    ``int`` and ``float`` as ``_parse_entry`` parses them, or None if any
    entry does not parse. The entries are joined by ";", which no number
    holds: if every token but the 4th, 8th, ... parses, those are the joins."""
    tokens = " ; ".join(entries).split()
    if len(tokens) != 4 * len(entries) - 1:
        return None
    try:
        return (np.fromiter(map(int, tokens[0::4]), np.int64, len(entries)),
                np.fromiter(map(int, tokens[1::4]), np.int64, len(entries)),
                np.fromiter(map(float, tokens[2::4]), float, len(entries)))
    except (ValueError, OverflowError):
        return None


def _parse_entry(entry: str):
    """(i, j, w) of one ``"i j w"`` entry; raises ValueError quoting it."""
    parts = entry.split()
    if len(parts) != 3:
        raise ValueError(f"edge entry must be 'i j w', got {entry!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise ValueError(f"edge entry {entry!r}: expected integer ids i, j and a number w")


def load_graph(path) -> WeightedDigraph:
    """Read a graph from a plain-text file (see :func:`parse_graph`)."""
    return parse_graph(Path(path).read_text())


# ---------------------------------------------------------------------------
# Random graph generators (test ensembles)
# ---------------------------------------------------------------------------

def random_connected_undirected(
    n: int,
    rng: np.random.Generator,
    edge_prob: float = 0.5,
    w_lo: float = 1.0,
    w_hi: float = 1.0,
) -> WeightedDigraph:
    """Random connected undirected graph: a random spanning path plus extra edges.

    The spanning path guarantees connectivity in one shot; remaining vertex
    pairs are joined independently with probability ``edge_prob``. Weights are
    uniform in [w_lo, w_hi] (unit weights by default).
    """
    w = np.zeros((n, n))

    def draw() -> float:
        return float(rng.uniform(w_lo, w_hi)) if w_hi > w_lo else w_lo

    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        w[a, b] = w[b, a] = draw()
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0.0 and rng.random() < edge_prob:
                w[i, j] = w[j, i] = draw()
    return WeightedDigraph(n=n, weights=w, directed=False)


def random_balanced_digraph(
    n: int,
    rng: np.random.Generator,
    extra_cycles: int = 2,
    w_lo: float = 0.5,
    w_hi: float = 1.5,
) -> WeightedDigraph:
    """Random strongly connected weight-balanced digraph.

    Built as a superposition of directed cycles with positive weights: one
    cycle through all vertices (strong connectivity) plus ``extra_cycles``
    cycles over random subsets. Each cycle adds equal weight to every node's
    out- and in-degree, so the sum is weight-balanced by construction.
    """
    w = np.zeros((n, n))

    def add_cycle(nodes: np.ndarray) -> None:
        weight = float(rng.uniform(w_lo, w_hi))
        for a, b in zip(nodes, np.roll(nodes, -1)):
            w[a, b] += weight

    add_cycle(rng.permutation(n))
    for _ in range(extra_cycles):
        size = int(rng.integers(2, n + 1))
        add_cycle(rng.permutation(n)[:size])
    return WeightedDigraph(n=n, weights=w, directed=True)
