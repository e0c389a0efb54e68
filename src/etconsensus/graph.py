"""Weighted (di)graphs, Laplacians, and the spectral quantities trigger bounds need.

Every convergence rate, inter-event floor, and admissible sampling period in
this package is expressed through three numbers attached to a graph: the
algebraic connectivity ``lambda_2`` and the largest eigenvalue ``lambda_n`` of
the symmetrized Laplacian, and the induced 2-norm of the Laplacian itself.
This module builds graphs from edge lists or files, checks the structural
preconditions (strong connectivity, weight balance), and computes those
numbers. It is also the one place that derives each vertex's neighbours from
the weights (:attr:`WeightedDigraph.neighbors`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NotBalanced, NotConnected

#: Tolerance on |d_out - d_in| for the weight-balance test, relative to the
#: largest vertex degree.
BALANCE_TOL = 1e-12

#: lambda_2 at or below this times the largest vertex degree means the zero
#: eigenvalue is not simple.
CONNECTIVITY_TOL = 1e-10


def _vertex_count(n) -> int:
    """n as an int, if it is a positive integer."""
    try:
        count = operator.index(n)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"vertex count n must be a positive integer, got {n!r}")
    return count


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
    across threads; the neighbour table and :func:`spectral_info` are computed
    once per instance and kept on it. Equality and hashing are by identity,
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
        ``(j, i)`` duplicates ``(i, j)``).
        """
        n = _vertex_count(n)
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
        return cls(n=n, weights=w, directed=directed)

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
    def _spectral(self) -> SpectralInfo:
        # Nothing is kept when a check raises, so a failing graph raises again.
        if not is_weight_balanced(self):
            raise NotBalanced("graph is not weight-balanced; out- and in-degrees differ")
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


def _reaches_all(adjacency) -> bool:
    """True iff vertex 0 reaches every vertex along the ``adjacency`` lists."""
    seen, queue = {0}, [0]
    for u in queue:
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adjacency)


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff every vertex reaches every other along positive-weight edges."""
    return _reaches_all(g.neighbors.out) and _reaches_all(g.neighbors.into)


def spectral_info(g: WeightedDigraph) -> SpectralInfo:
    """Eigen-summary of the symmetrized Laplacian.

    Computed once per graph instance and kept on it; a graph that fails a
    check raises again on every call.

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
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
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
    and inline ``[graph]`` sections. An edge error quotes its entry."""
    try:
        count = int(n)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"{count_field}: vertex count must be a positive integer, got {n!r}")
    edges = []
    for entry in entries:
        parts = entry.split()
        if len(parts) != 3:
            raise ValueError(f"edge entry must be 'i j w', got {entry!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"edge entry {entry!r}: expected integer ids i, j and a number w")
    return WeightedDigraph.from_edges(count, edges, directed=directed)


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
