import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etconsensus import (
    NotBalanced,
    NotConnected,
    StateDependent,
    WeightedDigraph,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    parse_graph,
    random_balanced_digraph,
    random_connected_undirected,
    spectral_info,
    validate_law,
)


def test_laplacian_p2(p2):
    assert np.array_equal(laplacian(p2), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_directed_cycle(cycle3):
    expected = [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]]
    assert np.array_equal(laplacian(cycle3), expected)


def test_laplacian_edgeless_graph():
    g = WeightedDigraph(3, np.zeros((3, 3)))
    assert np.array_equal(laplacian(g), np.zeros((3, 3)))


def test_weight_balance_verdicts(p2, cycle3):
    assert is_weight_balanced(p2)  # any undirected graph
    assert is_weight_balanced(cycle3)  # in-degree == out-degree == 1 everywhere
    one_way = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
    assert not is_weight_balanced(one_way)


def test_strong_connectivity_verdicts(cycle3):
    assert is_strongly_connected(cycle3)
    assert not is_strongly_connected(WeightedDigraph.from_edges(2, [(0, 1, 1.0)]))
    k4 = WeightedDigraph.from_edges(
        4, [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)], directed=False
    )
    assert is_strongly_connected(k4)


def test_spectral_info_p2(p2):
    info = spectral_info(p2)
    assert info.lambda2 == pytest.approx(2.0, abs=1e-10)
    assert info.lambda_n == pytest.approx(2.0, abs=1e-10)
    assert info.laplacian_norm == pytest.approx(2.0, abs=1e-10)


def test_spectral_info_k3(k3):
    info = spectral_info(k3)
    assert info.lambda2 == pytest.approx(3.0, abs=1e-10)
    assert info.lambda_n == pytest.approx(3.0, abs=1e-10)


def test_spectral_info_directed_cycle(cycle3):
    # Sym(L) is the complete-graph Laplacian with weights 1/2: spectrum {0, 1.5, 1.5}.
    info = spectral_info(cycle3)
    assert info.lambda2 == pytest.approx(1.5, abs=1e-10)
    assert info.lambda_n == pytest.approx(1.5, abs=1e-10)


def test_spectral_info_rejects_disconnected():
    g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], directed=False)
    with pytest.raises(NotConnected):
        spectral_info(g)


def test_spectral_info_rejects_unbalanced():
    g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(NotBalanced):
        spectral_info(g)


def test_undirected_lambda_n_equals_norm(rng):
    for _ in range(20):
        g = random_connected_undirected(int(rng.integers(2, 8)), rng, w_lo=0.5, w_hi=2.0)
        info = spectral_info(g)
        assert info.lambda_n == pytest.approx(info.laplacian_norm, rel=1e-9)
        assert 0.0 < info.lambda2 <= info.lambda_n <= 2.0 * info.laplacian_norm


def test_row_sums_zero(rng):
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_balanced_digraph(n, rng)
        assert np.max(np.abs(laplacian(g).sum(axis=1))) <= 1e-12


def test_balanced_iff_ones_left_kernel(rng):
    for _ in range(20):
        g = random_balanced_digraph(int(rng.integers(2, 8)), rng)
        assert np.max(np.abs(np.ones(g.n) @ laplacian(g))) <= 1e-12


def test_quadratic_form_lower_bound(rng):
    """x^T L x >= lambda2 ||x - mean(x) 1||^2 on connected undirected graphs."""
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_connected_undirected(n, rng, w_lo=0.5, w_hi=2.0)
        lap = laplacian(g)
        lam2 = spectral_info(g).lambda2
        for _ in range(100):
            x = rng.uniform(-5, 5, n)
            dev = x - x.mean()
            assert x @ lap @ x >= lam2 * (dev @ dev) - 1e-9


def test_symmetrized_square_sandwich(rng):
    """lambda2 x^T L x <= x^T Sym(L)^2 x <= lambdaN x^T L x on balanced digraphs."""
    for _ in range(10):
        g = random_balanced_digraph(int(rng.integers(2, 8)), rng)
        lap = laplacian(g)
        sym = 0.5 * (lap + lap.T)
        info = spectral_info(g)
        for _ in range(50):
            x = rng.uniform(-3, 3, g.n)
            quad = x @ lap @ x
            mid = x @ (sym @ sym) @ x
            assert info.lambda2 * quad <= mid + 1e-9
            assert mid <= info.lambda_n * quad + 1e-9


# -- construction and parsing ------------------------------------------------

def test_from_edges_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        WeightedDigraph.from_edges(3, [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ValueError, match="duplicate"):
        WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)], directed=False)


def test_from_edges_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedDigraph.from_edges(3, [(1, 1, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        WeightedDigraph.from_edges(3, [(0, 1, 0.0)])
    with pytest.raises(ValueError, match="out of range"):
        WeightedDigraph.from_edges(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError, match=r"edge \(0\.7, 1\): vertex ids must be integers"):
        WeightedDigraph.from_edges(3, [(0.7, 1, 1.0)])
    with pytest.raises(ValueError, match=r"edge \(0, 2\.0\): vertex ids must be integers"):
        WeightedDigraph.from_edges(3, [(0, 2.0, 1.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"edge \(0, 1\): weight must be positive and finite"):
            WeightedDigraph.from_edges(3, [(0, 1, bad)])


@pytest.mark.parametrize("n", [-3, 0, 2.5, 2.0, "3", None])
def test_vertex_count_must_be_a_positive_integer(n):
    """Checked before the weights are allocated, so the message names the
    count, not a numpy shape."""
    message = r"vertex count n must be a positive integer, got "
    with pytest.raises(ValueError, match=message + re.escape(repr(n))):
        WeightedDigraph.from_edges(n, [])
    with pytest.raises(ValueError, match=message):
        WeightedDigraph(n, np.zeros((2, 2)))


def test_graphs_compare_and_hash_by_identity():
    """Two graphs built alike are distinct objects, as their cached neighbour
    tables and spectra are: == and hash() neither raise nor compare weights."""
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    g, same = WeightedDigraph(2, w), WeightedDigraph(2, w.copy())
    assert g == g and not g != g
    assert g != same and not g == same
    assert hash(g) == hash(g)
    assert len({g, same, g}) == 2 and {g: "g"}[g] == "g"


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightedDigraph(2, [[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        WeightedDigraph(2, [[1.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        WeightedDigraph(2, [[0.0, 1.0], [0.5, 0.0]], directed=False)


def test_parse_graph_roundtrip():
    g = parse_graph("3 undirected\n0 1 1.0\n1 2 2.5\n")
    assert not g.directed
    assert g.weights[1, 0] == 1.0 and g.weights[2, 1] == 2.5


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty"),
        ("3 sideways\n", "header"),
        ("3 undirected\n0 1\n", "i j w"),
        ("3 undirected\n1 1 0.5\n", "self-loop"),
        ("3 undirected\n0 1 -2\n", "positive"),
        ("3 undirected\n0 5 1.0\n", "out of range"),
        ("2 undirected\n0 1 1.0\n1 0 1.0\n", "duplicate"),
        ("-3 directed\n", "graph header: vertex count must be a positive integer, got '-3'"),
        ("0 directed\n", "graph header: vertex count"),
        ("two directed\n", "graph header: vertex count"),
        ("3 undirected\n0 1.5 1.0\n", "edge entry '0 1.5 1.0'"),
        ("3 undirected\n0 1 w\n", "edge entry '0 1 w'"),
        ("3 undirected\n0 1 nan\n", r"edge \(0, 1\): weight must be positive and finite"),
    ],
)
def test_parse_graph_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_graph(text)


def test_generators_produce_valid_ensembles(rng):
    for _ in range(10):
        g = random_connected_undirected(int(rng.integers(2, 8)), rng)
        assert not g.directed and is_strongly_connected(g)
        d = random_balanced_digraph(int(rng.integers(2, 8)), rng)
        assert d.directed and is_weight_balanced(d) and is_strongly_connected(d)


def scaled(g, c):
    return WeightedDigraph(g.n, c * g.weights, directed=g.directed)


def test_heavy_balanced_digraphs_pass_the_balance_test():
    # Degrees near 1e5 carry summation error far above an absolute 1e-12.
    for seed in range(20):
        g = random_balanced_digraph(
            30, np.random.default_rng(seed), extra_cycles=6, w_lo=1e3, w_hi=1e5
        )
        assert is_weight_balanced(g)
        assert spectral_info(g).lambda2 > 0.0


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_balance_and_connectivity_verdicts_are_scale_invariant(c, cycle3):
    assert is_weight_balanced(scaled(cycle3, c))
    assert spectral_info(scaled(cycle3, c)).lambda2 == pytest.approx(1.5 * c, rel=1e-12)
    one_way = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(NotBalanced):
        spectral_info(scaled(one_way, c))
    # Relative imbalance 1e-9: rejected at every scale.
    skewed = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0 + 1e-9)])
    assert not is_weight_balanced(scaled(skewed, c))
    disconnected = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], directed=False)
    with pytest.raises(NotConnected):
        spectral_info(scaled(disconnected, c))
    # Two unit edges joined by a bridge of weight 1e-12: lambda_2 is about
    # 1e-12 of the degree scale, below the connectivity tolerance.
    bridged = WeightedDigraph.from_edges(
        4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1e-12)], directed=False
    )
    with pytest.raises(NotConnected):
        spectral_info(scaled(bridged, c))


def test_spectral_info_is_computed_once_per_graph(monkeypatch, cycle3):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    first = spectral_info(cycle3)
    assert spectral_info(cycle3) is first
    assert len(calls) == 1
    one_way = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
    for _ in range(2):
        with pytest.raises(NotBalanced):
            spectral_info(one_way)
    disconnected = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], directed=False)
    for _ in range(2):
        with pytest.raises(NotConnected):
            spectral_info(disconnected)


# -- the neighbour table against the dense weights ----------------------------

@st.composite
def digraphs(draw):
    """Random (di)graphs with n = 1..8 and any edge set, edgeless and
    disconnected ones included; weights span subnormals to 1e300."""
    n = draw(st.integers(1, 8))
    cells = st.lists(st.floats(0.0, 1e300), min_size=n * n, max_size=n * n)
    w = np.array(draw(cells)).reshape(n, n)
    w[np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)] = 0.0
    np.fill_diagonal(w, 0.0)
    directed = draw(st.booleans())
    if not directed:
        w = np.triu(w) + np.triu(w).T
    return WeightedDigraph(n, w, directed=directed)


def dense_strongly_connected(w):
    """Transitive closure by repeated boolean squaring."""
    reach = np.eye(len(w), dtype=int) | (w > 0.0)
    for _ in range(len(w)):
        reach = ((reach @ reach) > 0).astype(int)
    return bool(reach.all())


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_neighbor_table_matches_the_dense_weights(g):
    w, table = g.weights, g.neighbors
    for i in range(g.n):
        js = np.flatnonzero(w[i] > 0.0)
        assert table.out[i] == tuple(js.tolist())
        assert np.array_equal(np.array(table.out_weights[i], dtype=float).view(np.uint64),
                              w[i, js].view(np.uint64))
        assert table.into[i] == tuple(np.flatnonzero(w[:, i] > 0.0).tolist())
    assert g.max_out_neighbors == int((w > 0.0).sum(axis=1).max())
    assert is_strongly_connected(g) == dense_strongly_connected(w)


def test_neighbor_table_is_built_once_per_graph(monkeypatch, cycle3):
    calls = []
    nonzero = np.nonzero
    monkeypatch.setattr(np, "nonzero", lambda *a, **k: calls.append(1) or nonzero(*a, **k))
    first = cycle3.neighbors
    built = len(calls)
    assert built > 0
    assert cycle3.max_out_neighbors == 1 and is_strongly_connected(cycle3)
    validate_law(StateDependent(sigma_i=0.5), cycle3)
    assert cycle3.neighbors is first
    assert len(calls) == built
