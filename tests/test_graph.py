import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etconsensus import (
    NotBalanced,
    NotConnected,
    SimConfig,
    StateDependent,
    WeightedDigraph,
    is_strongly_connected,
    is_weight_balanced,
    laplacian,
    parse_graph,
    random_balanced_digraph,
    random_connected_undirected,
    simulate_triggered,
    spectral_info,
    validate_graph,
    validate_law,
)
from etconsensus.config import load_config
from etconsensus.graph import (BALANCE_TOL, CONNECTIVITY_TOL, _certified_connected,
                               _edge_matrix_one_by_one, _rounding_margin, graph_from_fields)
from test_golden import load_golden


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


def outcome(build):
    """The weights build() gives, or the message of the ValueError it raises."""
    try:
        return build().weights.tolist()
    except ValueError as exc:
        return str(exc)


def entry_by_entry(n, directed, entries):
    """The graph file parser before entries were parsed as arrays: each entry
    split and converted in turn, then each edge checked in turn."""
    edges = []
    for entry in entries:
        parts = entry.split()
        if len(parts) != 3:
            raise ValueError(f"edge entry must be 'i j w', got {entry!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"edge entry {entry!r}: expected integer ids i, j and a number w")
    return WeightedDigraph(n, _edge_matrix_one_by_one(n, edges, directed), directed)


BAD_ENTRIES = ["0 0 1.0", "0 9 1.0", "-1 2 1.0", "1 2 0", "1 2 -0.5", "1 2 inf", "1 2 nan",
               "1 2", "1 2 3 4", "", "1.0 2 3", "a 2 3", "1 2 x", "1 ; 2", "1 2 ;", "; 1 2 3",
               "1_0 2 3", "٣ 2 1.5", "1 2 1_5", "+1 2 1e0", " 1\t2  3 ", "99999999999999999999 1 1"]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), directed=st.booleans(), data=st.data())
def test_entries_parse_as_arrays_as_they_did_one_by_one(n, directed, data):
    """graph_from_fields, which parses and checks the entries as arrays, and
    from_edges build the weights the entry-by-entry parser built, or raise
    its message, naming the same first bad entry or edge."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    good = st.builds(lambda ij, w: f"{ij[0]} {ij[1]} {w!r}", pair, st.floats(1e-3, 1e3))
    entries = data.draw(st.lists(st.one_of(good, good, good, st.sampled_from(BAD_ENTRIES)), max_size=30))
    want = outcome(lambda: entry_by_entry(n, directed, entries))
    assert outcome(lambda: graph_from_fields(str(n), directed, entries, "graph.n")) == want
    if isinstance(want, list):
        edges = [(int(i), int(j), float(w)) for i, j, w in map(str.split, entries)]
        assert outcome(lambda: WeightedDigraph.from_edges(n, edges, directed)) == want


def test_graphs_built_from_edges_hold_one_weight_matrix():
    """from_edges and the graph-file parser keep the matrix they build,
    read-only, without a second copy; the constructor copies every array it
    is given, a read-only one that owns its data included."""
    n = 800
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    text = f"{n} directed\n" + "".join(f"{i} {j} {w}\n" for i, j, w in edges)
    for build in (lambda: WeightedDigraph.from_edges(n, edges), lambda: parse_graph(text)):
        build()
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = 8 * n * n
        assert g.weights.flags.owndata and not g.weights.flags.writeable
        assert peak < 1.5 * matrix, (peak, matrix)
        assert not np.shares_memory(WeightedDigraph(n, g.weights).weights, g.weights)
    frozen = np.zeros((2, 2))
    frozen.setflags(write=False)
    for mine in (np.zeros((2, 2)), frozen):
        assert not np.shares_memory(WeightedDigraph(2, mine).weights, mine)


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


# -- connectivity certified without an eigendecomposition ----------------------

def weights_of(draw, rng, n):
    """A balanced digraph's or a connected undirected graph's weights (one
    vertex and no edge for n = 1)."""
    if n == 1:
        return np.zeros((1, 1))
    if draw(st.booleans()):
        return random_balanced_digraph(n, rng, extra_cycles=draw(st.integers(0, 3))).weights
    return random_connected_undirected(n, rng, edge_prob=draw(st.floats(0.0, 1.0)),
                                       w_lo=0.5, w_hi=2.0).weights


@st.composite
def certificate_graphs(draw):
    """Balanced digraphs and undirected graphs, n = 2..12; at random two of
    them joined by a bridge of weight 1e-12 to 1e-3 each way, every weight
    scaled by 1e-6 to 1e6, and one edge made heavier by up to half the
    balance tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = weights_of(draw, rng, draw(st.integers(2, 12)))
    if draw(st.booleans()):
        right = weights_of(draw, rng, draw(st.integers(1, 6)))
        left, n = len(w), len(w) + len(right)
        w = np.block([[w, np.zeros((left, len(right)))], [np.zeros((len(right), left)), right]])
        i, j = int(rng.integers(0, left)), int(rng.integers(left, n))
        w[i, j] = w[j, i] = 10.0 ** draw(st.floats(-12.0, -3.0))
    w = w * 10.0 ** draw(st.floats(-6.0, 6.0))
    directed = not np.array_equal(w, w.T) or draw(st.booleans())
    if directed and draw(st.booleans()):
        i, j = np.argwhere(w > 0.0)[int(rng.integers(0, np.count_nonzero(w)))]
        w[i, j] += draw(st.floats(0.0, 0.5)) * BALANCE_TOL * w.sum(axis=1).max()
    return w, directed


def verdict(check, g):
    try:
        check(g)
    except (NotBalanced, NotConnected) as exc:
        return type(exc), str(exc)
    return None


def support_eccentricity(w):
    """Largest hop distance from vertex 0 over the edges of either direction,
    by dense boolean steps (None if some vertex is never reached)."""
    step = (w > 0.0) | (w.T > 0.0)
    reached, hops = np.eye(len(w), dtype=bool)[0], 0
    while not reached.all():
        grown = reached | step[reached].any(axis=0)
        if (grown == reached).all():
            return None
        reached, hops = grown, hops + 1
    return hops


@settings(max_examples=400, deadline=None)
@given(certificate_graphs())
def test_certificate_never_accepts_what_the_eigenvalue_test_rejects(drawn):
    """validate_graph gives spectral_info's verdict and message on two copies
    of each graph; where the certificate holds, the eigenvalue test passes
    and lambda_2 meets the bound w_min / (n depth) less half the imbalance,
    with the depth from an independent dense search."""
    w, directed = drawn
    n = len(w)
    assert verdict(validate_graph, WeightedDigraph(n, w, directed)) == verdict(
        spectral_info, WeightedDigraph(n, w, directed))
    g = WeightedDigraph(n, w, directed)
    if is_weight_balanced(g) and _certified_connected(g):
        lam2 = spectral_info(g).lambda2
        d_out, d_in = w.sum(axis=1), w.sum(axis=0)
        assert lam2 > CONNECTIVITY_TOL * max(d_out.max(), d_in.max())
        bound = w[w > 0.0].min() / (n * support_eccentricity(w))
        assert lam2 >= bound * (1.0 - 1e-9) - 0.5 * np.abs(d_out - d_in).max()


def path_graph(n, end_weight=1.0):
    """The undirected path 0 - 1 - ... - n-1, unit weights but the last edge."""
    return WeightedDigraph.from_edges(
        n, [(i, i + 1, 1.0) for i in range(n - 2)] + [(n - 2, n - 1, end_weight)], directed=False)


def test_eigvalsh_error_is_within_the_certificate_margin_at_large_n():
    """On Laplacians of known spectrum at n = 1000 (the path, the directed
    cycle, the star and the complete graph), every eigenvalue of the
    symmetrized Laplacian as spectral_info forms it is within
    n eps ||A||_2 of the exact one: well inside the n^2 eps ||A||_2 the
    certificate's rounding margin assumes."""
    n, k = 1000, np.arange(1000)
    known = [
        (path_graph(n), 2.0 - 2.0 * np.cos(k * np.pi / n)),
        (WeightedDigraph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)]),
         1.0 - np.cos(2.0 * np.pi * k / n)),
        (WeightedDigraph.from_edges(n, [(0, i, 1.0) for i in range(1, n)], directed=False),
         np.r_[0.0, np.ones(n - 2), n]),
        (WeightedDigraph(n, 1.0 - np.eye(n), directed=False), np.r_[0.0, np.full(n - 1, float(n))]),
    ]
    for g, exact in known:
        lap = laplacian(g)
        error = np.abs(np.linalg.eigvalsh(0.5 * (lap + lap.T)) - np.sort(exact)).max()
        assert error <= n * np.finfo(float).eps * exact.max(), error  # ||A||_2, A >= 0


def test_certificate_threshold_at_large_n():
    """At n = 1000, a path whose last edge weighs just over or just under
    what the certificate needs is certified or left to the eigenvalue test,
    and on both sides validate_graph gives spectral_info's verdict and the
    computed lambda_2 clears the tolerance by the bound's own margin."""
    n = 1000
    scale = 2.0  # the largest degree of every such path
    need = (CONNECTIVITY_TOL + _rounding_margin(n)) * scale * n * (n - 1)  # w_min / (n depth)
    for factor, certified in ((1.0 + 1e-9, True), (1.0 - 1e-9, False)):
        g = path_graph(n, need * factor)
        assert _certified_connected(g) == certified
        validate_graph(g)
        assert spectral_info(g).lambda2 >= need * factor / (n * (n - 1)) > CONNECTIVITY_TOL * scale


def test_shipped_and_ladder_graphs_are_certified(tmp_path):
    """The graph of every shipped run config and of the benchmark ladder's
    configs for seeds 1-3, and copies scaled by 1e-6 and 1e6, need no
    eigendecomposition."""
    graphs = [load_config(config).graph
              for _, command, config in load_golden()._runs(tmp_path) if command == "run"]
    assert len(graphs) == 18
    for g in graphs:
        for c in (1e-6, 1.0, 1e6):
            assert _certified_connected(scaled(g, c))


def test_validate_graph_is_checked_once_per_graph(monkeypatch, cycle3):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    validate_graph(cycle3)
    assert cycle3._validated is True and not calls
    # A bridge of 1e-12 is not certified: the eigenvalue test rejects it
    # on every call, and so does every run on it.
    bridged = WeightedDigraph.from_edges(
        4, [(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1e-12)], directed=False
    )
    assert not _certified_connected(bridged)
    for _ in range(2):
        with pytest.raises(NotConnected, match="not strongly connected"):
            validate_graph(bridged)
    assert len(calls) == 2
    with pytest.raises(NotConnected, match="not strongly connected"):
        simulate_triggered(bridged, StateDependent(), [1.0, -1.0, 0.5, 0.0],
                           SimConfig(dt=0.01, horizon=1.0))
    one_way = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(NotBalanced):
        validate_graph(one_way)
    with pytest.raises(NotConnected):
        validate_graph(WeightedDigraph(1, [[0.0]]))
