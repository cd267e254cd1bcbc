import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from basicsets import ratlin
from basicsets.core import Axis, SliceId, canonicalize
from basicsets.graphs import (EdgeAssignment, EdgeUnsolvable, FastKind, Graph,
                              NotTwoRegular, bipartite_components,
                              coboundary_matrix, fast_is_basic,
                              graph_is_basic,
                              graph_is_basic_rank, parse_graph_text, point_graph,
                              solve_edges)

TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
SINGLE_EDGE = Graph.from_edges(2, [(0, 1)])
K4 = Graph.from_edges(4, list(combinations(range(4), 2)))
FOUR_CYCLE = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_single_edge_is_bipartite():
    (comp,) = bipartite_components(SINGLE_EDGE)
    assert comp.vertices == (0, 1)
    assert comp.bipartite
    assert comp.coloring == {0: 0, 1: 1}


def test_triangle_is_not_bipartite():
    (comp,) = bipartite_components(TRIANGLE)
    assert not comp.bipartite and comp.coloring is None


def test_k4_is_not_bipartite():
    (comp,) = bipartite_components(K4)
    assert not comp.bipartite


def test_parallel_edges_do_not_obstruct_bipartiteness():
    doubled = Graph.from_edges(2, [(0, 1), (0, 1)])
    (comp,) = bipartite_components(doubled)
    assert comp.bipartite


def test_graph_basicness_examples():
    assert graph_is_basic(TRIANGLE)
    assert not graph_is_basic(SINGLE_EDGE)
    # a bipartite component anywhere spoils the whole graph
    mixed = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert not graph_is_basic(mixed)


def test_isolated_vertex_counts_as_bipartite_component():
    assert not graph_is_basic(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    assert graph_is_basic(Graph.from_edges(0, []))


def test_coboundary_support_is_vertex_degree():
    doubled = Graph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
    degrees = [2, 3, 1]
    for v, vec in enumerate(coboundary_matrix(doubled).rows):
        assert sum(1 for x in vec if x) == degrees[v]
        assert all(x == (v in e) for x, e in zip(vec, doubled.edges))


def test_coboundary_matrix_shapes():
    assert coboundary_matrix(SINGLE_EDGE).rows == [[1], [1]]
    tri = coboundary_matrix(TRIANGLE)
    assert all(sum(row) == 2 for row in tri.rows)
    assert all(sum(tri.rows[i][j] for i in range(3)) == 2 for j in range(3))
    path = coboundary_matrix(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert path.rows[1] == [1, 1]


def test_rank_route_examples():
    assert graph_is_basic_rank(TRIANGLE)          # 3x3 incidence, determinant +-2
    assert not graph_is_basic_rank(SINGLE_EDGE)   # rank 1 < 2
    assert not graph_is_basic_rank(FOUR_CYCLE)    # alternating +-1 dependency


def test_routes_agree_exhaustively_up_to_four_vertices():
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert graph_is_basic(g) == graph_is_basic_rank(g)


def test_solve_edges_triangle_all_halves():
    assignment = solve_edges(TRIANGLE, [1, 1, 1])
    assert assignment.values == (Fraction(1, 2),) * 3
    assert assignment.vertex_sums() == [1, 1, 1]


def test_solve_edges_single_edge_reports_part_sums():
    with pytest.raises(EdgeUnsolvable) as err:
        solve_edges(SINGLE_EDGE, [1, 0])
    assert err.value.component.bipartite
    assert abs(err.value.difference) == 1


def test_solve_edges_zero_vector_gives_zero_assignment():
    for g in (TRIANGLE, SINGLE_EDGE, FOUR_CYCLE):
        assert all(x == 0 for x in solve_edges(g, [0] * g.n).values)


def test_solve_edges_random_agreement_with_basicness():
    rng = random.Random(5150)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 10))
                 ] if n > 1 else []
        g = Graph.from_edges(n, edges)
        basic = graph_is_basic(g)
        all_solved = True
        for _ in range(50):
            b = [Fraction(rng.randint(-100, 100), rng.randint(1, 5)) for _ in range(n)]
            try:
                assignment = solve_edges(g, b)
            except EdgeUnsolvable as exc:
                all_solved = False
                assert exc.component.bipartite and exc.difference != 0
            else:
                assert assignment.vertex_sums() == b
        assert all_solved == basic


def _multigraphs(max_n=7, max_edges=12):
    """Random multigraphs, parallel edges and isolated vertices included."""
    return st.integers(2, max_n).flatmap(lambda n: st.builds(
        Graph.from_edges, st.just(n),
        st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
                 max_size=max_edges)))


@given(_multigraphs(), st.data())
def test_solve_edges_matches_dense_solve(g, data):
    b = data.draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                           min_size=g.n, max_size=g.n))
    try:
        want = ratlin.solve(coboundary_matrix(g), b)
    except ratlin.Unsolvable:
        with pytest.raises(EdgeUnsolvable):
            solve_edges(g, b)
        return
    assert solve_edges(g, b) == EdgeAssignment(g, tuple(want))


@given(_multigraphs())
def test_rank_route_matches_dense_rank(g):
    assert graph_is_basic_rank(g) == (ratlin.rank(coboundary_matrix(g)) == g.n)


def test_point_graph_example1_is_k4(named_sets):
    g = point_graph(named_sets["example1"])
    assert isinstance(g, Graph)
    assert g.n == 4 and len(g.edges) == 6
    assert g.edges == K4.edges


def test_point_graph_ex2_not_two_regular(named_sets):
    result = point_graph(named_sets["ex2"])
    assert result == NotTwoRegular(SliceId(Axis.X, 0), 3)


def test_point_graph_shared_two_coordinates():
    result = point_graph(canonicalize([(0, 0, 0), (0, 0, 1)]))
    # the pair shares the x and y slices, but its z slices are singletons
    assert result == NotTwoRegular(SliceId(Axis.Z, 0), 1)


def test_point_graph_parallel_edges_from_doubly_shared_pairs():
    # diagonal rectangle: two pairs sharing two coordinates each
    ps = canonicalize([(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)])
    g = point_graph(ps)
    assert isinstance(g, Graph)
    assert len(g.edges) == 6
    assert g.edges.count((0, 1)) == 2 and g.edges.count((2, 3)) == 2


def test_fast_is_basic_example1(named_sets):
    result = fast_is_basic(named_sets["example1"])
    assert result.kind is FastKind.BASIC
    assert "graph" in result.route


def test_fast_is_basic_planar_rectangle():
    rect = canonicalize([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    result = fast_is_basic(rect)
    assert result.kind is FastKind.NONBASIC
    assert "planar" in result.route and "bipartite" in result.route


def test_fast_is_basic_ex2_inapplicable(named_sets):
    result = fast_is_basic(named_sets["ex2"])
    assert result.kind is FastKind.INAPPLICABLE


def test_fast_is_basic_peel_route():
    ps = canonicalize([(0, 0, 0), (1, 1, 1)])
    result = fast_is_basic(ps)
    assert result.kind is FastKind.BASIC
    assert result.route.startswith("peel")


def test_graph_constructor_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_graph_text_round_trip():
    text = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert parse_graph_text(text) == K4
    assert parse_graph_text("# comment\n2 1\n0 1\n") == SINGLE_EDGE
    with pytest.raises(ValueError):
        parse_graph_text("2 2\n0 1\n")
