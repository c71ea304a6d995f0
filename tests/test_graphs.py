import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramify.graphs import (
    Graph,
    delete_vertex,
    is_connected,
    to_dot,
)
from ramify.perm import GeneratedGroup, parse_cycles

from oracles import diameter_endpoint, o_quotient_by_partition


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


@st.composite
def graphs_st(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))) if pool else []
    return Graph(range(n), edges)


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a random sprinkle of extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.25:
            edges.add((a, b))
    return Graph(range(n), edges)


# -- basics -------------------------------------------------------------

def test_is_connected_path():
    assert is_connected(path(3)) == (True, False)


def test_is_connected_two_isolated():
    assert is_connected(Graph([0, 1])) == (False, False)


def test_is_connected_empty_graph_vacuous():
    verdict = is_connected(Graph([]))
    assert verdict.connected and verdict.vacuous


def test_is_connected_single_vertex():
    assert is_connected(Graph(["a"])) == (True, False)


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        Graph([0, 0])


def test_multi_edges_collapse():
    g = Graph([0, 1], [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_delete_vertex():
    assert delete_vertex(complete(3), 0).edges == ((1, 2),)
    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert delete_vertex(star, 0).edges == ()
    assert delete_vertex(path(4), 0) == Graph([1, 2, 3], [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        delete_vertex(path(3), 99)


def test_diameter_endpoint_path():
    assert diameter_endpoint(path(4)) in (0, 3)
    assert diameter_endpoint(path(4)) == 0  # least-label tie-break


def test_diameter_endpoint_complete_graph_tie_break():
    assert diameter_endpoint(complete(4)) == 0


def test_diameter_endpoint_star_is_leaf():
    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert diameter_endpoint(star) == 1


def test_diameter_endpoint_errors():
    with pytest.raises(ValueError):
        diameter_endpoint(Graph([0]))
    with pytest.raises(ValueError):
        diameter_endpoint(Graph([0, 1]))


# -- quotients ----------------------------------------------------------

def test_quotient_singletons_is_identity():
    g = path(4)
    assert o_quotient_by_partition(g, [[0], [1], [2], [3]]) == g


def test_quotient_six_cycle_opposite_pairs():
    c6 = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    q = o_quotient_by_partition(c6, [[0, 3], [1, 4], [2, 5]])
    assert q == Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])


def test_quotient_with_names():
    g = Graph([0, 1, 2], [(0, 1), (1, 2)])
    q = o_quotient_by_partition(g, [[0, 1], [2]], names=["left", "right"])
    assert q == Graph(["left", "right"], [("left", "right")])


def test_quotient_invalid_partition():
    g = path(3)
    with pytest.raises(ValueError):
        o_quotient_by_partition(g, [[0, 1]])
    with pytest.raises(ValueError):
        o_quotient_by_partition(g, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        o_quotient_by_partition(g, [[0, 1], [2], []])


@settings(max_examples=60, deadline=None)
@given(graphs_st(), st.data())
def test_quotient_of_connected_is_connected(g, data):
    if not is_connected(g).connected:
        g = Graph(g.labels, list(g.edges)
                  + [(g.labels[i], g.labels[i + 1]) for i in range(g.n - 1)])
    k = data.draw(st.integers(min_value=1, max_value=g.n))
    assignment = data.draw(st.lists(
        st.integers(min_value=0, max_value=k - 1),
        min_size=g.n, max_size=g.n))
    parts: dict = {}
    for v, slot in zip(g.labels, assignment):
        parts.setdefault(slot, []).append(v)
    q = o_quotient_by_partition(g, list(parts.values()))
    assert is_connected(q).connected


# -- DOT ------------------------------------------------------------------

def test_to_dot_single_vertex():
    assert to_dot(Graph(["v"])) == 'graph G {\n  "v";\n}\n'


def test_to_dot_triangle_sorted():
    assert to_dot(complete(3)) == (
        'graph G {\n'
        '  "0";\n'
        '  "1";\n'
        '  "2";\n'
        '  "0" -- "1";\n'
        '  "0" -- "2";\n'
        '  "1" -- "2";\n'
        '}\n'
    )


def test_to_dot_deterministic():
    g1 = Graph([2, 0, 1], [(2, 0), (1, 0)])
    g2 = Graph([0, 1, 2], [(0, 1), (0, 2)])
    assert to_dot(g1) == to_dot(g2)


# -- the deletion lemma ---------------------------------------------------

def brute_force_check_deletion(g: Graph) -> bool:
    v = diameter_endpoint(g)
    return is_connected(delete_vertex(g, v)).connected


def test_deletion_lemma_exhaustive_small():
    for n in range(2, 6):
        for mask_edges in itertools.chain.from_iterable(
                itertools.combinations(list(itertools.combinations(range(n), 2)), k)
                for k in range(n * (n - 1) // 2 + 1)):
            g = Graph(range(n), mask_edges)
            if is_connected(g).connected:
                assert brute_force_check_deletion(g), g.edges


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=11), st.integers())
def test_deletion_lemma_random(n, seed):
    g = random_connected_graph(random.Random(seed), n)
    assert brute_force_check_deletion(g)


def cayley_graph(group: GeneratedGroup, connection: list) -> Graph:
    """Undirected Cayley graph on the group elements for an inverse-closed
    connection set."""
    elems = group.elements()
    label = {p: str(p) for p in elems}
    edges = set()
    for p in elems:
        for s in connection:
            q = s * p
            a, b = label[p], label[q]
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return Graph(label.values(), edges)


def test_vertex_transitive_deletion_corollary():
    # on vertex-transitive connected graphs, if deleting one vertex keeps the
    # graph connected then deleting any vertex does
    cases = [
        GeneratedGroup(5, [parse_cycles("(1 2 3 4 5)", 5)]),
        GeneratedGroup(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)]),
        GeneratedGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]),
        GeneratedGroup(4, [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]),
    ]
    for group in cases:
        conn = [g for g in group.generators] + [g.inverse() for g in group.generators]
        g = cayley_graph(group, conn)
        if not is_connected(g).connected or g.n < 2:
            continue
        verdicts = {is_connected(delete_vertex(g, v)).connected for v in g.labels}
        assert len(verdicts) == 1
