import json
import random
from dataclasses import astuple

import pytest

from chromhom.graph import (
    Graph,
    GraphFormatError,
    complete,
    components,
    contract_edge,
    cycle,
    delete_edge,
    parse_graph_json,
    parse_graph_text,
    path,
    polygon_with_diagonals,
    shortest_cycle_parity,
    simplify,
    wedge,
)

P3 = cycle(3)


def test_graph_validates_endpoints():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_components_counts():
    assert components(P3, 0b000).component_count == 3
    part = components(P3, 0b001)
    assert part.component_count == 2
    # vertex 2 is alone, so it gets its own id
    assert part.component_id == (0, 0, 1)
    assert components(P3, 0b111).component_count == 1


def test_components_canonical_numbering():
    g = Graph(4, ((2, 3), (0, 1)))
    part = components(g, 0b01)  # only edge (2,3)
    assert part.component_id == (0, 1, 2, 2)


def test_components_mask_width():
    with pytest.raises(ValueError):
        components(P3, 1 << 3)


def test_delete_edge():
    assert delete_edge(P3, 0).edges == ((1, 2), (2, 0))
    loopy = Graph(2, ((0, 0), (0, 1)))
    assert delete_edge(loopy, 0).edges == ((0, 1),)
    k4 = complete(4)
    assert delete_edge(k4, 2).edge_count == 5
    with pytest.raises(IndexError):
        delete_edge(P3, 3)


def test_contract_edge():
    # triangle contraction gives the double edge P_2
    g = contract_edge(P3, 0)
    normalized = sorted((min(u, w), max(u, w)) for u, w in g.edges)
    assert g.vertex_count == 2 and normalized == [(0, 1), (0, 1)]
    # contracting the double edge gives the loop P_1
    g2 = contract_edge(g, 0)
    assert g2.vertex_count == 1 and g2.edges == ((0, 0),)
    # path contraction
    p = path(3)
    assert contract_edge(p, 0).edges == ((0, 1),)
    with pytest.raises(ValueError):
        contract_edge(g2, 0)  # loop


def test_contract_counts():
    rng = random.Random(5)
    for _ in range(40):
        v = rng.randint(2, 7)
        edges = tuple(
            (rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 9))
        )
        g = Graph(v, edges)
        nonloops = [k for k, (u, w) in enumerate(g.edges) if u != w]
        if not nonloops:
            continue
        e = rng.choice(nonloops)
        c = contract_edge(g, e)
        assert c.vertex_count == g.vertex_count - 1
        assert c.edge_count == g.edge_count - 1


def test_simplify():
    p2 = cycle(2)
    assert simplify(p2).edges == ((0, 1),)
    assert simplify(P3).edges == P3.edges
    w = wedge(P3, P3)
    assert simplify(w).edges == w.edges
    assert simplify(simplify(w)) == simplify(w)
    # loops survive
    g = Graph(2, ((0, 0), (0, 1), (1, 0)))
    assert simplify(g).edges == ((0, 0), (0, 1))


def test_simplify_preserves_components():
    g = Graph(5, ((0, 1), (1, 0), (2, 3)))
    full = (1 << g.edge_count) - 1
    s = simplify(g)
    sfull = (1 << s.edge_count) - 1
    assert components(g, full).component_count == components(s, sfull).component_count


def test_shortest_cycle_parity():
    # (has_loop, has_triangle, has_square, has_odd_cycle, has_even_cycle)
    assert astuple(shortest_cycle_parity(cycle(5))) == (False, False, False, True, False)
    assert astuple(shortest_cycle_parity(complete(4))) == (False, True, True, True, True)
    forest = Graph(4, ((0, 1), (1, 2)))
    assert not any(astuple(shortest_cycle_parity(forest)))
    assert astuple(shortest_cycle_parity(cycle(1))) == (True, False, False, False, False)
    # a double edge is not a cycle of length >= 3
    assert not any(astuple(shortest_cycle_parity(cycle(2))))
    assert astuple(shortest_cycle_parity(cycle(4))) == (False, False, True, False, True)


def test_shortest_cycle_parity_matches_networkx_cycles():
    nx = pytest.importorskip("networkx")
    graphs = [
        Graph(G.number_of_nodes(), tuple(G.edges())) for G in nx.graph_atlas_g()
    ]
    rng = random.Random(20)
    for _ in range(300):
        v = rng.randint(1, 8)
        k = rng.randint(0, 12)
        graphs.append(Graph(v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(k))))
    for g in graphs:
        simple = nx.Graph()
        simple.add_nodes_from(range(g.vertex_count))
        simple.add_edges_from((u, w) for u, w in g.edges if u != w)
        lengths = [len(c) for c in nx.simple_cycles(simple)]
        expected = (
            g.has_loop(),
            3 in lengths,
            4 in lengths,
            any(n % 2 for n in lengths),
            any(n % 2 == 0 for n in lengths),
        )
        info = shortest_cycle_parity(g)
        assert (
            info.has_loop, info.has_triangle, info.has_square,
            info.has_odd_cycle, info.has_even_cycle,
        ) == expected, g


def test_generators():
    assert cycle(3) == P3
    k4 = complete(4)
    assert (k4.vertex_count, k4.edge_count) == (4, 6)
    w = wedge(P3, P3)
    assert (w.vertex_count, w.edge_count) == (5, 6)
    v5 = polygon_with_diagonals(5, [(0, 2), (0, 3)])
    assert v5.edge_count == 7
    with pytest.raises(ValueError):
        cycle(0)


def test_wedge_at_chosen_vertices():
    w = wedge(path(3), P3, v1=2, v2=1)
    assert (w.vertex_count, w.edge_count) == (5, 5)
    # the glued vertex carries degrees from both parts
    assert w.degree(2) == 1 + 2
    from chromhom.graph import components as comps

    assert comps(w, (1 << w.edge_count) - 1).component_count == 1
    with pytest.raises(ValueError):
        wedge(P3, P3, v1=3)


def test_components_merge_property():
    rng = random.Random(11)
    for _ in range(50):
        v = rng.randint(2, 7)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(1, 10)))
        )
        mask = rng.randrange(1 << g.edge_count)
        absent = [e for e in range(g.edge_count) if not mask >> e & 1]
        if not absent:
            continue
        e = rng.choice(absent)
        before = components(g, mask)
        after = components(g, mask | (1 << e))
        u, w = g.edges[e]
        same = before.component_id[u] == before.component_id[w]
        assert after.component_count == before.component_count - (0 if same else 1)


def test_delete_contract_commute_on_disjoint_indices():
    rng = random.Random(21)
    for _ in range(40):
        v = rng.randint(3, 7)
        g = Graph(
            v, tuple((rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(2, 9)))
        )
        nonloops = [k for k, (u, w) in enumerate(g.edges) if u != w]
        pairs = [(d, c) for d in range(g.edge_count) for c in nonloops if d < c]
        if not pairs:
            continue
        d, c = rng.choice(pairs)
        # deleting d first shifts the contraction index down by one
        left = contract_edge(delete_edge(g, d), c - 1)
        right = delete_edge(contract_edge(g, c), d)
        assert left == right


def test_text_format_roundtrip():
    text = P3.to_text()
    assert parse_graph_text(text) == P3
    assert parse_graph_json(P3.to_json_dict()) == P3
    rng = random.Random(19)
    for _ in range(25):
        v = rng.randint(0, 7)
        edges = tuple(
            (rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, 9) if v else 0)
        )
        g = Graph(v, edges)
        assert parse_graph_text(g.to_text()) == g
        assert parse_graph_json(g.to_json_dict()) == g


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": None, "edges": []},
        {"vertices": 2.7, "edges": []},
        {"vertices": 2.0, "edges": []},
        {"vertices": True, "edges": []},
        {"vertices": "3", "edges": []},
        {"vertices": -1, "edges": []},
        {"vertices": 3, "edges": [[0, 1.0]]},
        {"vertices": 3, "edges": [[0, "1"]]},
        {"vertices": 3, "edges": [[False, 1]]},
        {"vertices": 3, "edges": [[0, 1, 2]]},
        {"vertices": 3, "edges": [[0, 3]]},
        {"vertices": 3, "edges": None},
        {"edges": []},
        [3, []],
    ],
)
def test_json_format_errors(data):
    with pytest.raises(GraphFormatError):
        parse_graph_json(json.dumps(data))


def test_text_format_errors():
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("vertices 3\n0 1\n0 x\n")
    assert err.value.line == 3
    with pytest.raises(GraphFormatError):
        parse_graph_text("0 1\n")
