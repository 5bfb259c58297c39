import re
import tracemalloc

import numpy as np
import pytest

from onewaysim.graphstate import Graph, GraphState, build_graph_state, resource_state
from onewaysim.linalg import ATOL, PureState

from test_linalg import computational


def cnot15_graph():
    # Two seven-qubit wires bridged through a middle vertex (0-indexed:
    # control wire 0..6, target wire 8..14, bridge 7 between 3 and 11).
    chain1 = [(i, i + 1) for i in range(6)]
    chain2 = [(i, i + 1) for i in range(8, 14)]
    return Graph.from_edges(15, chain1 + chain2 + [(3, 7), (7, 11)])


def stabilizer_defect(amp, graph, v):
    """Max deviation of X_v prod_{j in N(v)} Z_j |psi> from |psi>: X_v flips
    axis v of the amplitude tensor, and each Z_j negates the half of axis j
    where qubit j reads 1."""
    t = np.flip(amp.reshape((2,) * graph.n), axis=v).copy()
    for j in (b if a == v else a for a, b in graph.edges if v in (a, b)):
        t[(slice(None),) * j + (1,)] *= -1
    return float(np.max(np.abs(t.reshape(-1) - amp)))


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match="graph needs at least one vertex"):
            Graph(0, ())

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (3, ((0, 1.7),), TypeError),
            (3, ((0.0, 1),), TypeError),
            (3.0, ((0, 1),), TypeError),
            (np.int64(3), ((np.int64(2), np.uint8(0)),), ((0, 2),)),
        ],
        ids=["float_vertex", "integral_float", "float_count", "numpy_integers"],
    )
    def test_integer_vertices(self, n, edges, expected):
        if isinstance(expected, tuple):
            g = Graph(n, edges)
            assert g.edges == expected and all(type(v) is int for v in g.edges[0])
            assert type(g.n) is int
        else:
            with pytest.raises(expected, match="cannot be interpreted as an integer"):
                Graph(n, edges)

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), ()], ids=["triple", "single", "empty"])
    def test_rejects_edges_that_are_not_pairs(self, edge):
        # A triple once kept its first two vertices and dropped the third.
        with pytest.raises(ValueError, match=re.escape(f"edge {edge} is not a pair of vertices")):
            Graph(3, (edge,))

    def test_canonical_edges(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))


class TestBuildGraphState:
    def test_single_vertex_is_plus(self):
        gs = build_graph_state(Graph(1, ()))
        assert np.allclose(gs.state.amplitudes, [1, 1] / np.sqrt(2))

    def test_two_vertex(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        assert np.allclose(gs.state.amplitudes, np.array([1, 1, 1, -1]) / 2.0)

    def test_three_chain_stabilizers(self):
        gs = build_graph_state(Graph.path(3))
        for v in range(3):
            assert stabilizer_defect(gs.state.amplitudes, gs.graph, v) < 1e-10

    def test_edge_order_independent(self):
        edges = [(0, 1), (1, 2), (0, 3), (2, 3)]
        a = build_graph_state(Graph.from_edges(4, edges)).state.amplitudes
        b = build_graph_state(Graph.from_edges(4, list(reversed(edges)))).state.amplitudes
        assert np.max(np.abs(a - b)) < 1e-12

    def test_invalid_state_rejected(self):
        # A graph state builds its own state and takes none.
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(TypeError):
            GraphState(g, PureState.plus(2))


class TestNeighborZ:
    """X on a vertex acts on |G> exactly like Z on all its neighbors."""

    def test_g2(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        assert stabilizer_defect(gs.state.amplitudes, gs.graph, 0) < ATOL
        # The reference sees a state that K_0 = X_0 Z_1 moves: |00> -> |10>.
        assert stabilizer_defect(computational([0, 0]).amplitudes, gs.graph, 0) == 1.0

    def test_isolated_vertex(self):
        gs = build_graph_state(Graph(1, ()))
        assert stabilizer_defect(gs.state.amplitudes, gs.graph, 0) < ATOL

    def test_cnot15_cluster_all_vertices(self):
        gs = build_graph_state(cnot15_graph())
        assert all(stabilizer_defect(gs.state.amplitudes, gs.graph, v) < ATOL for v in range(15))


def test_resource_state_embeds_inputs():
    g = Graph.from_edges(2, [(0, 1)])
    psi = resource_state(g, {0: computational([1])})
    # CZ on |1>|+> gives |1>|->.
    assert np.allclose(psi.amplitudes, [0, 0, 1 / np.sqrt(2), -1 / np.sqrt(2)])


@pytest.mark.parametrize("given", [np.array([1.0, 0.0]), [1.0, 0.0], "0"], ids=["ndarray", "list", "str"])
def test_resource_state_rejects_inputs_that_are_not_states(given):
    with pytest.raises(TypeError, match=f"input on vertex 0 is a {type(given).__name__}, not a PureState"):
        resource_state(Graph.path(2), {0: given})


def test_resource_state_rejects_inputs_of_two_qubits():
    with pytest.raises(ValueError, match="input on vertex 1 must be a single qubit"):
        resource_state(Graph.path(3), {1: PureState.plus(2)})


def per_edge_build(n, edges, inputs):
    """The product state by np.kron, then one CZ at a time, each a sign
    flip where both of its bits are set."""
    amp = np.ones(1, dtype=complex)
    for v in range(n):
        amp = np.kron(amp, inputs[v].amplitudes if v in inputs else np.ones(2) / np.sqrt(2))
    idx = np.arange(2**n)
    for i, j in edges:
        amp = np.where((idx >> (n - 1 - i)) & (idx >> (n - 1 - j)) & 1, -amp, amp)
    return amp


def random_inputs(rng, n):
    inputs = {}
    for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        inputs[int(v)] = PureState(w / np.linalg.norm(w))
    return inputs


def test_resource_state_matches_per_edge_build():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for p in pairs if rng.uniform() < 0.5]
        inputs = random_inputs(rng, n)
        built = resource_state(Graph.from_edges(n, edges), inputs).amplitudes
        assert built.tobytes() == per_edge_build(n, edges, inputs).tobytes()
    # Fifteen vertices: the CNOT graph and a denser one with other edges.
    # The second build of each graph reads its cached sign mask.
    dense = [(i, j) for i in range(15) for j in range(i + 1, 15) if (3 * i + j) % 4 == 0]
    for graph in (cnot15_graph(), Graph.from_edges(15, dense)):
        for _ in range(2):
            inputs = random_inputs(rng, 15)
            built = resource_state(graph, inputs).amplitudes
            assert built.tobytes() == per_edge_build(15, graph.edges, inputs).tobytes()
        assert not graph.cz_signs.flags.writeable
        with pytest.raises(ValueError):
            graph.cz_signs[0] = 1.0


@pytest.mark.parametrize("stray", [{7: PureState([0, 1])}, {-1: PureState([0, 1])}, {0: PureState([1, 0]), 3: PureState([0, 1])}])
def test_resource_state_rejects_inputs_off_the_graph(stray):
    bad = sorted(set(stray) - {0, 1, 2})
    with pytest.raises(ValueError, match=re.escape(f"inputs name vertices {bad}")):
        resource_state(Graph.path(3), stray)


def test_resource_state_refuses_past_the_limit_before_it_allocates():
    # At 17 vertices the amplitudes and the graph's signs would take MiBs.
    graph = Graph.path(17)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="state vector with 17 qubits exceeds the 15-qubit limit"):
            resource_state(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert "cz_signs" not in graph.__dict__
