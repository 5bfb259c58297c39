import re

import numpy as np
import pytest

from onewaysim.graphstate import Graph, GraphState, _stabilizer_defect, build_graph_state, resource_state
from onewaysim.linalg import ATOL, H, PureState, X, Z, apply_single_qubit_unitary


def cnot15_graph():
    # Two seven-qubit wires bridged through a middle vertex (0-indexed:
    # control wire 0..6, target wire 8..14, bridge 7 between 3 and 11).
    chain1 = [(i, i + 1) for i in range(6)]
    chain2 = [(i, i + 1) for i in range(8, 14)]
    return Graph.from_edges(15, chain1 + chain2 + [(3, 7), (7, 11)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_canonical_edges(self):
        g = Graph.from_edges(3, [(2, 1), (1, 0), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.neighbors(1) == (0, 2)


class TestBuildGraphState:
    def test_single_vertex_is_plus(self):
        gs = build_graph_state(Graph(1, ()))
        assert np.allclose(gs.state.amplitudes, [1, 1] / np.sqrt(2))

    def test_two_vertex(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        assert np.allclose(gs.state.amplitudes, np.array([1, 1, 1, -1]) / 2.0)

    def test_three_chain_stabilizers(self):
        gs = build_graph_state(Graph.path(3))
        amp = gs.state.amplitudes
        for v in range(3):
            out = apply_single_qubit_unitary(amp, X, v, 3)
            for j in gs.graph.neighbors(v):
                out = apply_single_qubit_unitary(
                    out, np.diag([1.0, -1.0]).astype(complex), j, 3
                )
            assert np.max(np.abs(out - amp)) < 1e-10

    def test_edge_order_independent(self):
        edges = [(0, 1), (1, 2), (0, 3), (2, 3)]
        a = build_graph_state(Graph.from_edges(4, edges)).state.amplitudes
        b = build_graph_state(Graph.from_edges(4, list(reversed(edges)))).state.amplitudes
        assert np.max(np.abs(a - b)) < 1e-12

    def test_invalid_state_rejected(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            GraphState(g, PureState.plus(2))


class TestApplyLocal:
    def test_x_on_first(self):
        out = apply_single_qubit_unitary(PureState.computational([0, 0]).amplitudes, X, 0, 2)
        assert np.allclose(out, [0, 0, 1, 0])

    def test_h_squares_to_identity(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        out = apply_single_qubit_unitary(apply_single_qubit_unitary(v, H, 1, 3), H, 1, 3)
        assert np.max(np.abs(out - v)) < 1e-12

    def test_z_on_g2(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        out = apply_single_qubit_unitary(gs.state.amplitudes, Z, 1, 2)
        assert np.allclose(out, np.array([1, -1, 1, 1]) / 2.0)


class TestNeighborZ:
    """X on a vertex acts on |G> exactly like Z on all its neighbors."""

    def test_g2(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        assert _stabilizer_defect(gs, 0) < ATOL

    def test_isolated_vertex(self):
        gs = build_graph_state(Graph(1, ()))
        assert _stabilizer_defect(gs, 0) < ATOL

    def test_cnot15_cluster_all_vertices(self):
        gs = build_graph_state(cnot15_graph())
        assert all(_stabilizer_defect(gs, v) < ATOL for v in range(15))


def test_resource_state_embeds_inputs():
    g = Graph.from_edges(2, [(0, 1)])
    psi = resource_state(g, {0: PureState.computational([1])})
    # CZ on |1>|+> gives |1>|->.
    assert np.allclose(psi.amplitudes, [0, 0, 1 / np.sqrt(2), -1 / np.sqrt(2)])


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
