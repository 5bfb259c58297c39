"""Graphs and graph states.

A graph state puts |+> on every vertex and applies CZ along every edge.
CZ is a diagonal phase update on the amplitude vector, so 15-qubit states
build in milliseconds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import ATOL, PLUS, PureState, X, Z, apply_single_qubit_unitary


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, tuple((int(i), int(j)) for i, j in edges))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = []
        for i, j in self.edges:
            if i == v:
                out.append(j)
            elif j == v:
                out.append(i)
        return tuple(sorted(out))


def _cz_phases(amp: np.ndarray, n: int, edges) -> np.ndarray:
    """Multiply amp by (-1)^(sum over edges ij of x_i x_j): the edge terms
    are XORed into one parity bit per amplitude, then the signs flip once."""
    # bit[v] broadcasts vertex v's bit of the amplitude index over (2,) * n.
    bit = [np.arange(2, dtype=np.uint8).reshape((2,) + (1,) * (n - 1 - v)) for v in range(n)]
    parity = np.zeros((2,) * n, dtype=np.uint8)
    for i, j in edges:
        parity ^= bit[i] & bit[j]
    np.negative(amp, out=amp, where=parity.reshape(-1).view(bool))
    return amp


def resource_state(graph: Graph, inputs: Mapping[int, PureState] | None = None) -> PureState:
    """CZ-entangled product state: |+> everywhere except the single-qubit
    ``inputs`` embedded on their vertices."""
    inputs = inputs or {}
    factors = []
    for v in range(graph.n):
        if v in inputs:
            s = inputs[v]
            if s.n != 1:
                raise ValueError(f"input on vertex {v} must be a single qubit")
            factors.append(s.amplitudes)
        else:
            factors.append(PLUS)
    # The 0-d start makes a fresh writable array even for one vertex.
    amp = functools.reduce(np.multiply.outer, factors, np.ones((), dtype=complex)).reshape(-1)
    return PureState(_cz_phases(amp, graph.n, graph.edges))


@dataclass(frozen=True)
class GraphState:
    """A graph together with its stabilizer state."""

    graph: Graph
    state: PureState = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.state is None:
            object.__setattr__(self, "state", resource_state(self.graph))
        if self.state.n != self.graph.n:
            raise ValueError("state size does not match the graph")
        for v in range(self.graph.n):
            if _stabilizer_defect(self, v) > ATOL:
                raise ValueError(f"state is not stabilized at vertex {v}")


def _stabilizer_defect(gs: GraphState, v: int) -> float:
    """Max deviation of X_v prod_{j in N(v)} Z_j |G> from |G>."""
    amp = gs.state.amplitudes
    n = gs.graph.n
    out = apply_single_qubit_unitary(amp, X, v, n)
    for j in gs.graph.neighbors(v):
        out = apply_single_qubit_unitary(out, Z, j, n)
    return float(np.max(np.abs(out - amp)))


def build_graph_state(graph: Graph) -> GraphState:
    return GraphState(graph, resource_state(graph))
