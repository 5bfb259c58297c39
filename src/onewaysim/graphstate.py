"""Graphs and graph states.

A graph state puts |+> on every vertex and applies CZ along every edge.
The CZs are diagonal and commute, so together they negate exactly the
amplitudes whose index has an odd number of edges with both bits set.
Each ``Graph`` caches those signs, read-only, and a resource build is the
product state, grown left to right one vertex at a time, times the signs.

The graph state |G> is, up to a phase, the only state that every vertex
stabilizer K_v = X_v prod_{j in N(v)} Z_j fixes, so a state given for a
graph is checked by one comparison with |G>.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .linalg import ATOL, MAX_PURE_QUBITS, PLUS, PureState, _frozen, _n_qubits


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e} is not a pair of vertices")
            i, j = operator.index(e[0]), operator.index(e[1])
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, tuple((i, j) for i, j in edges))

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

    @functools.cached_property
    def cz_signs(self) -> np.ndarray:
        """The signs that the CZs of all edges put on the amplitude vector
        viewed as 2^(n+1) floats, real and imaginary part of each amplitude
        in turn: -1.0 where an odd number of edges have both of their bits
        set in the amplitude's index, +1.0 elsewhere.  Read-only."""
        # bit[v] broadcasts vertex v's bit of the amplitude index over (2,) * n.
        bit = [np.arange(2, dtype=np.uint8).reshape((2,) + (1,) * (self.n - 1 - v)) for v in range(self.n)]
        parity = np.zeros((2,) * self.n, dtype=np.uint8)
        for i, j in self.edges:
            parity ^= bit[i] & bit[j]
        return _frozen(np.repeat(1.0 - 2.0 * parity.reshape(-1), 2))


def resource_state(graph: Graph, inputs: Mapping[int, PureState] | None = None) -> PureState:
    """CZ-entangled product state: |+> everywhere except the single-qubit
    ``inputs`` embedded on their vertices."""
    _n_qubits(2**graph.n, "state vector", MAX_PURE_QUBITS)  # before any allocation
    inputs = inputs or {}
    stray = sorted(set(inputs) - set(range(graph.n)))
    if stray:
        raise ValueError(f"inputs name vertices {stray}, which are not in 0..{graph.n - 1}")
    amp = np.ones(1, dtype=complex)
    for v in range(graph.n):
        s = inputs.get(v)
        if s is not None and s.n != 1:
            raise ValueError(f"input on vertex {v} must be a single qubit")
        factor = PLUS if s is None else s.amplitudes
        # Vertex v becomes the new low-order bit; each half is one long loop.
        grown = np.empty(2 * amp.size, dtype=complex)
        for bit in (0, 1):
            np.multiply(amp, factor[bit], out=grown[bit::2])
        amp = grown
    # Multiplying by -1.0 flips the sign bit, exactly as negation does.
    floats = amp.view(float)
    np.multiply(floats, graph.cz_signs, out=floats)
    return PureState._adopt(amp)


@dataclass(frozen=True)
class GraphState:
    """A graph together with its graph state.

    Without ``state`` the graph state is built.  A given ``state`` must
    equal e^{i phi} |G>, |G> = ``resource_state(graph)`` and e^{i phi} the
    phase of <G|state>, to ATOL/2 in every amplitude.  Since K_v |G> = |G>,
    each defect K_v state - state then has entries of at most ATOL, so this
    rejects every state that some K_v moves by more than ATOL."""

    graph: Graph
    state: PureState = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.state is None:
            object.__setattr__(self, "state", resource_state(self.graph))
            return
        if self.state.n != self.graph.n:
            raise ValueError("state size does not match the graph")
        g, amp = resource_state(self.graph).amplitudes, self.state.amplitudes
        overlap = np.vdot(g, amp)
        # Else the phase is 0/0, and a NaN deviation passes the bound below.
        if overlap == 0:
            raise ValueError("state is orthogonal to the graph state")
        deviation = float(np.abs(amp - overlap / abs(overlap) * g).max())
        if deviation > ATOL / 2:
            raise ValueError(
                f"state deviates from the graph state by {deviation:.3g} up to a global phase; the limit is {ATOL / 2:g}"
            )


def build_graph_state(graph: Graph) -> GraphState:
    return GraphState(graph)
