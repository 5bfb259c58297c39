import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onewaysim.channels import NoiseChannel
from onewaysim.fidelity import fidelity_adaptive
from onewaysim.graphstate import Graph, build_graph_state, resource_state
from onewaysim.linalg import PLUS, PureState
from onewaysim.oracle import simulate
from onewaysim.pattern import BooleanExpr, ByproductSpec, MeasurementPattern

from test_fidelity import chain_pattern
from test_pattern import rotation_pattern, rsp_pattern


def assert_matches_engine(resource, pat, chans, tol):
    """Every record both report has the same Z and F; the oracle omits
    only the records it pruned, and the engine gives those Z ~ 0."""
    m = pat.n_measured
    run = simulate(resource, pat, chans)
    rep = fidelity_adaptive(
        pat, resource, {q: chans[q] for q in pat.measured}, {q: chans[q] for q in pat.outputs}
    )
    for key, (z, f) in rep.per_outcome.items():
        if key not in run.branches:
            assert z < 1e-12
            continue
        assert abs(z - run.branches[key][0]) < tol
        assert abs(f - run.fidelities[key]) < tol
    assert set(run.branches) <= set(rep.per_outcome)
    return run


class TestSimulate:
    def test_zero_noise_perfect_branches(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        run = simulate(gs, rsp_pattern(0.9))
        for key, fid in run.fidelities.items():
            assert abs(fid - 1.0) < 1e-10
            assert abs(run.branches[key][0] - 0.5) < 1e-10
        assert abs(run.average - 1.0) < 1e-10

    def test_rsp_phase_flip_average(self):
        gamma, t = 1.0, 0.8
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        run = simulate(gs, rsp_pattern(1.3), {0: NoiseChannel.phase_flip(gamma, t)})
        expect = (1 + math.exp(-2 * gamma * t)) / 2
        assert abs(run.average - expect) < 1e-10

    def test_rsp_white_average(self):
        gamma, t = 0.7, 0.5
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        run = simulate(gs, rsp_pattern(0.4), {0: NoiseChannel.white(gamma, t)})
        expect = (1 + math.exp(-4 * gamma * t)) / 2
        assert abs(run.average - expect) < 1e-10

    def test_rotation_zero_noise(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        resource = resource_state(Graph.path(5), {0: PureState(v / np.linalg.norm(v))})
        run = simulate(resource, rotation_pattern(0.3, 1.0, 2.2))
        assert len(run.branches) == 16
        assert abs(sum(p for p, _ in run.branches.values()) - 1.0) < 1e-9
        for fid in run.fidelities.values():
            assert abs(fid - 1.0) < 1e-9

    def test_probabilities_uniform_for_na_zero_noise(self):
        pat = MeasurementPattern(
            n_qubits=3,
            measured=(0, 1),
            thetas=(0.0, 0.4),
            alphas=(math.pi / 2,) * 2,
            adapt=(BooleanExpr.zero(),) * 2,
            byproducts=(ByproductSpec(qubit=2, fx=BooleanExpr.of(1), fz=BooleanExpr.of(0)),),
        )
        run = simulate(resource_state(Graph.path(3)), pat)
        for p, _ in run.branches.values():
            assert abs(p - 0.25) < 1e-10

    def test_pruned_records_absent(self):
        # z measurements of |0> (first depth) and of a state reading 1 with
        # probability 1e-16 (last depth) drop those children with their
        # subtrees; a child of probability 1e-10 is kept.
        def tilted(p1):
            return np.array([math.sqrt(1.0 - p1), math.sqrt(p1)])

        pat = MeasurementPattern(
            n_qubits=5,
            measured=(0, 1, 2, 3),
            thetas=(0.0, 0.4, 0.0, 0.0),
            alphas=(0.0, math.pi / 2, 0.0, 0.0),
            adapt=(BooleanExpr.zero(),) * 4,
            byproducts=(ByproductSpec(qubit=4, fz=BooleanExpr.of(1)),),
        )
        resource = PureState(functools.reduce(np.kron, [tilted(0.0), PLUS, tilted(1e-10), tilted(1e-16), PLUS]))
        run = simulate(resource, pat, {4: NoiseChannel.white(0.5, 0.3)})
        keys = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]
        assert list(run.branches) == list(run.fidelities) == keys
        assert abs(run.branches[(0, 0, 1, 0)][0] - 1e-10 * run.branches[(0, 0, 0, 0)][0]) < 1e-20
        assert abs(sum(p for p, _ in run.branches.values()) - 1.0) < 1e-12

    def test_branch_states_read_only(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        run = simulate(gs, rsp_pattern(0.9), {1: NoiseChannel.white(0.3, 0.5)})
        for p, rho in run.branches.values():
            assert rho.shape == (2, 2) and not rho.flags.writeable
            assert abs(np.trace(rho) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            run.branches[(0,)][1][0, 0] = 1.0

    def test_rejects_channel_outside_resource(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        with pytest.raises(ValueError, match="outside the 2-qubit resource"):
            simulate(gs, rsp_pattern(0.9), {2: NoiseChannel.white(0.3, 0.5)})

    def test_dimension_guard(self):
        g = Graph(11, ())
        pat = MeasurementPattern(
            n_qubits=11,
            measured=(0,),
            thetas=(0.0,),
            alphas=(math.pi / 2,),
            adapt=(BooleanExpr.zero(),),
        )
        with pytest.raises(ValueError, match="capped"):
            simulate(resource_state(g), pat)


def chain_with_constants(thetas):
    """``chain_pattern`` with a constant in every adaptation bit and in each
    by-product term: still deterministic (the constant adaptation negates
    every angle), and its by-product on record 0 is not the identity."""
    pat = chain_pattern(thetas)
    bp = pat.byproducts[0]
    return dataclasses.replace(
        pat,
        adapt=tuple(BooleanExpr(1, e.xor) for e in pat.adapt),
        byproducts=(
            ByproductSpec(bp.qubit, fx=BooleanExpr(1, bp.fx.xor), fz=BooleanExpr(1, bp.fz.xor)),
        ),
    )


def rsp_pairs_with_constants(theta0, theta1):
    """Two independent RSP pairs whose outputs carry different constant
    by-products: Z on output 1, X on output 3."""
    return MeasurementPattern(
        n_qubits=4,
        measured=(0, 2),
        thetas=(theta0, theta1),
        alphas=(math.pi / 2,) * 2,
        adapt=(BooleanExpr.zero(),) * 2,
        byproducts=(
            ByproductSpec(qubit=1, fx=BooleanExpr.of(0), fz=BooleanExpr.of(const=1)),
            ByproductSpec(qubit=3, fx=BooleanExpr.of(2, const=1)),
        ),
    )


CONSTANT_BYPRODUCT_CASES = [
    # 2-qubit RSP with a constant Z by-product, where scoring against
    # BP(r) A_0 gave F = 0.585 at zero noise.
    (Graph.path(2), dataclasses.replace(
        rsp_pattern(0.7), byproducts=(ByproductSpec(qubit=1, fx=BooleanExpr.of(0), fz=BooleanExpr.of(const=1)),)
    )),
    (Graph.from_edges(4, [(0, 1), (2, 3)]), rsp_pairs_with_constants(0.7, 2.3)),
    (Graph.path(6), chain_with_constants((0.4, 1.1, 2.9, 0.3, 5.2))),
]


class TestConstantByproducts:
    @pytest.mark.parametrize("graph, pat", CONSTANT_BYPRODUCT_CASES, ids=["rsp", "rsp_pairs", "chain"])
    def test_zero_noise_gives_unit_fidelity(self, graph, pat):
        run = simulate(resource_state(graph), pat)
        assert len(run.fidelities) == 2**pat.n_measured
        for fid in run.fidelities.values():
            assert abs(fid - 1.0) < 1e-10

    @pytest.mark.parametrize("graph, pat", CONSTANT_BYPRODUCT_CASES, ids=["rsp", "rsp_pairs", "chain"])
    def test_noisy_run_matches_engine(self, graph, pat):
        rng = np.random.default_rng(graph.n)
        assert_matches_engine(resource_state(graph), pat, shifted_channels(rng, graph.n), 1e-10)


def shifted_channels(rng, n):
    """Random CP channels (C >= B/2) with a shifted fixed point (S != 1/2)."""
    out = {}
    for q in range(n):
        b = rng.uniform(0.2, 1.5)
        out[q] = NoiseChannel(B=b, C=b / 2 + rng.uniform(0.3, 1.5), S=rng.uniform(0.65, 0.95), t=rng.uniform(0.1, 0.8))
    return out


class TestAgainstEngine:
    @pytest.mark.parametrize("n_qubits", [8, 10])
    def test_adaptive_chain_shifted_noise(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        m = n_qubits - 1
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        resource = resource_state(Graph.path(n_qubits), {0: PureState(v / np.linalg.norm(v))})
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=m)))
        run = assert_matches_engine(resource, pat, shifted_channels(rng, n_qubits), 1e-10)
        assert len(run.branches) == 2**m

    @settings(max_examples=30)
    @given(
        thetas=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=5),
        noise=st.lists(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0)),
            min_size=6,
            max_size=6,
        ),
        zero_noise=st.sets(st.integers(0, 5)),
    )
    def test_random_chains_and_channels(self, thetas, noise, zero_noise):
        m = len(thetas)
        chans = {
            q: NoiseChannel(B=b, C=b / 2 + c, S=s, t=0.0 if q in zero_noise else t)
            for q, (b, c, s, t) in enumerate(noise[: m + 1])
        }
        resource = resource_state(Graph.path(m + 1))
        run = assert_matches_engine(resource, chain_pattern(tuple(thetas)), chans, 1e-9)
        assert abs(sum(p for p, _ in run.branches.values()) - 1.0) < 1e-10
        for f in run.fidelities.values():
            assert -1e-12 <= f <= 1.0 + 1e-12
