import dataclasses
import functools
import gc
import itertools
import math
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from onewaysim import oracle
from onewaysim.channels import NoiseChannel
from onewaysim.fidelity import fidelity_adaptive, fidelity_nonadaptive
from onewaysim.graphstate import Graph, build_graph_state, resource_state
from onewaysim.linalg import PLUS, PureState
from onewaysim.oracle import simulate
from onewaysim.pattern import BooleanExpr, ByproductSpec, MeasurementPattern, basis_raw

from test_channels import kraus
from test_fidelity import assert_same_bytes, random_cp_channel, random_state, report
from test_pattern import byproduct_unitary, chain_pattern, evaluate, outcome_tuple, rotation_pattern, rsp_pattern


def assert_matches_engine(resource, pat, chans, tol):
    """The oracle keeps exactly the records that the engine reaches, and
    both give each of them the same Z and F."""
    run = simulate(resource, pat, chans)
    rep = fidelity_adaptive(
        pat, resource, {q: chans[q] for q in pat.measured}, {q: chans[q] for q in pat.outputs}
    )
    reached = [key for key, (_, f) in rep.per_outcome.items() if f is not None]
    assert list(run.branches) == list(run.fidelities) == reached
    for key in reached:
        z, f = rep.per_outcome[key]
        assert abs(z - run.branches[key][0]) < tol
        assert abs(f - run.fidelities[key]) < tol
    return run


def tilted(p):
    """The real qubit that reads 1 with probability ``p``."""
    return np.array([math.sqrt(1.0 - p), math.sqrt(p)])


def tilted_case(p1):
    """Four measurements of a product state, the first, third and fourth in
    z: of |0>, of a state that reads 1 with probability ``p1``, and of one
    that reads 1 with probability 1e-16; white noise on the output."""
    pat = MeasurementPattern(
        n_qubits=5,
        measured=(0, 1, 2, 3),
        thetas=(0.0, 0.4, 0.0, 0.0),
        alphas=(0.0, math.pi / 2, 0.0, 0.0),
        adapt=(BooleanExpr.zero(),) * 4,
        byproducts=(ByproductSpec(qubit=4, fz=BooleanExpr.of(1)),),
    )
    resource = PureState(functools.reduce(np.kron, [tilted(0.0), PLUS, tilted(p1), tilted(1e-16), PLUS]))
    return pat, resource, {0: None, 1: None, 2: None, 3: None, 4: NoiseChannel.white(0.5, 0.3)}


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

    def test_none_is_no_channel(self):
        # A None entry runs as the key left out, on a measured qubit or an output.
        gs, pat, ch = build_graph_state(Graph.path(2)), rsp_pattern(0.7), NoiseChannel.white(1.0, 0.3)
        for chans in ({0: None, 1: ch}, {0: ch, 1: None}):
            left_out = {q: c for q, c in chans.items() if c is not None}
            assert_same_run(simulate(gs, pat, chans), simulate(gs, pat, left_out))

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
        # Records of probability at most 1e-12 are absent: the first z
        # measurement, of |0>, never reads 1, and the last, of a state that
        # reads 1 with probability 1e-16, nearly never does.  The records
        # through the third reading 1, of probability 5e-11, are kept.
        pat, resource, chans = tilted_case(1e-10)
        run = simulate(resource, pat, chans)
        keys = [(0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 0)]
        assert list(run.branches) == list(run.fidelities) == keys
        assert abs(run.branches[(0, 0, 1, 0)][0] - 1e-10 * run.branches[(0, 0, 0, 0)][0]) < 1e-20
        assert abs(sum(p for p, _ in run.branches.values()) - 1.0) < 1e-12
        pruned = [key for key in itertools.product((0, 1), repeat=4) if key not in keys]
        for view in (run.branches, run.fidelities):
            assert len(view) == 2**4 - len(pruned)
            for key in pruned:
                assert key not in view and view.get(key, "absent") == "absent"
                with pytest.raises(KeyError):
                    view[key]

    @pytest.mark.parametrize("p1", [1e-10, 1e-13])
    def test_records_at_the_threshold_match_engine(self, p1):
        # At p1 = 1e-13 records (0, 0, 1, 0) and (0, 1, 1, 0) have Z = 5e-14,
        # at or below 1e-12: both checkers leave them out.
        pat, resource, chans = tilted_case(p1)
        run = assert_matches_engine(resource, pat, chans, 1e-12)
        assert len(run.branches) == (4 if p1 == 1e-10 else 2)

    def test_lookups_read_their_rows(self):
        # A lookup equals its row as ``items()`` reads it, type for type, on
        # an oracle run with dropped records and on a report with
        # unreachable ones.
        pat, resource, chans = tilted_case(1e-13)
        run = simulate(resource, pat, chans)
        rep = fidelity_adaptive(pat, resource, {}, {4: chans[4]})
        assert len(run.branches) == 2 and sum(f is None for _, f in rep.per_outcome.values()) == 14
        for key, f in run.fidelities.items():
            assert type(run.fidelities[key]) is float and run.fidelities[key] == f
        for key, (p, rho) in run.branches.items():
            got_p, got_rho = run.branches[key]
            assert type(got_p) is float and got_p == p
            assert got_rho.tobytes() == rho.tobytes() and not got_rho.flags.writeable
        for key, row in rep.per_outcome.items():
            got = rep.per_outcome[key]
            assert got == row and list(map(type, got)) == list(map(type, row))

    def test_branch_states_read_only(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        run = simulate(gs, rsp_pattern(0.9), {1: NoiseChannel.white(0.3, 0.5)})
        for p, rho in run.branches.values():
            assert rho.shape == (2, 2) and not rho.flags.writeable
            assert abs(np.trace(rho) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            run.branches[(0,)][1][0, 0] = 1.0

    def test_runs_equal_only_themselves(self):
        # A run holds arrays, so it compares and hashes by identity, as
        # reports and states do; ``assert_same_run`` compares contents.
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        run, again = (simulate(gs, rsp_pattern(0.9), {1: NoiseChannel.white(0.3, 0.5)}) for _ in range(2))
        assert run == run and hash(run) == hash(run)
        assert (run == again) is False and run != again
        assert len({run, run, again}) == 2
        assert_same_run(run, again)

    def test_rejects_channel_outside_resource(self):
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        with pytest.raises(ValueError, match="outside the 2-qubit resource"):
            simulate(gs, rsp_pattern(0.9), {2: NoiseChannel.white(0.3, 0.5)})

    @pytest.mark.parametrize("value", ["x", np.eye(4)], ids=["str", "array"])
    @pytest.mark.parametrize("where", ["measured", "answer"])
    @pytest.mark.parametrize("checker", ["engine", "oracle"])
    def test_rejects_values_that_are_not_channels(self, checker, where, value):
        gs, pat, ch = build_graph_state(Graph.path(2)), rsp_pattern(0.7), NoiseChannel.white(1.0, 0.3)
        q = 0 if where == "measured" else 1
        chans = {0: ch, 1: ch, q: value}
        if checker == "oracle":
            name, call = "channels", lambda: simulate(gs, pat, chans)
        else:
            name, call = f"{where}_channels", lambda: fidelity_adaptive(pat, gs, {0: chans[0]}, {1: chans[1]})
        message = f"{name}[{q}] is a {type(value).__name__}, not a NoiseChannel or None"
        with pytest.raises(TypeError, match=re.escape(message)):
            call()

    @pytest.mark.parametrize("resource", [np.array([1, 1, 1, -1]) / 2, PureState.plus(2).density(), None], ids=["array", "density", "none"])
    @pytest.mark.parametrize("checker", ["engine", "oracle"])
    def test_rejects_resource_that_is_not_a_state(self, checker, resource):
        call = simulate if checker == "oracle" else lambda r, pat: fidelity_adaptive(pat, r)
        with pytest.raises(TypeError, match=f"^expected PureState or GraphState, got {type(resource).__name__}$"):
            call(resource, rsp_pattern(0.9))

    def test_rejects_resource_of_another_size(self):
        with pytest.raises(ValueError, match="pattern expects 2 qubits, state has 3"):
            simulate(resource_state(Graph.path(3)), rsp_pattern(0.9))

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


def unreachable_record_zero():
    """A 3-qubit path with input |1> on vertex 0, whose z measurement never
    reads 0: record 0 is unreachable, and every record is scored against
    the answer of the first reachable record, (1, 0)."""
    pat = MeasurementPattern(
        n_qubits=3,
        measured=(0, 1),
        thetas=(0.0, 0.4),
        alphas=(0.0, math.pi / 2),
        adapt=(BooleanExpr.zero(),) * 2,
        byproducts=(ByproductSpec(qubit=2, fx=BooleanExpr.of(1), fz=BooleanExpr.of(0)),),
    )
    return pat, resource_state(Graph.path(3), {0: PureState(np.array([0.0, 1.0]))})


class TestFirstReachableRecord:
    @pytest.mark.parametrize("gamma", [0.0, 0.3], ids=["noiseless", "white"])
    def test_matches_engine(self, gamma):
        # Scored against the zeroed answer of record 0, every record read
        # F = 0.  Without noise records (0, 0) and (0, 1) never occur; under
        # white noise they do, and both checkers score them against BP(r) T.
        pat, resource = unreachable_record_zero()
        chans = {q: NoiseChannel.white(gamma, 0.2) for q in range(3)}
        run = simulate(resource, pat, chans)
        rep = fidelity_nonadaptive(pat, resource, {q: chans[q] for q in pat.measured}, {2: chans[2]})
        scored = [key for key, (_, f) in rep.per_outcome.items() if f is not None]
        assert scored == ([(1, 0), (1, 1)] if gamma == 0.0 else [(0, 0), (0, 1), (1, 0), (1, 1)])
        for key in scored:
            assert abs(run.fidelities[key] - rep.per_outcome[key][1]) < 1e-12
        assert rep.per_outcome[(1, 0)][1] > (0.999 if gamma == 0.0 else 0.8)

    def test_engine_average_counts_every_likely_record(self):
        # Under white noise records (0, 0) and (0, 1) have Z = 0.053 each,
        # but no noiseless answer of their own; scored against BP(r) T, they
        # count in both averages, 0.799.
        pat, resource = unreachable_record_zero()
        chans = {q: NoiseChannel.white(0.3, 0.2) for q in range(3)}
        run = simulate(resource, pat, chans)
        rep = fidelity_nonadaptive(pat, resource, {q: chans[q] for q in pat.measured}, {2: chans[2]})
        assert abs(rep.average - run.average) < 1e-9


def nondeterministic_chain():
    """A 4-vertex path with input (0.6, 0.8i) on vertex 0, measured at
    thetas (0, 0.7, 1.9) with no adaptation, fx = {0, 2} and fz = {1} plus a
    constant: its noiseless branches are not all BP(r) T, so it is not
    deterministic."""
    pat = MeasurementPattern(
        n_qubits=4,
        measured=(0, 1, 2),
        thetas=(0.0, 0.7, 1.9),
        alphas=(math.pi / 2,) * 3,
        adapt=(BooleanExpr.zero(),) * 3,
        byproducts=(ByproductSpec(qubit=3, fx=BooleanExpr.of(0, 2), fz=BooleanExpr.of(1, const=1)),),
    )
    return pat, resource_state(Graph.path(4), {0: PureState(np.array([0.6, 0.8j]))})


class TestNonDeterministicChain:
    """Engine and oracle score every record against the same BP(r) T; each
    used to score against its own reference, and they differed by up to
    0.869 per record."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5], ids=["noiseless", "white"])
    def test_engine_equals_oracle_per_record(self, gamma):
        pat, resource = nondeterministic_chain()
        chans = {q: NoiseChannel.white(gamma, 0.3) for q in range(4)}
        run = simulate(resource, pat, chans)
        rep = fidelity_nonadaptive(pat, resource, {q: chans[q] for q in pat.measured}, {3: chans[3]})
        assert set(run.fidelities) == set(rep.per_outcome)
        for key, (z, f) in rep.per_outcome.items():
            assert abs(z - run.branches[key][0]) < 1e-12
            assert abs(f - run.fidelities[key]) < 1e-12
        assert abs(rep.average - run.average) < 1e-12

    def test_noiseless_average_shows_the_non_determinism(self):
        # A deterministic pattern averages 1 without noise.
        pat, resource = nondeterministic_chain()
        rep = fidelity_nonadaptive(pat, resource)
        assert abs(rep.average - 0.4918) < 1e-4


def tilted_chain(p):
    """A 4-vertex path with input (sqrt(p), sqrt(1 - p)) on vertex 0, which
    is z-measured, then qubits 1 and 2 at thetas 0.7 and 1.9 with no
    adaptation, fx = {2} and fz = {1} on output 3: not deterministic.  At
    p = 0 no record with outcome 0 first has any noiseless weight."""
    pat = MeasurementPattern(
        n_qubits=4,
        measured=(0, 1, 2),
        thetas=(0.0, 0.7, 1.9),
        alphas=(0.0, math.pi / 2, math.pi / 2),
        adapt=(BooleanExpr.zero(),) * 3,
        byproducts=(ByproductSpec(qubit=3, fx=BooleanExpr.of(2), fz=BooleanExpr.of(1)),),
    )
    return pat, resource_state(Graph.path(4), {0: PureState(tilted(p)[::-1])})


class TestReferenceRule:
    """Both checkers take r0 as the first record whose noiseless probability
    exceeds 1e-12.  The engine once took the first above 1e-20, and the
    oracle the end of a greedy walk that kept outcome 0 while its prefix
    was above 1e-20: at p = 3e-20 the walk ended on record (0, 0, 1), of
    probability 7.5e-21, and the averages read 0.6915 and 0.3085; at
    p = 1e-14 both scored against record (0, 0, 0), of probability 2.5e-15,
    and read 0.3085."""

    @pytest.mark.parametrize("p", [0.0, 3e-20, 1e-14])
    def test_tilt_below_the_rule_scores_as_none(self, p):
        # The tilt moves every amplitude by at most 1e-7.
        chans = {q: NoiseChannel.white(0.3, 0.2) for q in range(4)}
        results = []
        for tilt in (0.0, p):
            pat, resource = tilted_chain(tilt)
            rep = fidelity_nonadaptive(pat, resource, {q: chans[q] for q in pat.measured}, {3: chans[3]})
            results.append((rep, simulate(resource, pat, chans)))
        (rep0, run0), (rep, run) = results
        assert list(run.branches) == list(run0.branches) == list(rep.per_outcome)
        for key, (z, f) in rep.per_outcome.items():
            assert abs(z - run.branches[key][0]) < 1e-12 and abs(f - run.fidelities[key]) < 1e-12
            assert abs(z - rep0.per_outcome[key][0]) < 1e-6 and abs(f - rep0.per_outcome[key][1]) < 1e-6
            assert abs(run.branches[key][0] - run0.branches[key][0]) < 1e-6
            assert abs(run.fidelities[key] - run0.fidelities[key]) < 1e-6
        assert abs(rep.average - 0.6915) < 1e-4 and abs(run.average - 0.6915) < 1e-4


def shifted_channels(rng, n):
    """Random CP channels (C >= B/2) with a shifted fixed point (S != 1/2)."""
    out = {}
    for q in range(n):
        b = rng.uniform(0.2, 1.5)
        out[q] = NoiseChannel(B=b, C=b / 2 + rng.uniform(0.3, 1.5), S=rng.uniform(0.65, 0.95), t=rng.uniform(0.1, 0.8))
    return out


def edge_pattern(thetas, alpha0, adapt, fx, fz):
    """m = len(thetas) measured qubits 0..m-1, the first at latitude
    ``alpha0`` and the rest equatorial, and output m.  Adaptations and
    by-products have the supports of the bit masks ``adapt`` and ``fx``,
    ``fz`` among earlier qubits, so most patterns are not deterministic."""
    m = len(thetas)

    def bits(mask, below):
        return BooleanExpr.of(*(q for q in range(below) if mask >> q & 1))

    return MeasurementPattern(
        n_qubits=m + 1,
        measured=tuple(range(m)),
        thetas=tuple(thetas),
        alphas=(alpha0,) + (math.pi / 2,) * (m - 1),
        adapt=(BooleanExpr.zero(),) + tuple(bits(mask, pos + 1) for pos, mask in enumerate(adapt[: m - 1])),
        byproducts=(ByproductSpec(qubit=m, fx=bits(fx, m), fz=bits(fz, m)),),
    )


def edge_channels(pat, noise, zero_noise):
    """Qubit q's channel from noise[q] = (B, C - B/2, S, t), with t = 0 on
    the qubits in ``zero_noise``."""
    return {
        q: NoiseChannel(B=b, C=b / 2 + c, S=s, t=0.0 if q in zero_noise else t)
        for q, (b, c, s, t) in enumerate(noise[: pat.n_qubits])
    }


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

    @pytest.mark.parametrize("m", range(1, 9))
    @settings(max_examples=10)
    @given(
        thetas=st.lists(st.floats(0.0, 2 * math.pi), min_size=8, max_size=8),
        noise=st.lists(
            st.tuples(st.floats(0.3, 1.5), st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0)),
            min_size=9,
            max_size=9,
        ),
        bloch=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
    )
    def test_random_chains_average_sees_only_c(self, m, thetas, noise, bloch):
        # Per qubit (C, B/C, S, B/C, S) of two settings at t = 0.4: B and S
        # drawn on the measured qubits, S on the output, whose B is C.
        polar, azimuth = bloch
        psi = PureState(np.array([math.cos(polar / 2), math.sin(polar / 2) * np.exp(1j * azimuth)]))
        resource, pat = resource_state(Graph.path(m + 1), {0: psi}), chain_pattern(tuple(thetas[:m]))
        averages = []
        for setting in (1, 3):
            chans = {
                q: NoiseChannel(B=row[setting] * row[0] if q < m else row[0], C=row[0], S=row[setting + 1], t=0.4)
                for q, row in enumerate(noise[: m + 1])
            }
            run = assert_matches_engine(resource, pat, chans, 1e-9)
            averages.append(report(pat, resource, chans).average)
            assert abs(run.average - averages[-1]) < 1e-12
        assert abs(averages[0] - averages[1]) < 1e-13

    @settings(max_examples=40)
    @given(
        u=st.floats(0.0, 24.0),
        thetas=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=3),
        adapt=st.lists(st.integers(0, 7), min_size=3, max_size=3),
        fx=st.integers(0, 15),
        fz=st.integers(0, 15),
        noise=st.lists(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0)),
            min_size=5,
            max_size=5,
        ),
        zero_noise=st.sets(st.integers(0, 4)),
    )
    # Records (0, 0) and (0, 1) of probability 8.9e-21 each, below a prefix of
    # 1.8e-20: the old greedy walk and the old engine rule took different r0.
    @example(u=19.75, thetas=[0.0], adapt=[0, 0, 0], fx=1, fz=0, noise=[(0.0,) * 4] * 5, zero_noise=set())
    def test_random_chains_at_the_reachability_edge(self, u, thetas, adapt, fx, fz, noise, zero_noise):
        # The first of m measured qubits, z-measured, reads 0 with
        # probability 10^-u without noise.
        pat = edge_pattern((0.0, *thetas), 0.0, adapt, fx, fz)
        resource = resource_state(Graph.path(pat.n_qubits), {0: PureState(tilted(10.0**-u)[::-1])})
        assert_matches_engine(resource, pat, edge_channels(pat, noise, zero_noise), 1e-9)

    @settings(max_examples=40)
    @given(
        u=st.floats(0.0, 11.0),
        theta0=st.floats(0.0, 2 * math.pi),
        thetas=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=3),
        adapt=st.lists(st.integers(0, 7), min_size=3, max_size=3),
        fx=st.integers(0, 15),
        fz=st.integers(0, 15),
        noise=st.lists(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.3, 2.0), st.floats(0.0, 1.0), st.floats(0.1, 2.0)),
            min_size=5,
            max_size=5,
        ),
        zero_noise=st.sets(st.integers(1, 4)),
        bloch=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi)),
    )
    # Gap 1.4e-6 with T read off the noiseless Liouville leaf of r0.
    @example(u=11.0, theta0=0.9, thetas=[0.0], adapt=[1, 0, 0], fx=3, fz=1, noise=[(0.4, 0.7, 0.8, 0.3)] * 5, zero_noise=set(), bloch=(1.1, 0.7))
    def test_random_chains_at_the_equatorial_reachability_edge(self, u, theta0, thetas, adapt, fx, fz, noise, zero_noise, bloch):
        # Qubit 0, off the path of the others, reads 0 in its equatorial
        # measurement with probability 10^-u without noise, so r0 can be a
        # record of noiseless probability near 1e-12 whose answer comes out
        # of a cancellation.  Qubit 1 takes a random input, so that the
        # resource's amplitudes round.  Qubit 0 always has a channel: without
        # one, its leaves of probability near 10^-u are themselves that small.
        pat = edge_pattern((theta0, *thetas), math.pi / 2, adapt, fx, fz)
        p, n = 10.0**-u, pat.n_qubits
        psi = math.sqrt(p) * basis_raw(theta0, math.pi / 2, 0, 0) + math.sqrt(1.0 - p) * basis_raw(theta0, math.pi / 2, 0, 1)
        polar, azimuth = bloch
        tilt = PureState(np.array([math.cos(polar / 2), math.sin(polar / 2) * np.exp(1j * azimuth)]))
        resource = resource_state(Graph.from_edges(n, [(q, q + 1) for q in range(1, n - 1)]), {0: PureState(psi), 1: tilt})
        assert_matches_engine(resource, pat, edge_channels(pat, noise, zero_noise), 1e-9)


def kraus_sum_leaves(amp, pat, chans):
    """Every record's unnormalized leaf over the outputs, ascending, from a
    dense evolution: |R><R| on the full 2^n space, each qubit's channel as
    its Kraus sum, then the measured qubits projected onto |M_k^s> in
    temporal order and traced out one by one."""
    n, m = pat.n_qubits, pat.n_measured
    rho = np.outer(amp, amp.conj())
    for q, ch in chans.items():
        ops = [np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (n - 1 - q))) for k in kraus(ch)]
        rho = sum(k @ rho @ k.conj().T for k in ops)
    leaves = []
    for r in range(2**m):
        bits, live, t = {}, list(range(n)), rho.reshape((2,) * (2 * n))
        for pos, (q, k) in enumerate(zip(pat.measured, outcome_tuple(r, m))):
            v = basis_raw(pat.thetas[pos], pat.alphas[pos], evaluate(pat.adapt[pos], bits), k)
            i = live.index(q)
            t = np.tensordot(v.conj(), t, axes=(0, i))
            t = np.tensordot(t, v, axes=(len(live) - 1 + i, 0))
            live.remove(q)
            bits[q] = k
        leaves.append(t.reshape(2 ** len(live), -1))
    return np.array(leaves)


class TestAgainstKrausSum:
    """The oracle against a dense evolution that shares no code with it or
    with the engine, per record, on patterns whose measured qubits do not
    ascend, with a z measurement and two outputs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_record(self, seed):
        rng = np.random.default_rng([seed, 27])
        n, m = 5, 3
        order = [int(q) for q in rng.permutation(n)]
        measured = order[:m] if order[:m] != sorted(order[:m]) else order[m - 1 :: -1]
        outputs = sorted(order[m:])
        z_pos = int(rng.integers(m))

        def random_expr(qubits):
            return BooleanExpr.of(*(q for q in qubits if rng.integers(2)), const=int(rng.integers(2)))

        pat = MeasurementPattern(
            n_qubits=n,
            measured=tuple(measured),
            thetas=tuple(0.0 if pos == z_pos else rng.uniform(0.0, 2 * math.pi) for pos in range(m)),
            alphas=tuple(0.0 if pos == z_pos else math.pi / 2 for pos in range(m)),
            adapt=tuple(BooleanExpr() if pos == z_pos else random_expr(measured[:pos]) for pos in range(m)),
            byproducts=tuple(ByproductSpec(q, fx=random_expr(measured), fz=random_expr(measured)) for q in outputs),
        )
        resource, chans = random_state(rng, n), shifted_channels(rng, n)
        run = simulate(resource, pat, chans)

        leaves = kraus_sum_leaves(resource.amplitudes, pat, chans)
        ideal = kraus_sum_leaves(resource.amplitudes, pat, {})
        z = np.trace(leaves, axis1=1, axis2=2).real
        ideal_z = np.trace(ideal, axis1=1, axis2=2).real
        r0 = int(np.argmax(ideal_z > 1e-12))
        t = ideal[r0] / ideal_z[r0]
        b0 = byproduct_unitary(pat, outcome_tuple(r0, m))
        reached = [r for r in range(2**m) if z[r] > 1e-12]
        assert list(run.branches) == list(run.fidelities) == [outcome_tuple(r, m) for r in reached]
        for r in reached:
            key = outcome_tuple(r, m)
            b = byproduct_unitary(pat, key) @ b0
            p, mat = run.branches[key]
            assert abs(p - z[r]) < 1e-12
            assert abs(run.fidelities[key] - np.trace(b @ t @ b.conj().T @ leaves[r]).real / z[r]) < 1e-12
            assert np.max(np.abs(mat - leaves[r] / z[r])) < 1e-12


def assert_same_run(a, b):
    assert list(a.branches) == list(b.branches) and a.fidelities == b.fidelities and a.average == b.average
    for (p, rho), (q, sigma) in zip(a.branches.values(), b.branches.values()):
        assert p == q and rho.tobytes() == sigma.tobytes()


def run_case(name, rng):
    if name == "chain":
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=5)))
        return pat, resource_state(Graph.path(6), {0: random_state(rng)})
    if name == "rotation":
        pat = rotation_pattern(*rng.uniform(0.0, 2 * math.pi, size=3))
        return pat, resource_state(Graph.path(5), {0: random_state(rng)})
    return rsp_pattern(rng.uniform(0.0, 2 * math.pi)), build_graph_state(Graph.path(2))


def noisy(rng, n):
    return {q: random_cp_channel(rng) for q in range(n)}


def no_half(*_):
    raise AssertionError("a run on a memoized resource rebuilt its noise-independent half")


class TestPlanRuns:
    """The noise-independent half of a run stays read-only on the pattern's
    plan, keyed by the identity of the resource's amplitude array."""

    @pytest.mark.parametrize("name", ["chain", "rotation", "rsp"])
    def test_fresh_plan_gives_the_warm_run(self, name, monkeypatch):
        rng = np.random.default_rng(60)
        pat, resource = run_case(name, rng)
        first, second = noisy(rng, pat.n_qubits), noisy(rng, pat.n_qubits)
        simulate(resource, pat, first)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_resource_half", no_half)
            warm = simulate(resource, pat, second)
        fresh_pat = dataclasses.replace(pat)
        fresh = simulate(resource, fresh_pat, second)
        assert fresh_pat.plan is not pat.plan
        assert_same_run(fresh, warm)

    def test_alternating_resources_keep_their_own_answers(self):
        rng = np.random.default_rng(61)
        pat, one = run_case("chain", rng)
        _, other = run_case("chain", rng)
        chans = noisy(rng, pat.n_qubits)
        expected = {id(r): simulate(r, dataclasses.replace(pat), chans) for r in (one, other)}
        for r in (one, other, one, other, other, one):
            assert_same_run(simulate(r, pat, chans), expected[id(r)])
            assert pat.plan._memo["oracle"][0]() is r.amplitudes

    def test_plan_does_not_pin_the_resource(self):
        rng = np.random.default_rng(62)
        pat, resource = run_case("chain", rng)
        chans = noisy(rng, pat.n_qubits)
        simulate(resource, pat, chans)
        gone = weakref.ref(resource.amplitudes)
        del resource
        gc.collect()
        assert gone() is None
        _, fresh_resource = run_case("chain", rng)
        assert_same_run(simulate(fresh_resource, pat, chans), simulate(fresh_resource, dataclasses.replace(pat), chans))

    def test_graph_state_and_its_pure_state(self, monkeypatch):
        rng = np.random.default_rng(63)
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=5)))
        gs = build_graph_state(Graph.path(6))
        chans = noisy(rng, 6)
        expected = simulate(gs.state, dataclasses.replace(pat), chans)
        assert_same_run(simulate(gs, pat, chans), expected)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_resource_half", no_half)
            assert_same_run(simulate(gs.state, pat, chans), expected)
            assert_same_run(simulate(gs, pat, chans), expected)

    def test_threads_sharing_a_pattern(self):
        # More threads than cores, switching often, on 8-qubit chains; every
        # run must match its single-threaded result.
        rng = np.random.default_rng(64)
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=7)))
        resources = [resource_state(Graph.path(8), {0: random_state(rng)}) for _ in range(2)]
        sweep = [noisy(rng, 8) for _ in range(3)]
        expected = [[simulate(r, dataclasses.replace(pat), c) for c in sweep] for r in resources]
        start = threading.Barrier(3)
        results: dict[int, list] = {}

        def run(first):
            start.wait()
            results[first] = [
                ((first + i) % 2, i % 3, simulate(resources[(first + i) % 2], pat, sweep[i % 3])) for i in range(8)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(first,)) for first in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and sorted(results) == [0, 1, 2]
        for out in results.values():
            for which, point, run_ in out:
                assert_same_run(run_, expected[which][point])

    def test_engine_and_oracle_on_one_plan(self):
        rng = np.random.default_rng(65)
        pat, resource = run_case("chain", rng)
        chans = noisy(rng, pat.n_qubits)
        cold_report = report(dataclasses.replace(pat), resource, chans)
        cold_run = simulate(resource, dataclasses.replace(pat), chans)
        assert_same_bytes(report(pat, resource, chans), cold_report)
        assert_same_run(simulate(resource, pat, chans), cold_run)
        assert_same_bytes(report(pat, resource, chans), cold_report)
        assert set(pat.plan._memo) == {"codes", "oracle"}
