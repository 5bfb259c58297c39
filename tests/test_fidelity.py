import collections
import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # not on every platform
    getrusage = None

from onewaysim import channels, correlations, fidelity

from onewaysim.channels import NoiseChannel, mixing_probabilities
from onewaysim.fidelity import FidelityReport, fidelity_adaptive, fidelity_nonadaptive
from onewaysim.graphstate import Graph, build_graph_state, resource_state
from onewaysim.linalg import PureState, kron_all
from onewaysim.oracle import simulate
from onewaysim.pattern import BooleanExpr, ByproductSpec, MeasurementPattern, _frame_branches, basis_raw

from test_channels import kraus
from test_pattern import byproduct_unitary, chain_pattern, evaluate, outcome_tuple, rotation_pattern, rsp_pattern, scrambled_pattern


def g2():
    return build_graph_state(Graph.from_edges(2, [(0, 1)]))


def random_state(rng, n=1):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(v / np.linalg.norm(v))


def random_cp_channel(rng):
    b = rng.uniform(0.0, 2.0)
    c = b / 2.0 + rng.uniform(0.0, 2.0)
    return NoiseChannel(B=b, C=c, S=rng.uniform(), t=rng.uniform(0.0, 1.5))


def zchain_pattern(theta=0.7):
    """Three-qubit chain: equatorial measurement, then a z measurement.

    A correct but record-probability-skewed pattern; the answers are
    Z^{k_1}|+> on the last qubit.
    """
    return MeasurementPattern(
        n_qubits=3,
        measured=(0, 1),
        thetas=(theta, 0.0),
        alphas=(math.pi / 2, 0.0),
        adapt=(BooleanExpr.zero(),) * 2,
        byproducts=(ByproductSpec(qubit=2, fz=BooleanExpr.of(1)),),
    )


# PAULI_POW[x][z] = X^x Z^z
PAULI_POW = [
    [np.eye(2), np.diag([1.0, -1.0])],
    [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, -1.0], [1.0, 0.0]])],
]

# The paper's 15-qubit CNOT (0-indexed vertices): control input 0, target
# input 8, outputs 6 (control) and 14 (target); Y on CNOT15_Y, X elsewhere.
CNOT15_EDGES = [(i, i + 1) for i in range(6)] + [(i, i + 1) for i in range(8, 14)] + [(3, 7), (7, 11)]
CNOT15_MEASURED = (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13)
CNOT15_Y = {1, 2, 3, 4, 5, 7, 11}
# Supports of fx and fz on output 6, then on output 14; fz on 6 also holds
# a constant 1, so branch 0 is (Z x I) CNOT |psi>.
CNOT15_BYPRODUCTS = ((1, 2, 4, 5), (0, 2, 3, 4, 7, 8, 10), (1, 2, 7, 9, 11, 13), (8, 10, 12))


def cnot15_pattern():
    fx6, fz6, fx14, fz14 = CNOT15_BYPRODUCTS
    return MeasurementPattern(
        n_qubits=15,
        measured=CNOT15_MEASURED,
        thetas=tuple(math.pi / 2 if q in CNOT15_Y else 0.0 for q in CNOT15_MEASURED),
        alphas=(math.pi / 2,) * 13,
        adapt=(BooleanExpr.zero(),) * 13,
        byproducts=(
            ByproductSpec(qubit=6, fx=BooleanExpr.of(*fx6), fz=BooleanExpr.of(*fz6, const=1)),
            ByproductSpec(qubit=14, fx=BooleanExpr.of(*fx14), fz=BooleanExpr.of(*fz14)),
        ),
    )


def bloch_map(mat, q, B, C, S, t):
    """The paper's Bloch map on qubit q of a two-qubit operator, by its
    action on the Pauli basis: I -> I + (2S - 1)(1 - e^{-Bt}) Z, X -> e^{-Ct} X,
    Y -> e^{-Ct} Y, Z -> e^{-Bt} Z."""
    x, z = PAULI_POW[1][0], PAULI_POW[0][1]
    y = 1j * x @ z
    images = {
        0: np.eye(2) + (2 * S - 1) * (1 - math.exp(-B * t)) * z,
        1: math.exp(-C * t) * x,
        2: math.exp(-C * t) * y,
        3: math.exp(-B * t) * z,
    }
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks = np.moveaxis(mat.reshape(2, 2, 2, 2), (q, 2 + q), (0, 1))  # (a, b, rest, rest')
    for i, pauli in enumerate((np.eye(2), x, y, z)):
        coeff = np.einsum("ba,abij->ij", pauli, blocks) / 2
        out += np.einsum("ab,ij->abij", images[i], coeff)
    return np.moveaxis(out, (0, 1), (q, 2 + q)).reshape(4, 4)


class TestRecordFrameEngine:
    def test_zero_noise_gives_unit_fidelity(self):
        for theta in (0.0, 0.8, 2.5):
            rep = fidelity_adaptive(rsp_pattern(theta), g2())
            for z, f in rep.per_outcome.values():
                assert abs(z - 0.5) < 1e-12
                assert abs(f - 1.0) < 1e-12

    def test_rsp_branches_orthogonal(self):
        # F = 1 - p_xy exactly needs the flipped branch to be orthogonal to
        # the record's answer for every angle; no channel has p_xy > 1/2, so
        # a partial overlap would show as a larger F.
        ch = NoiseChannel.phase_flip(0.9, 0.7)
        p_xy = (1 - math.exp(-2 * 0.9 * 0.7)) / 2
        for theta in np.linspace(0.0, 2 * np.pi, 7):
            rep = fidelity_adaptive(rsp_pattern(theta), g2(), {0: ch})
            for _, f in rep.per_outcome.values():
                assert abs(f - (1 - p_xy)) < 1e-12

    def test_general_noise_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            pat = rotation_pattern(*rng.uniform(0, 2 * np.pi, size=3))
            resource = resource_state(Graph.path(5), {0: random_state(rng)})
            chans = {q: random_cp_channel(rng) for q in range(5)}
            rep = fidelity_adaptive(pat, resource, {q: chans[q] for q in pat.measured}, {4: chans[4]})
            zs = np.array([z for z, _ in rep.per_outcome.values()])
            fs = np.array([f for _, f in rep.per_outcome.values()])
            assert abs(zs.sum() - 1.0) < 1e-12
            assert np.all(fs > -1e-12) and np.all(fs < 1 + 1e-12)

    def test_ten_qubit_chain_phase_flip(self):
        # Above the oracle's reach: with every theta = 0 the bases ignore the
        # adaptation, a flip pattern d leaves X^{fx(d)} Z^{fz(d)} on the
        # output, and F(r) = sum_d P(d) |<A_0| X^{fx(d)} Z^{fz(d)} |A_0>|^2.
        m, gamma, t = 10, 0.5, 0.3
        rng = np.random.default_rng(11)
        psi = random_state(rng)
        pat = chain_pattern((0.0,) * m)
        resource = resource_state(Graph.path(m + 1), {0: psi})
        chans = {q: NoiseChannel.phase_flip(gamma, t) for q in range(m)}
        rep = fidelity_adaptive(pat, resource, chans)

        vec = psi.amplitudes
        for _ in range(m):
            vec = np.kron(vec, np.ones(2) / math.sqrt(2))
        idx = np.arange(2 ** (m + 1))
        for j in range(m):
            both = (idx >> (m - j)) & (idx >> (m - j - 1)) & 1
            vec = np.where(both == 1, -vec, vec)
        a0 = (np.ones(2**m) / math.sqrt(2**m)) @ vec.reshape(2**m, 2)
        a0 /= np.linalg.norm(a0)

        p = (1 - math.exp(-2 * gamma * t)) / 2
        flips = (np.arange(2**m)[:, None] >> (m - 1 - np.arange(m))[None, :]) & 1
        prob = np.prod(np.where(flips == 1, p, 1 - p), axis=1)
        fx = np.bitwise_xor.reduce(flips[:, m - 1 :: -2], axis=1)
        fz = np.bitwise_xor.reduce(flips[:, m - 2 :: -2], axis=1)
        overlap = np.array(
            [[abs(a0.conj() @ PAULI_POW[x][z] @ a0) ** 2 for z in (0, 1)] for x in (0, 1)]
        )
        expected = float(prob @ overlap[fx, fz])
        for z, f in rep.per_outcome.values():
            assert abs(z - 2.0**-m) < 1e-12
            assert abs(f - expected) < 1e-12


class TestAdaptiveEngine:
    def test_zero_noise_is_perfect(self):
        rng = np.random.default_rng(3)
        pat = rotation_pattern(0.5, 1.0, 1.5)
        resource = resource_state(Graph.path(5), {0: random_state(rng)})
        rep = fidelity_adaptive(pat, resource)
        for z, f in rep.per_outcome.values():
            assert abs(z - 1 / 16) < 1e-10
            assert abs(f - 1.0) < 1e-10
        assert abs(rep.average - 1.0) < 1e-10

    def test_rsp_phase_flip_closed_form(self):
        gamma, t = 1.0, 0.6
        rep = fidelity_adaptive(rsp_pattern(0.7), g2(), {0: NoiseChannel.phase_flip(gamma, t)})
        assert abs(rep.average - (1 + math.exp(-2 * gamma * t)) / 2) < 1e-12

    def test_rotation_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            pat = rotation_pattern(*rng.uniform(0, 2 * np.pi, size=3))
            resource = resource_state(Graph.path(5), {0: random_state(rng)})
            chans = {q: random_cp_channel(rng) for q in range(5)}
            rep = fidelity_adaptive(
                pat, resource, measured_channels={q: chans[q] for q in pat.measured}, answer_channels={4: chans[4]}
            )
            run = simulate(resource, pat, chans)
            for idx in range(16):
                key = outcome_tuple(idx, 4)
                z_e, f_e = rep.per_outcome[key]
                z_o = run.branches[key][0]
                assert abs(z_e - z_o) < 1e-9
                assert abs(f_e - run.fidelities[key]) < 1e-9
            assert abs(rep.average - run.average) < 1e-9

    def test_z_measurement_with_shift_matches_oracle(self):
        # Fixed-point shift (S != 1/2) makes the z-swap weight bit-dependent.
        rng = np.random.default_rng(5)
        pat = zchain_pattern()
        resource = resource_state(Graph.path(3))
        for _ in range(5):
            chans = {
                0: random_cp_channel(rng),
                1: NoiseChannel(B=rng.uniform(0.2, 2.0), C=rng.uniform(1.0, 3.0), S=0.9, t=0.8),
                2: random_cp_channel(rng),
            }
            rep = fidelity_adaptive(pat, resource, {q: chans[q] for q in pat.measured}, {2: chans[2]})
            run = simulate(resource, pat, chans)
            for key, (z, f) in rep.per_outcome.items():
                assert abs(z - run.branches[key][0]) < 1e-9
                assert abs(f - run.fidelities[key]) < 1e-9

    def test_non_ascending_order_matches_oracle(self):
        # Shifted general noise (S != 1/2) on every qubit, on a pattern whose
        # measured qubits do not ascend and whose outputs sit between them.
        rng = np.random.default_rng(7)
        for _ in range(3):
            pat = scrambled_pattern(rng.uniform(0.0, 2 * math.pi, size=4))
            resource = random_state(rng, 6)
            chans = {q: NoiseChannel(B=b, C=b / 2 + rng.uniform(0.2, 1.0), S=rng.uniform(0.6, 0.9), t=0.4)
                     for q, b in enumerate(rng.uniform(0.2, 1.5, size=6))}
            rep = fidelity_adaptive(pat, resource, {q: chans[q] for q in pat.measured}, {q: chans[q] for q in pat.outputs})
            run = simulate(resource, pat, chans)
            assert len(run.branches) == 16
            for key, (z, f) in rep.per_outcome.items():
                assert abs(z - run.branches[key][0]) < 1e-9
                assert abs(f - run.fidelities[key]) < 1e-9
            assert abs(rep.average - run.average) < 1e-9

    def test_label_permutation_invariance(self):
        # Relabeling vertices together with channels and expressions leaves
        # every (Z, F) untouched.
        rng = np.random.default_rng(6)
        pat = rotation_pattern(0.4, 0.9, 1.7)
        psi = random_state(rng)
        resource = resource_state(Graph.path(5), {0: psi})
        chans = {q: random_cp_channel(rng) for q in range(4)}
        rep = fidelity_adaptive(pat, resource, chans)

        perm = {0: 3, 1: 0, 2: 4, 3: 1, 4: 2}  # vertex relabeling
        g_p = Graph.from_edges(5, [(perm[i], perm[j]) for i, j in Graph.path(5).edges])
        remap = lambda e: BooleanExpr(const=e.const, xor=tuple(perm[v] for v in e.xor))
        pat_p = MeasurementPattern(
            n_qubits=5,
            measured=tuple(perm[q] for q in pat.measured),
            thetas=pat.thetas,
            alphas=pat.alphas,
            adapt=tuple(remap(e) for e in pat.adapt),
            byproducts=tuple(
                ByproductSpec(qubit=perm[bp.qubit], fx=remap(bp.fx), fz=remap(bp.fz))
                for bp in pat.byproducts
            ),
        )
        resource_p = resource_state(g_p, {perm[0]: psi})
        rep_p = fidelity_adaptive(pat_p, resource_p, {perm[q]: ch for q, ch in chans.items()})
        for key in rep.per_outcome:
            z, f = rep.per_outcome[key]
            z_p, f_p = rep_p.per_outcome[key]
            assert abs(z - z_p) < 1e-10
            assert abs(f - f_p) < 1e-10

    def test_guard(self):
        # Ten measured qubits run (test_ten_qubit_chain_phase_flip); eleven do not.
        with pytest.raises(ValueError, match="needs at least 224.0 MiB of workspace; the limit is 64 MiB"):
            fidelity_adaptive(chain_pattern((0.0,) * 11), PureState.plus(12))

    def test_guard_refuses_every_call(self):
        # The guard depends on the pattern alone; a refused report keeps no
        # resource half, so every call on the pattern is a miss that checks it.
        rng = np.random.default_rng(58)
        pat, plus = chain_pattern((0.0,) * 11), PureState.plus(12)
        other = resource_state(Graph.path(12), {0: random_state(rng)})

        def refusal(resource):
            with pytest.raises(ValueError, match="needs at least 224.0 MiB of workspace; the limit is 64 MiB") as refused:
                fidelity_adaptive(pat, resource)
            assert "codes" not in pat.plan._memo
            return str(refused.value)

        messages = [refusal(plus), refusal(plus), refusal(other)]
        fidelity_adaptive(chain_pattern((0.0,) * 3), PureState.plus(4))
        messages.append(refusal(plus))
        assert len(set(messages)) == 1

    def test_guard_checked_on_a_miss(self, monkeypatch):
        # A report that reuses the resource half of the same pattern skips the
        # guard that the pattern passed to build it; a report on another
        # resource checks it, and drops the half of the last one.
        rng = np.random.default_rng(59)
        pat, one = chain_pattern((0.0,) * 4), PureState.plus(5)
        other = resource_state(Graph.path(5), {0: random_state(rng)})
        fidelity_adaptive(pat, one)
        monkeypatch.setattr(fidelity, "MAX_WORKSPACE_BYTES", fidelity._report_bytes(pat) - 1)
        fidelity_adaptive(pat, one)
        for resource in (other, one):
            with pytest.raises(ValueError, match="needs at least"):
                fidelity_adaptive(pat, resource)
            assert "codes" not in pat.plan._memo

    def test_guard_counts_outputs(self):
        # Ten measured qubits, as in the chain that runs, but 4 outputs: the
        # 512 frames would need (512, 1024, 256) codes and a spare of their
        # size, with (512, 16, 1024) complex branches and sums x + y.
        pat = MeasurementPattern(
            n_qubits=14,
            measured=tuple(range(10)),
            thetas=(0.0,) * 10,
            alphas=(math.pi / 2,) * 10,
            adapt=(BooleanExpr.zero(),) + tuple(BooleanExpr.of(j - 1) for j in range(1, 10)),
        )
        assert len(pat.plan.frames[0]) == 512
        with pytest.raises(ValueError, match="10 measured qubits and 4 outputs needs at least 2240.0 MiB"):
            fidelity_adaptive(pat, PureState.plus(14))


def outputs_pattern(k, m, adaptive, byproducts=False):
    """m measured qubits, then k outputs; when adaptive, each adaptation bit
    after the first is the previous outcome, so there are 2^(m-1) frames.
    With ``byproducts``, output j carries X from outcome j mod m and Z from
    outcome j + 1 mod m, so the records have up to min(2^m, 4^k) distinct
    by-products."""
    return MeasurementPattern(
        n_qubits=k + m,
        measured=tuple(range(m)),
        thetas=(0.3,) * m,
        alphas=(math.pi / 2,) * m,
        adapt=(BooleanExpr(),) + tuple(BooleanExpr.of(j - 1) if adaptive else BooleanExpr() for j in range(1, m)),
        byproducts=tuple(
            ByproductSpec(m + j, fx=BooleanExpr.of(j % m), fz=BooleanExpr.of((j + 1) % m)) for j in range(k if byproducts else 0)
        ),
    )


def traced_peak(call):
    """The bytes that ``call()`` allocates at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestGuardBytes:
    """The size guard counts what a cold report, or a report on another
    resource than the last one, allocates: a new allocation that it does not
    count shows here."""

    @pytest.mark.parametrize("adaptive", [False, True], ids=["one_frame", "adaptive"])
    @pytest.mark.parametrize("k", range(6))
    def test_cold_report_peak_within_guard(self, k, adaptive):
        for m, noisy, byproducts in itertools.product(range(1, 7), {False, k > 0}, {False, k > 0}):
            pat = outputs_pattern(k, m, adaptive, byproducts)
            assert (len(pat.plan.byproducts[0]) > 1) == byproducts
            resource = PureState.plus(k + m)
            answers = {q: NoiseChannel.white(0.3, 0.2) for q in pat.outputs} if noisy else None
            size = fidelity._report_bytes(pat)

            def cold_report():
                if size <= fidelity.MAX_WORKSPACE_BYTES:
                    fidelity_adaptive(pat, resource, None, answers)
                else:
                    with pytest.raises(ValueError, match="needs at least"):
                        fidelity_adaptive(pat, resource, None, answers)

            peak = traced_peak(cold_report)
            assert peak <= size + 2**20, f"m = {m}, answer noise {noisy}, by-products {byproducts}: peak {peak} bytes, guard {size}"

    def at_the_limit(self, pat, *resources):
        """Reports on ``resources`` in turn, traced from the first on, after
        one that builds the plan's pieces, which the guard does not count."""
        fidelity_adaptive(pat, PureState.plus(pat.n_qubits))
        pat.plan._memo.clear()
        chans = {q: NoiseChannel.phase_flip(0.5, 0.3) for q in pat.measured}
        peak = traced_peak(lambda: [fidelity_adaptive(pat, r, chans) for r in resources])
        assert peak <= fidelity._report_bytes(pat) + 2**20, f"peak {peak} bytes, guard {fidelity._report_bytes(pat)}"

    def test_ten_step_chain(self):
        self.at_the_limit(chain_pattern((0.0,) * 10), PureState.plus(11))

    def test_ten_step_chain_on_another_resource(self):
        # The workspace of the first report stays on the plan until the second.
        other = resource_state(Graph.path(11), {0: random_state(np.random.default_rng(57))})
        self.at_the_limit(chain_pattern((0.0,) * 10), PureState.plus(11), other)

    def test_ten_measured_qubits_without_outputs(self):
        self.at_the_limit(outputs_pattern(0, 10, True), PureState.plus(10))

    def test_warm_report_without_outputs(self):
        # Without outputs the traces are a view of the codes: a warm report
        # on the 10-measured-qubit pattern allocates no (512, 1024) copy.
        pat, resource = outputs_pattern(0, 10, True), PureState.plus(10)
        chans = {q: NoiseChannel.phase_flip(0.5, 0.3) for q in pat.measured}
        fidelity_adaptive(pat, resource, chans)
        assert traced_peak(lambda: fidelity_adaptive(pat, resource, chans)) < 2**20

    def test_refused_before_the_plan_builds_its_frames(self):
        # Past the limit with one frame, a report is refused on its
        # workspace and branches alone, before the plan reads the records.
        pat = outputs_pattern(11, 1, False)
        with pytest.raises(ValueError, match=re.escape("needs at least 192.1 MiB of workspace; the limit is 64 MiB")):
            fidelity_adaptive(pat, PureState.plus(12))
        assert "frames" not in vars(pat.plan) and "codes" not in pat.plan._memo

    def test_seven_outputs(self):
        # A dense joint map of the answer noise on 7 outputs would take
        # 2 GiB; output by output, the noise runs in the workspace.
        pat = outputs_pattern(7, 1, False)
        resource = PureState.plus(8)
        assert traced_peak(lambda: fidelity_adaptive(pat, resource)) < 2**20
        answers = {q: NoiseChannel.white(0.3, 0.2) for q in pat.outputs}
        reports = []
        peak = traced_peak(lambda: reports.append(fidelity_adaptive(pat, resource, None, answers)))
        assert peak <= fidelity._report_bytes(pat) + 2**20
        assert reports[0].average < 0.5  # the noise on all seven acts


class TestNonAdaptiveEngine:
    def test_zero_noise(self):
        rep = fidelity_nonadaptive(rsp_pattern(0.3), g2())
        assert abs(rep.average - 1.0) < 1e-12

    def test_rsp_formula(self):
        gamma, t = 0.9, 0.7
        ch = NoiseChannel.phase_flip(gamma, t)
        rep = fidelity_nonadaptive(rsp_pattern(0.8), g2(), {0: ch})
        p1 = (1 - math.exp(-2 * gamma * t)) / 2
        assert abs(rep.average - (1 - p1)) < 1e-12

    def test_rejects_adaptive(self):
        for pat in (rotation_pattern(0.1, 0.2, 0.3), chain_pattern((0.4, 1.1, 2.9))):
            with pytest.raises(ValueError, match=r"^pattern is adaptive; use fidelity_adaptive$"):
                fidelity_nonadaptive(pat, resource_state(Graph.path(pat.n_qubits)))

    def test_constant_adaptation_is_one_frame(self):
        # Constant adaptation bits negate every angle on every record: one
        # set of bits, so the non-adaptive entry runs it, byte for byte as
        # the adaptive one does.
        pat = MeasurementPattern(4, (0, 1, 2), (0.2, 0.4, 0.6), (math.pi / 2,) * 3, (BooleanExpr(1),) * 3)
        assert len(pat.plan.frames[0]) == 1 and pat.is_nonadaptive()
        rng = np.random.default_rng(12)
        resource = resource_state(Graph.path(4), {0: random_state(rng)})
        chans = {q: random_cp_channel(rng) for q in range(4)}
        args = (resource, {q: chans[q] for q in pat.measured}, {3: chans[3]})
        assert_same_bytes(fidelity_nonadaptive(pat, *args), fidelity_adaptive(dataclasses.replace(pat), *args))

    def test_agrees_with_adaptive_engine(self):
        rng = np.random.default_rng(7)
        pat = zchain_pattern(1.2)
        resource = resource_state(Graph.path(3))
        chans = {q: random_cp_channel(rng) for q in range(3)}
        measured = {q: chans[q] for q in pat.measured}
        rep_na = fidelity_nonadaptive(pat, resource, measured, {2: chans[2]})
        rep_ad = fidelity_adaptive(pat, resource, measured, {2: chans[2]})
        for key in rep_na.per_outcome:
            z_n, f_n = rep_na.per_outcome[key]
            z_a, f_a = rep_ad.per_outcome[key]
            assert abs(z_n - z_a) < 1e-10
            assert abs(f_n - f_a) < 1e-10

    def test_record_independence_with_pauli_noise(self):
        # A deterministic chain (only the first angle needs no adaptation
        # when the rest are 0) under white noise everywhere: the oracle
        # gives every record the same probability and fidelity.
        rng = np.random.default_rng(8)
        pat = MeasurementPattern(
            n_qubits=4,
            measured=(0, 1, 2),
            thetas=(1.9, 0.0, 0.0),
            alphas=(math.pi / 2,) * 3,
            adapt=(BooleanExpr.zero(),) * 3,
            byproducts=(ByproductSpec(qubit=3, fx=BooleanExpr.of(0, 2), fz=BooleanExpr.of(1)),),
        )
        resource = resource_state(Graph.path(4), {0: random_state(rng)})
        chans = {q: NoiseChannel.white(0.5, rng.uniform(0.2, 1.0)) for q in range(4)}
        run = simulate(resource, pat, chans)
        f0 = run.fidelities[(0, 0, 0)]
        rep = fidelity_nonadaptive(pat, resource, {q: chans[q] for q in range(3)}, {3: chans[3]})
        for key, (z, f) in rep.per_outcome.items():
            assert abs(run.branches[key][0] - 1 / 8) < 1e-10
            assert abs(run.fidelities[key] - f0) < 1e-10
            assert abs(z - 1 / 8) < 1e-10
            assert abs(f - f0) < 1e-10
        assert abs(rep.average - f0) < 1e-10

    def test_oracle_agreement(self):
        rng = np.random.default_rng(9)
        pat = zchain_pattern(0.9)
        resource = resource_state(Graph.path(3))
        chans = {q: random_cp_channel(rng) for q in range(3)}
        rep = fidelity_nonadaptive(pat, resource, {q: chans[q] for q in pat.measured}, {2: chans[2]})
        run = simulate(resource, pat, chans)
        for key, (z, f) in rep.per_outcome.items():
            assert abs(z - run.branches[key][0]) < 1e-9
            assert abs(f - run.fidelities[key]) < 1e-9

    def test_cnot15_general_noise(self):
        # A shifted (non-Pauli) map on all 15 qubits makes F depend on the
        # record.  Every measurement is equatorial, so a flip pattern d has
        # probability prod_i p^{d_i} (1 - p)^{1 - d_i}, p = (1 - e^{-Ct})/2,
        # and turns branch r into branch r ^ d: the by-product class of r ^ d
        # times (Z x I) CNOT |psi>.
        B, C, S, t = 0.5, 1.0, 0.8, 0.4
        rng = np.random.default_rng(12)
        psi_c, psi_t = random_state(rng), random_state(rng)
        resource = resource_state(Graph.from_edges(15, CNOT15_EDGES), {0: psi_c, 8: psi_t})
        ch = NoiseChannel(B=B, C=C, S=S, t=t)
        rep = fidelity_nonadaptive(
            cnot15_pattern(), resource, {q: ch for q in CNOT15_MEASURED}, {6: ch, 14: ch}
        )

        cnot = np.eye(4)[[0, 1, 3, 2]]
        a0 = np.kron(PAULI_POW[0][1], np.eye(2)) @ cnot @ np.kron(psi_c.amplitudes, psi_t.amplitudes)
        records = np.arange(2**13)
        classes = np.zeros(2**13, dtype=int)
        for support in CNOT15_BYPRODUCTS:
            bit = np.zeros(2**13, dtype=int)
            for v in support:
                bit ^= (records >> (12 - CNOT15_MEASURED.index(v))) & 1
            classes = 2 * classes + bit
        answers = []
        for c in range(16):
            x6, z6, x14, z14 = (c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1
            answers.append(np.kron(PAULI_POW[x6][z6], PAULI_POW[x14][z14]) @ a0)
        p = (1 - math.exp(-C * t)) / 2
        n_flips = np.array([bin(d).count("1") for d in range(2**13)])
        flip_class = np.bincount(classes, weights=p**n_flips * (1 - p) ** (13 - n_flips), minlength=16)
        expected = np.empty(16)
        for c in range(16):
            ref = answers[c]
            acc = 0.0
            for e in range(16):
                noisy = bloch_map(np.outer(answers[c ^ e], answers[c ^ e].conj()), 0, B, C, S, t)
                noisy = bloch_map(noisy, 1, B, C, S, t)
                acc += flip_class[e] * float((ref.conj() @ noisy @ ref).real)
            expected[c] = acc
        fs = np.array([f for _, f in rep.per_outcome.values()])
        zs = np.array([z for z, _ in rep.per_outcome.values()])
        assert np.max(np.abs(zs - 2.0**-13)) < 1e-12
        assert np.ptp(expected) > 1e-3  # the case is record-dependent
        assert np.max(np.abs(fs - expected[classes])) < 1e-10

    def test_guard(self):
        # No resource holds 17 qubits, so a pattern that measures 16 is
        # refused on the size of the resource.
        pat = MeasurementPattern(
            n_qubits=17,
            measured=tuple(range(16)),
            thetas=(0.0,) * 16,
            alphas=(math.pi / 2,) * 16,
            adapt=(BooleanExpr.zero(),) * 16,
        )
        with pytest.raises(ValueError, match="pattern expects 17 qubits, state has 15"):
            fidelity_nonadaptive(pat, PureState.plus(15))


class TestChannelKeys:
    """A channel keyed on a qubit of the wrong kind, or on no qubit of the
    pattern, raises instead of being dropped.  On RSP the output's noise
    given as a measured channel used to leave F = 1."""

    @pytest.mark.parametrize("engine", [fidelity_adaptive, fidelity_nonadaptive])
    @pytest.mark.parametrize(
        "measured, answer, message",
        [
            ((1,), (), "measured_channels names qubits [1]"),
            ((0, 7), (), "measured_channels names qubits [7]"),
            ((), (0,), "answer_channels names qubits [0]"),
            ((0,), (1, 7), "answer_channels names qubits [7]"),
        ],
        ids=["output-as-measured", "stray-measured", "measured-as-answer", "stray-answer"],
    )
    def test_misplaced_key_raises(self, engine, measured, answer, message):
        ch = NoiseChannel.white(1.0, 0.3)
        with pytest.raises(ValueError, match=re.escape(message)):
            engine(rsp_pattern(0.7), g2(), dict.fromkeys(measured, ch), dict.fromkeys(answer, ch))

    def test_none_is_no_channel(self):
        # A None entry, measured or answer, reports as the key left out.
        pat, ch = rsp_pattern(0.7), NoiseChannel.white(1.0, 0.3)
        for measured, answer in (({0: None}, {1: ch}), ({0: ch}, {1: None})):
            left_out = ({q: c for q, c in chans.items() if c is not None} for chans in (measured, answer))
            assert_same_bytes(fidelity_adaptive(pat, g2(), measured, answer), fidelity_adaptive(pat, g2(), *left_out))


class TestReport:
    def test_validation_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            FidelityReport(z=[0.4, 0.4], f=[1.0, 1.0], average=0.8)
        with pytest.raises(ValueError, match="probabilities sum to nan"):
            FidelityReport(z=[np.nan, 0.5], f=[1.0, 1.0], average=1.0)

    @pytest.mark.parametrize("f0", [-0.9e-9, 1.0 + 0.9e-9])
    def test_fidelity_just_inside_range(self, f0):
        rep = FidelityReport(z=[0.5, 0.5], f=[f0, 0.5], average=0.5 * f0 + 0.25)
        assert rep.f[0] == f0

    @pytest.mark.parametrize("f0", [-1.1e-9, 1.0 + 1.1e-9])
    def test_fidelity_just_outside_range(self, f0):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            FidelityReport(z=[0.5, 0.5], f=[f0, 0.5], average=0.5 * f0 + 0.25)

    def test_wrong_average(self):
        FidelityReport(z=[0.5, 0.5], f=[0.9, 0.7], average=0.8 + 0.5e-10)
        with pytest.raises(ValueError, match="average does not match"):
            FidelityReport(z=[0.5, 0.5], f=[0.9, 0.7], average=0.8 + 2e-10)
        with pytest.raises(ValueError, match="average does not match"):
            FidelityReport(z=[0.5, 0.5], f=[0.9, 0.7], average=np.nan)

    def test_unreachable_reads_none(self):
        rep = FidelityReport(z=[0.25, 0.0, 0.5, 0.25], f=[0.9, np.nan, 0.7, 0.5], average=0.7)
        assert rep.per_outcome == {(0, 0): (0.25, 0.9), (0, 1): (0.0, None), (1, 0): (0.5, 0.7), (1, 1): (0.25, 0.5)}
        assert rep.per_outcome[(0, 1)][1] is None
        assert rep.per_outcome[(0, 1)][0] == 0.0
        assert rep.per_outcome[(1, 0)][1] == 0.7

    def test_read_only_arrays(self):
        z, f = np.array([0.5, 0.5]), np.array([0.9, 0.7])
        rep = FidelityReport(z=z, f=f, average=0.8)
        z[0], f[0] = 0.0, 0.0  # the report keeps its own copies
        assert rep.z[0] == 0.5 and rep.f[0] == 0.9
        for arr in (rep.z, rep.f):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_adopted_arrays(self):
        # The engine's path shares the arrays it is given and freezes them.
        z, f = np.array([0.5, 0.25, 0.25, 0.0]), np.array([0.9, 0.7, 0.5, np.nan])
        rep = FidelityReport._adopt(z, f, z > 1e-12)
        assert rep.average == float(z[:3] @ f[:3])
        assert np.shares_memory(rep.z, z) and np.shares_memory(rep.f, f)
        for arr in (rep.z, rep.f, z, f):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize(
        "z, f, average, message",
        [
            ([0.4, 0.4], [1.0, 1.0], 0.8, "outcome probabilities sum to 0.8, not 1"),
            ([0.5, 0.5], [1.0 + 2e-9, 0.5], 0.75 + 1e-9, r"fidelity 1.000000002 outside \[0, 1\]"),
            # A NaN F on a reachable record: the public constructor reads it
            # as unreachable, so only a wrong average shows it there.
            ([0.5, 0.5], [np.nan, 0.5], np.nan, "average does not match the outcome sum"),
            ([0.5, 0.25, 0.25], [1.0, 1.0, 1.0], 1.0, "power-of-two length"),
        ],
        ids=["sum", "range", "nan", "length"],
    )
    def test_adopting_path_checks(self, z, f, average, message):
        with pytest.raises(ValueError, match=message) as public:
            FidelityReport(z=z, f=f, average=average)
        with pytest.raises(ValueError, match=message) as adopted:
            FidelityReport._adopt(np.array(z), np.array(f), np.ones(len(z), dtype=bool))
        assert str(adopted.value) == str(public.value)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="power-of-two length"):
            FidelityReport(z=[0.5, 0.5], f=[1.0], average=0.5)
        with pytest.raises(ValueError, match="power-of-two length"):
            FidelityReport(z=[0.5, 0.25, 0.25], f=[1.0, 1.0, 1.0], average=1.0)

    def test_record_order(self):
        # Record r holds the bits of r, first-measured qubit most significant.
        rng = np.random.default_rng(13)
        pat = rotation_pattern(0.4, 1.2, 2.2)
        resource = resource_state(Graph.path(5), {0: random_state(rng)})
        chans = {q: random_cp_channel(rng) for q in range(5)}
        rep = fidelity_adaptive(pat, resource, {q: chans[q] for q in pat.measured}, {4: chans[4]})
        assert list(rep.per_outcome) == [outcome_tuple(r, 4) for r in range(16)]
        for r, (z, f) in enumerate(rep.per_outcome.values()):
            assert (z, f) == (rep.z[r], rep.f[r])

    @pytest.mark.parametrize("name", ["chain", "cnot15"])
    def test_per_outcome_view(self, name):
        # A read-only map over z and f that agrees with the dict built from them.
        rng = np.random.default_rng(70)
        pat, resource = report_case(name, rng)
        rep = report(pat, resource, {q: random_cp_channel(rng) for q in range(pat.n_qubits)})
        m, view = pat.n_measured, rep.per_outcome
        expected = {}
        for r, (z, f) in enumerate(zip(rep.z.tolist(), rep.f.tolist())):
            expected[outcome_tuple(r, m)] = (z, None if math.isnan(f) else f)
        assert view == expected and expected == view
        assert list(view) == list(expected)
        assert list(view.items()) == list(expected.items())
        assert list(view.values()) == list(expected.values())
        assert len(view) == len(view.items()) == len(view.values()) == 2**m
        assert all(view[key] == row for key, row in expected.items())
        key = outcome_tuple(2**m - 2, m)
        assert view[tuple(np.array(key))] == view.get(key) == expected[key] and key in view
        for bad in [key[1:], key + (0,), key[:-1] + (2,), key[:-1] + (None,), key[:-1] + ("1",), list(key)]:
            assert bad not in view and view.get(bad, "absent") == "absent"
            with pytest.raises(KeyError):
                view[bad]
        with pytest.raises(TypeError):
            view[key] = (1.0, 1.0)

    def test_per_outcome_holds_nothing(self):
        # Reading per_outcome of an 8192-record report builds no per-record objects.
        m = 13
        rep = FidelityReport(z=np.full(2**m, 2.0**-m), f=np.full(2**m, 0.5), average=0.5)
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            view = rep.per_outcome
            assert len(view) == 2**m and view[(1,) * m] == (2.0**-m, 0.5)
            grown = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert not any(isinstance(value, dict) for value in vars(rep).values())
        assert grown < 100


class TestAnswerNoise:
    @pytest.mark.parametrize("n_outputs", [0, 1, 2, 3])
    def test_code_map_is_the_adjoint_channel(self, n_outputs):
        """Without measured noise, rho_r is |A_r><A_r| and the engine's
        answer noise gives F(r) = sum_j |<T|K_j|A_r>|^2 over the joint
        Kraus operators K_j, one operator per output, of the answer noise;
        the pattern has no by-products, so every record's reference is T =
        A_0, and A_r comes from ``tensordot_branches``."""
        rng = np.random.default_rng(20 + n_outputs)
        toward_one = NoiseChannel(B=0.5, C=1.1, S=0.15, t=0.9)
        shifted = NoiseChannel(B=0.9, C=0.6, S=0.9, t=0.7)
        chans = [[], [toward_one], [random_cp_channel(rng), toward_one], [toward_one, None, shifted]][n_outputs]
        m = 2
        thetas = tuple(rng.uniform(0.0, 2 * math.pi, size=m))
        pat = dataclasses.replace(outputs_pattern(n_outputs, m, True), thetas=thetas)
        resource = random_state(rng, n_outputs + m)
        rep = fidelity_adaptive(pat, resource, None, {q: ch for q, ch in zip(pat.outputs, chans) if ch is not None})
        per_qubit = [kraus(ch) if ch is not None else [np.eye(2)] for ch in chans]
        joint = [kron_all(ops) if ops else np.eye(1) for ops in itertools.product(*per_qubit)]
        answers = []
        for r in range(2**m):
            bits = dict(zip(pat.measured, outcome_tuple(r, m)))
            answer = tensordot_branches(resource.amplitudes, pat, [evaluate(e, bits) for e in pat.adapt])[r]
            answers.append(answer / np.linalg.norm(answer))
        for r, answer in enumerate(answers):
            expected = sum(abs(answers[0].conj() @ k @ answer) ** 2 for k in joint)
            assert abs(rep.f[r] - expected) < 1e-12

    def test_shifted_answer_channel_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            pat = rotation_pattern(*rng.uniform(0, 2 * np.pi, size=3))
            resource = resource_state(Graph.path(5), {0: random_state(rng)})
            chans = {q: NoiseChannel(B=0.4, C=0.5, S=0.8, t=rng.uniform(0.1, 0.4)) for q in range(4)}
            b = rng.uniform(0.6, 1.2)
            chans[4] = NoiseChannel(B=b, C=b / 2 + rng.uniform(0.5, 1.5), S=rng.uniform(0.8, 0.95), t=rng.uniform(0.3, 0.7))
            rep = fidelity_adaptive(pat, resource, {q: chans[q] for q in range(4)}, {4: chans[4]})
            run = simulate(resource, pat, chans)
            noiseless_answer = fidelity_adaptive(pat, resource, {q: chans[q] for q in range(4)})
            assert np.max(np.abs(rep.f - noiseless_answer.f)) > 1e-2  # the map matters
            for key, (z, f) in rep.per_outcome.items():
                assert abs(z - run.branches[key][0]) < 1e-9
                assert abs(f - run.fidelities[key]) < 1e-9
            assert abs(rep.average - run.average) < 1e-9

    def test_two_outputs_different_channels_match_oracle(self):
        # Two remote state preparations side by side: outputs 1 and 3 carry
        # two shifted general channels, one toward |1> and one toward |0>.
        rng = np.random.default_rng(22)
        pat = MeasurementPattern(
            n_qubits=4,
            measured=(0, 2),
            thetas=(0.7, 2.3),
            alphas=(math.pi / 2,) * 2,
            adapt=(BooleanExpr.zero(),) * 2,
            byproducts=(ByproductSpec(qubit=1, fx=BooleanExpr.of(0)), ByproductSpec(qubit=3, fx=BooleanExpr.of(2))),
        )
        resource = resource_state(Graph.from_edges(4, [(0, 1), (2, 3)]), {0: random_state(rng), 2: random_state(rng)})
        chans = {
            0: random_cp_channel(rng),
            1: NoiseChannel(B=0.3, C=1.4, S=0.1, t=0.8),
            2: random_cp_channel(rng),
            3: NoiseChannel(B=0.8, C=0.7, S=0.9, t=0.6),
        }
        rep = fidelity_nonadaptive(pat, resource, {0: chans[0], 2: chans[2]}, {1: chans[1], 3: chans[3]})
        run = simulate(resource, pat, chans)
        for key, (z, f) in rep.per_outcome.items():
            assert abs(z - run.branches[key][0]) < 1e-9
            assert abs(f - run.fidelities[key]) < 1e-9

    def test_no_measured_qubits(self):
        # Without measured qubits the codes are rho itself; the answer noise
        # must not overwrite them.
        pat = MeasurementPattern(n_qubits=2, measured=(), thetas=(), alphas=(), adapt=())
        ch = NoiseChannel(B=0.5, C=1.1, S=0.15, t=0.9)
        rep = fidelity_nonadaptive(pat, PureState.plus(2), None, {0: ch, 1: ch})
        run = simulate(PureState.plus(2), pat, {0: ch, 1: ch})
        assert abs(rep.average - run.average) < 1e-9
        assert abs(rep.average - 0.4703) < 1e-4

    def test_noiseless_output_between_noisy_ones(self):
        # An adaptive two-step chain on a 5-vertex path: outputs 3 and 4
        # stay entangled with the answer on 2, and X on 2 becomes Z on 3
        # through their CZ.
        rng = np.random.default_rng(23)
        chain = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=2)))
        pat = dataclasses.replace(
            chain, n_qubits=5, byproducts=chain.byproducts + (ByproductSpec(qubit=3, fz=BooleanExpr.of(1)),)
        )
        resource = resource_state(Graph.path(5), {0: random_state(rng)})
        b = rng.uniform(0.6, 1.2)
        answers = {2: NoiseChannel(B=b, C=b / 2 + 0.7, S=0.85, t=0.6), 4: random_cp_channel(rng)}
        measured = {q: random_cp_channel(rng) for q in pat.measured}
        assert abs(simulate(resource, pat).average - 1.0) < 1e-12  # deterministic
        rep = fidelity_adaptive(pat, resource, measured, answers)
        run = simulate(resource, pat, {**measured, **answers})
        for key, (z, f) in rep.per_outcome.items():
            assert abs(z - run.branches[key][0]) < 1e-9
            assert abs(f - run.fidelities[key]) < 1e-9
        assert abs(rep.average - run.average) < 1e-9

    def test_seven_noisy_outputs(self):
        # Measuring the end of an 8-vertex path teleports its input to
        # vertex 1, with X there and Z on vertex 2.
        rng = np.random.default_rng(24)
        pat = MeasurementPattern(
            n_qubits=8,
            measured=(0,),
            thetas=(rng.uniform(0.0, 2 * math.pi),),
            alphas=(math.pi / 2,),
            adapt=(BooleanExpr(),),
            byproducts=(ByproductSpec(qubit=1, fx=BooleanExpr.of(0)), ByproductSpec(qubit=2, fz=BooleanExpr.of(0))),
        )
        resource = resource_state(Graph.path(8), {0: random_state(rng)})
        chans = {q: random_cp_channel(rng) for q in range(8)}
        rep = fidelity_nonadaptive(pat, resource, {0: chans[0]}, {q: chans[q] for q in pat.outputs})
        run = simulate(resource, pat, chans)
        for key, (z, f) in rep.per_outcome.items():
            assert abs(z - run.branches[key][0]) < 1e-9
            assert abs(f - run.fidelities[key]) < 1e-9
        assert abs(rep.average - run.average) < 1e-9


def tensordot_branches(amp, pat, s):
    """All 2^M branches of the frame with adaptation bits ``s``: each
    measured qubit projected in turn with ``np.tensordot``."""
    n, m = pat.n_qubits, pat.n_measured
    t, left = amp.reshape((2,) * n), list(range(n))
    for pos, q in enumerate(pat.measured):
        bras = np.conj([basis_raw(pat.thetas[pos], pat.alphas[pos], s[pos], k) for k in (0, 1)])
        t = np.tensordot(bras, t, axes=([1], [pos + left.index(q)]))  # new outcome axis first
        left.remove(q)
    return t.transpose(list(range(m - 1, -1, -1)) + list(range(m, n))).reshape(2**m, -1)


def assert_matches_one_frame_at_a_time(pat, resource):
    frame_of, psi = pat.plan.frames[1], _frame_branches(resource.amplitudes, pat)
    m = pat.n_measured
    assert frame_of.shape == (2**m,) and psi.shape == (frame_of.max() + 1, 2**m, 2 ** len(pat.outputs))
    reference = {}
    for r in range(2**m):
        bits = dict(zip(pat.measured, outcome_tuple(r, m)))
        s = tuple(evaluate(e, bits) for e in pat.adapt)
        if s not in reference:
            reference[s] = tensordot_branches(resource.amplitudes, pat, s)
        assert np.max(np.abs(psi[frame_of[r]] - reference[s])) < 1e-13
    assert len(reference) == len(psi)


class TestFrameBranches:
    @pytest.mark.parametrize("z_last", [False, True], ids=["xy", "z_last"])
    @pytest.mark.parametrize("m", range(1, 10))
    def test_matches_one_frame_at_a_time(self, m, z_last):
        rng = np.random.default_rng(40 + m)
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=m)))
        if z_last:
            pat = dataclasses.replace(pat, alphas=pat.alphas[:-1] + (0.0,), adapt=pat.adapt[:-1] + (BooleanExpr(),))
        assert_matches_one_frame_at_a_time(pat, random_state(rng, m + 1))

    @pytest.mark.parametrize("name", ["non_ascending", "outputs_between", "cnot15"])
    def test_outputs_among_the_measured_qubits(self, name):
        """Outputs that lead a block, and measured qubits that do not
        ascend, which contract after one transpose."""
        rng = np.random.default_rng(49)
        if name == "non_ascending":
            pat = scrambled_pattern(rng.uniform(0.0, 2 * math.pi, size=4))
        elif name == "outputs_between":
            thetas = tuple(rng.uniform(0.0, 2 * math.pi, size=2))
            pat = MeasurementPattern(4, (0, 2), thetas, (math.pi / 2,) * 2, (BooleanExpr(), BooleanExpr.of(0)))
        else:
            pat = cnot15_pattern()
        assert_matches_one_frame_at_a_time(pat, random_state(rng, pat.n_qubits))


def report_case(name, rng):
    if name == "chain":
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=6)))
        return pat, resource_state(Graph.path(7), {0: random_state(rng)})
    if name == "cnot15":
        inputs = {0: random_state(rng), 8: random_state(rng)}
        return cnot15_pattern(), resource_state(Graph.from_edges(15, CNOT15_EDGES), inputs)
    return rsp_pattern(rng.uniform(0.0, 2 * math.pi)), g2()


def report(pat, resource, chans):
    engine = fidelity_nonadaptive if pat.is_nonadaptive() else fidelity_adaptive
    return engine(pat, resource, {q: chans[q] for q in pat.measured}, {q: chans[q] for q in pat.outputs})


def assert_same_bytes(a, b):
    assert a.z.tobytes() == b.z.tobytes()
    assert a.f.tobytes() == b.f.tobytes()
    assert a.average == b.average


def no_branches(*_):
    raise AssertionError("a report on a memoized resource contracted its branches")


class TestPlanReports:
    """What a pattern alone fixes is built once on its plan, and the resource
    half of a report stays there, keyed by the identity of the resource's
    amplitude array."""

    @pytest.mark.parametrize("name", ["chain", "cnot15", "rsp"])
    def test_fresh_plan_gives_the_warm_report(self, name, monkeypatch):
        # The warm report, at other noise, reuses the branches of the first.
        rng = np.random.default_rng(50)
        pat, resource = report_case(name, rng)
        first, second = ({q: random_cp_channel(rng) for q in range(pat.n_qubits)} for _ in range(2))
        report(pat, resource, first)  # builds the plan
        with monkeypatch.context() as m:
            m.setattr(fidelity, "_frame_branches", no_branches)
            warm = report(pat, resource, second)
        fresh_pat = dataclasses.replace(pat)
        fresh = report(fresh_pat, resource, second)
        assert fresh_pat.plan is not pat.plan
        assert_same_bytes(fresh, warm)

    def test_alternating_resources_keep_their_own_reports(self):
        rng = np.random.default_rng(52)
        pat, one = report_case("chain", rng)
        _, other = report_case("chain", rng)
        chans = {q: random_cp_channel(rng) for q in range(pat.n_qubits)}
        expected = {id(r): report(dataclasses.replace(pat), r, chans) for r in (one, other)}
        report(pat, one, chans)
        for r in (other, one, other, other, one):
            assert_same_bytes(report(pat, r, chans), expected[id(r)])
            assert pat.plan._memo["codes"][0]() is r.amplitudes

    def test_plan_does_not_pin_the_resource(self):
        rng = np.random.default_rng(53)
        pat, resource = report_case("cnot15", rng)
        chans = {q: random_cp_channel(rng) for q in range(pat.n_qubits)}
        report(pat, resource, chans)
        gone = weakref.ref(resource.amplitudes)
        del resource
        gc.collect()
        assert gone() is None
        _, fresh_resource = report_case("cnot15", rng)
        assert_same_bytes(report(pat, fresh_resource, chans), report(dataclasses.replace(pat), fresh_resource, chans))

    def test_dropped_pattern_frees_its_memo(self):
        # The plan holds the pattern's fields, not the pattern, so no cycle
        # keeps a dropped pattern's workspace and oracle tensor alive until a
        # cyclic collection.
        rng = np.random.default_rng(65)
        pat, resource = report_case("chain", rng)
        chans = {q: random_cp_channel(rng) for q in range(pat.n_qubits)}
        report(pat, resource, chans)
        simulate(resource, pat, chans)
        held = [weakref.ref(pat.plan._memo[key][1]) for key in ("codes", "oracle")]
        gc.disable()
        try:
            del pat
            assert [ref() for ref in held] == [None, None]
        finally:
            gc.enable()

    def test_threads_sharing_a_pattern(self):
        # CNOT15 reports are long enough, and spend enough time in numpy
        # without the GIL, that a workspace shared by both threads would show.
        rng = np.random.default_rng(54)
        pat, one = report_case("cnot15", rng)
        _, other = report_case("cnot15", rng)
        sweep = [{q: random_cp_channel(rng) for q in range(pat.n_qubits)} for _ in range(3)]
        resources = (one, other)
        expected = [[report(dataclasses.replace(pat), r, c) for c in sweep] for r in resources]
        start = threading.Barrier(2)
        results: dict[int, list] = {}

        def run(first):
            start.wait()
            out = []
            for i in range(12):
                which = (first + i) % 2
                out.append((which, i % 3, report(pat, resources[which], sweep[i % 3])))
            results[first] = out

        threads = [threading.Thread(target=run, args=(first,)) for first in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == [0, 1]
        for out in results.values():
            for which, point, rep in out:
                assert_same_bytes(rep, expected[which][point])

    def test_graph_state_and_its_pure_state(self, monkeypatch):
        rng = np.random.default_rng(55)
        pat, _ = report_case("chain", rng)
        graph = Graph.path(pat.n_qubits)
        gs = build_graph_state(graph)
        chans = {q: random_cp_channel(rng) for q in range(pat.n_qubits)}
        expected = report(dataclasses.replace(pat), gs.state, chans)
        assert_same_bytes(report(pat, gs, chans), expected)
        with monkeypatch.context() as m:
            m.setattr(fidelity, "_frame_branches", no_branches)
            assert_same_bytes(report(pat, gs.state, chans), expected)
            assert_same_bytes(report(pat, gs, chans), expected)


def nine_step_chain(rng):
    """A 9-step chain and its resource, whose pair stages lie above glibc's
    initial mmap threshold."""
    return chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=9))), resource_state(Graph.path(10), {0: random_state(rng)})


def chain_report(chain, resource, t):
    return report(chain, resource, {q: NoiseChannel(B=0.8, C=0.9, S=0.7, t=t) for q in range(chain.n_qubits)})


def warm_report_faults():
    """Minor page faults per warm report of a t sweep, on a fresh CNOT15
    resource each time or on one chain resource throughout, keyed by case.
    The chains have 6 and 9 steps: the 9-step one has pair stages above the
    allocator's mmap threshold, so one allocated per report would show.
    Each sweep runs twice: with each report alive until the next one
    returns, as in the benchmark loop, and with each report dropped at
    once."""
    rng = np.random.default_rng(56)
    cnot, graph = cnot15_pattern(), Graph.from_edges(15, CNOT15_EDGES)
    six = report_case("chain", rng)
    nine = nine_step_chain(rng)
    times = np.linspace(0.05, 0.6, 20)

    def cnot_report(t):
        inputs = {0: random_state(rng), 8: random_state(rng)}
        return report(cnot, resource_state(graph, inputs), {q: NoiseChannel.white(0.25, t) for q in range(15)})

    sweeps = {"cnot15": cnot_report, "6-step chain": functools.partial(chain_report, *six), "9-step chain": functools.partial(chain_report, *nine)}
    faults = {}
    for name, one in sweeps.items():
        for kept in (1, 0):
            # The last ``kept`` reports stay alive.
            alive = collections.deque(maxlen=kept)
            for t in times[:3]:
                alive.append(one(t))
            before = getrusage(RUSAGE_SELF).ru_minflt
            for t in times:
                alive.append(one(t))
            faults[f"{name}, {kept} kept"] = (getrusage(RUSAGE_SELF).ru_minflt - before) / len(times)
    return faults


@pytest.mark.skipif(getrusage is None, reason="the resource module is missing")
def test_warm_reports_fault_in_no_pages():
    """Warm reports reuse the plan's workspace and heap memory, so they
    fault in no fresh pages; the regressions seen read 1,000 or more minor
    faults per report.  Plans that kept no workspace have passed one way
    while reading 100 to 400 faults per report the other way, depending on
    the allocator's layout.  The sweep runs in a fresh interpreter, as each
    benchmark run does: in a process that earlier tests have used, their
    heap hid a plan that held one workspace for good, so that no free raised
    glibc's mmap and trim thresholds, at 200 to 600 faults per CNOT15 report."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
    code = "import json, test_fidelity; print(json.dumps(test_fidelity.warm_report_faults()))"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    for case, per_report in json.loads(done.stdout.splitlines()[-1]).items():
        assert per_report < 50, f"{case}: {per_report} minor faults per report"


def test_warm_reports_write_their_pair_stages_in_place():
    """A warm report on the 9-step chain writes each block's output into the
    plan's pair-stage buffers, so its traced peak stays below the smallest of
    them.  The page-fault test above cannot see such a buffer allocated per
    report: once glibc has raised its mmap threshold, blocks of that size
    come from the heap, which is already faulted in."""
    chain, resource = nine_step_chain(np.random.default_rng(56))
    for t in (0.05, 0.1):
        chain_report(chain, resource, t)
    smallest = 8 * min(fidelity._pair_stages(chain)[1][1:])
    for t in (0.2, 0.4):
        peak = traced_peak(lambda: chain_report(chain, resource, t))
        assert peak < smallest, f"a warm report peaks at {peak} bytes; the smallest pair-stage output holds {smallest}"


class TestFlipStage:
    @settings(max_examples=40)
    @given(
        m=st.integers(1, 9),
        z_axis=st.lists(st.booleans(), min_size=9, max_size=9),
        noise=st.lists(
            st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.6, 0.95), st.floats(0.05, 1.0)),
            min_size=9,
            max_size=9,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_explicit_kron(self, m, z_axis, noise, seed):
        """Z(r) = sum_k W[r, k] |psi_k|^2 and Z(r) F(r) = sum_k W[r, k]
        |<T|psi_k>|^2, with W the explicit Kronecker product of every
        measured qubit's read matrix and T = A_r0, the normalized branch of
        the first record with |psi_r|^2 > 1e-12 (the pattern has no
        by-products); the fixed-point shift makes the z reads asymmetric
        (p0 != p1)."""
        rng = np.random.default_rng(seed)
        alphas = tuple(0.0 if z else math.pi / 2 for z in z_axis[:m])
        pat = MeasurementPattern(
            n_qubits=m + 1,
            measured=tuple(range(m)),
            thetas=tuple(rng.uniform(0.0, 2 * math.pi, size=m)),
            alphas=alphas,
            adapt=(BooleanExpr(),) * m,
        )
        chans = {q: NoiseChannel(B=b, C=b / 2 + c, S=s, t=t) for q, (b, c, s, t) in enumerate(noise[:m])}
        resource = random_state(rng, m + 1)
        rep = fidelity_nonadaptive(pat, resource, chans)

        reads = []
        for pos in range(m):
            p0, p1 = mixing_probabilities(chans[pos], alphas[pos])
            reads.append(np.array([[1.0 - p0, p1], [p0, 1.0 - p1]]))
        # Built with np.kron, apart from the engine's own Kronecker product.
        w = functools.reduce(np.kron, reads)
        bras = functools.reduce(np.kron, [np.conj([basis_raw(pat.thetas[i], alphas[i], 0, k) for k in (0, 1)]) for i in range(m)])
        psi = bras @ resource.amplitudes.reshape(2**m, 2)
        norm2 = np.einsum("ka,ka->k", psi, psi.conj()).real
        z = w @ norm2
        r0 = int(np.flatnonzero(norm2 > 1e-12)[0])
        overlap = np.abs(psi @ psi[r0].conj()) ** 2 / norm2[r0]  # [k] = |<A_r0|psi_k>|^2
        zf = w @ overlap
        assert np.max(np.abs(rep.z - z)) < 1e-13
        reached = ~np.isnan(rep.f)
        assert np.max(np.abs((rep.z * rep.f)[reached] - zf[reached])) < 1e-12


    @staticmethod
    def per_record_kron(pat, resource, chans):
        """Z(r) = sum_k W[r, k] |psi_{s(r),k}|^2 and Z(r) F(r) = sum_k W[r, k]
        |<T_r|psi_{s(r),k}>|^2, T_r = BP(r) BP(r0) A_r0, with W and every
        frame's bras built by np.kron, and each record's branches psi_{s(r)}
        from the bras of its own adaptation bits s(r)."""
        m, outputs = pat.n_measured, pat.outputs
        reads = []
        for q, alpha in zip(pat.measured, pat.alphas):
            p0, p1 = mixing_probabilities(chans[q], alpha) if q in chans else (0.0, 0.0)
            reads.append(np.array([[1.0 - p0, p1], [p0, 1.0 - p1]]))
        w = functools.reduce(np.kron, reads, np.eye(1))
        amp = resource.amplitudes.reshape((2,) * pat.n_qubits).transpose(pat.measured + outputs).reshape(2**m, -1)
        records = [outcome_tuple(r, m) for r in range(2**m)]
        frames = [tuple(evaluate(e, dict(zip(pat.measured, rec))) for e in pat.adapt) for rec in records]
        psi = {}
        for s in set(frames):
            rows = [np.conj([basis_raw(pat.thetas[i], pat.alphas[i], s[i], b) for b in (0, 1)]) for i in range(m)]
            psi[s] = functools.reduce(np.kron, rows, np.eye(1)) @ amp
        norm2 = np.array([np.vdot(psi[s][r], psi[s][r]).real for r, s in enumerate(frames)])
        r0 = int(np.flatnonzero(norm2 > 1e-12)[0])
        t = byproduct_unitary(pat, records[r0]) @ psi[frames[r0]][r0] / math.sqrt(norm2[r0])
        z = np.array([w[r] @ np.sum(np.abs(psi[s]) ** 2, axis=1) for r, s in enumerate(frames)])
        zf = np.array([w[r] @ np.abs(psi[s] @ (byproduct_unitary(pat, records[r]) @ t).conj()) ** 2 for r, s in enumerate(frames)])
        return z, zf

    def assert_matches_per_record_kron(self, pat, resource, chans):
        rep = fidelity_adaptive(pat, resource, chans)
        z, zf = self.per_record_kron(pat, resource, chans)
        assert np.max(np.abs(rep.z - z)) < 1e-13
        reached = ~np.isnan(rep.f)
        assert np.array_equal(reached, z > 1e-12)
        assert np.max(np.abs((rep.z * rep.f)[reached] - zf[reached])) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 8), k=st.integers(0, 2), seed=st.integers(0, 2**16))
    def test_adaptive_matches_per_record_kron(self, m, k, seed):
        """Random patterns of m measured qubits, in random order among k
        outputs: z-axis positions, each other one adapting by a random
        constant and a random set of earlier outcomes, and random
        by-products, under channels with shifted fixed points."""
        rng = np.random.default_rng(seed)
        order = [int(q) for q in rng.permutation(m + k)]
        measured, z_axis = tuple(order[:m]), rng.random(m) < 0.25
        subset = lambda qubits: [q for q in qubits if rng.random() < 0.5]
        pat = MeasurementPattern(
            n_qubits=m + k,
            measured=measured,
            thetas=tuple(rng.uniform(0.0, 2 * math.pi, size=m)),
            alphas=tuple(0.0 if z else math.pi / 2 for z in z_axis),
            adapt=tuple(
                BooleanExpr() if z_axis[pos] else BooleanExpr.of(*subset(measured[:pos]), const=int(rng.integers(2)))
                for pos in range(m)
            ),
            byproducts=tuple(
                ByproductSpec(q, fx=BooleanExpr.of(*subset(measured)), fz=BooleanExpr.of(*subset(measured), const=int(rng.integers(2))))
                for q in order[m:]
            ),
        )
        chans = {q: random_cp_channel(rng) for q in measured}
        self.assert_matches_per_record_kron(pat, random_state(rng, m + k), chans)

    def test_partly_pruned_blocks(self):
        """Adaptations that fix some of a block's read values and leave the
        rest free: qubit 4 adapts on qubit 0 and qubit 6 on qubits 1 and 4,
        so the first block, qubits 0 to 2, reads 4 of its 8 values per frame
        and the second 8 of its 16 per (frame, read prefix)."""
        rng = np.random.default_rng(66)
        adapt = [BooleanExpr()] * 7
        adapt[4], adapt[6] = BooleanExpr.of(0), BooleanExpr.of(1, 4, const=1)
        pat = MeasurementPattern(
            n_qubits=8,
            measured=tuple(range(7)),
            thetas=tuple(rng.uniform(0.0, 2 * math.pi, size=7)),
            alphas=(math.pi / 2,) * 7,
            adapt=tuple(adapt),
            byproducts=(ByproductSpec(7, fx=BooleanExpr.of(0, 3), fz=BooleanExpr.of(5, 6)),),
        )
        assert len(pat.plan.frames[0]) == 4
        assert [rows.shape for rows in pat.plan.pairs[0]] == [(4, 4), (16, 8)]
        chans = {q: random_cp_channel(rng) for q in pat.measured}
        self.assert_matches_per_record_kron(pat, resource_state(Graph.path(8), {0: random_state(rng)}), chans)


class TestFlipFactor:
    @pytest.mark.parametrize("b", range(1, 5))
    def test_matches_reduced_kron(self, b):
        """The gathered factor of a block of b positions, two positions in,
        is the Kronecker product of its read matrices bit for bit; z-axis
        reads under shifted noise (S != 1/2) are asymmetric, p0 != p1, so a
        transposed entry would show."""
        rng = np.random.default_rng(60 + b)
        mats = []
        for _ in range(b + 3):
            B = rng.uniform(0.2, 1.5)
            ch = NoiseChannel(B=B, C=B / 2 + rng.uniform(0.3, 1.5), S=rng.uniform(0.6, 0.95), t=rng.uniform(0.05, 1.0))
            p0, p1 = mixing_probabilities(ch, 0.0)
            assert p0 != p1
            mats.append(np.array([[1.0 - p0, p1], [p0, 1.0 - p1]]))
        reads = np.array(mats).reshape(-1)
        block = range(2, 2 + b)
        factor = fidelity._flip_factor(reads, block)
        expected = functools.reduce(np.kron, mats[2 : 2 + b])
        assert factor.shape == expected.shape == (2**b, 2**b)
        assert factor.tobytes() == expected.tobytes()
        assert factor.tobytes() == kron_all(mats[2 : 2 + b]).tobytes()
        # A one-position block reads its matrix in place.
        assert np.shares_memory(factor, reads) == (b == 1)


def invariance_settings(rng, pat, count):
    """``count`` channel maps over the qubits of ``pat`` at one random C per
    qubit in [0.3, 1.5] and t = 0.4, each drawing anew B in [0, 2C] and S in
    [0, 1] on every measured qubit and S on every output, whose B is C."""
    cs = rng.uniform(0.3, 1.5, size=pat.n_qubits)

    def channel(q):
        b = rng.uniform(0.0, 2.0 * cs[q]) if q in pat.measured else cs[q]
        return NoiseChannel(b, cs[q], rng.uniform(), 0.4)

    return [{q: channel(q) for q in range(pat.n_qubits)} for _ in range(count)]


class TestWhatTheComputationSees:
    """Of the noise on an equatorial, deterministic pattern, the averaged
    fidelity sees only C on the measured qubits and the Pauli part of the
    outputs' channels, when the fx columns span the noisy outputs; the
    resource's correlations, and per-record F, see B and S too.  Every
    qubit of the RSP cases and of the two limits has C = 1 and t = 0.5; the
    rotation and CNOT15 cases draw their settings by
    ``invariance_settings``."""

    # (B, S) of RSP's measured qubit 0 and S of its output 1, whose B is 0.5.
    SETTINGS = [(0.0, 0.5, 0.5), (0.5, 0.5, 0.5), (0.5, 1.0, 1.0), (1.0, 0.5, 0.9), (1.0, 1.0, 0.0)]
    INPUT = PureState(np.array([0.6, 0.8]))

    @staticmethod
    def rsp_channels(b0, s0, s1):
        return NoiseChannel(b0, 1.0, s0, 0.5), NoiseChannel(0.5, 1.0, s1, 0.5)

    @staticmethod
    def average(pat, resource, chans):
        """The engine's average, checked against the oracle's."""
        average = report(pat, resource, chans).average
        assert abs(simulate(resource, pat, chans).average - average) < 1e-12
        return average

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.5])
    def test_rsp_average_is_flat_in_b_and_s(self, theta):
        gs, pat = g2(), rsp_pattern(theta)
        averages = [self.average(pat, gs, dict(enumerate(self.rsp_channels(*s)))) for s in self.SETTINGS]
        assert max(averages) - min(averages) < 1e-13

    def test_rotation_average_is_flat_in_b_and_s(self):
        rng = np.random.default_rng(70)
        pat = rotation_pattern(0.3, 1.1, 2.5)
        resource = resource_state(Graph.path(5), {0: random_state(rng)})
        sweep = invariance_settings(rng, pat, 5)
        averages = [self.average(pat, resource, chans) for chans in sweep]
        assert max(averages) - min(averages) < 1e-13
        f = np.array([report(pat, resource, chans).f for chans in sweep])
        assert np.max(np.ptp(f, axis=0)) > 1e-3  # per record, F moves

    def test_cnot15_average_is_flat_in_b_and_s(self):
        rng = np.random.default_rng(71)
        pat, graph = cnot15_pattern(), Graph.from_edges(15, CNOT15_EDGES)
        resource = resource_state(graph, {0: random_state(rng), 8: random_state(rng)})
        reports = [report(pat, resource, chans) for chans in invariance_settings(rng, pat, 3)]
        averages = [rep.average for rep in reports]
        assert max(averages) - min(averages) < 1e-13
        assert np.max(np.ptp([rep.f for rep in reports], axis=0)) > 1e-3  # per record, F moves

    def test_rsp_resource_correlations_move(self):
        rho0 = g2().state.density()
        values = []
        for setting in self.SETTINGS:
            c0, c1 = self.rsp_channels(*setting)
            rho = channels.apply(c1, channels.apply(c0, rho0, 0), 1)
            values.append((correlations.negativity(rho, (0,)), correlations.concurrence(rho), correlations.discord(rho)))
        for measure in zip(*values):
            assert max(measure) - min(measure) > 0.03

    @staticmethod
    def same_channels(q, s):
        """(B, C, S) = (0.5, 1, 0.5) on qubits 0..2, S = ``s`` on qubit ``q``."""
        chans = {v: NoiseChannel(0.5, 1.0, 0.5, 0.5) for v in range(3)}
        chans[q] = NoiseChannel(0.5, 1.0, s, 0.5)
        return chans

    def test_z_measured_position_moves_the_average(self):
        # The input's tilt makes the z outcomes unequal; untilted, their
        # flips would sum to 1 - e^{-Bt} whatever S is, and move nothing.
        pat = MeasurementPattern(
            n_qubits=3,
            measured=(0, 1),
            thetas=(0.0, 0.7),
            alphas=(0.0, math.pi / 2),
            adapt=(BooleanExpr(),) * 2,
            byproducts=(ByproductSpec(2, fx=BooleanExpr.of(1), fz=BooleanExpr.of(0)),),
        )
        resource = resource_state(Graph.path(3), {0: self.INPUT})
        low, high = (self.average(pat, resource, self.same_channels(0, s)) for s in (0.5, 0.9))
        assert low == pytest.approx(0.52077, abs=5e-6) and high == pytest.approx(0.51698, abs=5e-6)

    def test_output_with_constant_fx_moves_the_average(self):
        # RSP beside an idle input wire 2, an output that no by-product flips.
        pat = MeasurementPattern(
            n_qubits=3,
            measured=(0,),
            thetas=(0.3,),
            alphas=(math.pi / 2,),
            adapt=(BooleanExpr(),),
            byproducts=(ByproductSpec(1, fx=BooleanExpr.of(0)),),
        )
        resource = resource_state(Graph(3, ((0, 1),)), {2: self.INPUT})
        low, high = (self.average(pat, resource, self.same_channels(2, s)) for s in (0.5, 0.9))
        assert low == pytest.approx(0.59263, abs=5e-6) and high == pytest.approx(0.57450, abs=5e-6)
