import math
import re

import numpy as np
import pytest

from onewaysim.channels import NoiseChannel, apply
from onewaysim.correlations import (
    _bloch_decomposition,
    _l1_coherence,
    _measured_entropy,
    classical_correlation,
    concurrence,
    discord,
    mep,
    mutual_information,
    negativity,
    von_neumann_entropy,
)
from onewaysim.graphstate import Graph, build_graph_state
from onewaysim.linalg import ID2, PAULIS, PLUS, DensityMatrix, PureState, kron_all

from test_linalg import computational


def rotation(axis, phi):
    """exp(-i phi n.sigma / 2) about the unit vector n along ``axis``."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    return math.cos(phi / 2) * ID2 - 1j * math.sin(phi / 2) * sum(a * s for a, s in zip(n, PAULIS[1:]))


def bell():
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)).density()


def g2_density():
    return build_graph_state(Graph.from_edges(2, [(0, 1)])).state.density()


def noisy_g2(kind, gamma, t):
    ch = NoiseChannel.phase_flip(gamma, t) if kind == "pf" else NoiseChannel.white(gamma, t)
    return apply(ch, g2_density(), 0)


def random_density(rng, n):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


class TestConcurrence:
    def test_bell_is_one(self):
        assert abs(concurrence(bell()) - 1.0) < 1e-12

    def test_product_is_zero(self):
        rho = PureState(np.kron(PLUS, computational([0]).amplitudes)).density()
        assert concurrence(rho) < 1e-8

    def test_phase_flip_decay(self):
        gamma = 1.0
        for t in (0.0, 0.3, 1.0, 2.5):
            c = concurrence(noisy_g2("pf", gamma, t))
            assert abs(c - math.exp(-2 * gamma * t)) < 1e-10

    def test_white_sudden_death(self):
        gamma = 1.0
        for t in (0.1, 0.2, math.log(3) / 4, 0.5, 1.5):
            c = concurrence(noisy_g2("w", gamma, t))
            expect = max(0.0, (3 * math.exp(-4 * gamma * t) - 1) / 2)
            assert abs(c - expect) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(1)
        rho = noisy_g2("pf", 1.0, 0.4)
        ax = rng.normal(size=3)
        u = kron_all([rotation(ax, 1.3), rotation((0, 1, 0), 0.7)])
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-8


class TestNegativity:
    def test_product_zero(self):
        rho = PureState(np.kron(PLUS, PLUS)).density()
        assert negativity(rho, {0}) < 1e-12

    def test_bell_half(self):
        assert abs(negativity(bell(), {0}) - 0.5) < 1e-12

    def test_sides_agree(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 2)
        assert abs(negativity(rho, {0}) - negativity(rho, {1})) < 1e-10

    def test_local_unitary_invariance(self):
        rho = noisy_g2("w", 1.0, 0.2)
        u = kron_all([rotation((0, 0, 1), 0.9), rotation((1, 0, 0), 2.1)])
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert abs(negativity(rotated, {0}) - negativity(rho, {0})) < 1e-8

    @pytest.mark.parametrize(
        "partition, expected",
        [([0.5], TypeError), ([1.0], TypeError), ([np.int64(1)], 0.5), ((np.uint8(0),), 0.5)],
        ids=["half", "integral_float", "int64", "uint8"],
    )
    def test_integer_partition(self, partition, expected):
        # int() once read 0.5 as qubit 0.
        if isinstance(expected, float):
            assert abs(negativity(bell(), partition) - expected) < 1e-12
        else:
            with pytest.raises(expected, match="cannot be interpreted as an integer"):
                negativity(bell(), partition)

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            negativity(bell(), {0, 1})

    @pytest.mark.parametrize("partition", [(-1,), (2,)], ids=["negative", "past_end"])
    def test_partition_out_of_range(self, partition):
        with pytest.raises(ValueError, match=re.escape(f"partition {list(partition)} out of range")):
            negativity(bell(), partition)


TWO_QUBIT_ONLY = {
    "concurrence": (concurrence, "concurrence is defined for two qubits"),
    "mutual_information": (mutual_information, "mutual information here is two-qubit only"),
    "classical_correlation": (classical_correlation, "classical correlation here is two-qubit only"),
    "discord_auto": (lambda rho: discord(rho), "discord here is two-qubit only"),
    "discord_optimize": (lambda rho: discord(rho, method="optimize"), "discord here is two-qubit only"),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", list(TWO_QUBIT_ONLY))
def test_two_qubit_measures_refuse_other_sizes(name, n):
    # Discord on 3 qubits once failed inside numpy's reshape, or, by
    # optimizer, with mutual information's message.
    measure, message = TWO_QUBIT_ONLY[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        measure(random_density(np.random.default_rng(n), n))


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(bell()) < 1e-12

    def test_mixed(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) - 2.0) < 1e-12



def random_directions(rng, count):
    n = rng.normal(size=(count, 3))
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def conditional_entropy_reference(rho, measured_side, n):
    """sum_k p_k S(other | k) from the post-measurement blocks of the
    projectors (I +- n.sigma)/2 on the measured side, one eigvalsh each."""
    t = rho.reshape(2, 2, 2, 2)
    nsigma = sum(c * p for c, p in zip(n, PAULIS[1:]))
    total = 0.0
    for sign in (1.0, -1.0):
        proj = (ID2 + sign * nsigma) / 2
        if measured_side == "B":
            block = np.einsum("ibjc,cb->ij", t, proj)
        else:
            block = np.einsum("bicj,cb->ij", t, proj)
        p = np.trace(block).real
        if p > 1e-14:
            total += p * von_neumann_entropy(block / p)
    return total


class TestPauliTensor:
    def test_matches_explicit_traces(self):
        # Random states are not Bell-diagonal: a transposed T or a sign
        # flip, invisible to T's singular values, shows here.
        rng = np.random.default_rng(4)
        for _ in range(5):
            rho = random_density(rng, 2).entries
            m = np.array([[np.trace(rho @ np.kron(p, q)).real for q in PAULIS] for p in PAULIS])
            a, b, t = _bloch_decomposition(rho)
            assert np.max(np.abs(a - m[1:, 0])) < 1e-12
            assert np.max(np.abs(b - m[0, 1:])) < 1e-12
            assert np.max(np.abs(t - m[1:, 1:])) < 1e-12

    @pytest.mark.parametrize("measured_side", ["A", "B"])
    def test_conditional_entropy_matches_blocks(self, measured_side):
        rng = np.random.default_rng(5)
        states = [random_density(rng, 2).entries for _ in range(4)]
        # A product state measured along z has an outcome of probability 0.
        states.append(computational([0, 0]).density().entries)
        for rho in states:
            a, b, t = _bloch_decomposition(rho)
            if measured_side == "A":
                a, b, t = b, a, t.T
            n = np.vstack([random_directions(rng, 20), [[0.0, 0.0, 1.0]]])
            closed = _measured_entropy(a, b, t, n)
            for k in range(len(n)):
                assert abs(closed[k] - conditional_entropy_reference(rho, measured_side, n[k])) < 1e-12

    @pytest.mark.parametrize("measured_side", ["A", "B"])
    def test_classical_correlation_reaches_reference_maximum(self, measured_side):
        # The search must reach the best of many reference directions and
        # can only exceed it by the grid's resolution.
        rng = np.random.default_rng(6)
        for _ in range(2):
            rho = random_density(rng, 2)
            other = 0 if measured_side == "B" else 1
            s_other = von_neumann_entropy(np.trace(rho.entries.reshape(2, 2, 2, 2), axis1=1 - other, axis2=3 - other))
            grid = random_directions(rng, 2000)
            ref = max(s_other - conditional_entropy_reference(rho.entries, measured_side, n) for n in grid)
            cc = classical_correlation(rho, measured_side)
            assert ref - 1e-12 <= cc <= ref + 1e-3


class TestDiscord:
    def test_classical_state_zero(self):
        rho = DensityMatrix(np.diag([0.4, 0.0, 0.0, 0.6]).astype(complex))
        assert abs(discord(rho, method="optimize")) < 1e-6

    def test_bell_is_one(self):
        assert abs(discord(bell()) - 1.0) < 1e-10
        assert abs(discord(bell(), method="optimize") - 1.0) < 1e-6

    def test_closed_form_vs_optimizer(self):
        for kind, gamma, t in (("pf", 1.0, 0.5), ("w", 0.57, 1.0), ("w", 1.0, 0.25)):
            rho = noisy_g2(kind, gamma, t)
            closed = discord(rho, method="auto")
            numeric = discord(rho, method="optimize")
            assert abs(closed - numeric) < 1e-6

    def test_optimizer_never_overshoots_supremum(self):
        # On Bell-diagonal states the supremum of the classical correlation
        # is known; the search must stay at or below it.
        for kind, gamma, t in (("pf", 1.0, 0.8), ("w", 1.0, 0.4)):
            rho = noisy_g2(kind, gamma, t)
            info = mutual_information(rho)
            closed_q = discord(rho, method="auto")
            cc_closed = info - closed_q
            cc_numeric = classical_correlation(rho)
            assert cc_numeric <= cc_closed + 1e-6

    def test_classical_quantum_states_zero_discord(self):
        # Mixture of |0><0| x rho_0 and |1><1| x rho_1 measured on side A.
        rng = np.random.default_rng(3)
        r0, r1 = random_density(rng, 1), random_density(rng, 1)
        k0 = np.kron(np.diag([1.0, 0.0]), r0.entries)
        k1 = np.kron(np.diag([0.0, 1.0]), r1.entries)
        rho = DensityMatrix(0.3 * k0 + 0.7 * k1)
        assert abs(discord(rho, measured_side="A", method="optimize")) < 1e-6

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method must be 'auto' or 'optimize'"):
            discord(g2_density(), method="closed")

    def test_classical_correlation_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="measured_side must be 'A' or 'B'"):
            classical_correlation(g2_density(), measured_side="C")

    @pytest.mark.parametrize("method", ["auto", "optimize"])
    def test_rejects_unknown_side(self, method):
        # The closed form once answered 1.0 for side "C" on the graph state.
        with pytest.raises(ValueError, match="measured_side must be 'A' or 'B'"):
            discord(g2_density(), measured_side="C", method=method)

    def test_pf_closed_form_value(self):
        # Rank-two Bell mixture: discord is 1 - H(q) with q the mixing weight.
        gamma, t = 1.0, 0.6
        q = (1 - math.exp(-2 * gamma * t)) / 2
        h = -q * math.log2(q) - (1 - q) * math.log2(1 - q)
        assert abs(discord(noisy_g2("pf", gamma, t)) - (1 - h)) < 1e-10


def luo_reference(c):
    """(mutual information, discord) of the Bell-diagonal state
    (I + sum_j c_j sigma_j x sigma_j) / 4 from its four eigenvalues
    (Luo, PRA 77, 042303 (2008))."""
    c1, c2, c3 = c
    lam = [
        (1 + c1 - c2 + c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
        (1 - c1 - c2 - c3) / 4,
    ]
    info = 2.0 + sum(x * math.log2(x) for x in lam if x > 0.0)
    # Measuring along the strongest correlation leaves outcomes that agree
    # with probability (1 + cmax) / 2.
    agree = (1.0 + max(map(abs, c))) / 2.0
    cc = 1.0 + sum(x * math.log2(x) for x in (agree, 1.0 - agree) if x > 0.0)
    return info, info - cc


def random_bell_diagonal_coefficients(rng, count):
    """Coefficients of ``count`` random Bell-diagonal states, drawn from the
    cube and kept where all four eigenvalues are nonnegative."""
    kept = []
    while len(kept) < count:
        c = rng.uniform(-1.0, 1.0, size=3)
        if min(1 + c[0] - c[1] + c[2], 1 - c[0] + c[1] + c[2], 1 + c[0] + c[1] - c[2], 1 - c.sum()) >= 0.0:
            kept.append(c)
    return kept


class TestLuoClosedForm:
    def test_rotated_bell_diagonal_states(self):
        # Local unitaries rotate T by proper rotations, which keep the sign
        # of det T; the sample holds both signs.
        rng = np.random.default_rng(7)
        coefficients = random_bell_diagonal_coefficients(rng, 100)
        assert {np.sign(np.prod(c)) for c in coefficients} == {-1.0, 1.0}
        for c in coefficients:
            bell_diagonal = (np.eye(4) + sum(cj * np.kron(p, p) for cj, p in zip(c, PAULIS[1:]))) / 4
            u = random_local_unitary(rng, 2)
            rho = DensityMatrix(u @ bell_diagonal @ u.conj().T)
            info, q = luo_reference(c)
            assert abs(mutual_information(rho) - info) < 1e-12
            for side in ("A", "B"):
                assert abs(discord(rho, measured_side=side) - q) < 1e-12

    def test_rank_two_mixtures_to_rounding(self):
        # T's largest singular value is 1 up to rounding, which h must not
        # lift to 1e-14.
        for t in np.linspace(0.05, 0.6, 12):
            q = (1 - math.exp(-2 * t)) / 2
            expect = 1 + q * math.log2(q) + (1 - q) * math.log2(1 - q)
            assert abs(discord(noisy_g2("pf", 1.0, t)) - expect) < 2e-15

    def test_mutual_information_matches_partial_traces(self):
        # Random states have nonzero local Bloch vectors.
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(rng, 2)
            t = rho.entries.reshape(2, 2, 2, 2)
            sa = von_neumann_entropy(np.trace(t, axis1=1, axis2=3))
            sb = von_neumann_entropy(np.trace(t, axis1=0, axis2=2))
            assert abs(mutual_information(rho) - (sa + sb - von_neumann_entropy(rho))) < 1e-12


def rz(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def ry(b):
    return np.array([[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]])


def random_local_unitary(rng, n):
    return kron_all([np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(n)])


def activated_doubled_negativity(rotated):
    """-2 times the negative eigenvalues of sum_ij rho'_ij |i i><j j| with
    the ancillas (second factor) transposed."""
    d = len(rotated)
    full = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)
    full[np.ix_(diag, diag)] = rotated
    pt = full.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    w = np.linalg.eigvalsh(pt)
    return -2.0 * w[w < 0.0].sum()


class TestMep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_l1_coherence_is_activated_negativity(self, n):
        # The reference also applies an outer Rz per qubit, which must not
        # change the result.
        rng = np.random.default_rng(10 + n)
        for _ in range(4):
            rho = random_density(rng, n).entries
            a, b, c = rng.uniform(0.0, 2 * math.pi, size=(3, n))
            u = kron_all([rz(a[q]) @ ry(b[q]) @ rz(c[q]) for q in range(n)])
            expect = activated_doubled_negativity(u @ rho @ u.conj().T)
            assert abs(_l1_coherence(rho, np.concatenate((b, c))) - expect) < 1e-12

    def test_classical_state_zero(self):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.1, 0.4]).astype(complex))
        assert mep(rho, starts=8) < 1e-6

    def test_single_qubit_plus_state(self):
        # A pure superposition activates a full unit of entanglement only
        # in the worst basis; the minimum over unitaries is zero.
        assert mep(computational([0]).density(), starts=8) < 1e-6

    def test_phase_flip_g2(self):
        gamma, t = 1.0, 0.35
        p = 1 - math.exp(-2 * gamma * t)
        val = mep(noisy_g2("pf", gamma, t), starts=32)
        assert abs(val - (1 - p)) < 1e-4

    def test_white_g2(self):
        gamma, t = 1.0, 0.3
        p = 1 - math.exp(-4 * gamma * t)
        val = mep(noisy_g2("w", gamma, t), starts=32)
        assert abs(val - (1 - p)) < 1e-4

    @pytest.mark.parametrize("kind, rate", [("pf", 2.0), ("w", 4.0)])
    def test_three_qubit_g2_with_idle_qubit(self, kind, rate):
        # A |0> qubit beside the noisy pair adds no coherence to activate.
        gamma, t = 1.0, 0.3
        rho = DensityMatrix(np.kron(noisy_g2(kind, gamma, t).entries, computational([0]).density().entries))
        assert abs(mep(rho) - math.exp(-rate * gamma * t)) < 1e-4

    def test_three_qubit_local_unitary_invariance(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, 3)
        u = random_local_unitary(rng, 3)
        rotated = DensityMatrix(u @ rho.entries @ u.conj().T)
        assert abs(mep(rotated) - mep(rho)) < 1e-4

    def test_full_result(self):
        res = mep(bell(), starts=8, full=True)
        assert res.n_starts == 8
        assert res.converged
        assert 0.0 <= res.value <= 1.0 + 1e-9

    def test_rejects_no_starts(self):
        with pytest.raises(ValueError, match="starts=0"):
            mep(bell(), starts=0)

    def test_rejects_four_qubits(self):
        with pytest.raises(ValueError, match="activation protocol capped at 3 system qubits"):
            mep(random_density(np.random.default_rng(4), 4))
