import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from onewaysim import channels
from onewaysim.channels import (
    InvalidMapError,
    NoiseChannel,
    apply,
    choi_min_eigenvalue,
    lambdas,
    mixing_probabilities,
    superoperator,
)
from onewaysim.fidelity import fidelity_nonadaptive
from onewaysim.linalg import DensityMatrix, PAULIS, PLUS, PureState
from onewaysim.pattern import BooleanExpr, MeasurementPattern, basis_raw

from test_linalg import computational


# -- the independent reference: the map as Pauli sandwiches from ``lambdas``,
# its Choi matrix and Kraus operators from that matrix's eigenvectors.


def pauli_sandwich(ch, mat):
    """The map on any 2x2 matrix: sum_i l_i s_i mat s_i plus the shift
    mu (s_3 mat + mat s_3 - i s_1 mat s_2 + i s_2 mat s_1)."""
    l0, l1, l2, l3, mu = lambdas(ch)
    s0, s1, s2, s3 = PAULIS
    out = l0 * mat + l1 * (s1 @ mat @ s1) + l2 * (s2 @ mat @ s2) + l3 * (s3 @ mat @ s3)
    return out + mu * (s3 @ mat + mat @ s3 - 1j * (s1 @ mat @ s2) + 1j * (s2 @ mat @ s1))


def matrix_unit(i, j):
    e = np.zeros((2, 2), dtype=complex)
    e[i, j] = 1.0
    return e


def choi_matrix(ch):
    """Unnormalized Choi matrix sum_{ij} |i><j| (x) Lambda(|i><j|)."""
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            c[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = pauli_sandwich(ch, matrix_unit(i, j))
    return c


def kraus(ch):
    """Operator-sum form from the Choi matrix; eigenvalues at or below 0
    are dropped as numerical noise of a CP map."""
    w, v = np.linalg.eigh(choi_matrix(ch))
    return [np.sqrt(wk) * vk.reshape(2, 2).T for wk, vk in zip(w, v.T) if wk > 0.0]


def boundary_draws(count=2000):
    """Parameters on both sides of the CP boundary C = B/2, with t = 0 and
    t = inf among them."""
    rng = np.random.default_rng(8)
    for i in range(count):
        b = rng.uniform(0.0, 3.0)
        yield SimpleNamespace(
            B=b, C=rng.uniform(0.0, 3.0), S=rng.uniform(), t=(0.0, math.inf, rng.uniform(0.0, 3.0))[i % 3]
        )


def random_cp_channel(rng):
    # The Markovian region C >= B/2 keeps the family completely positive
    # for every S and t.
    b = rng.uniform(0.0, 3.0)
    c = b / 2.0 + rng.uniform(0.0, 3.0)
    return NoiseChannel(B=b, C=c, S=rng.uniform(), t=rng.uniform(0.0, 2.0))


def random_density(rng, n=1):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


class TestLambdas:
    def test_identity_at_t0(self):
        ch = NoiseChannel(B=1.3, C=2.2, S=0.8, t=0.0)
        assert np.allclose(lambdas(ch), (1, 0, 0, 0, 0))

    def test_phase_flip_coefficients(self):
        gamma, t = 0.3, 0.7
        ch = NoiseChannel.phase_flip(gamma, t)
        l0, l1, l2, l3, mu = lambdas(ch)
        # Substituting B=0, C=2*gamma into the closed forms.
        assert l1 == 0.0 and l2 == 0.0 and mu == 0.0
        assert abs(l3 - (1 - math.exp(-2 * gamma * t)) / 2) < 1e-15
        assert abs(l0 - (1 + math.exp(-2 * gamma * t)) / 2) < 1e-15

    def test_white_coefficients(self):
        gamma, t = 0.4, 1.1
        ch = NoiseChannel.white(gamma, t)
        l0, l1, l2, l3, mu = lambdas(ch)
        expect = (1 - math.exp(-4 * gamma * t)) / 4
        assert mu == 0.0
        assert abs(l1 - expect) < 1e-15
        assert abs(l2 - expect) < 1e-15
        assert abs(l3 - expect) < 1e-15

    def test_sum_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = lambdas(random_cp_channel(rng))
            assert abs(sum(lam[:4]) - 1.0) < 1e-12

    def test_infinite_time(self):
        ch = NoiseChannel.white(0.5, math.inf)
        assert np.allclose(lambdas(ch)[:4], (0.25, 0.25, 0.25, 0.25))


class TestApply:
    def test_t0_is_identity(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 2)
        out = apply(NoiseChannel.identity(), rho, 1)
        assert np.max(np.abs(out.entries - rho.entries)) < 1e-12

    def test_white_full_mixing(self):
        # p_w = 1 swaps the state with the maximally mixed one.
        rho = computational([0]).density()
        out = apply(NoiseChannel.white(1.0, math.inf), rho, 0)
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-12

    def test_phase_flip_on_plus(self):
        # gamma*t = ln(2)/2 gives p = 1/2.
        ch = NoiseChannel.phase_flip(1.0, math.log(2) / 2)
        p = 0.5
        rho_plus = PureState(PLUS).density()
        rho_minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2.0)).density()
        out = apply(ch, rho_plus, 0)
        expect = (1 - p / 2) * rho_plus.entries + (p / 2) * rho_minus.entries
        assert np.max(np.abs(out.entries - expect)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ch = random_cp_channel(rng)
            rho = random_density(rng, 2)
            out = apply(ch, rho, rng.integers(0, 2))
            assert abs(np.trace(out.entries) - 1.0) < 1e-10

    def test_semigroup_in_time(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = rng.uniform(0, 2.0)
            c = b / 2 + rng.uniform(0, 2.0)
            s = rng.uniform()
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            rho = random_density(rng)
            step = apply(NoiseChannel(b, c, s, t2), apply(NoiseChannel(b, c, s, t1), rho, 0), 0)
            once = apply(NoiseChannel(b, c, s, t1 + t2), rho, 0)
            assert np.max(np.abs(step.entries - once.entries)) < 1e-9


    @pytest.mark.parametrize(
        "args, error, message",
        [
            (("x", 0), TypeError, "ch is a str, not a NoiseChannel"),
            ((None, 0), TypeError, "ch is a NoneType, not a NoiseChannel"),
            ((NoiseChannel.identity(), 1.0), TypeError, "'float' object cannot be interpreted as an integer"),
            ((NoiseChannel.identity(), "1"), TypeError, "'str' object cannot be interpreted as an integer"),
            ((NoiseChannel.identity(), 2), IndexError, "qubit 2 out of range for 2 qubits"),
            ((NoiseChannel.identity(), np.int64(-1)), IndexError, "qubit -1 out of range for 2 qubits"),
        ],
        ids=["str_channel", "none_channel", "float_qubit", "str_qubit", "qubit_past_end", "negative_numpy_qubit"],
    )
    def test_rejects_bad_arguments(self, args, error, message):
        ch, qubit = args
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            apply(ch, random_density(np.random.default_rng(0), 2), qubit)

    def test_rejects_a_state_that_is_not_a_density_matrix(self):
        with pytest.raises(TypeError, match=r"^rho is a ndarray, not a DensityMatrix$"):
            apply(NoiseChannel.identity(), np.eye(4) / 4, 0)

    @pytest.mark.parametrize("qubit", [np.int64(1), np.uint8(1)], ids=["int64", "uint8"])
    def test_integer_qubit_types(self, qubit):
        ch, rho = NoiseChannel.white(0.7, 0.4), random_density(np.random.default_rng(1), 2)
        assert apply(ch, rho, qubit).entries.tobytes() == apply(ch, rho, 1).entries.tobytes()


class TestMixingProbabilities:
    def test_phase_flip(self):
        gamma, t = 0.9, 0.4
        ch = NoiseChannel.phase_flip(gamma, t)
        p_pf = 1 - math.exp(-2 * gamma * t)
        assert np.max(np.abs(np.subtract(mixing_probabilities(ch, math.pi / 2), p_pf / 2))) < 1e-15
        assert mixing_probabilities(ch, 0.0) == (0.0, 0.0)

    def test_white(self):
        gamma, t = 0.9, 0.4
        ch = NoiseChannel.white(gamma, t)
        p_w = 1 - math.exp(-4 * gamma * t)
        for alpha in (math.pi / 2, 0.0):
            assert np.max(np.abs(np.subtract(mixing_probabilities(ch, alpha), p_w / 2))) < 1e-15

    @pytest.mark.parametrize("alpha", [0.3, -math.pi / 2, math.pi])
    def test_rejects_other_latitudes(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"no mixing rule for alpha={alpha}; use 0 or pi/2")):
            mixing_probabilities(NoiseChannel.white(0.9, 0.4), alpha)

    def test_t0_all_zero(self):
        ch = NoiseChannel.identity()
        assert mixing_probabilities(ch, math.pi / 2) == (0.0, 0.0)
        assert mixing_probabilities(ch, 0.0) == (0.0, 0.0)

    def test_diagonal_weights_match_direct_evolution(self):
        # The (1-p, p) weights must reproduce the evolved projector's
        # diagonal in any supported basis, including mu != 0.
        rng = np.random.default_rng(4)
        for _ in range(20):
            ch = random_cp_channel(rng)
            theta = rng.uniform(0, 2 * np.pi)
            for alpha in (np.pi / 2, 0.0):
                probs = mixing_probabilities(ch, alpha)
                for k in (0, 1):
                    vec = basis_raw(theta, alpha, 0, k)
                    evolved = apply(ch, PureState(vec).density(), 0).entries
                    other = basis_raw(theta, alpha, 0, k ^ 1)
                    stay = float(np.real(np.conj(vec) @ evolved @ vec))
                    flip = float(np.real(np.conj(other) @ evolved @ other))
                    assert abs(flip - probs[k]) < 1e-10
                    assert abs(stay - (1 - probs[k])) < 1e-10

    def test_superoperator_entries_bit_for_bit(self, monkeypatch):
        # The equator reads e^{-Ct} without the superoperator, as the same
        # float as its [1, 1] entry; the z axis reads the map itself.
        rng = np.random.default_rng(9)
        chans = [NoiseChannel(B=0.7, C=1.1, S=0.8, t=t) for t in (0.0, math.inf)]
        chans += [random_cp_channel(rng) for _ in range(40)]
        chans += [NoiseChannel(B=ch.B, C=ch.C, S=ch.S, t=t) for ch in chans[2:6] for t in (0.0, math.inf)]
        expected = {}
        for ch in chans:
            s = superoperator(ch)
            p = (1.0 - float(s[1, 1])) / 2.0
            expected[ch] = ((p, p), (float(s[3, 0]), float(s[0, 3])))
            assert mixing_probabilities(ch, math.pi / 2) == expected[ch][0]
            assert mixing_probabilities(ch, 0.0) == expected[ch][1]

        def refuse(ch):
            raise AssertionError("superoperator called")

        monkeypatch.setattr(channels, "superoperator", refuse)
        for ch in chans:
            assert mixing_probabilities(ch, math.pi / 2) == expected[ch][0]
            with pytest.raises(AssertionError, match="superoperator called"):
                mixing_probabilities(ch, 0.0)


class TestKraus:
    def test_identity_channel(self):
        ops = kraus(NoiseChannel.identity())
        assert len(ops) == 1
        # Unitary freedom allows a global phase.
        k = ops[0]
        assert abs(abs(k[0, 0]) - 1.0) < 1e-12
        assert np.max(np.abs(k @ k.conj().T - np.eye(2))) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ops = kraus(random_cp_channel(rng))
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(2))) < 1e-10

    def test_phase_flip_action_on_paulis(self):
        ch = NoiseChannel.phase_flip(0.8, 0.5)
        p = 1 - math.exp(-2 * 0.8 * 0.5)
        ops = kraus(ch)
        for sigma in PAULIS:
            via_kraus = sum(k @ sigma @ k.conj().T for k in ops)
            direct = (1 - p / 2) * sigma + (p / 2) * (PAULIS[3] @ sigma @ PAULIS[3])
            assert np.max(np.abs(via_kraus - direct)) < 1e-10

    def test_kraus_reproduces_apply(self):
        rng = np.random.default_rng(6)
        ch = random_cp_channel(rng)
        ops = kraus(ch)
        rho = random_density(rng)
        via = sum(k @ rho.entries @ k.conj().T for k in ops)
        assert np.max(np.abs(via - apply(ch, rho, 0).entries)) < 1e-10

    def test_apply_on_each_qubit_of_three(self):
        # The closed-form superoperator against the Kraus sum on the full space.
        rng = np.random.default_rng(9)
        ch = random_cp_channel(rng)
        rho = random_density(rng, 3)
        for q in range(3):
            full = [np.kron(np.kron(np.eye(2**q), k), np.eye(2 ** (2 - q))) for k in kraus(ch)]
            via = sum(k @ rho.entries @ k.conj().T for k in full)
            assert np.max(np.abs(via - apply(ch, rho, q).entries)) < 1e-12

    def test_non_cp_rejected(self):
        # B > 2C shrinks z faster than the CP boundary allows.
        with pytest.raises(InvalidMapError):
            NoiseChannel(B=4.0, C=0.0, S=0.5, t=1.0)

    @pytest.mark.parametrize(
        "name, message", [("B", "parameter B is NaN"), ("C", "parameter C is NaN"), ("S", "S=nan"), ("t", "parameter t is NaN")]
    )
    def test_nan_parameter_rejected(self, name, message):
        # NaN passes a sign check and would fill the superoperator with NaN.
        params = {"B": 0.5, "C": 1.0, "S": 0.7, "t": math.inf}
        NoiseChannel(**params)  # t = inf selects the stationary state
        with pytest.raises(ValueError, match=message):
            NoiseChannel(**{**params, name: math.nan})

    @pytest.mark.parametrize(
        "name, message",
        [("B", "decay rates must be nonnegative"), ("C", "decay rates must be nonnegative"), ("t", "time must be nonnegative")],
    )
    def test_negative_parameter_rejected(self, name, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NoiseChannel(**{"B": 0.5, "C": 1.0, "S": 0.7, "t": 0.3, name: -0.1})


class TestChoi:
    def test_psd_on_cp_region(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = np.linalg.eigvalsh(choi_matrix(random_cp_channel(rng)))
            assert w[0] > -1e-9

    def test_closed_form_min_eigenvalue(self):
        # The channel is rejected exactly when the Choi matrix has an
        # eigenvalue below -CHOI_ATOL.
        for params in boundary_draws():
            w = np.linalg.eigvalsh(choi_matrix(params))
            assert abs(choi_min_eigenvalue(params) - w[0]) < 1e-14
            if w[0] < -1e-9:
                with pytest.raises(InvalidMapError, match=f"Choi eigenvalue {w[0]:.3e}"):
                    NoiseChannel(params.B, params.C, params.S, params.t)
            else:
                NoiseChannel(params.B, params.C, params.S, params.t)


class TestSuperoperator:
    def test_matches_pauli_sandwich_on_matrix_units(self):
        # The closed form needs no CP map, so the draws past the boundary
        # go through the uncached function.
        for params in boundary_draws():
            sup = superoperator.__wrapped__(params)
            assert sup.dtype == float and not sup.flags.writeable
            for i in range(2):
                for j in range(2):
                    direct = pauli_sandwich(params, matrix_unit(i, j))
                    assert np.max(np.abs(sup[:, 2 * i + j].reshape(2, 2) - direct)) < 1e-15

    def test_fresh_channels_call_no_linalg(self, monkeypatch):
        # A report with answer noise on outputs 1 and 3 of three, built
        # before np.linalg is patched.
        pat = MeasurementPattern(
            n_qubits=4, measured=(0,), thetas=(0.3,), alphas=(math.pi / 2,), adapt=(BooleanExpr(),)
        )
        resource = PureState.plus(4)

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        with pytest.raises(AssertionError, match="np.linalg called"):
            np.linalg.eigh(np.eye(2))
        # Parameters no other test uses, so that the cache misses.
        answers = {1: NoiseChannel(B=0.4142, C=0.8731, S=0.6271, t=0.3317), 3: NoiseChannel.white(0.6173, 0.2719)}
        misses = superoperator.cache_info().misses
        fidelity_nonadaptive(pat, resource, None, answers)
        assert superoperator.cache_info().misses == misses + 2
