import math
from types import SimpleNamespace

import numpy as np
import pytest

from onewaysim.channels import (
    FixedPoleMap,
    InvalidMapError,
    NoiseChannel,
    apply,
    choi_matrix,
    choi_min_eigenvalue,
    from_json,
    kraus,
    lambdas,
    mixing_probabilities,
    protected_basis,
    to_json,
)
from onewaysim.linalg import DensityMatrix, PAULIS, PLUS, MINUS, PureState
from onewaysim.pattern import basis_raw


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
        rho = PureState.computational([0]).density()
        out = apply(NoiseChannel.white(1.0, math.inf), rho, 0)
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-12

    def test_phase_flip_on_plus(self):
        # gamma*t = ln(2)/2 gives p = 1/2.
        ch = NoiseChannel.phase_flip(1.0, math.log(2) / 2)
        p = 0.5
        rho_plus = PureState(PLUS).density()
        rho_minus = PureState(MINUS).density()
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


class TestMixingProbabilities:
    def test_phase_flip(self):
        gamma, t = 0.9, 0.4
        mp = mixing_probabilities(NoiseChannel.phase_flip(gamma, t))
        p_pf = 1 - math.exp(-2 * gamma * t)
        assert abs(mp.p_xy - p_pf / 2) < 1e-15
        assert mp.p_z == (0.0, 0.0)

    def test_white(self):
        gamma, t = 0.9, 0.4
        mp = mixing_probabilities(NoiseChannel.white(gamma, t))
        p_w = 1 - math.exp(-4 * gamma * t)
        assert abs(mp.p_xy - p_w / 2) < 1e-15
        assert abs(mp.p_z[0] - p_w / 2) < 1e-15
        assert abs(mp.p_z[1] - p_w / 2) < 1e-15

    def test_t0_all_zero(self):
        mp = mixing_probabilities(NoiseChannel.identity())
        assert mp.p_xy == 0.0 and mp.p_z == (0.0, 0.0)

    def test_diagonal_weights_match_direct_evolution(self):
        # The (1-p, p) weights must reproduce the evolved projector's
        # diagonal in any supported basis, including mu != 0.
        rng = np.random.default_rng(4)
        for _ in range(20):
            ch = random_cp_channel(rng)
            mp = mixing_probabilities(ch)
            theta = rng.uniform(0, 2 * np.pi)
            for alpha, probs in ((np.pi / 2, (mp.p_xy, mp.p_xy)), (0.0, mp.p_z)):
                for k in (0, 1):
                    vec = basis_raw(theta, alpha, 0, k)
                    evolved = apply(ch, PureState(vec).density(), 0).entries
                    other = basis_raw(theta, alpha, 0, k ^ 1)
                    stay = float(np.real(np.conj(vec) @ evolved @ vec))
                    flip = float(np.real(np.conj(other) @ evolved @ other))
                    assert abs(flip - probs[k]) < 1e-10
                    assert abs(stay - (1 - probs[k])) < 1e-10


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

    def test_fixed_pole_action_on_paulis(self):
        m = FixedPoleMap(p=0.3, axis=(0.0, 0.0, 1.0), phi=1.1)
        r = m.rotation()
        for sigma in PAULIS:
            via_kraus = sum(k @ sigma @ k.conj().T for k in kraus(m))
            direct = 0.7 * sigma + 0.3 * (r @ sigma @ r.conj().T)
            assert np.max(np.abs(via_kraus - direct)) < 1e-10

    def test_kraus_reproduces_apply(self):
        rng = np.random.default_rng(6)
        ch = random_cp_channel(rng)
        ops = kraus(ch)
        rho = random_density(rng)
        via = sum(k @ rho.entries @ k.conj().T for k in ops)
        assert np.max(np.abs(via - apply(ch, rho, 0).entries)) < 1e-10

    def test_apply_on_each_qubit_of_three(self):
        # The superoperator path against the Kraus sum on the full space.
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


class TestChoi:
    def test_psd_on_cp_region(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = np.linalg.eigvalsh(choi_matrix(random_cp_channel(rng)))
            assert w[0] > -1e-9


    def test_closed_form_min_eigenvalue(self):
        # Draws on both sides of the CP boundary C = B/2, with t = 0 and
        # t = inf among them; the channel is rejected exactly when the Choi
        # matrix has an eigenvalue below -CHOI_ATOL.
        rng = np.random.default_rng(8)
        for i in range(2000):
            b = rng.uniform(0.0, 3.0)
            params = SimpleNamespace(
                B=b, C=rng.uniform(0.0, 3.0), S=rng.uniform(), t=(0.0, math.inf, rng.uniform(0.0, 3.0))[i % 3]
            )
            w = np.linalg.eigvalsh(choi_matrix(params))
            assert abs(choi_min_eigenvalue(params) - w[0]) < 1e-14
            if w[0] < -1e-9:
                with pytest.raises(InvalidMapError, match=f"Choi eigenvalue {w[0]:.3e}"):
                    NoiseChannel(params.B, params.C, params.S, params.t)
            else:
                NoiseChannel(params.B, params.C, params.S, params.t)


class TestProtectedBasis:
    def test_z_axis(self):
        b0, b1 = protected_basis(FixedPoleMap(p=0.2, axis=(0, 0, 1.0), phi=0.7))
        assert np.allclose(b0.amplitudes, [1, 0])
        assert np.allclose(np.abs(b1.amplitudes), [0, 1])

    def test_x_axis(self):
        b0, b1 = protected_basis(FixedPoleMap(p=0.2, axis=(1.0, 0, 0), phi=0.7))
        assert abs(abs(np.vdot(b0.amplitudes, PLUS)) - 1) < 1e-12
        assert abs(abs(np.vdot(b1.amplitudes, MINUS)) - 1) < 1e-12

    def test_arbitrary_axis_states_are_fixed_points(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ax = rng.normal(size=3)
            ax /= np.linalg.norm(ax)
            m = FixedPoleMap(p=rng.uniform(), axis=tuple(ax), phi=rng.uniform(0.1, 3.0))
            for b in protected_basis(m):
                rho = b.density()
                out = apply(m, rho, 0)
                assert np.max(np.abs(out.entries - rho.entries)) < 1e-10

    def test_full_turn_returns_z_basis(self):
        b0, b1 = protected_basis(FixedPoleMap(p=0.5, axis=(1.0, 0, 0), phi=2 * math.pi))
        assert np.allclose(b0.amplitudes, [1, 0])
        assert np.allclose(b1.amplitudes, [0, 1])


class TestJson:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "general", "B": 0.5, "C": 1.0, "S": 0.3, "t": 0.2},
            {"kind": "pf", "gamma": 0.7, "t": 0.1},
            {"kind": "white", "gamma": 0.7, "t": 0.1},
            {"kind": "fixed_pole", "p": 0.4, "axis": [0.0, 0.0, 1.0], "phi": 0.3},
        ],
    )
    def test_round_trip_action(self, doc):
        ch = from_json(doc)
        again = from_json(to_json(ch))
        rho = PureState(PLUS).density()
        assert np.max(np.abs(apply(ch, rho, 0).entries - apply(again, rho, 0).entries)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            from_json({"kind": "sparkle"})

    def test_missing_field(self):
        with pytest.raises(ValueError, match="bad channel document"):
            from_json({"kind": "pf", "gamma": 0.7})
