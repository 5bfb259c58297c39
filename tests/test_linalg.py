import numpy as np
import pytest

from onewaysim.linalg import (
    DensityMatrix,
    PureState,
    X,
    Y,
    Z,
    check_density_matrices,
    hermitian_eig,
    partial_trace,
    tensor,
)


def bell_state():
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def g2_state():
    return PureState(np.array([1, 1, 1, -1], dtype=complex) / 2.0)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PureState(np.ones(3) / np.sqrt(3))

    def test_computational(self):
        s = PureState.computational([1, 0])
        assert np.allclose(s.amplitudes, [0, 0, 1, 0])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_negative(self):
        m = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))


class TestCheckDensityMatrices:
    # A stack of valid states with one bad matrix in the middle: the check
    # covers every matrix of the stack, not only the first.
    @staticmethod
    def stack_with(bad):
        good = np.eye(2, dtype=complex) / 2
        return np.stack([good, np.asarray(bad, dtype=complex), good])

    def test_accepts_valid_stack(self):
        rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
        check_density_matrices(self.stack_with(rho))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrices(self.stack_with([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrices(self.stack_with([[np.nan, 0.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match=r"trace \(1\.2\+0j\) differs from 1"):
            check_density_matrices(self.stack_with([[0.6, 0.0], [0.0, 0.6]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match=r"negative eigenvalue .*-0\.5"):
            check_density_matrices(self.stack_with([[1.5, 0.0], [0.0, -0.5]]))

    def test_tolerances(self):
        # Deviations just inside ATOL (Hermiticity, trace) and EIG_ATOL
        # (eigenvalues) pass.
        check_density_matrices(self.stack_with([[0.5 + 5e-11, 5e-11], [0.0, 0.5]]))
        check_density_matrices(self.stack_with([[1.0 + 5e-10, 0.0], [0.0, -5e-10]]))


class TestTensor:
    def test_computational_kets(self):
        s = tensor(PureState.computational([0]), PureState.computational([1]))
        assert np.allclose(s.amplitudes, [0, 1, 0, 0])

    def test_plus_plus(self):
        s = tensor(PureState.plus(1), PureState.plus(1))
        assert np.allclose(s.amplitudes, [0.5, 0.5, 0.5, 0.5])

    def test_mixed_identity(self):
        r = tensor(DensityMatrix.maximally_mixed(1), DensityMatrix.maximally_mixed(1))
        assert np.allclose(r.entries, np.eye(4) / 4.0)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(PureState.plus(1), DensityMatrix.maximally_mixed(1))

    def test_associative(self):
        rng = np.random.default_rng(5)
        states = []
        for _ in range(3):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            states.append(PureState(v / np.linalg.norm(v)))
        a, b, c = states
        left = tensor(tensor(a, b), c).amplitudes
        right = tensor(a, tensor(b, c)).amplitudes
        assert np.max(np.abs(left - right)) < 1e-12


class TestPartialTrace:
    def test_bell_keep_first(self):
        r = partial_trace(bell_state().density(), {0})
        assert np.allclose(r.entries, np.eye(2) / 2.0, atol=1e-12)

    def test_product_keep_second(self):
        plus = PureState.plus(1)
        rho = tensor(PureState.computational([0]).density(), plus.density())
        r = partial_trace(rho, {1})
        assert np.allclose(r.entries, plus.density().entries, atol=1e-12)

    def test_g2_keep_second_is_mixed(self):
        # Independent oracle: brute-force sum over the traced qubit's basis.
        rho = g2_state().density().entries
        reduced = np.zeros((2, 2), dtype=complex)
        for b in range(2):
            bra = np.zeros(2)
            bra[b] = 1.0
            proj = np.kron(bra, np.eye(2))
            reduced += proj @ rho @ proj.T
        assert np.allclose(reduced, np.eye(2) / 2.0, atol=1e-12)
        r = partial_trace(g2_state().density(), {1})
        assert np.allclose(r.entries, reduced, atol=1e-10)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_state().density(), set())

    def test_inverse_of_tensor(self):
        rng = np.random.default_rng(11)
        a = _random_density(rng, 1)
        b = _random_density(rng, 2)
        joint = tensor(a, b)
        back = partial_trace(joint, {0})
        assert np.max(np.abs(back.entries - a.entries)) < 1e-10
        back_b = partial_trace(joint, {1, 2})
        assert np.max(np.abs(back_b.entries - b.entries)) < 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(12)
        rho = _random_density(rng, 3)
        for keep in ({0}, {1, 2}, {0, 2}):
            r = partial_trace(rho, keep)
            assert abs(np.trace(r.entries) - 1.0) < 1e-10


class TestHermitianEig:
    def test_pauli_z(self):
        w, _ = hermitian_eig(Z)
        assert np.allclose(w, [1.0, -1.0])

    def test_mixed(self):
        w, _ = hermitian_eig(np.eye(2) / 2.0)
        assert np.allclose(w, [0.5, 0.5])

    def test_pauli_x_eigenvectors(self):
        w, v = hermitian_eig(X)
        assert np.allclose(w, [1.0, -1.0])
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(v[:, 0], plus)) - 1.0) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = a + a.conj().T
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        recon = v @ np.diag(w) @ v.conj().T
        assert np.max(np.abs(m - recon)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _random_density(rng, n):
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))
