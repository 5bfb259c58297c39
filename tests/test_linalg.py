import math
import tracemalloc

import numpy as np
import pytest

from onewaysim.graphstate import Graph, build_graph_state
from onewaysim.linalg import (
    DensityMatrix,
    PureState,
    X,
    Y,
    Z,
    check_density_matrices,
)


def computational(bits):
    return PureState(np.eye(2 ** len(bits))[int("".join(map(str, bits)), 2)])


def bell_state():
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def g2_state():
    return PureState(np.array([1, 1, 1, -1], dtype=complex) / 2.0)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])

    @pytest.mark.parametrize("amp", [[math.nan, 0.0], [1.0, math.nan]])
    def test_rejects_nan_amplitudes(self, amp):
        with pytest.raises(ValueError, match="state vector norm nan differs from 1"):
            PureState(amp)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PureState(np.ones(3) / np.sqrt(3))

    @pytest.mark.parametrize("n", [-1, -3, 0.5])
    def test_plus_rejects_fractional_dimensions(self, n):
        # 2**-1 = 0.5 once passed the power-of-two check with n = -1.
        with pytest.raises(ValueError, match=r"state vector dimension .* is not a power of two"):
            PureState.plus(n)

    def test_plus_refuses_past_the_limit_before_it_allocates(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="state vector with 17 qubits exceeds the 15-qubit limit"):
                PureState.plus(17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_computational(self):
        # Qubit 0 is the most significant bit of the basis index.
        s = computational([1, 0])
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


class TestIdentity:
    """States hold arrays, so they compare and hash by identity, and a
    ``GraphState`` by its graph and its state object."""

    def test_equality_and_hash(self):
        gs = build_graph_state(Graph.path(2))
        for a, copy in (
            (g2_state(), lambda s: PureState(s.amplitudes)),
            (bell_state().density(), lambda s: DensityMatrix(s.entries)),
            (gs, lambda s: build_graph_state(s.graph)),
        ):
            b = copy(a)
            assert a == a and a != b and hash(a) == hash(a)
            assert a in {a} and b not in {a} and len({a, a, b}) == 2


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
