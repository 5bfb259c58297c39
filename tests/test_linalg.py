import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from onewaysim.channels import NoiseChannel
from onewaysim.graphstate import Graph, build_graph_state, resource_state
from onewaysim.linalg import (
    EIG_ATOL,
    DensityMatrix,
    PureState,
    X,
    Y,
    Z,
    check_density_matrices,
)
from onewaysim.oracle import simulate

from test_pattern import chain_pattern


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

    @pytest.mark.parametrize("entries", [np.ones((2, 4)) / 2, np.ones(4) / 4, np.ones((2, 2, 2)) / 4], ids=["wide", "vector", "cube"])
    def test_rejects_non_square(self, entries):
        with pytest.raises(ValueError, match=re.escape(f"density matrix must be square, got shape {entries.shape}")):
            DensityMatrix(entries)


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
        with pytest.raises(ValueError, match=r"density matrix 1 of 3: not Hermitian, max \|M - M\^dagger\| = 0\.5$"):
            check_density_matrices(self.stack_with([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrices(self.stack_with([[np.nan, 0.0], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match=r"density matrix 1 of 3: trace \(1\.2\+0j\) differs from 1$"):
            check_density_matrices(self.stack_with([[0.6, 0.0], [0.0, 0.6]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match=r"density matrix 1 of 3: negative eigenvalue -0\.5$"):
            check_density_matrices(self.stack_with([[1.5, 0.0], [0.0, -0.5]]))

    def test_tolerances(self):
        # Deviations just inside ATOL (Hermiticity, trace) and EIG_ATOL
        # (eigenvalues) pass.
        check_density_matrices(self.stack_with([[0.5 + 5e-11, 5e-11], [0.0, 0.5]]))
        check_density_matrices(self.stack_with([[1.0 + 5e-10, 0.0], [0.0, -5e-10]]))

    # Matrix 1 fails the same check by less than matrix 2.
    @pytest.mark.parametrize(
        "mild, bad, message",
        [
            ([[0.5, 0.125], [0.0, 0.5]], [[0.5, 0.25], [0.0, 0.5]], r"not Hermitian, max \|M - M\^dagger\| = 0\.25"),
            ([[0.5, 0.0], [0.0, 0.55]], [[0.75, 0.0], [0.0, 0.125]], r"trace \(0\.875\+0j\) differs from 1"),
            ([[1.125, 0.0], [0.0, -0.125]], [[1.25, 0.0], [0.0, -0.25]], r"negative eigenvalue -0\.25"),
        ],
        ids=["hermitian", "trace", "eigenvalue"],
    )
    def test_message_names_the_worst_matrix(self, mild, bad, message):
        stack = np.array([np.eye(2) / 2, mild, bad], dtype=complex)
        with pytest.raises(ValueError, match=f"^density matrix 2 of 3: {message}$"):
            check_density_matrices(stack)


def rotated(eigenvalues, seed=0):
    """U diag(eigenvalues) U^dagger for a random unitary U."""
    rng = np.random.default_rng(seed)
    d = len(eigenvalues)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def no_eigvalsh(*_args, **_kwargs):
    raise AssertionError("eigvalsh ran")


class TestCholeskyCertificate:
    """The check certifies lambda_min > -EIG_ATOL by a Cholesky factor of
    M + EIG_ATOL I; ``eigvalsh`` runs only when that factorization fails."""

    @staticmethod
    def stack_with(bad):
        return np.stack([rotated([0.6, 0.3, 0.1, 0.0]), rotated([0.25] * 4), bad])

    def test_just_inside_the_bound_is_certified(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        check_density_matrices(self.stack_with(rotated([0.5, 0.3, 0.2 + 0.9e-9, -0.9e-9], seed=1)))

    def test_at_the_bound_passes_through_the_fallback(self, monkeypatch):
        # M + EIG_ATOL I has an exact zero on its diagonal, so the
        # factorization fails, and eigvalsh reads -EIG_ATOL, not below it.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        check_density_matrices(self.stack_with(np.diag([0.5, 0.3, 0.2 + EIG_ATOL, -EIG_ATOL]).astype(complex)))
        assert len(calls) == 1

    def test_just_outside_the_bound_names_the_eigenvalue(self):
        with pytest.raises(ValueError, match=r"^density matrix 2 of 3: negative eigenvalue -1\.1\d*e-09$"):
            check_density_matrices(self.stack_with(rotated([0.5, 0.3, 0.2 + 1.1e-9, -1.1e-9], seed=1)))

    @settings(max_examples=200)
    @given(
        d=st.sampled_from([2, 4, 8]),
        lows=st.lists(
            st.one_of(st.sampled_from([0.0, -0.9e-9, -1.1e-9, -1e-8]), st.floats(-3e-9, 3e-9)),
            min_size=1,
            max_size=4,
        ),
        rank=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_raises_exactly_when_eigvalsh_is_below_the_bound(self, d, lows, rank, seed):
        # Each matrix has ``rank`` or d - 1 positive eigenvalues, whichever
        # is fewer, zeros, and one eigenvalue ``low`` near the bound.
        rng = np.random.default_rng(seed)
        mats = []
        for i, low in enumerate(lows):
            lam = np.zeros(d)
            lam[: min(rank, d - 1)] = rng.uniform(0.1, 1.0, size=min(rank, d - 1))
            lam *= (1.0 - low) / lam.sum()
            lam[-1] = low
            mats.append(rotated(lam, seed=[seed, i]))
        mats = np.stack(mats)
        lowest = np.linalg.eigvalsh(mats)[:, 0]
        assume(abs(lowest.min() + EIG_ATOL) > 1e-13)
        if lowest.min() < -EIG_ATOL:
            with pytest.raises(ValueError, match=f"^density matrix {lowest.argmin()} of {len(mats)}: negative eigenvalue"):
                check_density_matrices(mats)
        else:
            check_density_matrices(mats)

    @pytest.mark.parametrize("m", [5, 9])
    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_chain_leaves_never_reach_the_fallback(self, m, t, monkeypatch):
        # Without noise every leaf is pure: rank one, the hardest case for
        # the factorization.
        rng = np.random.default_rng(m)
        pat = chain_pattern(tuple(rng.uniform(0.0, 2 * math.pi, size=m)))
        resource = resource_state(Graph.path(m + 1), {0: PureState([0.6, 0.8j])})
        chans = {q: NoiseChannel(B=0.8, C=0.9, S=0.7, t=t) for q in range(m + 1)}
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        run = simulate(resource, pat, chans)
        assert len(run.branches) == 2**m

    @pytest.mark.parametrize("n", [5, 7])
    def test_pure_resource_never_reaches_the_fallback(self, n, monkeypatch):
        resource = resource_state(Graph.path(n), {0: PureState([0.6, 0.8j])})
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        assert resource.density().n == n
