"""Dense complex linear algebra for small multi-qubit systems.

Qubit 0 sits on the most significant bit of the basis index: basis state
|k_0 k_1 ... k_{n-1}> has index sum(k_i << (n-1-i)), so the Kronecker
product a (x) b puts ``a`` on the high-order qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ATOL = 1e-10
EIG_ATOL = 1e-9

MAX_PURE_QUBITS = 15
# Validating a density matrix takes one Cholesky factorization, and a full
# eigendecomposition only when that fails; 7 qubits (128 x 128) keeps even
# the second below a few milliseconds.
MAX_MIXED_QUBITS = 7

ID2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (ID2, X, Y, Z)

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _n_qubits(dim: int, what: str, limit: int) -> int:
    n = int(dim).bit_length() - 1
    if n < 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if n > limit:
        raise ValueError(f"{what} with {n} qubits exceeds the {limit}-qubit limit")
    return n


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over ``n`` qubits, equal only to itself."""

    amplitudes: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        # A copy, so that no caller can write to a state's amplitudes: the
        # fidelity engine keys its reuse on their identity.
        self._own(np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy())

    @classmethod
    def _adopt(cls, amp: np.ndarray) -> "PureState":
        """The state of ``amp``, a fresh complex vector that no one else
        holds, checked and frozen in place rather than copied."""
        state = cls.__new__(cls)
        state._own(amp)
        return state

    def _own(self, amp: np.ndarray) -> None:
        n = _n_qubits(amp.size, "state vector", MAX_PURE_QUBITS)
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= ATOL:  # True on NaN
            raise ValueError(f"state vector norm {norm!r} differs from 1")
        object.__setattr__(self, "amplitudes", _frozen(amp))
        object.__setattr__(self, "n", n)

    @classmethod
    def plus(cls, n: int) -> "PureState":
        _n_qubits(2**n, "state vector", MAX_PURE_QUBITS)
        return cls(np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, np.conj(self.amplitudes)))


def _density_fault(mats: np.ndarray) -> tuple[int, str] | None:
    """None when every matrix of the stack ``mats`` (k, d, d) is a density
    matrix, else the index of the worst one and what is wrong with it, by
    the first of the three checks of ``check_density_matrices`` that fails."""
    dev = np.abs(mats - mats.conj().transpose(0, 2, 1))
    if not dev.max() <= ATOL:  # True on NaN
        dev = dev.reshape(len(dev), -1).max(axis=1)
        worst = int(np.argmax(dev))  # the first NaN, if any
        return worst, f"not Hermitian, max |M - M^dagger| = {float(dev[worst])!r}"
    traces = mats.trace(axis1=1, axis2=2)
    worst = int(np.abs(traces - 1.0).argmax())
    if abs(traces[worst] - 1.0) > ATOL:
        return worst, f"trace {complex(traces[worst])!r} differs from 1"
    # The certificate (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., SIAM 2002, ch. 10).  Like ``eigvalsh``, ``cholesky`` reads
    # the lower triangle alone, Hermitian to ATOL by now.
    try:
        np.linalg.cholesky(mats + EIG_ATOL * np.eye(mats.shape[-1]))
    except np.linalg.LinAlgError:
        pass
    else:
        return None
    lowest = np.linalg.eigvalsh(mats)[:, 0]
    worst = int(lowest.argmin())
    if lowest[worst] < -EIG_ATOL:
        return worst, f"negative eigenvalue {float(lowest[worst])!r}"
    return None


def check_density_matrices(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack ``mats`` (k, d, d)
    is Hermitian (max |M - M^dagger| at most ATOL), has unit trace (to ATOL)
    and no eigenvalue below -EIG_ATOL; the message names the stack index of
    the worst matrix by the first check that fails, and its value there.
    NaN entries fail the Hermitian check.

    The eigenvalue bound is certified by one batched Cholesky factorization
    of M + EIG_ATOL I, which exists, in exact arithmetic, exactly when every
    eigenvalue of M exceeds -EIG_ATOL.  Only when it fails, for some matrix
    below the bound or within rounding of it, does ``eigvalsh`` decide, and
    name the lowest eigenvalue."""
    fault = _density_fault(mats)
    if fault is not None:
        raise ValueError(f"density matrix {fault[0]} of {len(mats)}: {fault[1]}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over ``n`` qubits,
    equal only to itself."""

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex).copy()
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        n = _n_qubits(mat.shape[0], "density matrix", MAX_MIXED_QUBITS)
        check_density_matrices(mat[None])
        object.__setattr__(self, "entries", _frozen(mat))
        object.__setattr__(self, "n", n)


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of matrices over their last two axes, broadcast
    over any leading ones: factors (..., a_i, b_i) give (..., prod a_i,
    prod b_i), the first factor on the high-order bits."""
    out = np.asarray(factors[0])
    for f in factors[1:]:
        f = np.asarray(f)
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], out.shape[-2] * out.shape[-1]))
    return out

