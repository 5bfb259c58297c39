"""Dense complex linear algebra for small multi-qubit systems.

Qubit 0 sits on the most significant bit of the basis index: basis state
|k_0 k_1 ... k_{n-1}> has index sum(k_i << (n-1-i)), and ``tensor(a, b)``
places ``a`` on the high-order qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ATOL = 1e-10
EIG_ATOL = 1e-9

MAX_PURE_QUBITS = 15
# Validating a density matrix takes a full eigendecomposition; 7 qubits
# (128 x 128) keeps that in the millisecond range.
MAX_MIXED_QUBITS = 7

ID2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PAULIS = (ID2, X, Y, Z)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def _n_qubits(dim: int, what: str, limit: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if n > limit:
        raise ValueError(f"{what} with {n} qubits exceeds the {limit}-qubit limit")
    return n


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ``n`` qubits."""

    amplitudes: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        n = _n_qubits(amp.size, "state vector", MAX_PURE_QUBITS)
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state vector norm {norm!r} differs from 1")
        object.__setattr__(self, "amplitudes", _frozen(amp))
        object.__setattr__(self, "n", n)

    @classmethod
    def computational(cls, bits: Sequence[int]) -> "PureState":
        n = len(bits)
        amp = np.zeros(2**n, dtype=complex)
        idx = 0
        for b in bits:
            idx = (idx << 1) | (int(b) & 1)
        amp[idx] = 1.0
        return cls(amp)

    @classmethod
    def plus(cls, n: int) -> "PureState":
        return cls(np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, np.conj(self.amplitudes)))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        return float(abs(self.overlap(other)) ** 2)


def check_density_matrices(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the stack ``mats`` (k, d, d)
    is Hermitian, has unit trace and no eigenvalue below -EIG_ATOL; the
    message names the worst matrix of the stack.  NaN entries fail the
    Hermitian check."""
    if not np.abs(mats - mats.conj().transpose(0, 2, 1)).max() <= ATOL:
        raise ValueError("density matrix is not Hermitian")
    traces = mats.trace(axis1=1, axis2=2)
    worst = np.abs(traces - 1.0).argmax()
    if abs(traces[worst] - 1.0) > ATOL:
        raise ValueError(f"density matrix trace {complex(traces[worst])!r} differs from 1")
    lowest = np.linalg.eigvalsh(mats)[:, 0].min()
    if lowest < -EIG_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over ``n`` qubits."""

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

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityMatrix":
        return state.density()

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        d = 2**n
        return cls(np.eye(d, dtype=complex) / d)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))

    def expectation(self, op: np.ndarray) -> float:
        return float(np.real(np.trace(op @ self.entries)))


def tensor(a, b):
    """Kronecker product of two states of the same kind; ``a`` goes on the
    high-order qubits."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.entries, b.entries))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix over the qubits in ``keep`` (original order)."""
    keep_sorted = sorted(set(int(q) for q in keep))
    if not keep_sorted:
        raise ValueError("keep must name at least one qubit")
    n = rho.n
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"keep {keep_sorted} out of range for {n} qubits")
    reduced = partial_trace_raw(rho.entries, keep_sorted, n)
    return DensityMatrix(reduced)


def partial_trace_raw(mat: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    keep = list(keep)
    t = mat.reshape((2,) * (2 * n))
    traced = [q for q in range(n) if q not in keep]
    # Contract row/column axes of each traced qubit, highest axis first so
    # the remaining axis numbers stay valid.
    offset = n
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + offset)
        offset -= 1
    d = 2 ** len(keep)
    return t.reshape(d, d)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in descending order and the matching eigenvectors as
    columns; reconstruction ``V diag(w) V+`` matches the input to 1e-9.
    """
    mat = m.entries if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian within 1e-8")
    w, v = np.linalg.eigh(mat)
    return w[::-1].copy(), v[:, ::-1].copy()


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


# -- raw-array helpers used by the simulation engines ------------------------
# These skip validation; public types validate at API boundaries.


def apply_single_qubit_unitary(vec: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = vec.reshape((2,) * n)
    t = np.tensordot(u, t, axes=([1], [qubit]))
    t = np.moveaxis(t, 0, qubit)
    return t.reshape(-1)

