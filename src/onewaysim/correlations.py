"""Correlation measures of the (noisy) resource state.

Entanglement monotones (two-qubit concurrence, bipartite negativity),
quantum discord with its projective-measurement optimization, normalized
linear entropy, and the minimum entanglement potential of the activation
protocol (adversarial local unitaries followed by per-qubit CNOTs onto
fresh ancillas).

Two-qubit discord works on the Pauli tensor M_ij = tr(rho sigma_i x sigma_j),
i, j in 0..3, which one product of a constant (4, 4, 16) array with vec(rho)
gives: the local Bloch vectors are a = M[1:, 0] and b = M[0, 1:], the
correlation matrix is T = M[1:, 1:].  Measuring B along the unit vector n
gives outcome probabilities p+- = (1 +- b.n)/2 and leaves A with Bloch
vector (a +- T n)/(2 p+-), so the conditional entropy of the discord search
is sum+- p+- h(|a +- T n|/(2 p+-)) with h the entropy of a qubit of that
Bloch length; measuring A swaps a and b and transposes T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from .linalg import DensityMatrix, PAULIS, Y, kron_all, partial_trace_raw

_LOG2 = math.log(2.0)
# tr(rho P) = vec(rho) . vec(P^T) for row-major vec, so this stack of the
# vec(sigma_i x sigma_j)^T turns vec(rho) into the Pauli tensor M_ij.
_PAULI_TENSOR = np.array([[np.kron(p, q).T.reshape(16) for q in PAULIS] for p in PAULIS])
_YY = np.kron(Y, Y)
# Coordinate-descent probes along one Bloch angle, in units of the span.
_PROBES = np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0])


def von_neumann_entropy(rho) -> float:
    """Base-2 entropy; zero eigenvalues contribute nothing."""
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    w = np.linalg.eigvalsh(mat)
    w = np.clip(w.real, 0.0, None)
    nz = w[w > 1e-15]
    return float(-(nz * np.log2(nz)).sum())


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence via the spin-flipped spectrum.

    The spectrum of rho * (Y x Y) rho^* (Y x Y) equals that of the Hermitian
    sqrt(rho) (Y x Y) rho^* (Y x Y) sqrt(rho), which diagonalizes stably.
    """
    if rho.n != 2:
        raise ValueError("concurrence is defined for two qubits")
    w, v = np.linalg.eigh(rho.entries)
    w = np.where(w < 1e-13, 0.0, w)  # sqrt amplifies kernel-space noise
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    # sqrt(rho) (YxY) conj(sqrt(rho)) has the flipped-product roots as its
    # singular values, and SVD is stable where eigvals of the non-normal
    # product are not.
    m = sqrt_rho @ _YY @ np.conj(sqrt_rho)
    roots = np.linalg.svd(m, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def partial_transpose(mat: np.ndarray, transposed: Sequence[int], n: int) -> np.ndarray:
    t = mat.reshape((2,) * (2 * n))
    for q in transposed:
        t = np.swapaxes(t, q, n + q)
    d = 2**n
    return t.reshape(d, d)


def negativity(rho: DensityMatrix, partition: Iterable[int]) -> float:
    """(||rho^{T_A}||_1 - 1) / 2 for the given transposed side; a Bell pair
    scores 1/2."""
    part = sorted(set(int(q) for q in partition))
    if not part or len(part) >= rho.n:
        raise ValueError("partition must be a proper nonempty qubit subset")
    if part[0] < 0 or part[-1] >= rho.n:
        raise ValueError(f"partition {part} out of range")
    pt = partial_transpose(rho.entries, part, rho.n)
    w = np.linalg.eigvalsh(pt)
    return float(-w[w < 0.0].sum())


def mutual_information(rho: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) for a two-qubit state."""
    if rho.n != 2:
        raise ValueError("mutual information here is two-qubit only")
    sa = von_neumann_entropy(partial_trace_raw(rho.entries, [0], 2))
    sb = von_neumann_entropy(partial_trace_raw(rho.entries, [1], 2))
    return sa + sb - von_neumann_entropy(rho)


def _bloch_decomposition(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of a 4x4 two-qubit density matrix, read off its Pauli tensor."""
    m = (_PAULI_TENSOR @ rho.reshape(16)).real
    return m[1:, 0], m[0, 1:], m[1:, 1:]


def _bloch_entropy(r):
    """Base-2 entropy of qubit states with Bloch lengths r."""
    lam = np.clip(np.stack(((1.0 + r) / 2.0, (1.0 - r) / 2.0)), 0.0, 1.0)
    return -xlogy(lam, lam).sum(axis=0) / _LOG2


def _measured_entropy(a, b, t, n):
    """sum_+- p+- S(A | +-) after measuring B along the unit vectors n
    (shape (..., 3)), from A's and B's Bloch vectors a, b and the
    correlation matrix t; outcomes below probability 1e-14 count nothing."""
    bn = n @ b
    tn = n @ t.T
    total = 0.0
    for sign in (1.0, -1.0):
        p = (1.0 + sign * bn) / 2.0
        r = np.linalg.norm(a + sign * tn, axis=-1) / np.maximum(2.0 * p, 1e-14)
        total = total + np.where(p > 1e-14, p * _bloch_entropy(r), 0.0)
    return total


def _fibonacci_sphere(count: int) -> list[tuple[float, float]]:
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for i in range(count):
        z = 1.0 - 2.0 * (i + 0.5) / count
        pts.append((math.acos(z), (golden * i) % (2 * math.pi)))
    return pts


def classical_correlation(
    rho: DensityMatrix, measured_side: str = "B", starts: int = 16, tol: float = 1e-8
) -> float:
    """max over projective measurements of S(other) - S(other | outcome).

    Multi-start coordinate descent over the Bloch angles of the measured
    projector pair; each probe costs the closed-form conditional entropy of
    the Pauli tensor.
    """
    if rho.n != 2:
        raise ValueError("classical correlation here is two-qubit only")
    if starts < 1:
        raise ValueError(f"starts={starts}: at least one start is needed")
    if measured_side not in ("A", "B"):
        raise ValueError("measured_side must be 'A' or 'B'")
    a, b, t = _bloch_decomposition(rho.entries)
    if measured_side == "A":
        a, b, t = b, a, t.T
    s_other = float(_bloch_entropy(np.linalg.norm(a)))

    def objective(theta, phi):
        st = np.sin(theta)
        n = np.stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)
        return s_other - _measured_entropy(a, b, t, n)

    # Every start runs the same coordinate descent, all of them in lockstep:
    # a start whose span has shrunk below tol keeps its best value.
    theta, phi = np.array(_fibonacci_sphere(starts)).T
    best = objective(theta, phi)
    span = np.full(starts, math.pi / 4)
    active = np.ones(starts, dtype=bool)
    rows = np.arange(starts)
    for _ in range(120):
        improved = best
        for grid in range(2):
            # Four probes along theta (grid 0) or phi (grid 1); the first
            # strict improvement wins ties, as in a sequential scan.
            step = span[:, None] * _PROBES
            cand_t = theta[:, None] + step * (grid == 0)
            cand_p = phi[:, None] + step * (grid == 1)
            v = objective(cand_t, cand_p)
            i = v.argmax(axis=1)
            up = active & (v[rows, i] > improved)
            improved = np.where(up, v[rows, i], improved)
            theta = np.where(up, cand_t[rows, i], theta)
            phi = np.where(up, cand_p[rows, i], phi)
        stalled = improved - best < tol
        span = np.where(stalled, span / 2, span)
        done = stalled & (span < tol)
        best = np.where(done, best, improved)
        active &= ~done
        if not active.any():
            break
    return float(best.max())


def bell_diagonal_correlations(c: Sequence[float]) -> tuple[float, float, float]:
    """Closed-form (mutual information, classical correlation, discord) for
    a state (I + sum_j c_j sigma_j x sigma_j) / 4."""
    c1, c2, c3 = c
    lam = np.array(
        [
            (1 + c1 - c2 + c3) / 4,
            (1 - c1 + c2 + c3) / 4,
            (1 + c1 + c2 - c3) / 4,
            (1 - c1 - c2 - c3) / 4,
        ]
    )
    if np.any(lam < -1e-12):
        raise ValueError(f"coefficients {c} do not give a state")
    nz = lam[lam > 1e-15]
    s_ab = float(-(nz * np.log2(nz)).sum())
    info = 2.0 - s_ab
    cmax = max(abs(c1), abs(c2), abs(c3))
    cc = 0.0
    for sign in (1.0, -1.0):
        x = (1.0 + sign * cmax) / 2.0
        if x > 1e-15:
            cc += x * math.log2(2.0 * x)
    return info, cc, info - cc


def discord(
    rho: DensityMatrix, measured_side: str = "B", method: str = "auto", starts: int = 16
) -> float:
    """Quantum discord: mutual information minus classical correlation.

    ``method='auto'`` uses the Bell-diagonal closed form whenever both local
    Bloch vectors vanish (the state is then locally equivalent to a Bell
    mixture with the correlation-matrix singular values as coefficients);
    ``method='optimize'`` always runs the projective-measurement search.
    """
    if method not in ("auto", "optimize"):
        raise ValueError("method must be 'auto' or 'optimize'")
    if method == "auto":
        a, b, t = _bloch_decomposition(rho.entries)
        if np.max(np.abs(a)) < 1e-12 and np.max(np.abs(b)) < 1e-12:
            # Proper local rotations diagonalize the correlation matrix to
            # (s1, s2, sign(det T) s3); the determinant sign is not a local
            # invariant to discard.
            sv = np.linalg.svd(t, compute_uv=False)
            det_sign = 1.0 if np.linalg.det(t) >= 0.0 else -1.0
            return bell_diagonal_correlations((sv[0], sv[1], det_sign * sv[2]))[2]
    info = mutual_information(rho)
    return info - classical_correlation(rho, measured_side, starts=starts)


def linear_entropy(rho: DensityMatrix) -> float:
    """Normalized single-qubit mixedness 2(1 - Tr rho^2)."""
    if rho.n != 1:
        raise ValueError("linear entropy here is single-qubit only")
    return float(2.0 * (1.0 - np.real(np.trace(rho.entries @ rho.entries))))


def _activation_negativity(rho: np.ndarray, n: int, angles: np.ndarray) -> float:
    """Entanglement (doubled negativity) across system:ancillas after local
    unitaries and per-qubit CNOT copies onto |0> ancillas."""
    us = []
    for q in range(n):
        a, b, c = angles[3 * q : 3 * q + 3]
        rz1 = np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
        ry = np.array(
            [[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]],
            dtype=complex,
        )
        rz2 = np.diag([np.exp(-0.5j * c), np.exp(0.5j * c)])
        us.append(rz1 @ ry @ rz2)
    u = kron_all(us)
    rotated = u @ rho @ u.conj().T
    d = 2**n
    anc = np.zeros((d, d))
    anc[0, 0] = 1.0
    full = np.kron(rotated, anc)
    # One CNOT per system qubit: control q, target ancilla n + q.  CNOTs on
    # computational states are an involutive index permutation.
    total = 2 * n
    vec_dim = 2**total
    perm = np.arange(vec_dim)
    for q in range(n):
        ctrl = (perm >> (total - 1 - q)) & 1
        flip = ctrl << (total - 1 - (n + q))
        perm = perm ^ flip
    p = np.zeros((vec_dim, vec_dim))
    p[np.arange(vec_dim), perm] = 1.0
    full = p.T @ full @ p
    pt = partial_transpose(full, list(range(n, total)), total)
    w = np.linalg.eigvalsh(pt)
    return float(-2.0 * w[w < 0.0].sum())


@dataclass(frozen=True)
class MepResult:
    value: float
    converged: bool
    n_starts: int


def mep(rho: DensityMatrix, starts: int = 32, tol: float = 1e-6, seed: int = 0, full: bool = False):
    """Minimum entanglement potential of the activation protocol.

    Minimizes the system:ancilla entanglement (on the doubled-negativity
    scale, so a Bell pair activates to 1) over one local unitary per qubit
    via multi-start simplex descent.  The identity is always one of the
    starts, so classical states score zero.
    """
    n = rho.n
    if n > 3:
        raise ValueError("activation protocol capped at 3 system qubits")
    if starts < 1:
        raise ValueError(f"starts={starts}: at least one start is needed")
    rng = np.random.default_rng(seed)
    mat = rho.entries

    def objective(angles):
        return _activation_negativity(mat, n, np.asarray(angles))

    best = math.inf
    converged = False
    for trial in range(starts):
        if trial == 0:
            x0 = np.zeros(3 * n)
        else:
            x0 = rng.uniform(0.0, 2 * math.pi, size=3 * n)
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": tol, "fatol": tol, "maxiter": 400 * n},
        )
        if res.fun < best:
            best = float(res.fun)
            converged = bool(res.success)
    best = max(0.0, best)
    if full:
        return MepResult(value=best, converged=converged, n_starts=starts)
    return best
