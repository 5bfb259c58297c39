"""Correlation measures of the (noisy) resource state.

Entanglement monotones (two-qubit concurrence, bipartite negativity),
quantum discord with its projective-measurement optimization, normalized
linear entropy, and the minimum entanglement potential of the activation
protocol (adversarial local unitaries followed by per-qubit CNOTs onto
fresh ancillas).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .linalg import DensityMatrix, PAULIS, Y, kron_all, partial_trace_raw

_LOG2 = math.log(2.0)


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
    yy = np.kron(Y, Y)
    w, v = np.linalg.eigh(rho.entries)
    w = np.where(w < 1e-13, 0.0, w)  # sqrt amplifies kernel-space noise
    sqrt_rho = (v * np.sqrt(w)) @ v.conj().T
    # sqrt(rho) (YxY) conj(sqrt(rho)) has the flipped-product roots as its
    # singular values, and SVD is stable where eigvals of the non-normal
    # product are not.
    m = sqrt_rho @ yy @ np.conj(sqrt_rho)
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


def _measurement_kets(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)
    b = np.array([-np.exp(-1j * phi) * math.sin(theta / 2), math.cos(theta / 2)], dtype=complex)
    return a, b


def _conditional_entropy(rho: np.ndarray, measured_axis: int, theta: float, phi: float) -> float:
    """sum_k p_k S(rho_other | k) for a projective measurement on one side."""
    t = rho.reshape(2, 2, 2, 2)
    total = 0.0
    for ket in _measurement_kets(theta, phi):
        if measured_axis == 1:
            block = np.einsum("i,aibj,j->ab", np.conj(ket), t, ket)
        else:
            block = np.einsum("i,iajb,j->ab", np.conj(ket), t, ket)
        p = float(np.trace(block).real)
        if p > 1e-14:
            total += p * von_neumann_entropy(block / p)
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
    projector pair.
    """
    if rho.n != 2:
        raise ValueError("classical correlation here is two-qubit only")
    if starts < 1:
        raise ValueError(f"starts={starts}: at least one start is needed")
    if measured_side not in ("A", "B"):
        raise ValueError("measured_side must be 'A' or 'B'")
    axis = 1 if measured_side == "B" else 0
    other = [0] if axis == 1 else [1]
    s_other = von_neumann_entropy(partial_trace_raw(rho.entries, other, 2))

    def objective(theta, phi):
        return s_other - _conditional_entropy(rho.entries, axis, theta, phi)

    def refine(theta, phi):
        best = objective(theta, phi)
        span_t, span_p = math.pi / 4, math.pi / 4
        for _ in range(120):
            improved = best
            for grid in range(2):
                if grid == 0:
                    cand = [(theta + d, phi) for d in (-span_t, -span_t / 3, span_t / 3, span_t)]
                else:
                    cand = [(theta, phi + d) for d in (-span_p, -span_p / 3, span_p / 3, span_p)]
                for ct, cp in cand:
                    v = objective(ct, cp)
                    if v > improved:
                        improved, theta, phi = v, ct, cp
            if improved - best < tol:
                span_t *= 0.5
                span_p *= 0.5
                if span_t < tol:
                    break
            best = improved
        return best

    return max(refine(t, p) for t, p in _fibonacci_sphere(starts))


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


def _bloch_decomposition(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.array([np.trace(rho @ np.kron(PAULIS[i], PAULIS[0])).real for i in (1, 2, 3)])
    b = np.array([np.trace(rho @ np.kron(PAULIS[0], PAULIS[i])).real for i in (1, 2, 3)])
    t = np.array(
        [[np.trace(rho @ np.kron(PAULIS[i], PAULIS[j])).real for j in (1, 2, 3)] for i in (1, 2, 3)]
    )
    return a, b, t


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


@dataclass(frozen=True)
class CorrelationProfile:
    """Snapshot of the correlation measures of a state."""

    concurrence: float | None = None
    negativity: float | None = None
    discord: float | None = None
    mutual_info: float | None = None
    classical_corr: float | None = None
    linear_entropy: float | None = None
    mep: float | None = None


def profile(
    rho: DensityMatrix,
    measures: Iterable[str] = ("concurrence", "negativity", "discord"),
    negativity_partition: Iterable[int] = (0,),
) -> CorrelationProfile:
    values: dict[str, float] = {}
    for name in measures:
        if name == "concurrence":
            values[name] = concurrence(rho)
        elif name == "negativity":
            values[name] = negativity(rho, negativity_partition)
        elif name == "discord":
            values[name] = discord(rho)
        elif name == "mutual_info":
            values[name] = mutual_information(rho)
        elif name == "classical_corr":
            values[name] = classical_correlation(rho)
        elif name == "linear_entropy":
            values[name] = linear_entropy(rho)
        elif name == "mep":
            values[name] = mep(rho)
        else:
            raise ValueError(f"unknown correlation measure {name!r}")
    return CorrelationProfile(**values)
