"""Correlation measures of the (noisy) resource state.

Entanglement monotones (two-qubit concurrence, bipartite negativity),
quantum discord with its projective-measurement search, and the minimum
entanglement potential (MEP) of the activation protocol.

Two-qubit discord works on the Pauli tensor M_ij = tr(rho sigma_i x sigma_j),
i, j in 0..3, which one product of a constant (4, 4, 16) array with vec(rho)
gives: the local Bloch vectors are a = M[1:, 0] and b = M[0, 1:], the
correlation matrix is T = M[1:, 1:].  Measuring B along the unit vector n
gives outcome probabilities p+- = (1 +- b.n)/2 and leaves A with Bloch
vector (a +- T n)/(2 p+-), so the conditional entropy of the discord search
is sum+- p+- h(|a +- T n|/(2 p+-)) with h(r) the entropy of a qubit of
Bloch length r, and S(A) = h(|a|); measuring A swaps a and b and
transposes T.  With a = b = 0 both outcomes have probability 1/2, the
search is least at T's largest singular value sigma, and discord is
(2 - S(AB)) - (1 - h(sigma)) = 1 - S(AB) + h(sigma) (Luo, PRA 77, 042303
(2008)).

The activation protocol applies a local unitary U and then one CNOT from
each system qubit onto a fresh |0> ancilla, which takes rho' = U rho U^dagger
to sum_ij rho'_ij |i i><j j|.  Transposing the ancillas maps |i i><j j| to
|i j><j i|, so the result splits into the entries rho'_ii on |i i> and, for
each pair i < j, the 2x2 block [[0, rho'_ij], [rho'_ji, 0]] on
{|i j>, |j i>}, whose eigenvalues are +-|rho'_ij|.  The doubled negativity
across system:ancillas is therefore the l1-coherence sum_{i != j} |rho'_ij|
(Streltsov et al., PRL 115, 020403 (2015), arXiv:1502.05876), and MEP is its
minimum over U.  A diagonal phase after U changes no |rho'_ij|, so each
qubit's unitary is Ry(b) Rz(c): two angles per qubit.

Both searches, over the two Bloch angles of the discord measurement and
over MEP's 2n angles, run one optimizer: restarted Nelder-Mead from several
starts in lockstep.  A search along one angle at a time is not enough for
MEP, whose minimum usually sits on a kink where some rho'_ij vanish.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import DensityMatrix, PAULIS, Y, kron_all

_LOG2 = math.log(2.0)
# tr(rho P) = vec(rho) . vec(P^T) for row-major vec, so this stack of the
# vec(sigma_i x sigma_j)^T turns vec(rho) into the Pauli tensor M_ij.
_PAULI_TENSOR = np.array([[np.kron(p, q).T.reshape(16) for q in PAULIS] for p in PAULIS])
_YY = np.kron(Y, Y)
# Nelder-Mead moves the worst vertex to centroid + t (centroid - worst), t in
# _MOVES: reflection, expansion, outside and inside contraction.  A simplex
# spans _STEP per angle, restarts once its vertices and values lie within
# _TOL, and stops once a restart gains less than _TOL or at _ITERATIONS.
_MOVES = np.array([1.0, 2.0, 0.5, -0.5])
_STEP = 0.25
_TOL = 1e-8
_ITERATIONS = 3000


def _entropy(p, axis=-1):
    """Base-2 Shannon entropy of the probabilities along ``axis``; entries at
    or below 1e-15 count as 0: rounding leaves a few eps where zeros belong,
    as in (1 - r) / 2 at r = 1, and x log x lifts that to 1e-14."""
    p = np.asarray(p, dtype=float)
    logs = np.log(p, out=np.zeros_like(p), where=p > 1e-15)
    return -(p * logs).sum(axis=axis) / _LOG2


def _qubit_entropy(r):
    """Base-2 entropy h(r) of a qubit of Bloch length r, elementwise."""
    return _entropy(np.array(((1.0 + r) / 2.0, (1.0 - r) / 2.0)), axis=0)


def von_neumann_entropy(rho) -> float:
    """Base-2 entropy of the spectrum."""
    mat = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(_entropy(np.linalg.eigvalsh(mat)))


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
    part = sorted(set(map(operator.index, partition)))
    if not part or len(part) >= rho.n:
        raise ValueError("partition must be a proper nonempty qubit subset")
    if part[0] < 0 or part[-1] >= rho.n:
        raise ValueError(f"partition {part} out of range")
    pt = partial_transpose(rho.entries, part, rho.n)
    w = np.linalg.eigvalsh(pt)
    return float(-w[w < 0.0].sum())


def mutual_information(rho: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) for a two-qubit state, the marginal entropies
    read off the local Bloch lengths."""
    if rho.n != 2:
        raise ValueError("mutual information here is two-qubit only")
    a, b, _ = _bloch_decomposition(rho.entries)
    return float(_qubit_entropy(np.linalg.norm((a, b), axis=1)).sum()) - von_neumann_entropy(rho)


def _bloch_decomposition(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, T) of a 4x4 two-qubit density matrix, read off its Pauli tensor."""
    m = (_PAULI_TENSOR @ rho.reshape(16)).real
    return m[1:, 0], m[0, 1:], m[1:, 1:]


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
        total = total + np.where(p > 1e-14, p * _qubit_entropy(r), 0.0)
    return total


def _nelder_mead(objective, k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Restarted Nelder-Mead on ``objective`` over k angles from ``count``
    starts in lockstep: all angles zero, and angles drawn with a fixed seed.
    ``objective`` maps angles of shape (k, ...) to values of shape (...).
    Returns each start's least value and whether it stopped in time.

    One call per iteration evaluates the four moves of the worst vertex of
    every start still running; the shrink and restart calls, too, evaluate
    only the starts that take them.
    A collapsed simplex restarts around its best vertex, because simplices
    collapse onto the kinks of a nonsmooth objective short of its minimum.
    """
    rows = np.arange(count)[:, None]
    first = np.vstack((np.zeros(k), _STEP * np.eye(k)))
    starts = np.random.default_rng(0).uniform(0.0, 2 * math.pi, size=(count, k))
    starts[0] = 0.0
    # simplex[s, v] is vertex v of start s, values[s, v] its value.
    simplex = starts[:, None] + first
    values = objective(simplex.transpose(2, 0, 1))
    restarted_at = np.full(count, np.inf)
    active = np.ones(count, dtype=bool)
    for _ in range(_ITERATIONS):
        order = values.argsort(axis=1)
        simplex, values = simplex[rows, order], values[rows, order]
        best, second, worst = values[:, 0], values[:, -2], values[:, -1]
        spread = np.abs(simplex[:, 1:] - simplex[:, :1]).max(axis=(1, 2))
        collapsed = active & (spread <= _TOL) & (worst - best <= _TOL)
        restart = collapsed & (best < restarted_at - _TOL)
        active &= restart | ~collapsed
        if not active.any():
            break
        if restart.any():
            restarted_at[restart] = best[restart]
            simplex[restart] = simplex[restart, :1] + first
            values[restart] = objective(simplex[restart].transpose(2, 0, 1))
            continue
        # Stopped starts keep their simplex, so only the live ones move.
        live = np.flatnonzero(active)
        best, second, worst = best[live], second[live], worst[live]
        centroid = simplex[live, :-1].mean(axis=1)
        moves = centroid[:, None] + (centroid - simplex[live, -1])[:, None] * _MOVES[:, None]
        tried = objective(moves.transpose(2, 0, 1))
        reflect, expand, outside, inside = tried.T
        # Expand (1) past a reflection (0) that beats the best vertex, reflect
        # if that beats the second worst, else contract (2, 3) or shrink (-1).
        pick = np.where(
            reflect < second,
            (reflect < best) & (expand < reflect),
            np.where(reflect < worst, np.where(outside <= reflect, 2, -1), np.where(inside < worst, 3, -1)),
        )
        move = pick >= 0
        simplex[live[move], -1], values[live[move], -1] = moves[move, pick[move]], tried[move, pick[move]]
        shrink = live[~move]
        if shrink.size:
            simplex[shrink] = (simplex[shrink, :1] + simplex[shrink]) / 2
            values[shrink] = objective(simplex[shrink].transpose(2, 0, 1))
    return values.min(axis=1), ~active


def classical_correlation(rho: DensityMatrix, measured_side: str = "B") -> float:
    """max over projective measurements of S(other) - S(other | outcome),
    by minimizing the closed-form conditional entropy over the Bloch angles
    of the measured projector pair from 16 starts."""
    if rho.n != 2:
        raise ValueError("classical correlation here is two-qubit only")
    if measured_side not in ("A", "B"):
        raise ValueError("measured_side must be 'A' or 'B'")
    a, b, t = _bloch_decomposition(rho.entries)
    if measured_side == "A":
        a, b, t = b, a, t.T
    s_other = float(_qubit_entropy(np.linalg.norm(a)))

    def objective(angles):
        theta, phi = angles
        st = np.sin(theta)
        n = np.stack((st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)
        return _measured_entropy(a, b, t, n)

    least, _ = _nelder_mead(objective, 2, 16)
    return s_other - float(least.min())


def discord(rho: DensityMatrix, measured_side: str = "B", method: str = "auto") -> float:
    """Quantum discord: mutual information minus classical correlation.

    ``method='auto'`` uses the closed form 1 - S(AB) + h(sigma), sigma the
    largest singular value of the correlation matrix T, whenever both local
    Bloch vectors vanish (module docstring; Luo, PRA 77, 042303 (2008));
    ``method='optimize'`` always runs the projective-measurement search.
    """
    if rho.n != 2:
        raise ValueError("discord here is two-qubit only")
    if method not in ("auto", "optimize"):
        raise ValueError("method must be 'auto' or 'optimize'")
    if measured_side not in ("A", "B"):
        raise ValueError("measured_side must be 'A' or 'B'")
    if method == "auto":
        a, b, t = _bloch_decomposition(rho.entries)
        if np.max(np.abs(a)) < 1e-12 and np.max(np.abs(b)) < 1e-12:
            sigma = np.linalg.svd(t, compute_uv=False)[0]
            return 1.0 - von_neumann_entropy(rho) + float(_qubit_entropy(sigma))
    info = mutual_information(rho)
    return info - classical_correlation(rho, measured_side)


def _l1_coherence(rho: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """sum_{i != j} |rho'_ij| of rho' = U rho U^dagger, U the product over
    qubits q of Ry(angles[q]) Rz(angles[n + q]); ``angles`` has shape
    (2n, ...) and the result the shape of its trailing axes."""
    n = len(angles) // 2
    cos, sin, phase = np.cos(angles[:n] / 2), np.sin(angles[:n] / 2), np.exp(0.5j * angles[n:])
    # Ry(b) Rz(c) = [[cos e^{-ic/2}, -sin e^{ic/2}], [sin e^{-ic/2}, cos e^{ic/2}]]
    entries = np.stack((cos * phase.conj(), -sin * phase, sin * phase.conj(), cos * phase), axis=-1)
    full = kron_all(entries.reshape(entries.shape[:-1] + (2, 2)))
    left = (full.reshape(-1, len(rho)) @ rho).reshape(full.shape)
    rotated = left @ full.conj().swapaxes(-1, -2)
    # The diagonal of rho' is nonnegative and sums to tr rho.
    return np.abs(rotated).sum(axis=(-2, -1)) - np.trace(rho).real


@dataclass(frozen=True)
class MepResult:
    value: float
    converged: bool
    n_starts: int


def mep(rho: DensityMatrix, starts: int = 32, full: bool = False):
    """Minimum entanglement potential of the activation protocol.

    The minimum over U = prod_q Ry(b_q) Rz(c_q) of the l1-coherence of
    U rho U^dagger, which equals the doubled negativity of the activated
    state (module docstring; Streltsov et al., PRL 115, 020403 (2015)), so
    a Bell pair activates to 1.  The identity is one start, so classical
    states score zero.  With ``full``, returns a ``MepResult`` whose
    ``converged`` says whether the best start stopped within the cap.
    """
    n = rho.n
    if n > 3:
        raise ValueError("activation protocol capped at 3 system qubits")
    if starts < 1:
        raise ValueError(f"starts={starts}: at least one start is needed")
    least, converged = _nelder_mead(lambda angles: _l1_coherence(rho.entries, angles), 2 * n, starts)
    i = int(least.argmin())
    value = max(0.0, float(least[i]))
    if full:
        return MepResult(value=value, converged=bool(converged[i]), n_starts=starts)
    return value
