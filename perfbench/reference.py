"""Answers computed apart from ``onewaysim``, used to check every operation.

Nothing here imports the package under test.  Channels are built from the
Bloch map of the paper,

    (x, y, z) -> (x e^{-Ct}, y e^{-Ct}, z e^{-Bt} + (2S - 1)(1 - e^{-Bt})),

written as a superoperator on 2x2 matrices; measurements are sequential
projections in the adapted equatorial bases

    |M_k^s(theta)> = (|0> + (-1)^k e^{-i (-1)^s theta} |1>) / sqrt(2).

Qubit 0 sits on the most significant bit of a basis index, and the
first-measured qubit on the most significant bit of a record index.
"""

from __future__ import annotations

import math

import numpy as np

PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Rows: trace, and the factor by which a Pauli mixture scales x, y and z.
_PAULI_SCALING = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def bras(theta: float, s: int) -> np.ndarray:
    """Rows <M_0^s(theta)| and <M_1^s(theta)|."""
    phase = np.exp(-1j * (-1.0) ** s * theta)
    kets = np.array([[1.0, phase], [1.0, -phase]], dtype=complex) / math.sqrt(2.0)
    return kets.conj()


def bloch_superop(B: float, C: float, S: float, t: float) -> np.ndarray:
    """4x4 matrix acting on vec(E) (row-major |a><b| -> 2a + b)."""
    eb, ec = math.exp(-B * t), math.exp(-C * t)
    # Pauli coordinates (tr E, tr XE, tr YE, tr ZE) -> their images.
    t_map = np.array(
        [[1, 0, 0, 0], [0, ec, 0, 0], [0, 0, ec, 0], [(2 * S - 1) * (1 - eb), 0, 0, eb]]
    )
    sup = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            coords = np.array([p[b, a] for p in _PAULI])  # tr(P |a><b|)
            image = t_map @ coords
            sup[:, 2 * a + b] = (sum(c * p for c, p in zip(image, _PAULI)) / 2).reshape(4)
    return sup


def pauli_weights(B: float, C: float, t: float) -> np.ndarray:
    """(p_I, p_X, p_Y, p_Z) of an unshifted (S = 1/2) Bloch map."""
    eb, ec = math.exp(-B * t), math.exp(-C * t)
    return np.linalg.solve(_PAULI_SCALING, np.array([1.0, ec, ec, eb]))


def _apply_superop(rho: np.ndarray, sup: np.ndarray, q: int, n: int) -> np.ndarray:
    t = np.moveaxis(rho.reshape((2,) * (2 * n)), (q, n + q), (0, 1))
    shape = t.shape
    t = (sup @ t.reshape(4, -1)).reshape(shape)
    return np.moveaxis(t, (0, 1), (q, n + q)).reshape(2**n, 2**n)


def _graph_state(factors, edges) -> np.ndarray:
    """Product of the single-qubit ``factors`` with CZ on every edge."""
    vec = factors[0]
    for f in factors[1:]:
        vec = np.kron(vec, f)
    n = len(factors)
    idx = np.arange(2**n)
    for i, j in edges:
        both = (idx >> (n - 1 - i)) & (idx >> (n - 1 - j)) & 1
        vec = np.where(both == 1, -vec, vec)
    return vec


def distance_parity(records: np.ndarray, bits: int, j: int, first: int) -> np.ndarray:
    """XOR of the outcomes of qubits j - first, j - first - 2, ... in
    ``bits``-bit records: ``first`` = 1 gives the sign bit of qubit j's
    angle and the X by-product on the output; ``first`` = 2 the Z by-product."""
    s = np.zeros(records.shape, dtype=np.int64)
    for i in range(j - first, -1, -2):
        s ^= (records >> (bits - 1 - i)) & 1
    return s


def chain_reference(psi, thetas, params, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Record probabilities Z(r) and fidelities F(r) of a cluster chain.

    Vertex 0 holds ``psi``, vertices 0..m-1 are measured in order with
    ``thetas``, vertex m carries the answer.  ``params`` lists (B, C, S) per
    vertex; every vertex decoheres for time ``t`` before the measurements.
    The answer for record r is the noiseless branch r, which must equal
    X^x Z^z times branch 0 (x, z: parities of outcomes at odd and even
    distance from the output); a failure there means the pattern is wrong.
    """
    m = len(thetas)
    n = m + 1
    vec = _graph_state([np.asarray(psi, dtype=complex)] + [PLUS] * m, [(i, i + 1) for i in range(m)])
    rho = np.outer(vec, vec.conj())
    for q, (B, C, S) in enumerate(params):
        rho = _apply_superop(rho, bloch_superop(B, C, S, t), q, n)

    # Project the first remaining qubit of every prefix, one level at a time.
    blocks = rho[None]
    kets = vec[None]
    for j in range(m):
        prefixes = np.arange(blocks.shape[0])
        s = distance_parity(prefixes, j, j, 1)
        b = np.stack([bras(thetas[j], int(si)) for si in s])  # (P, k, a)
        d = blocks.shape[-1] // 2
        blocks = np.einsum("pka,paxby,pkb->pkxy", b, blocks.reshape(-1, 2, d, 2, d), b.conj())
        blocks = blocks.reshape(-1, d, d)
        kets = np.einsum("pka,pax->pkx", b, kets.reshape(-1, 2, d)).reshape(-1, d)

    records = np.arange(2**m)
    z = np.einsum("rxx->r", blocks).real
    ideal = kets / np.linalg.norm(kets, axis=1)[:, None]
    expect = ideal[0][None, :].repeat(2**m, axis=0)
    expect[distance_parity(records, m, m, 2) == 1, 1] *= -1.0
    x_bits = distance_parity(records, m, m, 1) == 1
    expect[x_bits] = expect[x_bits][:, ::-1]
    overlap = np.abs(np.einsum("rx,rx->r", expect.conj(), ideal)) ** 2
    if np.min(overlap) < 1.0 - 1e-9:
        raise ValueError(f"chain pattern is not deterministic: overlap {np.min(overlap)}")
    f = np.einsum("rx,rxy,ry->r", ideal.conj(), blocks, ideal).real / z
    return z, f


# -- the paper's 15-qubit CNOT -----------------------------------------------

CNOT15_EDGES = (
    [(i, i + 1) for i in range(6)] + [(i, i + 1) for i in range(8, 14)] + [(3, 7), (7, 11)]
)
CNOT15_MEASURED = (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13)
CNOT15_Y = frozenset({1, 2, 3, 4, 5, 7, 11})  # theta = pi/2; the rest theta = 0
# By-product supports (vertices) on outputs 6 (control) and 14 (target);
# fz on vertex 6 also has a constant 1.
CNOT15_FX6 = (1, 2, 4, 5)
CNOT15_FZ6 = (0, 2, 3, 4, 7, 8, 10)
CNOT15_FX14 = (1, 2, 7, 9, 11, 13)
CNOT15_FZ14 = (8, 10, 12)


def _parities(records: np.ndarray, support) -> np.ndarray:
    """Parity of the outcomes on ``support`` for every 13-bit record."""
    out = np.zeros(records.shape, dtype=np.int64)
    for v in support:
        pos = CNOT15_MEASURED.index(v)
        out ^= (records >> (12 - pos)) & 1
    return out


def _pauli_classes(records: np.ndarray) -> np.ndarray:
    """Index 8 x6 + 4 z6 + 2 x14 + z14 of the outcome-linear by-product."""
    return (
        8 * _parities(records, CNOT15_FX6)
        + 4 * _parities(records, CNOT15_FZ6)
        + 2 * _parities(records, CNOT15_FX14)
        + _parities(records, CNOT15_FZ14)
    )


def _class_paulis() -> np.ndarray:
    """(16, 4, 4): X^x6 Z^z6 (x) X^x14 Z^z14 for every class index."""
    out = np.empty((16, 4, 4), dtype=complex)
    for c in range(16):
        x6, z6, x14, z14 = (c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1
        a = np.linalg.matrix_power(_PAULI[1], x6) @ np.linalg.matrix_power(_PAULI[3], z6)
        b = np.linalg.matrix_power(_PAULI[1], x14) @ np.linalg.matrix_power(_PAULI[3], z14)
        out[c] = np.kron(a, b)
    return out


def cnot15_zero_noise_error(psi_c, psi_t) -> float:
    """Largest deviation, over all 8192 branches, of |<BP(r) CNOT psi|branch r>|^2
    and 2^13 p(r) from 1.  BP(r) includes the constant Z on the control, so
    branch 0 is (Z x I) CNOT |psi>."""
    factors = [PLUS] * 15
    factors[0], factors[8] = np.asarray(psi_c), np.asarray(psi_t)
    t = _graph_state(factors, CNOT15_EDGES).reshape((2,) * 15)
    for q in CNOT15_MEASURED:
        b = bras(math.pi / 2 if q in CNOT15_Y else 0.0, 0)
        t = np.moveaxis(np.tensordot(b, t, axes=([1], [q])), 0, q)
    branches = np.transpose(t, list(CNOT15_MEASURED) + [6, 14]).reshape(2**13, 4)
    probs = np.einsum("rx,rx->r", branches.conj(), branches).real
    records = np.arange(2**13)
    z_const = np.kron(_PAULI[3], _PAULI[0])
    targets = _class_paulis()[_pauli_classes(records)] @ (z_const @ CNOT @ np.kron(psi_c, psi_t))
    overlap = np.abs(np.einsum("rx,rx->r", targets.conj(), branches)) ** 2 / probs
    return float(max(np.max(np.abs(overlap - 1.0)), np.max(np.abs(probs * 2**13 - 1.0))))


def cnot15_noisy_fidelity(psi_c, psi_t, B: float, C: float, t: float) -> float:
    """Fidelity of every record when all 15 qubits decohere by the same
    unshifted map: each equatorial outcome flips with probability
    (1 - e^{-Ct})/2, a flip pattern f leaves the by-product P(f) uncorrected,
    and the answer qubits suffer the Pauli mixture of the map."""
    q = (1.0 - math.exp(-C * t)) / 2.0
    records = np.arange(2**13)
    n_flips = np.zeros(records.shape, dtype=np.int64)
    for pos in range(13):
        n_flips += (records >> pos) & 1
    p_flip = q**n_flips * (1.0 - q) ** (13 - n_flips)
    class_prob = np.bincount(_pauli_classes(records), weights=p_flip, minlength=16)

    w = pauli_weights(B, C, t)
    answer = CNOT @ np.kron(psi_c, psi_t)
    paulis = _class_paulis()
    fid = 0.0
    for c in range(16):
        if class_prob[c] == 0.0:
            continue
        moved = paulis[c] @ answer
        for a in range(4):
            for b in range(4):
                amp = np.vdot(answer, np.kron(_PAULI[a], _PAULI[b]) @ moved)
                fid += class_prob[c] * w[a] * w[b] * abs(amp) ** 2
    return float(fid)


# -- the two-qubit graph state with noise on its measured qubit ---------------


def two_qubit_closed_forms(kind: str, gamma: float, t: float) -> dict[str, float]:
    """Closed forms for one-sided phase-flip ("pf") or white noise.

    The noisy state is Bell-diagonal in the stabilizers XZ, ZX, YY with
    coefficients (e^{-Ct}, e^{-Bt}, e^{-Ct}).
    """
    B, C = (0.0, 2.0 * gamma) if kind == "pf" else (4.0 * gamma, 4.0 * gamma)
    ec, eb = math.exp(-C * t), math.exp(-B * t)
    if kind == "pf":
        conc = ec
    else:
        conc = max(0.0, (3.0 * ec - 1.0) / 2.0)
    c1, c2, c3 = ec, eb, ec
    lam = [
        (1 + s1 * c1 + s2 * c2 + s1 * s2 * c3) / 4 for s1 in (1, -1) for s2 in (1, -1)
    ]
    mutual = 2.0 + sum(x * math.log2(x) for x in lam if x > 1e-15)
    cmax = max(c1, c2, c3)
    classical = sum(
        x * math.log2(2 * x) for x in ((1 + cmax) / 2, (1 - cmax) / 2) if x > 1e-15
    )
    return {
        "rsp_fidelity": (1.0 + ec) / 2.0,
        "concurrence": conc,
        "negativity": conc / 2.0,
        "discord": mutual - classical,
        "mep": ec,
    }
