"""Single-qubit open-system dynamics and derived measurement statistics.

The four-parameter family (inversion decay rate B, polarization decay rate
C, bath parameter S, exposure time t) acts on the Bloch vector as

    (x, y, z) -> (x e^{-Ct}, y e^{-Ct}, z e^{-Bt} + (2S-1)(1 - e^{-Bt}))

and is written in operator-sum form through its Choi matrix.  Phase flip
(B=0, C=2*gamma) and white noise (S=1/2, B=C=4*gamma) are the two named
special cases.  Fixed-pole maps mix the identity with a Bloch rotation and
keep the rotation-axis eigenstates invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .linalg import ATOL, ID2, PAULIS, DensityMatrix, PureState, _frozen

CHOI_ATOL = 1e-9


class InvalidMapError(ValueError):
    """The requested map is not completely positive."""


def _decay(rate: float, t: float) -> float:
    if rate == 0.0 or t == 0.0:
        return 1.0
    return float(math.exp(-rate * t))


@dataclass(frozen=True)
class NoiseChannel:
    """One qubit coupled to its own bath for a time ``t``.

    ``t = math.inf`` selects the stationary state of the dynamics.
    """

    B: float
    C: float
    S: float
    t: float

    def __post_init__(self):
        if self.B < 0 or self.C < 0:
            raise ValueError("decay rates must be nonnegative")
        if not 0.0 <= self.S <= 1.0:
            raise ValueError(f"bath parameter S={self.S} outside [0, 1]")
        if self.t < 0:
            raise ValueError("time must be nonnegative")
        lam = lambdas(self)
        if abs(sum(lam[:4]) - 1.0) > 1e-12:
            raise AssertionError("weight normalization broke; file a bug")
        w0 = choi_min_eigenvalue(self)
        if w0 < -CHOI_ATOL:
            raise InvalidMapError(
                f"parameters (B={self.B}, C={self.C}, S={self.S}, t={self.t}) "
                f"give a non-CP map (Choi eigenvalue {w0:.3e})"
            )

    @classmethod
    def identity(cls) -> "NoiseChannel":
        return cls(0.0, 0.0, 0.5, 0.0)

    @classmethod
    def phase_flip(cls, gamma: float, t: float) -> "NoiseChannel":
        """Flips |0>+|1> to |0>-|1> with probability p/2, p = 1 - e^{-2 gamma t}."""
        return cls(B=0.0, C=2.0 * gamma, S=0.5, t=t)

    @classmethod
    def white(cls, gamma: float, t: float) -> "NoiseChannel":
        """Replaces the state by I/2 with probability p = 1 - e^{-4 gamma t}."""
        return cls(B=4.0 * gamma, C=4.0 * gamma, S=0.5, t=t)


@dataclass(frozen=True)
class MixingProbability:
    """Probability that decoherence swaps the two outcomes of a measurement.

    ``p_xy`` applies to any equatorial basis; ``p_z`` is a pair indexed by
    the prepared basis state because the fixed-point shift breaks the 0/1
    symmetry.
    """

    p_xy: float
    p_z: tuple[float, float]

    def __post_init__(self):
        for p in (self.p_xy, *self.p_z):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"mixing probability {p} outside [0, 1]")

    def flip_probs(self, alpha: float) -> tuple[float, float]:
        """Flip probability per prepared bit for a measurement with latitude
        ``alpha`` (0 = z axis, pi/2 = equator)."""
        if abs(alpha) < 1e-12:
            return self.p_z
        if abs(alpha - math.pi / 2.0) < 1e-12:
            return (self.p_xy, self.p_xy)
        raise ValueError(f"no mixing rule for alpha={alpha}; use 0 or pi/2")


@dataclass(frozen=True)
class FixedPoleMap:
    """Convex mixture of the identity and a Bloch rotation.

    The rotation-axis eigenstates are invariant, which is what makes
    measurement protection possible.
    """

    p: float
    axis: tuple[float, float, float]
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability p={self.p} outside [0, 1]")
        ax = np.asarray(self.axis, dtype=float)
        if abs(float(np.linalg.norm(ax)) - 1.0) > ATOL:
            raise ValueError("rotation axis must be a unit vector")
        object.__setattr__(self, "axis", (float(ax[0]), float(ax[1]), float(ax[2])))

    def rotation(self) -> np.ndarray:
        nx, ny, nz = self.axis
        nsigma = nx * PAULIS[1] + ny * PAULIS[2] + nz * PAULIS[3]
        return np.cos(self.phi / 2.0) * ID2 - 1j * np.sin(self.phi / 2.0) * nsigma


def lambdas(ch: NoiseChannel) -> tuple[float, float, float, float, float]:
    """Pauli weights (l0, l1, l2, l3) and the shift coefficient mu."""
    eb = _decay(ch.B, ch.t)
    ec = _decay(ch.C, ch.t)
    l0 = (1.0 + 2.0 * ec + eb) / 4.0
    l1 = (1.0 - eb) / 4.0
    l2 = l1
    l3 = (1.0 - 2.0 * ec + eb) / 4.0
    mu = (2.0 * ch.S - 1.0) * (1.0 - eb) / 4.0
    return (l0, l1, l2, l3, mu)


def act_on_qubit_matrix(ch, mat: np.ndarray) -> np.ndarray:
    """Action on an arbitrary 2x2 matrix (not necessarily a state)."""
    if isinstance(ch, FixedPoleMap):
        r = ch.rotation()
        return (1.0 - ch.p) * mat + ch.p * (r @ mat @ r.conj().T)
    l0, l1, l2, l3, mu = lambdas(ch)
    s0, s1, s2, s3 = PAULIS
    out = l0 * mat + l1 * (s1 @ mat @ s1) + l2 * (s2 @ mat @ s2) + l3 * (s3 @ mat @ s3)
    if mu != 0.0:
        out = out + mu * (s3 @ mat + mat @ s3 - 1j * (s1 @ mat @ s2) + 1j * (s2 @ mat @ s1))
    return out


def choi_min_eigenvalue(ch: NoiseChannel) -> float:
    """Smallest eigenvalue of ``choi_matrix(ch)`` in closed form: the Choi
    matrix is diagonal apart from e^{-Ct} on its |00><11| corners."""
    eb, ec = _decay(ch.B, ch.t), _decay(ch.C, ch.t)
    s = (2.0 * ch.S - 1.0) * (1.0 - eb)
    return min((1.0 - eb - s) / 2.0, (1.0 - eb + s) / 2.0, (1.0 + eb) / 2.0 - math.hypot(s / 2.0, ec))


def choi_matrix(ch) -> np.ndarray:
    """Unnormalized Choi matrix sum_{ij} |i><j| (x) Lambda(|i><j|)."""
    c = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            c[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = act_on_qubit_matrix(ch, e)
    return c


@lru_cache(maxsize=256)
def _kraus_cached(ch) -> tuple[np.ndarray, ...]:
    if isinstance(ch, FixedPoleMap):
        ops = []
        if ch.p < 1.0:
            ops.append(np.sqrt(1.0 - ch.p) * ID2)
        if ch.p > 0.0:
            ops.append(np.sqrt(ch.p) * ch.rotation())
        return tuple(ops)
    c = choi_matrix(ch)
    w, v = np.linalg.eigh(c)
    if w[0] < -CHOI_ATOL:
        raise InvalidMapError(f"Choi matrix has eigenvalue {w[0]:.3e}")
    ops = []
    for wk, vk in zip(w, v.T):
        if wk <= 0.0:
            continue  # eigenvalues in [-1e-9, 0) are numerical noise
        k = np.sqrt(wk) * vk.reshape(2, 2).T
        ops.append(k)
    return tuple(ops)


def kraus(ch) -> list[np.ndarray]:
    """Operator-sum form; satisfies sum K+ K = I to 1e-10."""
    return [k.copy() for k in _kraus_cached(ch)]


@lru_cache(maxsize=256)
def superoperator(ch) -> np.ndarray:
    """The map as a 4x4 matrix sum_j K_j (x) K_j^* acting on the pair
    (row bit, column bit) of one qubit of a density matrix (read-only)."""
    return _frozen(sum(np.kron(k, k.conj()) for k in _kraus_cached(ch)))


def apply(ch, rho: DensityMatrix, qubit: int) -> DensityMatrix:
    """Apply the map to one qubit of a density matrix, identity elsewhere."""
    n = rho.n
    if not (0 <= qubit < n):
        raise IndexError(f"qubit {qubit} out of range for {n} qubits")
    lo, hi = 2**qubit, 2 ** (n - 1 - qubit)
    t = rho.entries.reshape(lo, 2, hi, lo, 2, hi)
    out = np.einsum("xyac,iajkcl->ixjkyl", superoperator(ch).reshape(2, 2, 2, 2), t)
    return DensityMatrix(out.reshape(2**n, 2**n))


def mixing_probabilities(ch: NoiseChannel) -> MixingProbability:
    l0, l1, l2, l3, mu = lambdas(ch)
    p_xy = l1 + l3
    p_z = (2.0 * l1 - 2.0 * mu, 2.0 * l1 + 2.0 * mu)
    return MixingProbability(p_xy=p_xy, p_z=p_z)


def protected_basis(m: FixedPoleMap) -> tuple[PureState, PureState]:
    """The two invariant single-qubit states of a fixed-pole map: the Bloch
    vectors +axis and -axis.  A rotation angle that is a multiple of 2*pi
    leaves the whole sphere invariant; the z eigenbasis is returned then."""
    if abs(math.remainder(m.phi, 2.0 * math.pi)) < 1e-12:
        return (PureState([1.0, 0.0]), PureState([0.0, 1.0]))
    nx, ny, nz = m.axis
    theta = math.acos(max(-1.0, min(1.0, nz)))
    phi_az = math.atan2(ny, nx)
    up = np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi_az) * math.sin(theta / 2.0)], dtype=complex
    )
    dn = np.array(
        [-np.exp(-1j * phi_az) * math.sin(theta / 2.0), math.cos(theta / 2.0)], dtype=complex
    )
    return (PureState(up), PureState(dn))


def from_json(doc: Mapping) -> NoiseChannel | FixedPoleMap:
    """Parse {"kind": "general"|"pf"|"white"|"fixed_pole", ...}."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError("channel document needs a 'kind' field") from exc
    try:
        if kind == "general":
            return NoiseChannel(B=float(doc["B"]), C=float(doc["C"]), S=float(doc["S"]), t=float(doc["t"]))
        if kind == "pf":
            return NoiseChannel.phase_flip(float(doc["gamma"]), float(doc["t"]))
        if kind == "white":
            return NoiseChannel.white(float(doc["gamma"]), float(doc["t"]))
        if kind == "fixed_pole":
            ax = doc["axis"]
            return FixedPoleMap(p=float(doc["p"]), axis=(float(ax[0]), float(ax[1]), float(ax[2])), phi=float(doc["phi"]))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"bad channel document for kind {kind!r}: {exc}") from exc
    raise ValueError(f"unknown channel kind {kind!r}")


def to_json(ch) -> dict:
    if isinstance(ch, FixedPoleMap):
        return {"kind": "fixed_pole", "p": ch.p, "axis": list(ch.axis), "phi": ch.phi}
    return {"kind": "general", "B": ch.B, "C": ch.C, "S": ch.S, "t": ch.t}
