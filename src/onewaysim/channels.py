"""Single-qubit open-system dynamics and derived measurement statistics.

One four-parameter family (inversion decay rate B, polarization decay rate
C, bath parameter S, exposure time t) acts on the Bloch vector as

    (x, y, z) -> (x e^{-Ct}, y e^{-Ct}, z e^{-Bt} + (2S-1)(1 - e^{-Bt}))

On a density matrix that is one real 4x4 superoperator with six nonzero
entries, written down in closed form; the oracle applies it and the
fidelity engine reads its outcome-flip probabilities and its answer noise
off it.  Phase flip (B=0, C=2*gamma) and white noise (S=1/2, B=C=4*gamma)
are the two named special cases.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DensityMatrix, _frozen

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
        # NaN passes every comparison above but S's.  B, C and t are now >= 0
        # or NaN, so their sum is NaN only when one of them is.
        if math.isnan(self.B + self.C + self.t):
            name = next(name for name in ("B", "C", "t") if math.isnan(getattr(self, name)))
            raise ValueError(f"parameter {name} is NaN")
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


def choi_min_eigenvalue(ch: NoiseChannel) -> float:
    """Smallest eigenvalue of the Choi matrix sum_ij |i><j| (x) Lambda(|i><j|)
    in closed form: it is diagonal apart from e^{-Ct} on its |00><11|
    corners."""
    eb, ec = _decay(ch.B, ch.t), _decay(ch.C, ch.t)
    s = (2.0 * ch.S - 1.0) * (1.0 - eb)
    return min((1.0 - eb - s) / 2.0, (1.0 - eb + s) / 2.0, (1.0 + eb) / 2.0 - math.hypot(s / 2.0, ec))


@lru_cache(maxsize=256)
def superoperator(ch: NoiseChannel) -> np.ndarray:
    """The map as a real 4x4 matrix on the pair (row bit, column bit) of one
    qubit of a density matrix, row-major (read-only).

    |0><0| and |1><1| go to diagonal mixtures whose weights carry the shift
    s = (2S-1)(1 - e^{-Bt}), and |0><1|, |1><0| are damped by e^{-Ct}; no
    other entry is nonzero."""
    eb, ec = _decay(ch.B, ch.t), _decay(ch.C, ch.t)
    s = (2.0 * ch.S - 1.0) * (1.0 - eb)
    out = np.zeros((4, 4))
    out[0, 0], out[0, 3] = (1.0 + eb + s) / 2.0, (1.0 - eb + s) / 2.0
    out[3, 0], out[3, 3] = (1.0 - eb - s) / 2.0, (1.0 + eb - s) / 2.0
    out[1, 1] = out[2, 2] = ec
    return _frozen(out)


def apply(ch: NoiseChannel, rho: DensityMatrix, qubit: int) -> DensityMatrix:
    """Apply the map to one qubit of a density matrix, identity elsewhere.
    A ``ch`` or ``rho`` of another type, or a qubit that is not an integer,
    raises TypeError; a qubit out of range raises IndexError."""
    for name, value, kind in (("ch", ch, NoiseChannel), ("rho", rho, DensityMatrix)):
        if not isinstance(value, kind):
            raise TypeError(f"{name} is a {type(value).__name__}, not a {kind.__name__}")
    n, qubit = rho.n, operator.index(qubit)
    if not (0 <= qubit < n):
        raise IndexError(f"qubit {qubit} out of range for {n} qubits")
    lo, hi = 2**qubit, 2 ** (n - 1 - qubit)
    t = rho.entries.reshape(lo, 2, hi, lo, 2, hi)
    out = np.einsum("xyac,iajkcl->ixjkyl", superoperator(ch).reshape(2, 2, 2, 2), t)
    return DensityMatrix(out.reshape(2**n, 2**n))


def mixing_probabilities(ch: NoiseChannel, alpha: float) -> tuple[float, float]:
    """Probability (p0, p1) that decoherence swaps the outcome of a
    measurement with latitude ``alpha`` (0 = z axis, pi/2 = equator), per
    prepared bit.  Both come from entries of ``superoperator(ch)``: on the
    equator the coherence keeps e^{-Ct}, its [1, 1] entry, so p0 = p1 =
    (1 - e^{-Ct})/2, read off the same float without building the map; on
    the z axis they are the |0> -> |1> and |1> -> |0> weights, unequal when
    the shift breaks the 0/1 symmetry."""
    if abs(alpha) < 1e-12:
        s = superoperator(ch)
        return (float(s[3, 0]), float(s[0, 3]))
    if abs(alpha - math.pi / 2.0) < 1e-12:
        p = (1.0 - _decay(ch.C, ch.t)) / 2.0
        return (p, p)
    raise ValueError(f"no mixing rule for alpha={alpha}; use 0 or pi/2")
