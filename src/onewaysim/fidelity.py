"""Closed-form fidelity engine for noisy one-way computations.

Each measured qubit decoheres and is then touched only by its own
measurement, so its channel can be moved onto the measurement effects.
The adjoint channel maps an equatorial effect (I + n.sigma)/2 to
(I + e^{-Ct} n.sigma)/2 = (1 - p)(I + n.sigma)/2 + p (I - n.sigma)/2,
p = (1 - e^{-Ct})/2, whatever the bath parameter; it maps the z effects to
mixtures of |0><0| and |1><1| whose weights depend on the prepared bit,
because the fixed-point shift breaks the 0/1 symmetry.  Either way, noise
on a measured qubit is a classical flip of its outcome in the basis it is
measured in: reading r_i when k_i was prepared has probability
P(r_i | k_i).

An adaptive pattern picks each basis from the bits read so far, so a
record r fixes every basis through its adaptation bits s(r), its frame.
Projecting the resource onto the frame's bases gives a branch vector
psi_{s,k} for every prepared record k, and

    Z(r) = sum_k W[r,k] |psi_{s(r),k}|^2,
    F(r) = sum_k W[r,k] sum_j |<A_r| K_j psi_{s(r),k}>|^2 / Z(r),

with W[r,k] = prod_i P(r_i | k_i), K_j the Kraus operators of the answer
noise, and A_r the normalized noiseless branch psi_{s(r),r}.  What the
pattern alone fixes runs once per pattern (``MeasurementPattern.plan``).
Records that share a frame share its contraction, one matmul per measured
qubit over all frames at once, and W, a tensor product of 2x2 matrices,
is applied one qubit at a time: a frame costs O(M 2^M), so a non-adaptive
pattern (one frame) costs that, and an adaptive one that times its number
of frames.  The answer noise is one real matrix on the codes of the
records' noiseless projectors, cached per tuple of output channels.  See
Danos, Kashefi and Panangaden, "The measurement calculus", arXiv:0704.1263.

The brute-force simulator in ``oracle`` is the independent ground truth
for everything here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import FixedPoleMap, NoiseChannel, mixing_probabilities, superoperator
from .linalg import _frozen
from .pattern import MeasurementPattern, frame_branches

MAX_ADAPTIVE_MEASURED = 10
MAX_NA_MEASURED = 20
_UNREACHABLE = 1e-12


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Probability Z and fidelity F of every outcome record, and their
    weighted average.

    ``z`` and ``f`` are read-only arrays over the 2^M records; record r has
    the bits of r, first-measured qubit most significant (as in
    ``pattern.outcome_tuple``).  ``f`` is NaN on records flagged unreachable
    (Z below 1e-12 before renormalization), and ``average`` sums Z F over
    the rest.  ``per_outcome``, built on first access, maps each outcome
    tuple to (Z, F), F None where unreachable.
    """

    z: np.ndarray
    f: np.ndarray
    average: float

    def __post_init__(self):
        for name in ("z", "f"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))
        z, f = self.z, self.f
        if z.ndim != 1 or f.shape != z.shape or z.size & (z.size - 1):
            raise ValueError(f"z and f need one power-of-two length, got shapes {z.shape} and {f.shape}")
        total = z.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        outside = (f < -1e-9) | (f > 1.0 + 1e-9)  # False on NaN
        if outside.any():
            raise ValueError(f"fidelity {f[outside][0]} outside [0, 1]")
        reached = ~np.isnan(f)
        if not abs(z[reached] @ f[reached] - self.average) <= 1e-10:
            raise ValueError("average does not match the outcome sum")

    @functools.cached_property
    def per_outcome(self) -> dict[tuple[int, ...], tuple[float, float | None]]:
        f = np.where(np.isnan(self.f), None, self.f).tolist()
        keys = itertools.product((0, 1), repeat=self.z.size.bit_length() - 1)
        return dict(zip(keys, zip(self.z.tolist(), f)))

    def fidelity(self, outcome: Sequence[int]) -> float | None:
        return self.per_outcome[tuple(int(b) for b in outcome)][1]

    def probability(self, outcome: Sequence[int]) -> float:
        return self.per_outcome[tuple(int(b) for b in outcome)][0]


# -- the record-frame engine ----------------------------------------------------


def _flip_table(pat: MeasurementPattern, measured_channels: Mapping[int, NoiseChannel] | None) -> np.ndarray:
    """(M, 2) swap probabilities indexed by (position, prepared bit)."""
    measured_channels = measured_channels or {}
    table = np.zeros((pat.n_measured, 2))
    for pos, q in enumerate(pat.measured):
        ch = measured_channels.get(q)
        if isinstance(ch, FixedPoleMap):
            raise TypeError(
                f"channel on measured qubit {q} must be a NoiseChannel; fixed-pole maps have no diagonal mixing rule"
            )
        if ch is not None:
            table[pos] = mixing_probabilities(ch).flip_probs(pat.alphas[pos])
    return table


@functools.lru_cache(maxsize=256)
def _answer_code_map(channels: tuple) -> np.ndarray:
    """The real matrix R with code(sum_j K_j^dagger X K_j) = code(X) @ R for
    Hermitian X on the outputs, K_j the joint Kraus operators of the answer
    noise, from each output's channel (None for none), ascending.  With
    S = sum_j K_j (x) K_j^* on one qubit's (row bit, column bit), the
    row-major vec(sum_j K_j^dagger X K_j) is vec(X) @ conj(S)."""
    k, d = len(channels), 2 ** len(channels)
    joint = np.ones(())
    for ch in channels:
        s = np.eye(4) if ch is None else superoperator(ch).conj()
        joint = np.multiply.outer(joint, s.reshape(2, 2, 2, 2))
    # Axes (row, column, row', column') of each qubit to all rows, columns,
    # rows' and columns'.
    joint = joint.transpose([4 * i + a for a in range(4) for i in range(k)]).reshape(d, d, d * d)
    # vec(X) = (c + c^T) / 2 + i (c - c^T) / 2 for c = code(X), so Re + Im
    # of vec(X) @ J is c @ (Re J + Im J with its row pairs (a, b) swapped).
    return _frozen((joint.real + joint.imag.transpose(1, 0, 2)).reshape(d * d, d * d))


def _record_frame_report(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None,
    answer_channels: Mapping[int, object] | None,
) -> FidelityReport:
    """Z(r) and F(r) of every record from the branches of its own frame.

    Hermitian matrices travel as the real code Re + Im of their entries:
    the real part is the symmetric half and the imaginary part the
    antisymmetric one, so nothing is lost, and tr(A B) is the dot product
    of the codes of A and B.
    """
    for name, chans, kind, allowed in (
        ("measured_channels", measured_channels, "measured", pat.measured),
        ("answer_channels", answer_channels, "output", pat.outputs),
    ):
        stray = sorted(set(chans or ()) - set(allowed))
        if stray:
            raise ValueError(f"{name} names qubits {stray}, which are not {kind} qubits {sorted(allowed)}")
    m = pat.n_measured
    frame_of, psi = frame_branches(resource, pat)
    n_frames, _, d = psi.shape
    # code[k, f] is the code of |psi_fk><psi_fk|, records first so that every
    # matmul carries all frames.  rho[r, f] = sum_k W[r, k] code[k, f], W the
    # product of P(read r_i | prepared k_i), is applied one qubit at a time.
    psi = psi.transpose(1, 0, 2)
    outer = psi[..., :, None] * psi[..., None, :].conj()
    code = outer.real + outer.imag
    rho = code
    for pos, (p0, p1) in enumerate(_flip_table(pat, measured_channels)):
        read = np.array([[1.0 - p0, p1], [p0, 1.0 - p1]])
        rho = read @ rho.reshape(2**pos, 2, -1)
    own = (np.arange(2**m), frame_of)  # record r's row in its own frame
    rho = rho.reshape(2**m, n_frames, d * d)[own]
    ideal = code.reshape(2**m, n_frames, d * d)[own]  # |psi_r><psi_r|, unnormalized

    norm2 = ideal[:, :: d + 1].sum(axis=1)
    z_raw = rho[:, :: d + 1].sum(axis=1)
    reachable = (z_raw > _UNREACHABLE) & (norm2 > 1e-20)
    # F(r) = tr(rho_r sum_j K_j^dagger |psi_r><psi_r| K_j) / (|psi_r|^2 Z(r)).
    r_map = _answer_code_map(tuple(map((answer_channels or {}).get, pat.outputs)))
    overlap = np.einsum("ri,ri->r", ideal @ r_map, rho)
    f = np.full(2**m, np.nan)
    np.divide(overlap, norm2 * z_raw, out=f, where=reachable)

    total = float(z_raw.sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"record probabilities sum to {total}; engine inconsistency")
    z = z_raw / total
    return FidelityReport(z=z, f=f, average=float(z[reachable] @ f[reachable]))


def fidelity_adaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, object] | None = None,
) -> FidelityReport:
    """Exact per-record fidelity for (possibly) adaptive patterns.

    ``measured_channels`` may name only measured qubits and
    ``answer_channels`` only outputs; any other key raises ValueError.
    Record probabilities are renormalized; the factor must already be 1 to
    1e-6.  Records below 1e-12 probability are flagged unreachable.
    """
    if pat.n_measured > MAX_ADAPTIVE_MEASURED:
        raise ValueError(
            f"adaptive engine refuses {pat.n_measured} measured qubits; the limit is {MAX_ADAPTIVE_MEASURED}"
        )
    return _record_frame_report(pat, resource, measured_channels, answer_channels)


def fidelity_nonadaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, object] | None = None,
) -> FidelityReport:
    """Fidelity report for non-adaptive patterns: the one-frame case of the
    same engine, whose cost grows as M 2^M, hence the higher limit.  The
    channel mappings follow the rule of ``fidelity_adaptive``."""
    if not pat.is_nonadaptive():
        raise ValueError("pattern is adaptive; use fidelity_adaptive")
    if pat.n_measured > MAX_NA_MEASURED:
        raise ValueError(
            f"non-adaptive engine refuses {pat.n_measured} measured qubits; the limit is {MAX_NA_MEASURED}"
        )
    return _record_frame_report(pat, resource, measured_channels, answer_channels)
