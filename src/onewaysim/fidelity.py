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
noise, and A_r the normalized noiseless branch psi_{s(r),r}.  Records that
share a frame share its contraction, and W, a tensor product of 2x2
matrices, is applied one qubit at a time: a frame costs O(M 2^M), so a
non-adaptive pattern (one frame) costs that, and an adaptive one that
times its number of frames.  See Danos, Kashefi and Panangaden, "The
measurement calculus", arXiv:0704.1263.

The brute-force simulator in ``oracle`` is the independent ground truth
for everything here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import FixedPoleMap, NoiseChannel, _kraus_cached, mixing_probabilities
from .linalg import kron_all
from .pattern import MeasurementPattern, frame_branches

MAX_ADAPTIVE_MEASURED = 10
MAX_NA_MEASURED = 20
_UNREACHABLE = 1e-12


@dataclass(frozen=True)
class FidelityReport:
    """Per-outcome record probability and fidelity, plus their average.

    ``per_outcome`` maps each outcome tuple to (Z, F); F is None for
    records flagged unreachable (Z below 1e-12 before renormalization).
    """

    per_outcome: dict[tuple[int, ...], tuple[float, float | None]]
    average: float

    def __post_init__(self):
        total = sum(z for z, _ in self.per_outcome.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        acc = 0.0
        for z, f in self.per_outcome.values():
            if f is None:
                continue
            if not -1e-9 <= f <= 1.0 + 1e-9:
                raise ValueError(f"fidelity {f} outside [0, 1]")
            acc += z * f
        if abs(acc - self.average) > 1e-10:
            raise ValueError("average does not match the outcome sum")

    def fidelity(self, outcome: Sequence[int]) -> float | None:
        return self.per_outcome[tuple(int(b) for b in outcome)][1]

    def probability(self, outcome: Sequence[int]) -> float:
        return self.per_outcome[tuple(int(b) for b in outcome)][0]


def average(report: FidelityReport) -> float:
    """Outcome-probability-weighted mean fidelity."""
    return float(sum(z * f for z, f in report.per_outcome.values() if f is not None))


def report_rows(report: FidelityReport, t: float) -> list[tuple[float, str, float, float | None]]:
    """CSV-ready rows (t, outcome, Z, F) in outcome order."""
    rows = []
    for key in sorted(report.per_outcome):
        z, f = report.per_outcome[key]
        rows.append((t, "".join(str(b) for b in key), z, f))
    return rows


def report_summary(report: FidelityReport, t: float) -> dict:
    return {"t": t, "F_bar": report.average}


# -- the record-frame engine ----------------------------------------------------


def _require_noise_channel(ch, where: str) -> NoiseChannel:
    if isinstance(ch, FixedPoleMap):
        raise TypeError(f"{where} must be a NoiseChannel; fixed-pole maps have no diagonal mixing rule")
    return ch


def _flip_table(pat: MeasurementPattern, measured_channels: Mapping[int, NoiseChannel] | None) -> np.ndarray:
    """(M, 2) swap probabilities indexed by (position, prepared bit)."""
    measured_channels = measured_channels or {}
    table = np.zeros((pat.n_measured, 2))
    for pos, q in enumerate(pat.measured):
        ch = measured_channels.get(q)
        if ch is None:
            continue
        mp = mixing_probabilities(_require_noise_channel(ch, f"channel on measured qubit {q}"))
        table[pos] = mp.flip_probs(pat.alphas[pos])
    return table


def _answer_kraus(pat: MeasurementPattern, answer_channels: Mapping[int, object] | None) -> np.ndarray:
    """Joint operator-sum form of the per-output-qubit channels, stacked."""
    answer_channels = answer_channels or {}
    per_qubit = []
    for q in pat.outputs:
        ch = answer_channels.get(q)
        per_qubit.append(_kraus_cached(ch) if ch is not None else (np.eye(2, dtype=complex),))
    if not per_qubit:
        return np.ones((1, 1, 1), dtype=complex)
    return np.stack([kron_all(combo) for combo in itertools.product(*per_qubit)])


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
    m = pat.n_measured
    frame_of, psi = frame_branches(resource, pat)
    n_frames, _, d = psi.shape
    # rho[f, r] = sum_k W[r, k] |psi_fk><psi_fk|, with W the product over the
    # measured qubits of P(read r_i | prepared k_i), applied one qubit at a time.
    outer = psi[..., :, None] * psi[..., None, :].conj()
    rho = outer.real + outer.imag
    for pos, (p0, p1) in enumerate(_flip_table(pat, measured_channels)):
        read = np.array([[1.0 - p0, p1], [p0, 1.0 - p1]])
        rho = read @ rho.reshape(n_frames, 2**pos, 2, -1)
    records = np.arange(2**m)
    rho = rho.reshape(n_frames, 2**m, d * d)[frame_of, records]
    ideal = psi[frame_of, records]

    norm2 = np.einsum("ra,ra->r", ideal, ideal.conj()).real
    z_raw = rho[:, :: d + 1].sum(axis=1)
    reachable = (z_raw > _UNREACHABLE) & (norm2 > 1e-20)
    hat = ideal[reachable] / np.sqrt(norm2[reachable])[:, None]
    # The effect sum_j K_j^dagger |A_r><A_r| K_j of the answer noise, whose
    # trace against rho_r is the unnormalized fidelity.
    kraus = _answer_kraus(pat, answer_channels)
    adjoint = np.einsum("jca,jdb->cdab", kraus.conj(), kraus).reshape(d * d, d * d)
    effect = (hat[:, :, None] * hat.conj()[:, None, :]).reshape(-1, d * d) @ adjoint
    f_reached = np.einsum("ri,ri->r", effect.real + effect.imag, rho[reachable]) / z_raw[reachable]

    total = float(z_raw.sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"record probabilities sum to {total}; engine inconsistency")
    z = z_raw / total
    f = np.full(2**m, None, dtype=object)
    f[reachable] = f_reached.tolist()
    per = dict(zip(itertools.product((0, 1), repeat=m), zip(z.tolist(), f.tolist())))
    return FidelityReport(per_outcome=per, average=float(z[reachable] @ f_reached))


def fidelity_adaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, object] | None = None,
) -> FidelityReport:
    """Exact per-record fidelity for (possibly) adaptive patterns.

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
    same engine, whose cost grows as M 2^M, hence the higher limit."""
    if not pat.is_nonadaptive():
        raise ValueError("pattern is adaptive; use fidelity_adaptive")
    if pat.n_measured > MAX_NA_MEASURED:
        raise ValueError(
            f"non-adaptive engine refuses {pat.n_measured} measured qubits; the limit is {MAX_NA_MEASURED}"
        )
    return _record_frame_report(pat, resource, measured_channels, answer_channels)
