"""Brute-force noisy simulator: ground truth for the closed-form engines.

The density matrix is a Liouville tensor, one axis of size 4 per qubit
holding its (row bit, column bit), with the measured qubits first in
temporal order.  Each channel is one 4x4 superoperator on its qubit's axis;
at each depth every surviving record prefix is projected at once onto the
effect |M_k^s><M_k^s| of its own adaptation bit s.  Noise acts on the
state, never on the effects, so the oracle stays independent of the
outcome-flip reduction that ``fidelity`` rests on.  Fidelities are taken
against the by-product-corrected canonical answer BP(r) A_0.
Dimension-guarded to ten qubits (4^10 entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import superoperator
from .linalg import DensityMatrix, PureState, check_density_matrices
from .pattern import (
    MeasurementPattern,
    _ZERO_BRANCH,
    _resource_vector,
    apply_byproducts,
    basis_raw,
    record_columns,
)

MAX_ORACLE_QUBITS = 10
_PRUNE = 1e-14


@dataclass(frozen=True)
class OracleRun:
    """Per-outcome probabilities, post-measurement answers, and fidelities.

    ``branches`` maps each unpruned record to (probability, read-only
    density matrix of its answer); pruned records are absent everywhere.
    """

    branches: dict[tuple[int, ...], tuple[float, np.ndarray]]
    fidelities: dict[tuple[int, ...], float]
    average: float

    def probability(self, outcome: tuple[int, ...]) -> float:
        return self.branches.get(outcome, (0.0, None))[0]


def _effect_rows(vecs) -> np.ndarray:
    """Rows <<E| with <<E|rho>> = <v|rho|v> on one qubit's (row bit, column
    bit) pair, for a stack of vectors v: shape (..., 2) to (..., 4)."""
    vecs = np.asarray(vecs)
    return (np.conj(vecs)[..., :, None] * vecs[..., None, :]).reshape(vecs.shape[:-1] + (4,))


def simulate(resource, pat: MeasurementPattern, channels: Mapping[int, object] | None = None) -> OracleRun:
    """Noisy run of a pattern: every qubit's channel, then sequential
    adaptive projective measurements over every branch."""
    amp, n = _resource_vector(resource)
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"brute-force simulation capped at {MAX_ORACLE_QUBITS} qubits, got {n}")
    if n != pat.n_qubits:
        raise ValueError("pattern size does not match the resource")
    channels = channels or {}
    stray = sorted(set(channels) - set(range(n)))
    if stray:
        raise ValueError(f"channels on qubits {stray} outside the {n}-qubit resource")
    m = pat.n_measured
    psi = np.transpose(amp.reshape((2,) * n), list(pat.measured) + list(pat.outputs)).reshape(-1)
    columns = record_columns(pat, np.arange(2**m))

    # Row b of ``rho`` is the normalized state left on the unmeasured qubits
    # by the record prefix ``prefix[b]``, reached with probability prob[b].
    rho = np.multiply.outer(psi, psi.conj()).reshape((2,) * (2 * n))
    rho = rho.transpose([a for q in range(n) for a in (q, n + q)]).reshape(1, -1)
    prefix = np.zeros(1, dtype=np.int64)
    prob = np.ones(1)
    # Positions of the diagonal entries of an n-qubit Liouville vector; the
    # first 2^r of them are those of its last r qubits.
    diagonal = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        diagonal = (4 * diagonal[:, None] + (0, 3)).reshape(-1)
    for depth, q in enumerate(pat.measured):
        # The qubit's channel acts on the state just before its measurement,
        # when its axis leads and the tensor is smallest: channels on other
        # qubits commute with it and with this measurement.
        t = rho.reshape(len(prefix), 4, -1)
        if q in channels:
            t = superoperator(channels[q]) @ t
        vecs = [[basis_raw(pat.thetas[depth], pat.alphas[depth], s, k) for k in (0, 1)] for s in (0, 1)]
        adapt = pat.adapt[depth].evaluate_columns(columns)[prefix << (m - depth)]
        block = _effect_rows(vecs)[adapt] @ t
        pk = block[:, :, diagonal[: 2 ** (n - 1 - depth)]].sum(axis=2).real
        keep = pk > _PRUNE
        rho = block[keep] / pk[keep][:, None]
        prefix = ((prefix[:, None] << 1) | (0, 1))[keep]
        prob = (prob[:, None] * pk)[keep]
    for j, q in enumerate(pat.outputs):
        if q in channels:
            rho = superoperator(channels[q]) @ rho.reshape(len(prefix) * 4**j, 4, -1)

    # Leaves as (record, row bits, column bits) matrices over the outputs.
    k = n - m
    d = 2**k
    mats = rho.reshape((-1,) + (2, 2) * k).transpose([0] + list(range(1, 2 * k, 2)) + list(range(2, 2 * k + 1, 2)))
    mats = mats.reshape(-1, d, d)
    check_density_matrices(mats)
    mats.setflags(write=False)

    # Reference answers BP(r) A_0, with A_0 the normalized noiseless branch of
    # record 0, whose adaptation bits are the constant terms.
    a0 = psi
    for depth, e in enumerate(pat.adapt):
        a0 = np.conj(basis_raw(pat.thetas[depth], pat.alphas[depth], e.const, 0)) @ a0.reshape(2, -1)
    norm2 = float(np.vdot(a0, a0).real)
    a0 = a0 / np.sqrt(norm2) if norm2 > _ZERO_BRANCH else np.zeros_like(a0)
    refs = apply_byproducts(pat, a0)[prefix]
    fids = np.einsum("ra,rab,rb->r", refs.conj(), mats, refs).real
    keys = list(map(tuple, ((prefix[:, None] >> np.arange(m - 1, -1, -1)) & 1).tolist()))
    return OracleRun(
        branches=dict(zip(keys, zip(prob.tolist(), mats))),
        fidelities=dict(zip(keys, fids.tolist())),
        average=float(prob @ fids),
    )


def measure_distribution(
    state: DensityMatrix, qubit: int, basis: Sequence
) -> tuple[float, float, tuple[DensityMatrix | None, DensityMatrix | None]]:
    """Born-rule outcome probabilities and normalized post-measurement
    states (measured qubit removed) for an orthonormal basis pair."""
    vecs = []
    for b in basis:
        v = b.amplitudes if isinstance(b, PureState) else np.asarray(b, dtype=complex)
        if v.shape != (2,):
            raise ValueError("basis entries must be single-qubit vectors")
        vecs.append(v)
    if abs(np.vdot(vecs[0], vecs[1])) > 1e-10 or any(
        abs(np.linalg.norm(v) - 1.0) > 1e-10 for v in vecs
    ):
        raise ValueError("basis must be an orthonormal pair")
    n = state.n
    if not (0 <= qubit < n):
        raise IndexError(f"qubit {qubit} out of range")
    # The measured qubit's (row bit, column bit) in front of the rest.
    t = np.moveaxis(state.entries.reshape((2,) * (2 * n)), (qubit, n + qubit), (0, 1))
    d = 2 ** (n - 1)
    blocks = (_effect_rows(vecs) @ t.reshape(4, d * d)).reshape(2, d, d)
    probs = np.trace(blocks, axis1=1, axis2=2).real.tolist()
    posts = tuple(DensityMatrix(b / p) if p > _PRUNE else None for b, p in zip(blocks, probs))
    return probs[0], probs[1], posts
