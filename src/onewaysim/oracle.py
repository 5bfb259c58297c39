"""Brute-force noisy simulator: ground truth for the closed-form engines.

The density matrix is a Liouville tensor, one axis of size 4 per qubit
holding its (row bit, column bit), with the measured qubits first in
temporal order and the outputs after them, ascending: the oracle
transposes the resource to this order itself.  Each channel is one real
4x4 superoperator on its qubit's axis, one real product on the tensor's
float view; at each depth all 2^depth record prefixes, unnormalized, are
projected at once, by the plan's ``prefix_effects``, onto the effect
|M_k^s><M_k^s| of their own adaptation bit s.  A leaf's trace is its
record's probability: the records unreachable by the engine's rule,
``pattern._UNREACHABLE``, are dropped there and the rest normalized.
The normalized leaves are validated as one stack by the rule of
``linalg.check_density_matrices``: Hermitian and of unit trace to ATOL,
then one batched Cholesky factorization of M + EIG_ATOL I, which certifies
that no eigenvalue lies below -EIG_ATOL; ``eigvalsh`` runs only if it
fails.  A leaf that fails raises ValueError naming its record and its
probability.
Noise acts on the state, never on the effects, so the oracle stays
independent of the outcome-flip reduction that ``fidelity`` rests on.
Each leaf is scored by one Liouville dot against BP(r) T,
T = BP(r0) A_r0, A_r0 the noiseless answer of r0, the first record whose
noiseless probability exceeds that bound, found by the oracle's own pass
over all records.  What the pattern alone fixes comes from its plan, and
what the resource adds (the state's Liouville tensor, 4^n 16 bytes: 16 MiB
at ten qubits, and the references) stays read-only there, keyed by the
resource's amplitude array, so a sweep over t pays only for the noise.
Dimension-guarded to ten qubits (4^10 entries).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channels import NoiseChannel, superoperator
from .linalg import _density_fault, _frozen
from .pattern import MeasurementPattern, _Records, _UNREACHABLE, _channel_map, _resource_vector, byproduct_codes

MAX_ORACLE_QUBITS = 10


@dataclass(frozen=True, eq=False)
class OracleRun:
    """Per-outcome probabilities, post-measurement answers, and fidelities
    against BP(r) T, T = BP(r0) A_r0, with A_r0 the noiseless answer of r0,
    the first record whose noiseless probability exceeds 1e-12.

    ``branches`` and ``fidelities`` are read-only views of the run's
    arrays, keyed by outcome tuple as ``FidelityReport.per_outcome`` is:
    ``branches`` reads each reachable record as (probability, read-only
    density matrix of its answer), ``fidelities`` as its fidelity; records
    of probability at most 1e-12, unreachable, are absent from both.
    """

    branches: Mapping[tuple[int, ...], tuple[float, np.ndarray]]
    fidelities: Mapping[tuple[int, ...], float]
    average: float


def _resource_half(pat: MeasurementPattern, amp: np.ndarray) -> tuple:
    """What a run takes from the pattern and the resource alone: (a weak
    reference to ``amp``, the read-only (1, 4^n) Liouville tensor of the state,
    measured qubits first in temporal order, then the outputs, and the read-only
    Liouville vectors of BP(r) T T^dagger BP(r), one per by-product row)."""
    n, m, plan = pat.n_qubits, pat.n_measured, pat.plan

    def liouville(v, k):  # |v><v| on k qubits, each (row bit, column bit) pair on one axis
        rho = np.multiply.outer(v, v.conj()).reshape((2,) * (2 * k))
        return rho.transpose([a for q in range(k) for a in (q, k + q)]).reshape(-1)

    # The noiseless branches of all record prefixes, projected as the noisy run
    # below projects; r0 is the first record of noiseless probability over 1e-12.
    # A pure branch of probability p is good to eps / sqrt(p), a Liouville leaf
    # only to eps / p, which T would carry into every F.
    psi = a = np.transpose(amp.reshape((2,) * n), pat.measured + plan.outputs).reshape(1, -1)
    for depth in range(m):
        s = plan.adapt_bits[:: 2 ** (m - depth), depth]
        a = (plan.basis[depth, s].conj() @ a.reshape(2**depth, 2, -1)).reshape(2 ** (depth + 1), -1)
    norm2 = np.einsum("ri,ri->r", a, a.conj()).real
    r0 = int(np.argmax(norm2 > _UNREACHABLE))
    # |A_r0><A_r0| normalized, whose conjugates by BP(r) BP(r0) are the references.
    ref = liouville(a[r0], n - m) / norm2[r0]
    return weakref.ref(amp), _frozen(liouville(psi, n).reshape(1, -1)), _frozen(byproduct_codes(pat, ref, r0))


def simulate(resource, pat: MeasurementPattern, channels: Mapping[int, NoiseChannel] | None = None) -> OracleRun:
    """Noisy run of a pattern: every qubit's channel (a None or missing one
    is none), then adaptive projective measurements over every record;
    those of probability at most 1e-12 are unreachable and absent."""
    amp, n = _resource_vector(resource, pat), pat.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"brute-force simulation capped at {MAX_ORACLE_QUBITS} qubits, got {n}")
    channels = _channel_map("channels", channels, range(n), "{name} on qubits {stray} outside the {n}-qubit resource")
    m, plan = pat.n_measured, pat.plan
    # Entries are never written once built: two calls that both miss build
    # their own, and the last one stored stays.
    memo = plan._memo.get("oracle")
    if memo is None or memo[0]() is not amp:
        memo = plan._memo["oracle"] = _resource_half(pat, amp)
    _, rho, refs = memo

    # Row r of ``rho`` is the unnormalized state that record prefix r, of
    # all 2^depth in record order, leaves on the unmeasured qubits.
    for depth, q in enumerate(pat.measured):
        # The qubit's channel acts on the state just before its measurement,
        # when its axis leads and the tensor is smallest: channels on other
        # qubits commute with it and with this measurement.
        t = rho.reshape(2**depth, 4, -1)
        if q in channels:
            t = (superoperator(channels[q]) @ t.view(float)).view(complex)
        rho = plan.prefix_effects[depth] @ t
    for j, q in enumerate(plan.outputs):
        if q in channels:
            rho = (superoperator(channels[q]) @ rho.reshape(2**m * 4**j, 4, -1).view(float)).view(complex)

    # Leaves as (record, row bits, column bits) matrices over the outputs, and
    # as Liouville rows.  When every record is reachable, as under noise of
    # full rank, they are read where they lie; otherwise the reachable ones
    # are gathered.
    k = n - m
    mats = rho.reshape((-1,) + (2, 2) * k).transpose([0] + list(range(1, 2 * k, 2)) + list(range(2, 2 * k + 1, 2)))
    mats = mats.reshape(-1, 2**k, 2**k)
    leaves, rows = rho.reshape(2**m, -1), plan.byproducts[1]
    # Contiguous, as a gather leaves it, so that ``prob @ fids`` sums the same.
    prob = np.ascontiguousarray(mats.trace(axis1=1, axis2=2).real)
    reachable = prob > _UNREACHABLE
    records = None if reachable.all() else _frozen(np.flatnonzero(reachable))
    if records is not None:
        prob, mats, leaves, rows = prob[records], mats[records], leaves[records], rows[records]
    mats = mats / prob[:, None, None]
    fault = _density_fault(mats)
    if fault is not None:
        i, what = fault
        r = i if records is None else int(records[i])
        outcomes = tuple((r >> (m - 1 - j)) & 1 for j in range(m))
        raise ValueError(f"the leaf of record {outcomes}, of probability {float(prob[i])!r}, is no density matrix: {what}")

    # F = tr(R rho) = Re sum of conj(R) rho, R Hermitian: a real dot of float views.
    fids = np.einsum("ri,ri->r", refs[rows].view(float), leaves.view(float)) / prob
    prob, mats, fids = map(_frozen, (prob, mats, fids))
    return OracleRun(
        branches=_Records(m, records, prob, mats),
        fidelities=_Records(m, records, fids),
        average=float(prob @ fids),
    )
