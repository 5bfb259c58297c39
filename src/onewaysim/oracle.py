"""Brute-force noisy simulator: ground truth for the closed-form engines.

The density matrix is a Liouville tensor, one axis of size 4 per qubit
holding its (row bit, column bit), with the measured qubits first in
temporal order.  Each channel is one 4x4 superoperator on its qubit's axis;
at each depth every surviving record prefix is projected at once onto the
effect |M_k^s><M_k^s| of its own adaptation bit s.  Noise acts on the
state, never on the effects, so the oracle stays independent of the
outcome-flip reduction that ``fidelity`` rests on.  Fidelities are taken
against the by-product-corrected canonical answer BP(r) BP(0)^-1 A_0.
The axis order, the effects, the adaptation bits and the by-product masks
come from the pattern's plan, built once per pattern.
Dimension-guarded to ten qubits (4^10 entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channels import superoperator
from .linalg import check_density_matrices
from .pattern import MeasurementPattern, _ZERO_BRANCH, _resource_vector, apply_byproducts

MAX_ORACLE_QUBITS = 10
_PRUNE = 1e-14


@dataclass(frozen=True)
class OracleRun:
    """Per-outcome probabilities, post-measurement answers, and fidelities
    against BP(r) BP(0)^-1 A_0, with A_0 the noiseless answer of record 0.

    ``branches`` maps each unpruned record to (probability, read-only
    density matrix of its answer); pruned records are absent everywhere.
    """

    branches: dict[tuple[int, ...], tuple[float, np.ndarray]]
    fidelities: dict[tuple[int, ...], float]
    average: float


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
    plan = pat.plan
    psi = np.transpose(amp.reshape((2,) * n), plan.axes).reshape(-1)

    # Row b of ``rho`` is the normalized state left on the unmeasured qubits
    # by the record prefix ``prefix[b]``, reached with probability prob[b].
    rho = np.multiply.outer(psi, psi.conj()).reshape((2,) * (2 * n))
    rho = rho.transpose([a for q in range(n) for a in (q, n + q)]).reshape(1, -1)
    prefix = np.zeros(1, dtype=np.int64)
    prob = np.ones(1)
    for depth, q in enumerate(pat.measured):
        # The qubit's channel acts on the state just before its measurement,
        # when its axis leads and the tensor is smallest: channels on other
        # qubits commute with it and with this measurement.
        t = rho.reshape(len(prefix), 4, -1)
        if q in channels:
            t = superoperator(channels[q]) @ t
        adapt = plan.adapt_bits[prefix << (m - depth), depth]
        block = plan.effect_rows[depth, adapt] @ t
        pk = block[:, :, plan.diagonal[: 2 ** (n - 1 - depth)]].sum(axis=2).real
        keep = pk > _PRUNE
        rho = block[keep] / pk[keep][:, None]
        prefix = ((prefix[:, None] << 1) | (0, 1))[keep]
        prob = (prob[:, None] * pk)[keep]
    for j, q in enumerate(plan.outputs):
        if q in channels:
            rho = superoperator(channels[q]) @ rho.reshape(len(prefix) * 4**j, 4, -1)

    # Leaves as (record, row bits, column bits) matrices over the outputs.
    k = n - m
    d = 2**k
    mats = rho.reshape((-1,) + (2, 2) * k).transpose([0] + list(range(1, 2 * k, 2)) + list(range(2, 2 * k + 1, 2)))
    mats = mats.reshape(-1, d, d)
    check_density_matrices(mats)
    mats.setflags(write=False)

    # Reference answers BP(r) BP(0)^-1 A_0, with A_0 the normalized noiseless
    # branch of record 0, whose adaptation bits are the constant terms.
    a0 = psi
    for depth, s in enumerate(plan.adapt_bits[0]):
        a0 = plan.basis[depth, s, 0].conj() @ a0.reshape(2, -1)
    norm2 = float(np.vdot(a0, a0).real)
    a0 = a0 / np.sqrt(norm2) if norm2 > _ZERO_BRANCH else np.zeros_like(a0)
    # By-products are Paulis X^{f_x} Z^{f_z}, so BP(0)^-1 A_0 = +-BP(0) A_0,
    # whose sign drops out of F: the Z, then X, terms of record 0 on A_0's
    # output axes.
    a0 = a0.reshape((2,) * k)
    for axis, (fz, fx) in enumerate(plan.byproduct_bits[:, :, 0]):
        if fz:
            a0 = a0 * np.array([1.0, -1.0]).reshape((2,) + (1,) * (k - 1 - axis))
        if fx:
            a0 = np.flip(a0, axis)
    refs = apply_byproducts(pat, a0.reshape(-1))[prefix]
    fids = np.einsum("ra,rab,rb->r", refs.conj(), mats, refs).real
    keys = list(map(tuple, ((prefix[:, None] >> np.arange(m - 1, -1, -1)) & 1).tolist()))
    return OracleRun(
        branches=dict(zip(keys, zip(prob.tolist(), mats))),
        fidelities=dict(zip(keys, fids.tolist())),
        average=float(prob @ fids),
    )

