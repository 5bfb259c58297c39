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
P(r_i | k_i).  So only C of an equatorial measured qubit reaches Z(r) and
F(r).  An output's channel reaches the average over the records only by
its Pauli part when the fx columns span the noisy outputs over GF(2): the
correction conjugates the shift I -> sZ by X^{fx(r)}, and the records of
a deterministic pattern are uniform and independent of the corrected
answer, so the shift cancels.  At fixed C on the measured qubits and
(B, C) on the outputs, the average is then the same for every B and S,
though per-record F and the resource's correlations move with them.  A
z-measured qubit, or an output whose fx is constant, breaks this.

An adaptive pattern picks each basis from the bits read so far, so a
record r fixes every basis through its adaptation bits s(r), its frame.
Projecting the resource onto the frame's bases gives a branch vector
psi_{s,k} for every prepared record k, and

    Z(r) = sum_k W[r,k] |psi_{s(r),k}|^2,
    F(r) = sum_k W[r,k] <T_r| N(|psi_{s(r),k}><psi_{s(r),k}|) |T_r> / Z(r),

with W[r,k] = prod_i P(r_i | k_i), N the answer noise on the outputs, and
T_r = BP(r) T, T = BP(r0) A_r0, A_r0 the normalized noiseless branch of
the first record r0 with |psi_r0|^2 > ``pattern._UNREACHABLE``.  In a
deterministic pattern every noiseless branch is BP(r) T up to a phase
(Browne, Kashefi, Mhalla and Perdrix, NJP 9, 250 (2007)).  W and the bras
of a frame are tensor products of 2x2 matrices, applied in blocks of
B = ``pattern.BLOCK`` positions (B + 1 for a last run that would hold one),
one matmul over all frames per block: a frame costs O(2^B M 2^n / B) for
the branches and O(2^B M 2^M d^2 / B) for W.  The branches are contracted
in the resource's own qubit order, with no copy, when the measured qubits
ascend.  The codes, Re + Im of each branch projector, take real products
only, in the oracle's Liouville order, each output's (row bit, column bit)
pair on one axis of 4.  The answer noise acts on the few reference codes
R, as tr(N(rho) R) = tr(rho N^dagger(R)): each output's 4x4
superoperator, transposed, on its axis.  See Danos, Kashefi and
Panangaden, arXiv:0704.1263.

A sweep over the exposure time t changes only the noise, so a report has
two halves.  The resource half (the branches, the codes of their
projectors |psi_{s,k}><psi_{s,k}| and of the references T_r T_r^dagger,
one per distinct by-product) stays on the pattern's plan, keyed by the
identity of the resource's read-only amplitude array, which the plan holds
only weakly.  A later report on the same array runs only the noise half:
the reads P(r_i | k_i), one gathered flip factor and one matmul per block,
the traces, the answer noise on the references and one overlap.  A report
on any other array drops that half before it builds its own, as on a fresh
plan.  Only a report that builds the resource half checks the size guard,
which depends on the pattern alone.

The brute-force simulator in ``oracle`` is the independent ground truth
for everything here.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .channels import NoiseChannel, mixing_probabilities, superoperator
from .linalg import _frozen
from .pattern import MeasurementPattern, _Records, _UNREACHABLE, _channel_map, _resource_vector, byproduct_codes, frame_branches

# The most a report may allocate (``_report_bytes``), mostly the (3, frames
# d^2, 2^M) workspace that stays on the pattern's plan until a report on
# another resource; a report that needs more is refused.
MAX_WORKSPACE_BYTES = 64 * 2**20


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Probability Z and fidelity F of every outcome record, and their
    weighted average.

    ``z`` and ``f`` are read-only arrays over the 2^M records; record r has
    the bits of r as its outcomes, first-measured qubit most significant.
    ``f`` is NaN on unreachable records, Z at most ``pattern._UNREACHABLE``
    before renormalization, and ``average`` sums Z F over the rest.
    ``per_outcome`` is a read-only view of ``z`` and ``f`` that reads each
    outcome tuple as (Z, F), F None where unreachable, from the arrays.

    The constructor copies ``z`` and ``f``, so that no caller can write to
    a report's arrays; the engine's reports adopt the fresh arrays they were
    computed in instead, under the same checks.
    """

    z: np.ndarray
    f: np.ndarray
    average: float

    def __post_init__(self):
        self._own(np.array(self.z, dtype=float), np.array(self.f, dtype=float))

    @classmethod
    def _adopt(cls, z: np.ndarray, f: np.ndarray, reachable: np.ndarray) -> "FidelityReport":
        """The report of ``z`` and ``f``, fresh float vectors that no one
        else holds, checked and frozen in place rather than copied; its
        average sums Z F over the records that ``reachable`` marks, so a NaN
        F on one of them fails the average check."""
        report = cls.__new__(cls)
        object.__setattr__(report, "average", float(z[reachable] @ f[reachable]))
        report._own(z, f)
        return report

    def _own(self, z: np.ndarray, f: np.ndarray) -> None:
        object.__setattr__(self, "z", _frozen(z))
        object.__setattr__(self, "f", _frozen(f))
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

    @property
    def per_outcome(self) -> Mapping[tuple[int, ...], tuple[float, float | None]]:
        return _Records(self.z.size.bit_length() - 1, None, self.z, self.f)


# -- the record-frame engine ----------------------------------------------------


def _traces(codes: np.ndarray, k: int) -> np.ndarray:
    """tr X of every code in a (..., records) array of Liouville codes: the
    entries whose every (row bit, column bit) axis reads 00 or 11, 0 or 3."""
    diag = codes.reshape((-1,) + (4,) * k + codes.shape[-1:])[(slice(None),) + (slice(None, None, 3),) * k]
    # Without outputs the codes are their own traces: a view, as a sum over
    # no axes would copy them.
    return diag.sum(axis=tuple(range(1, k + 1))) if k else diag


# Per block size b, the (b, 2^b, 2^b) index of ``_flip_factor``, built on first use.
_GATHERS: dict[int, np.ndarray] = {}


def _flip_factor(reads: np.ndarray, block: range) -> np.ndarray:
    """The (2^b, 2^b) Kronecker product of the read matrices at the b
    positions of ``block``, first position on the high-order bits, from the
    flat (M 4) array of their row-major entries.  Entry [R, C] multiplies
    entry (r_i, c_i) of each position's matrix, r_i and c_i the i-th bits of
    R and C: one gather of those b entries and their product, taken in
    position order as ``linalg.kron_all`` takes it.  A one-position block
    reads its matrix as a view."""
    part = reads[4 * block.start : 4 * block.stop]
    b = len(block)
    if b == 1:
        return part.reshape(2, 2)
    index = _GATHERS.get(b)
    if index is None:
        bits = (np.arange(2**b) >> np.arange(b - 1, -1, -1)[:, None]) & 1  # [i, R]: bit i of R
        index = 4 * np.arange(b)[:, None, None] + 2 * bits[:, :, None] + bits[:, None, :]
        index = _GATHERS.setdefault(b, _frozen(index))
    return part.take(index).prod(axis=0)


def _frame_codes(pat: MeasurementPattern, resource, amp: np.ndarray) -> tuple:
    """The resource half of a report: (a weak reference to ``amp``, the
    resource's amplitude array, the workspace, refs, own, pick).  Slab 0 of
    the (3, frames d^2, 2^M) workspace holds code[f, :, k], the code Re + Im
    of |psi_fk><psi_fk| in the oracle's Liouville order, written from the
    real and imaginary parts x and y of the branches as

        code[I, J] = x_I (x_J - y_J) + y_I (x_J + y_J),

    two products and a sum; refs[u] is the code of T_r T_r^dagger for the
    records r of by-product row u.  own[r] is record r's flat (frame,
    record) entry, pick[r] its flat (frame, row, record) one."""
    frame_of, psi = frame_branches(resource, pat)
    n_frames, n_records, d = psi.shape
    k = len(pat.outputs)
    work = np.empty((3, n_frames * d * d, n_records))
    own = frame_of * n_records + np.arange(n_records)
    pick = (frame_of * len(pat.plan.byproducts[0]) + pat.plan.byproducts[1]) * n_records + np.arange(n_records)
    # Records last, so that every product below runs over them.  x - y and
    # x + y take the heads of slabs 1 and 2.  The products x_I (x_J - y_J)
    # go to the codes, and y_I (x_J + y_J) over slab 1 once x - y is read,
    # both through views that read all row bits, then all column bits.
    x, y = (part.transpose(0, 2, 1) for part in (psi.real, psi.imag))
    diff, total = (work[s, : n_frames * d].reshape(x.shape) for s in (1, 2))
    np.subtract(x, y, out=diff)
    np.add(x, y, out=total)
    bits = (n_frames,) + (2,) * (2 * k) + (n_records,)
    liouville = [0, *range(1, 2 * k, 2), *range(2, 2 * k + 1, 2), 2 * k + 1]
    rows, cols = (n_frames,) + (2,) * k + (1,) * k + (n_records,), (n_frames,) + (1,) * k + (2,) * k + (n_records,)
    codes, spare = (work[s].reshape(bits).transpose(liouville) for s in (0, 1))
    np.multiply(x.reshape(rows), diff.reshape(cols), out=codes)
    np.multiply(y.reshape(rows), total.reshape(cols), out=spare)
    np.add(work[0], work[1], out=work[0])
    # The references are built once the branches are freed.
    del psi, x, y
    norm2 = _traces(work[0], k).take(own)
    r0 = int(np.argmax(norm2 > _UNREACHABLE))
    refs = byproduct_codes(pat, work[0].reshape(n_frames, -1, n_records)[frame_of[r0], :, r0], r0)
    refs /= norm2[r0]
    return weakref.ref(amp), work, refs, own, pick


def _report_bytes(pat: MeasurementPattern) -> int:
    """A report's peak bytes: its workspace, and its (frames, 2^k, 2^M)
    complex branches for k outputs or, built once those are freed, its
    (rows, 4^k) reference codes, up to three copies at once while they are
    built or take the answer noise.  Frames and rows, read off all 2^M
    records, are counted only when one frame fits.  A report on another
    resource than the last frees the last workspace first, so this bounds
    it too.  The plan's own pieces, built once per pattern, are not
    counted: mostly its bras, 3.0 MiB at a 10-step chain, whose blocks of
    3, 3 and 4 positions have 512 frames."""
    k, m = len(pat.outputs), pat.n_measured
    work, branches = 24 * 4**k * 2**m, 16 * 2**k * 2**m
    if work + branches > MAX_WORKSPACE_BYTES:
        return work + branches
    frames, rows = len(pat.plan.frames[0]), len(pat.plan.byproducts[0])
    return work * frames + max(branches * frames, 24 * 4**k * rows)


def _record_frame_report(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None,
    answer_channels: Mapping[int, NoiseChannel] | None,
) -> FidelityReport:
    """Z(r) and F(r) of every record from the branches of its own frame.

    Hermitian matrices travel as the real code Re + Im of their entries:
    the real part is the symmetric half and the imaginary part the
    antisymmetric one, so nothing is lost, and tr(A B) is the dot product
    of the codes of A and B.  A real superoperator maps each part on its
    own, so it maps the code of X to the code of its image.
    """
    message = "{name} names qubits {stray}, which are not %s qubits {allowed}"
    measured_channels = _channel_map("measured_channels", measured_channels, pat.measured, message % "measured")
    answer_channels = _channel_map("answer_channels", answer_channels, pat.outputs, message % "output")
    plan, k = pat.plan, len(pat.outputs)
    # P(read r_i | prepared k_i) at each measured position, the matrix
    # [r_i, k_i] row-major, four entries a position.
    flips = []
    for q, alpha in zip(pat.measured, pat.alphas):
        p0, p1 = mixing_probabilities(measured_channels[q], alpha) if q in measured_channels else (0.0, 0.0)
        flips += (1.0 - p0, p1, p0, 1.0 - p1)
    reads = np.array(flips)
    # The memo leaves the plan until the workspace is read for the last time
    # (a dict pop is atomic), so two threads that share the pattern never
    # share a workspace; a report that raises before then drops it.
    amp = _resource_vector(resource, pat)
    memo = plan._memo.pop("codes", None)
    if memo is None or memo[0]() is not amp:
        # A miss frees the last resource's workspace before its branches are
        # built, so it peaks as a cold report does.  The guard depends on the
        # pattern alone, and a pattern that fails it never keeps a memo, so
        # only a miss checks it.
        del memo
        size = _report_bytes(pat)
        if size > MAX_WORKSPACE_BYTES:
            raise ValueError(
                f"a report on {pat.n_measured} measured qubits and {k} outputs needs at least "
                f"{size / 2**20:.1f} MiB of workspace; the limit is {MAX_WORKSPACE_BYTES >> 20} MiB"
            )
        memo = _frame_codes(pat, resource, amp)
    _, work, refs, own, pick = memo
    rows, n_records = work.shape[1:]
    # rho[f, :, r] = sum_k W[r, k] code[f, :, k], W the product of P(read r_i |
    # prepared k_i), by the shuffle of ``frame_branches``: each block of
    # measured positions gathers its read matrices into one factor and is one
    # matmul that contracts the leading record bits and appends them last.
    # Every stage writes to the slab, 1 or 2, that it does not read; slab 0
    # keeps the codes, and is rho itself without measured qubits.
    rho, slab = work[0], 0
    for block in plan.blocks:
        read = _flip_factor(reads, block)
        slab = 2 if slab == 1 else 1
        prev, rho = rho, work[slab]
        np.matmul(prev.reshape(rows, len(read), -1).transpose(0, 2, 1), read.T, out=rho.reshape(rows, -1, len(read)))

    # Sums run over all (frame, record) pairs; record r then takes the entry
    # ``own[r]`` of its frame, or ``pick[r]`` of its frame and by-product row.
    z_raw = _traces(rho, k).take(own)
    # F(r) = tr(rho_r N^dagger(T_r T_r^dagger)) / Z(r): the superoperator of
    # each noisy output j acts, transposed, on the j-th axis of the references.
    for j, ch in enumerate(map(answer_channels.get, pat.outputs)):
        if ch is not None:
            refs = (superoperator(ch).T @ refs.reshape(-1, 4, 4 ** (k - 1 - j))).reshape(len(refs), -1)
    # The overlap of every (frame, by-product row, record), in a slab that rho is not in.
    out = work[2 if slab == 1 else 1][: rows // 4**k * len(refs)].reshape(-1, len(refs), n_records)
    overlap = np.matmul(refs, rho.reshape(len(out), -1, n_records), out=out).take(pick)
    plan._memo["codes"] = memo
    reachable = z_raw > _UNREACHABLE
    f = np.full(n_records, np.nan)
    np.divide(overlap, z_raw, out=f, where=reachable)

    total = float(z_raw.sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"record probabilities sum to {total}; engine inconsistency")
    return FidelityReport._adopt(z_raw / total, f, reachable)


def fidelity_adaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, NoiseChannel] | None = None,
) -> FidelityReport:
    """Exact per-record fidelity for (possibly) adaptive patterns.

    ``measured_channels`` may name only measured qubits and
    ``answer_channels`` only outputs; any other key raises ValueError.  A
    None value is no channel, as is a missing key.  Record probabilities
    are renormalized; the factor must already be 1 to 1e-6.  A record gets
    F NaN and no share of the average when its probability is at most 1e-12
    before renormalization; any other is scored against BP(r) BP(r0) A_r0,
    r0 the first record whose noiseless probability exceeds 1e-12.

    A report's workspace of 3 frames d^2 2^M floats, d = 2^outputs, stays
    on the pattern's plan for later reports on the same resource; a report
    on another one frees it and builds its own.  A report, on the same
    resource or not, that needs over ``MAX_WORKSPACE_BYTES`` (64 MiB) with
    its branches or its reference codes raises ValueError with its size.
    The guard depends on the pattern alone and is checked when a report
    builds its resource half, which a pattern that fails it never keeps.
    A 10-step chain needs 64 MiB, 11 steps 256.
    """
    return _record_frame_report(pat, resource, measured_channels, answer_channels)


def fidelity_nonadaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, NoiseChannel] | None = None,
) -> FidelityReport:
    """Fidelity report for non-adaptive patterns: the one-frame case of the
    same engine, under the same rules and guard (``fidelity_adaptive``)."""
    if not pat.is_nonadaptive():
        raise ValueError("pattern is adaptive; use fidelity_adaptive")
    return _record_frame_report(pat, resource, measured_channels, answer_channels)
