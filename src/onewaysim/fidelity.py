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
by the shuffle algorithm (Fernandes, Plateau and Stewart, J. ACM 45, 381
(1998)).  The bras take one matmul over all frames per block, O(2^B M 2^n
/ B) a frame.  W takes one of two paths, chosen by the number of frames.
With one, each block is one matmul over every record: O(2^B M 2^M d^2 /
B).  With more, record r needs W on its own frame s(r) alone, so each
block maps only the (frame, read prefix) pairs that some record reaches, a
read prefix being a record's outcomes on the blocks before, to the values
their records read on the block's positions: 2^B d^2 2^rest multiply-adds
per pair that it leaves, rest the positions after the block, and the pairs
after the last block are the 2^M records.  A frame of an m-step chain
fixes every read but the last, so its first block leaves one pair per
frame, and W costs about frames 2^M d^2, not 2^B M / B times that.  The
branches are contracted in the resource's own qubit order, with no copy,
when the measured qubits ascend.  The codes, Re + Im of each branch
projector, take real products only, in the oracle's Liouville order, each
output's (row bit, column bit) pair on one axis of 4.  The answer noise acts on the few reference codes
R, as tr(N(rho) R) = tr(rho N^dagger(R)): each output's 4x4
superoperator, transposed, on its axis.  See Danos, Kashefi and
Panangaden, arXiv:0704.1263.

A sweep over the exposure time t changes only the noise, so a report has
two halves.  The resource half (the branches, the codes of their
projectors |psi_{s,k}><psi_{s,k}| and of the references T_r T_r^dagger,
one per distinct by-product) stays on the pattern's plan, keyed by the
identity of the resource's read-only amplitude array, which the plan holds
only weakly.  A later report on the same array runs only the noise half:
the reads P(r_i | k_i), one gathered flip factor and one matmul per block
(for more than one frame, after a gather of the factor's rows at the
values read), the traces, the answer noise on the references and one
overlap; the matmuls and gathers write to buffers that stay on the plan.
A report on any other array drops that half before it builds its own, as
on a fresh plan.  Only a report that builds the resource half checks the size guard,
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
from .pattern import MeasurementPattern, _Records, _UNREACHABLE, _channel_map, _frame_branches, _resource_vector, byproduct_codes

# The most a report may allocate (``_report_bytes``), mostly the workspace
# that stays on the pattern's plan until a report on another resource; a
# report that needs more is refused.
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


def _pair_stages(pat: MeasurementPattern) -> tuple[list[tuple[int, int]], list[int]]:
    """Per block of a pattern of several frames, the floats of its gathered
    flip factor rows and of its (pairs, 2^rest, 4^outputs) output; and the
    floats of the buffers that hold them, one for the factor rows and one
    for the outputs of the even blocks and, with more than one block, of
    the odd ones, since each block reads the output of the block before."""
    size, sizes = len(pat.plan.frames[0]) * 2**pat.n_measured * 4 ** len(pat.outputs), []
    for block, rows in zip(pat.plan.blocks, pat.plan.pairs[0]):
        size = (size >> len(block)) * rows.shape[1]
        sizes.append((rows.size << len(block), size))
    outputs = [max(o for _, o in sizes[parity::2]) for parity in (0, 1) if sizes[parity:]]
    return sizes, [max(g for g, _ in sizes), *outputs]


def _frame_codes(pat: MeasurementPattern, amp: np.ndarray) -> tuple:
    """The resource half of a report: (a weak reference to ``amp``, the
    resource's amplitude array, the workspace, refs, stages, out).  The codes,
    Re + Im of each |psi_fk><psi_fk| in the oracle's Liouville order, are
    written from the real and imaginary parts x and y of the branches as

        code[I, J] = x_I (x_J - y_J) + y_I (x_J + y_J),

    two products and a sum; refs[u] is the code of T_r T_r^dagger for the
    records r of by-product row u, and ``out`` takes the (rows, 2^M)
    overlaps.  With one frame the workspace is (3, d^2, 2^M), the codes in
    slab 0 with the records last, and stages is None.  With more it is the
    (frames, 2^M, d^2) codes, pair-major, and stages holds, per block, a
    buffer for its gathered flip factor rows and one for its output."""
    plan, k = pat.plan, len(pat.outputs)
    psi = _frame_branches(amp, pat)
    n_frames, n_records, d = psi.shape
    # x - y and x + y take the heads of the spare and of one more buffer:
    # slabs 1 and 2 for one frame.  The products x_I (x_J - y_J) go to the
    # codes, and y_I (x_J + y_J) over the spare once x - y is read, both
    # through views that read all row bits, then all column bits, records last.
    x, y = (part.transpose(0, 2, 1) for part in (psi.real, psi.imag))
    bits = (n_frames,) + (2,) * (2 * k) + (n_records,)
    if n_frames == 1:
        work = np.empty((3, d * d, n_records))
        codes, spare, total, table = work[0], work[1], work[2, :d], work[0]
        layout = lambda a: a.reshape(bits)
    else:
        work = np.empty((n_frames, n_records, d * d))
        codes, spare, total, table = work, np.empty(work.shape), np.empty(x.shape), work.reshape(-1, d * d).T
        layout = lambda a: np.moveaxis(a.reshape((n_frames, n_records) + bits[1:-1]), 1, -1)
    diff = spare.reshape(-1)[: x.size].reshape(x.shape)
    np.subtract(x, y, out=diff)
    np.add(x, y, out=total.reshape(x.shape))
    liouville = [0, *range(1, 2 * k, 2), *range(2, 2 * k + 1, 2), 2 * k + 1]
    rows, cols = (n_frames,) + (2,) * k + (1,) * k + (n_records,), (n_frames,) + (1,) * k + (2,) * k + (n_records,)
    np.multiply(x.reshape(rows), diff.reshape(cols), out=layout(codes).transpose(liouville))
    np.multiply(y.reshape(rows), total.reshape(cols), out=layout(spare).transpose(liouville))
    np.add(codes, spare, out=codes)
    # The references are built once the branches are freed.
    del psi, x, y, diff, total, spare
    # ``table`` reads the codes as (d^2, frames 2^M), records last.
    norm2 = _traces(table, k).take(plan.own)
    r0 = int(np.argmax(norm2 > _UNREACHABLE))
    refs = byproduct_codes(pat, table[:, plan.own[r0]], r0)
    refs /= norm2[r0]
    if n_frames == 1:
        # The overlaps go to the slab, 1 or 2, that the last block does not write.
        return weakref.ref(amp), work, refs, None, work[1 + len(plan.blocks) % 2][: len(refs)]
    sizes, buffers = _pair_stages(pat)
    gather, *outs = map(np.empty, buffers)
    stages = [
        (gather[:g].reshape(reached.shape + (-1,)), outs[i % 2][:o].reshape(reached.shape + (-1,)))
        for i, ((g, o), reached) in enumerate(zip(sizes, plan.pairs[0]))
    ]
    return weakref.ref(amp), work, refs, stages, np.empty((len(refs), n_records))


def _report_bytes(pat: MeasurementPattern) -> int:
    """A report's peak bytes, for k outputs, d = 2^k.  Its workspace: 3 d^2
    2^M floats for one frame, or frames d^2 2^M codes for more, with its
    pair stage buffers.  While the codes are built, its (frames, d, 2^M)
    complex branches and, for more than one frame, a spare of the codes'
    size and the (frames, d, 2^M) sums x + y; once those are freed, its
    (rows, 4^k) reference codes, up to three copies at once while they are
    built or take the answer noise.  The size of one frame, counted before
    the plan reads all 2^M records for the frames, rows and pairs, bounds
    every other from below.  A report on another resource than the last
    frees the last workspace first, so this bounds it too.  The plan's own
    pieces, built once per pattern, are not counted: mostly its bras, 3.0
    MiB at a 10-step chain, whose blocks of 3, 3 and 4 positions have 512
    frames."""
    k, m = len(pat.outputs), pat.n_measured
    work, branches = 24 * 4**k * 2**m, 16 * 2**k * 2**m
    if work + branches > MAX_WORKSPACE_BYTES:
        return work + branches
    frames, refs = len(pat.plan.frames[0]), 24 * 4**k * len(pat.plan.byproducts[0])
    if frames == 1:
        return work + max(branches, refs)
    codes, stages = 8 * 4**k * 2**m * frames, 8 * (sum(_pair_stages(pat)[1]) + len(pat.plan.byproducts[0]) * 2**m)
    return codes + max(codes + (branches + 8 * 2**k * 2**m) * frames, stages + refs)


def fidelity_adaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, NoiseChannel] | None = None,
) -> FidelityReport:
    """Exact per-record fidelity of a pattern, adaptive or not: the one
    engine, which ``fidelity_nonadaptive`` runs on one-frame patterns.

    ``measured_channels`` may name only measured qubits and
    ``answer_channels`` only outputs; any other key raises ValueError.  A
    None value is no channel, as is a missing key.  Record probabilities
    are renormalized; the factor must already be 1 to 1e-6.  A record gets
    F NaN and no share of the average when its probability is at most 1e-12
    before renormalization; any other is scored against BP(r) BP(r0) A_r0,
    r0 the first record whose noiseless probability exceeds 1e-12.

    A report's workspace stays on the pattern's plan for later reports on
    the same resource; a report on another one frees it and builds its
    own.  For one frame it is 3 d^2 2^M floats, d = 2^outputs, and each
    block of the outcome-flip stage costs 2^B d^2 2^M multiply-adds.  For
    more it is the frames d^2 2^M codes with the buffers of the pair stages,
    which take only the (frame, read prefix) pairs that some record reaches:
    16 MiB and 2.4 MiB at a 10-step chain, whose warm report takes 1.1 ms
    on one BLAS thread of a 2-core host, against 8 to 11 ms for all frames
    at every record.  A report, on the same resource or not, that needs
    over ``MAX_WORKSPACE_BYTES`` (64 MiB) with its branches and, for more
    than one frame, the spare it builds the codes in, or with its reference
    codes, raises ValueError with its size.  The guard depends on the
    pattern alone and is checked when a report builds its resource half,
    which a pattern that fails it never keeps.  A 10-step chain needs 56
    MiB, 11 steps 224.
    """
    # Hermitian matrices travel as the real code Re + Im of their entries:
    # the real part is the symmetric half and the imaginary part the
    # antisymmetric one, so nothing is lost, and tr(A B) is the dot product
    # of the codes of A and B.  A real superoperator maps each part on its
    # own, so it maps the code of X to the code of its image.
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
        memo = _frame_codes(pat, amp)
    _, work, refs, stages, out = memo
    n_records = 2**pat.n_measured
    if stages is None:
        # One frame: rho[:, r] = sum_k W[r, k] code[:, k], W the product of
        # P(read r_i | prepared k_i), by the shuffle of ``_frame_branches``:
        # each block of measured positions gathers its read matrices into one
        # factor and is one matmul that contracts the leading record bits and
        # appends them last.  Every stage writes to the slab, 1 or 2, that it
        # does not read; slab 0 keeps the codes, and is rho itself without
        # measured qubits.
        rho, slab = work[0], 0
        for block in plan.blocks:
            read = _flip_factor(reads, block)
            slab = 2 if slab == 1 else 1
            prev, rho = rho, work[slab]
            np.matmul(prev.reshape(4**k, len(read), -1).transpose(0, 2, 1), read.T, out=rho.reshape(4**k, -1, len(read)))
    else:
        # Several frames: each block turns every (frame, read prefix) pair
        # that some record reaches into its children, one per value that the
        # pair's records read on the block, by the rows of the block's factor
        # at those values in one product over the pairs.  The codes stay last,
        # and the pairs left after the last block are the records.
        rho = work
        for block, reached, (rows, nxt) in zip(plan.blocks, plan.pairs[0], stages):
            np.take(_flip_factor(reads, block), reached, axis=0, out=rows, mode="clip")
            rho = np.matmul(rows, rho.reshape(len(rows), rows.shape[2], -1), out=nxt)
        rho = rho.reshape(n_records, -1).T

    # Record r reads the column and the (by-product row, column) entry that
    # the plan's ``ends`` name.
    column, pick = plan.ends
    z_raw = _traces(rho, k).take(column)
    # F(r) = tr(rho_r N^dagger(T_r T_r^dagger)) / Z(r): the superoperator of
    # each noisy output j acts, transposed, on the j-th axis of the references.
    for j, ch in enumerate(map(answer_channels.get, pat.outputs)):
        if ch is not None:
            refs = (superoperator(ch).T @ refs.reshape(-1, 4, 4 ** (k - 1 - j))).reshape(len(refs), -1)
    overlap = np.matmul(refs, rho, out=out).take(pick)
    plan._memo["codes"] = memo
    reachable = z_raw > _UNREACHABLE
    f = np.full(n_records, np.nan)
    np.divide(overlap, z_raw, out=f, where=reachable)

    total = float(z_raw.sum())
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"record probabilities sum to {total}; engine inconsistency")
    return FidelityReport._adopt(z_raw / total, f, reachable)


def fidelity_nonadaptive(
    pat: MeasurementPattern,
    resource,
    measured_channels: Mapping[int, NoiseChannel] | None = None,
    answer_channels: Mapping[int, NoiseChannel] | None = None,
) -> FidelityReport:
    """``fidelity_adaptive`` on a pattern with one set of adaptation bits
    over all records (``is_nonadaptive``), its one frame; an adaptive
    pattern raises ValueError."""
    if not pat.is_nonadaptive():
        raise ValueError("pattern is adaptive; use fidelity_adaptive")
    return fidelity_adaptive(pat, resource, measured_channels, answer_channels)
