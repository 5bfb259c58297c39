"""Measurement patterns: adapted bases, branch enumeration, by-products.

A pattern measures qubits in a fixed temporal order.  Qubit i is measured
in the basis

    |M_0> = cos(alpha/2)|0> + sin(alpha/2) e^{-i(-1)^s theta}|1>
    |M_1> = sin(alpha/2)|0> - cos(alpha/2) e^{-i(-1)^s theta}|1>

where the adaptation bit s is a boolean function of earlier outcomes.
The unmeasured qubits carry the answer, up to an outcome-dependent local
by-product X^{f_x} Z^{f_z} per output qubit, with f_x and f_z affine in
the outcomes.  A global sign is left out: no fidelity can see it.

What a pattern alone fixes is compiled once per pattern into its ``plan``,
shared by every fidelity report and oracle run of that pattern.  Record r
has the bits of r as its outcomes, first-measured qubit most significant;
fidelity reports and oracle runs both read their per-record arrays in that
order, keyed by outcome tuple, through ``_Records``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from collections.abc import ItemsView, Mapping, Sequence, ValuesView
from dataclasses import dataclass

import numpy as np

from .channels import NoiseChannel
from .graphstate import GraphState
from .linalg import PureState, _frozen, kron_all

# Engine and oracle both leave unscored a record of at most this probability,
# and both score against the first record whose noiseless probability exceeds it.
_UNREACHABLE = 1e-12
# [z + 2 x] is conjugation by X^x Z^z on one qubit's (row bit, column bit)
# axis of 4: Z negates entries 1 and 2, X reverses the entries.
_PAULI_CONJ = _frozen(np.array([np.diag([1.0, z, z, 1.0])[::x] for x in (1, -1) for z in (1.0, -1.0)]))
# Measured positions per Kronecker factor of the branch and flip stages:
# 3 beat 2, 4 and 5 on the 15-qubit CNOT and on 6-qubit adaptive chains.
# A last run of one position joins the block before it, since a 2x2 pass
# costs a full read and write of the array for 2 multiply-adds per entry:
# the CNOT15's 13 positions run as 3 + 3 + 3 + 4, not 3 + 3 + 3 + 3 + 1,
# a 7-step chain as 3 + 4 and a 10-step one as 3 + 3 + 4.
BLOCK = 3


@dataclass(frozen=True)
class BooleanExpr:
    """Affine: constant plus XOR of outcome bits.

    A flow gives by-products and adaptation bits of exactly this form.
    """

    const: int = 0
    xor: tuple[int, ...] = ()

    def __post_init__(self):
        if operator.index(self.const) not in (0, 1):
            raise ValueError(f"const must be 0 or 1, got {self.const}")
        object.__setattr__(self, "const", operator.index(self.const))
        # XOR with even multiplicity cancels; keep a canonical sorted form.
        xor = list(map(operator.index, self.xor))
        object.__setattr__(self, "xor", tuple(sorted(v for v in set(xor) if xor.count(v) % 2)))

    @classmethod
    def zero(cls) -> "BooleanExpr":
        return cls()

    @classmethod
    def of(cls, *vertices: int, const: int = 0) -> "BooleanExpr":
        return cls(const=const, xor=tuple(vertices))

    @property
    def support(self) -> frozenset:
        return frozenset(self.xor)

    def is_zero(self) -> bool:
        return self.const == 0 and not self.xor


@dataclass(frozen=True)
class ByproductSpec:
    qubit: int
    fx: BooleanExpr = BooleanExpr()
    fz: BooleanExpr = BooleanExpr()

    def __post_init__(self):
        object.__setattr__(self, "qubit", operator.index(self.qubit))


@dataclass(frozen=True)
class MeasurementPattern:
    """Per-qubit measurement instructions plus by-product bookkeeping.

    ``measured`` order is temporal order.  Angles are indexed by position in
    ``measured``; boolean expressions reference qubit (vertex) indices.
    """

    n_qubits: int
    measured: tuple[int, ...]
    thetas: tuple[float, ...]
    alphas: tuple[float, ...]
    adapt: tuple[BooleanExpr, ...]
    byproducts: tuple[ByproductSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", operator.index(self.n_qubits))
        # Own tuples, so that no caller's list can change the pattern under its plan.
        object.__setattr__(self, "measured", tuple(map(operator.index, self.measured)))
        for name in ("thetas", "alphas", "adapt", "byproducts"):
            value = tuple(getattr(self, name))
            object.__setattr__(self, name, tuple(map(float, value)) if name in ("thetas", "alphas") else value)
        m = len(self.measured)
        if len(set(self.measured)) != m:
            raise ValueError("measured qubits must be distinct")
        if any(not 0 <= q < self.n_qubits for q in self.measured):
            raise ValueError("measured qubit out of range")
        if not (len(self.thetas) == len(self.alphas) == len(self.adapt) == m):
            raise ValueError("angles and adaptations must match the measured list")
        for pos, theta in enumerate(self.thetas):
            if not math.isfinite(theta):
                raise ValueError(f"theta[{pos}]={theta}: angles must be finite")
        for pos, alpha in enumerate(self.alphas):
            _expect(f"adapt[{pos}]", self.adapt[pos], BooleanExpr)
            if not (abs(alpha) < 1e-12 or abs(alpha - math.pi / 2) < 1e-12):
                raise ValueError(f"alpha[{pos}]={alpha}: only 0 and pi/2 are supported")
            if abs(alpha) < 1e-12 and not self.adapt[pos].is_zero():
                raise ValueError(f"z-axis measurement at position {pos} cannot be adaptive")
        earlier: set[int] = set()
        for pos, q in enumerate(self.measured):
            bad = self.adapt[pos].support - earlier
            if bad:
                raise ValueError(
                    f"adaptation of qubit {q} depends on {sorted(bad)} not measured earlier"
                )
            earlier.add(q)
        outputs = set(self.outputs)
        seen = set()
        for i, bp in enumerate(self.byproducts):
            _expect(f"byproducts[{i}]", bp, ByproductSpec)
            _expect(f"byproducts[{i}].fx", bp.fx, BooleanExpr)
            _expect(f"byproducts[{i}].fz", bp.fz, BooleanExpr)
            if bp.qubit not in outputs:
                raise ValueError(f"by-product on non-output qubit {bp.qubit}")
            if bp.qubit in seen:
                raise ValueError(f"duplicate by-product for qubit {bp.qubit}")
            seen.add(bp.qubit)
            for expr in (bp.fx, bp.fz):
                if expr.support - set(self.measured):
                    raise ValueError("by-product references an unmeasured qubit")

    @property
    def n_measured(self) -> int:
        return len(self.measured)

    @property
    def outputs(self) -> tuple[int, ...]:
        return self.plan.outputs

    @functools.cached_property
    def plan(self) -> "PatternPlan":
        """Everything fixed by this pattern alone, built once per instance."""
        return PatternPlan(self)

    def is_nonadaptive(self) -> bool:
        """One set of adaptation bits over all records: one frame."""
        return len(self.plan.frames[0]) == 1


def _expect(name: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"{name} is a {type(value).__name__}, not a {kind.__name__}")


def basis_raw(theta: float, alpha: float, s: int, k: int) -> np.ndarray:
    """Measurement basis vector |M_k^s(theta, alpha)>."""
    phase = np.exp(-1j * ((-1.0) ** (s & 1)) * theta)
    c, d = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    if k & 1:
        return np.array([d, -c * phase], dtype=complex)
    return np.array([c, d * phase], dtype=complex)


class _Records(Mapping):
    """A read-only map from outcome tuples to rows of per-record arrays,
    read from the arrays on lookup.

    Record r is the tuple of the m bits of r, first-measured qubit most
    significant.  Row i of ``columns`` belongs to record ``index[i]``,
    ``index`` ascending; records not in ``index`` are absent, and ``index``
    None stands for all 2^m records.  A row reads each 1-d column as a
    float, None where NaN, and each other column as a view of its
    sub-array, read-only when the column is; one column gives that entry
    alone, more a tuple.  A lookup reads its own row; iteration, ``items()``
    and ``values()`` read whole columns at once.
    """

    __slots__ = ("_m", "_index", "_columns")

    def __init__(self, m: int, index: np.ndarray | None, *columns: np.ndarray):
        self._m, self._index, self._columns = m, index, columns

    def _position(self, key) -> int:
        if not isinstance(key, tuple) or len(key) != self._m:
            raise KeyError(key)
        r = 0
        for bit in key:
            if bit != 0 and bit != 1:
                raise KeyError(key)
            r = 2 * r + int(bit == 1)
        if self._index is None:
            return r
        i = int(np.searchsorted(self._index, r))
        if i == len(self._index) or self._index[i] != r:
            raise KeyError(key)
        return i

    def _rows(self):
        cols = [iter(c) if c.ndim > 1 else np.where(np.isnan(c), None, c).tolist() for c in self._columns]
        return iter(cols[0]) if len(cols) == 1 else zip(*cols)

    def __getitem__(self, key):
        i = self._position(key)
        row = [c[i] if c.ndim > 1 else None if math.isnan(c[i]) else float(c[i]) for c in self._columns]
        return row[0] if len(row) == 1 else tuple(row)

    def __iter__(self):
        if self._index is None:
            return itertools.product((0, 1), repeat=self._m)
        return map(tuple, ((self._index[:, None] >> np.arange(self._m - 1, -1, -1)) & 1).tolist())

    def __len__(self) -> int:
        return 2**self._m if self._index is None else len(self._index)

    def items(self):
        return _RecordItems(self)

    def values(self):
        return _RecordValues(self)


class _RecordItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._rows())


class _RecordValues(ValuesView):
    def __iter__(self):
        return self._mapping._rows()


class PatternPlan:
    """The work fixed by a pattern alone, shared by every call that runs it:
    each piece is built on first use, so a pattern made for one call pays
    only for what that call reads, and then kept read-only for the life of
    the pattern.  Records are in the module's record order.  The oracle
    alone reads ``prefix_effects``, the effect rows of every record prefix
    per depth.

    One piece is mutable: ``_memo`` keeps the resource half of the last
    fidelity report ("codes", ``fidelity._frame_codes``: the workspace with
    the branch codes and the reference codes, taken off the plan while a
    report runs and dropped by a report on another resource) and of the
    last oracle run ("oracle", ``oracle._resource_half``: the Liouville
    tensor and the references), each keyed by the identity of the
    resource's read-only amplitude array, held weakly so the plan never
    keeps a resource alive.  The plan holds the pattern's fields, not the
    pattern, which holds the plan: with no cycle between them, a dropped
    pattern frees its memo at once, not at the next cyclic collection."""

    def __init__(self, pat: MeasurementPattern):
        self._pat = types.SimpleNamespace(**vars(pat))
        self._memo: dict[str, tuple] = {}

    @functools.cached_property
    def outputs(self) -> tuple[int, ...]:
        return tuple(q for q in range(self._pat.n_qubits) if q not in self._pat.measured)

    @functools.cached_property
    def order(self) -> tuple[int, ...]:
        """The qubit order that ``_frame_branches`` contracts the resource in:
        its own when the measured qubits ascend, so that nothing is copied,
        else the outputs and then the measured qubits in temporal order."""
        measured = self._pat.measured
        if list(measured) == sorted(measured):
            return tuple(range(self._pat.n_qubits))
        return self.outputs + measured

    @functools.cached_property
    def frames(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct vectors of adaptation bits, (frames, M), and each
        record's frame."""
        return _distinct_values(self._pat.measured, self._pat.adapt, 1)

    @functools.cached_property
    def adapt_bits(self) -> np.ndarray:
        """(2^M, M): the adaptation bit of every position on every record."""
        return _frozen(self.frames[0][self.frames[1]])

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """(M, 2, 2, 2): [pos, s, k] is |M_k^s> at position pos."""
        pat = self._pat
        vecs = [basis_raw(t, a, s, k) for t, a in zip(pat.thetas, pat.alphas) for s in (0, 1) for k in (0, 1)]
        return _frozen(np.array(vecs, dtype=complex).reshape(-1, 2, 2, 2))

    @functools.cached_property
    def blocks(self) -> tuple[range, ...]:
        """The measured positions in consecutive runs of ``BLOCK``.  A run
        ends where an output sits between two measured qubits in ``order``,
        and a last run of one position joins the run before it."""
        at = [self.order.index(q) for q in self._pat.measured]
        cuts = [0] + [pos for pos in range(1, len(at)) if at[pos] != at[pos - 1] + 1] + [len(at)]
        blocks = []
        for first, end in zip(cuts, cuts[1:]):
            starts = list(range(first, end, BLOCK))
            if len(starts) > 1 and end - starts[-1] == 1:
                starts.pop()
            blocks += map(range, starts, starts[1:] + [end])
        return tuple(blocks)

    @functools.cached_property
    def bras(self) -> tuple[np.ndarray, ...]:
        """Per block of b positions, (frames, 2^b, 2^b) with [f, a, k] =
        prod_i <M_{k_i}^{s_i}|a_i>, s the frame's adaptation bits: the right
        factor of one contraction step."""
        frames = self.frames[0]
        bras = [b.conj().transpose(0, 2, 1)[frames[:, pos]] for pos, b in enumerate(self.basis)]
        return tuple(_frozen(kron_all([bras[pos] for pos in block])) for block in self.blocks)

    @functools.cached_property
    def prefix_effects(self) -> tuple[np.ndarray, ...]:
        """Per depth d, (2^d, 2, 4): [p, k] is the row <<E| with <<E|rho>> =
        <M_k^s|rho|M_k^s> on the (row bit, column bit) pair of the qubit at
        position d, s the adaptation bit that record prefix p gives it."""
        b, m = self.basis, len(self.basis)
        rows = (b.conj()[..., :, None] * b[..., None, :]).reshape(b.shape[:-1] + (4,))
        return tuple(_frozen(rows[d, self.adapt_bits[:: 2 ** (m - d), d]]) for d in range(m))

    @functools.cached_property
    def byproducts(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct by-product rows, (rows, outputs) codes f_z + 2 f_x of
        each output qubit, ascending, and each record's row."""
        specs = {bp.qubit: bp for bp in self._pat.byproducts}
        terms = [e for bp in (specs.get(q) or ByproductSpec(q) for q in self.outputs) for e in (bp.fz, bp.fx)]
        return _distinct_values(self._pat.measured, terms, 2)

    @functools.cached_property
    def own(self) -> np.ndarray:
        """Each record's flat (frame, record) entry."""
        frame_of = self.frames[1]
        return _frozen(frame_of * len(frame_of) + np.arange(len(frame_of)))

    @functools.cached_property
    def pairs(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The (frame, read prefix) pairs that some record reaches, a read
        prefix being a record's outcomes on the blocks before: per block,
        (parents, n) rows with the values that the records of each parent
        pair read on the block's positions, ascending, and each record's
        pair after the last block.  The first block's parents are the
        frames, and the pairs a block leaves are numbered (parent, value)
        in that order.  Every parent has the same n: a frame's records form
        a coset of the kernel of the affine adaptation map, and a fixed
        prefix cuts a coset of one subspace out of each."""
        frame_of, m = self.frames[1], len(self._pat.measured)
        records, pair, n_pairs, rows = np.arange(len(frame_of)), frame_of, len(self.frames[0]), []
        for block in self.blocks:
            b = len(block)
            keys = pair << b | (records >> (m - block.stop)) & (1 << b) - 1
            seen = np.zeros(n_pairs << b, dtype=bool)
            seen[keys] = True
            reached = np.flatnonzero(seen)
            n = len(reached) // n_pairs
            assert (reached >> b == np.arange(len(reached)) // n).all(), "parents reach unequal read values"
            rows.append(_frozen((reached & (1 << b) - 1).reshape(n_pairs, n)))
            pair, n_pairs = np.cumsum(seen)[keys] - 1, len(reached)
        return tuple(rows), _frozen(pair)

    @functools.cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each record reads the last array of the outcome-flip stage,
        (4^outputs, 2^M) codes: its column, its frame's own for one frame
        and its pair after the last block for more; and its flat entry in
        the (rows, 2^M) overlaps of every by-product row with every column."""
        column = self.own if len(self.frames[0]) == 1 else self.pairs[1]
        return column, _frozen(self.byproducts[1] * len(column) + column)


def _distinct_values(measured: tuple[int, ...], exprs: Sequence[BooleanExpr], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``exprs`` over all records, in order of first
    appearance, as read-only (values, len(exprs) / width) uint8 fields of
    ``width`` expressions, the first on the low bit; and each record's value.
    Each measured qubit, the last first, doubles the records so far."""
    keys = [sum(e.const << i for i, e in enumerate(exprs))]
    for q in reversed(measured):
        mask = sum(1 << i for i, e in enumerate(exprs) if q in e.xor)
        keys += [key ^ mask for key in keys]
    index: dict[int, int] = {}
    value_of = [index.setdefault(key, len(index)) for key in keys]
    fields = [[key >> i & (1 << width) - 1 for i in range(0, len(exprs), width)] for key in index]
    return _frozen(np.array(fields, dtype=np.uint8).reshape(len(index), -1)), _frozen(np.array(value_of))


def _resource_vector(resource, pat: MeasurementPattern) -> np.ndarray:
    """The amplitude array of a resource that ``pat`` can run on."""
    if isinstance(resource, GraphState):
        resource = resource.state
    if not isinstance(resource, PureState):
        raise TypeError(f"expected PureState or GraphState, got {type(resource).__name__}")
    if resource.n != pat.n_qubits:
        raise ValueError(f"pattern expects {pat.n_qubits} qubits, state has {resource.n}")
    return resource.amplitudes


def _channel_map(name: str, chans: Mapping[int, NoiseChannel] | None, allowed: Sequence[int], message: str) -> dict:
    """``chans``, qubits to channels or None, as a dict without the Nones.  A
    key not in ``allowed`` raises ValueError, ``message`` formatted with
    ``name``, ``stray`` and ``allowed``, both sorted, and ``n = len(allowed)``;
    a value neither None nor a NoiseChannel raises TypeError."""
    stray = (chans or {}).keys() - allowed
    if stray:
        raise ValueError(message.format(name=name, stray=sorted(stray), allowed=sorted(allowed), n=len(allowed)))
    for q, ch in (chans or {}).items():
        if ch is not None and not isinstance(ch, NoiseChannel):
            raise TypeError(f"{name}[{q}] is a {type(ch).__name__}, not a NoiseChannel or None")
    return {q: ch for q, ch in (chans or {}).items() if ch is not None}


def _frame_branches(amp: np.ndarray, pat: MeasurementPattern) -> np.ndarray:
    """Every branch of every adaptation frame, from one contraction.

    ``amp`` must be an amplitude array that ``_resource_vector`` has
    returned for ``pat``: nothing is checked here.  A frame is one vector
    of adaptation bits s(r).  Returns ``psi`` of shape (frames, 2^M,
    2^outputs): psi[f, k] is the unnormalized output vector left when the
    measured qubits are projected onto <M_{k_i}^{s_i}| with s the bits of
    frame f, the outputs ascending.  Record r's own branch is
    psi[frame_of[r], r], ``frame_of = pat.plan.frames[1]`` the frame row of
    each record.

    The bras form a Kronecker product, applied by the shuffle algorithm
    (Fernandes, Plateau and Stewart, J. ACM 45, 381 (1998)) with one factor
    per block of measured positions, on the resource's axes in the plan's
    ``order``: the resource's own, a view, when the measured qubits ascend.
    One matmul per block, batched over the frames and over the outputs that
    precede the block, which stay in front, contracts the block's axes and
    appends its outcome axes at the end.  The frames, bras, order and
    blocks come from ``pat.plan``."""
    plan = pat.plan
    t = np.transpose(amp.reshape((2,) * pat.n_qubits), plan.order).reshape(1, -1)
    for block, bras in zip(plan.blocks, plan.bras):
        lead = 2 ** (plan.order.index(pat.measured[block.start]) - block.start)
        t = t.reshape(len(t), lead, bras.shape[1], -1).transpose(0, 1, 3, 2) @ bras[:, None]
        t = t.reshape(len(bras), -1)
    # The axes now read (outputs, k_1, ..., k_M).
    return t.reshape(len(t), -1, 2**pat.n_measured).transpose(0, 2, 1)


def byproduct_codes(pat: MeasurementPattern, code: np.ndarray, r0: int) -> np.ndarray:
    """B X B^dagger, B = BP(u) BP(r0), for each by-product row u of
    ``pat.plan.byproducts``, as a new (rows, 4^outputs) array, from X over
    the outputs in Liouville order (each output's row bit and column bit on
    one axis of 4, outputs ascending), as complex entries or as their real
    code Re + Im.  Each output that some row flips costs one batched 4x4
    product, so up to two (rows, 4^outputs) arrays are alive at once."""
    rows, row_of = pat.plan.byproducts
    flips = rows ^ rows[row_of[r0]]
    out = code.reshape(1, -1)
    for j in range(flips.shape[1]):
        if flips[:, j].any():
            out = _PAULI_CONJ[flips[:, j], None] @ out.reshape(len(out), 4**j, 4, -1)
    # A single row is r0's own, which flips nothing: ``out`` is still ``code``.
    return out.reshape(len(rows), -1) if len(rows) > 1 else out.copy()
