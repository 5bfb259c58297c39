"""Measurement patterns: adapted bases, branch enumeration, by-products.

A pattern measures qubits in a fixed temporal order.  Qubit i is measured
in the basis

    |M_0> = cos(alpha/2)|0> + sin(alpha/2) e^{-i(-1)^s theta}|1>
    |M_1> = sin(alpha/2)|0> - cos(alpha/2) e^{-i(-1)^s theta}|1>

where the adaptation bit s is a boolean function of earlier outcomes.
The unmeasured qubits carry the answer, up to an outcome-dependent local
by-product (-1)^{f_sig} X^{f_x} Z^{f_z} per output qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graphstate import GraphState
from .linalg import PureState, X, Z, kron_all

_ZERO_BRANCH = 1e-20


@dataclass(frozen=True)
class BooleanExpr:
    """Constant + XOR of outcome bits + XOR of pairwise AND monomials.

    Degree-two monomials are the largest the by-product bookkeeping ever
    needs; anything higher is rejected when parsing.
    """

    const: int = 0
    xor: tuple[int, ...] = ()
    and2: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "const", int(self.const) & 1)
        # XOR with even multiplicity cancels; keep a canonical sorted form.
        counts: dict[int, int] = {}
        for v in self.xor:
            counts[int(v)] = counts.get(int(v), 0) + 1
        object.__setattr__(self, "xor", tuple(sorted(v for v, c in counts.items() if c % 2)))
        pairs = []
        for pair in self.and2:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ValueError(f"monomial ({i},{j}) is not quadratic; fold it into xor")
            pairs.append((min(i, j), max(i, j)))
        object.__setattr__(self, "and2", tuple(sorted(pairs)))

    @classmethod
    def zero(cls) -> "BooleanExpr":
        return cls()

    @classmethod
    def of(cls, *vertices: int, const: int = 0, and2=()) -> "BooleanExpr":
        return cls(const=const, xor=tuple(vertices), and2=tuple(and2))

    @property
    def support(self) -> frozenset:
        s = set(self.xor)
        for i, j in self.and2:
            s.update((i, j))
        return frozenset(s)

    def is_zero(self) -> bool:
        return self.const == 0 and not self.xor and not self.and2

    def evaluate(self, bits: Mapping[int, int]) -> int:
        v = self.const
        for q in self.xor:
            v ^= bits[q] & 1
        for i, j in self.and2:
            v ^= (bits[i] & bits[j]) & 1
        return v

    def evaluate_columns(self, columns: Mapping[int, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation over stacked outcome records; an empty
        mapping stands for the one empty record."""
        some = next(iter(columns.values()), np.zeros(1, dtype=np.uint8))
        v = np.full(some.shape, self.const, dtype=np.uint8)
        for q in self.xor:
            v ^= columns[q]
        for i, j in self.and2:
            v ^= columns[i] & columns[j]
        return v

    @classmethod
    def from_json(cls, doc: Mapping) -> "BooleanExpr":
        unknown = set(doc) - {"const", "xor", "and2"}
        if unknown:
            raise ValueError(f"unknown expression fields {sorted(unknown)}")
        pairs = doc.get("and2", ())
        for p in pairs:
            if len(p) != 2:
                raise ValueError(f"monomial {p} is not a pair; degree > 2 is unsupported")
        return cls(
            const=int(doc.get("const", 0)),
            xor=tuple(int(v) for v in doc.get("xor", ())),
            and2=tuple((int(i), int(j)) for i, j in pairs),
        )

    def to_json(self) -> dict:
        return {"const": self.const, "xor": list(self.xor), "and2": [list(p) for p in self.and2]}


@dataclass(frozen=True)
class ByproductSpec:
    qubit: int
    fx: BooleanExpr = BooleanExpr()
    fz: BooleanExpr = BooleanExpr()
    fsig: BooleanExpr = BooleanExpr()


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
        m = len(self.measured)
        if len(set(self.measured)) != m:
            raise ValueError("measured qubits must be distinct")
        if any(not 0 <= q < self.n_qubits for q in self.measured):
            raise ValueError("measured qubit out of range")
        if not (len(self.thetas) == len(self.alphas) == len(self.adapt) == m):
            raise ValueError("angles and adaptations must match the measured list")
        for pos, alpha in enumerate(self.alphas):
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
        for bp in self.byproducts:
            if bp.qubit not in outputs:
                raise ValueError(f"by-product on non-output qubit {bp.qubit}")
            if bp.qubit in seen:
                raise ValueError(f"duplicate by-product for qubit {bp.qubit}")
            seen.add(bp.qubit)
            for expr in (bp.fx, bp.fz, bp.fsig):
                if expr.support - set(self.measured):
                    raise ValueError("by-product references an unmeasured qubit")

    @property
    def n_measured(self) -> int:
        return len(self.measured)

    @property
    def outputs(self) -> tuple[int, ...]:
        m = set(self.measured)
        return tuple(q for q in range(self.n_qubits) if q not in m)

    def is_nonadaptive(self) -> bool:
        return all(e.is_zero() for e in self.adapt)

    def byproduct_for(self, qubit: int) -> ByproductSpec:
        for bp in self.byproducts:
            if bp.qubit == qubit:
                return bp
        return ByproductSpec(qubit=qubit)

    @classmethod
    def from_json(cls, doc: Mapping) -> "MeasurementPattern":
        try:
            measured = tuple(int(q) for q in doc["measured"])
            angles = doc["angles"]
            adapt = doc["adapt"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"pattern document needs measured/angles/adapt: {exc}") from exc
        byp = doc.get("byproducts", [])
        indices = list(measured) + [int(b["qubit"]) for b in byp]
        n = int(doc.get("n", max(indices) + 1 if indices else 1))
        return cls(
            n_qubits=n,
            measured=measured,
            thetas=tuple(float(a["theta"]) for a in angles),
            alphas=tuple(float(a["alpha"]) for a in angles),
            adapt=tuple(BooleanExpr.from_json(e) for e in adapt),
            byproducts=tuple(
                ByproductSpec(
                    qubit=int(b["qubit"]),
                    fx=BooleanExpr.from_json(b.get("fx", {})),
                    fz=BooleanExpr.from_json(b.get("fz", {})),
                    fsig=BooleanExpr.from_json(b.get("fsig", {})),
                )
                for b in byp
            ),
        )

    def to_json(self) -> dict:
        return {
            "n": self.n_qubits,
            "measured": list(self.measured),
            "angles": [{"theta": t, "alpha": a} for t, a in zip(self.thetas, self.alphas)],
            "adapt": [e.to_json() for e in self.adapt],
            "byproducts": [
                {"qubit": bp.qubit, "fx": bp.fx.to_json(), "fz": bp.fz.to_json(), "fsig": bp.fsig.to_json()}
                for bp in self.byproducts
            ],
        }


def basis_raw(theta: float, alpha: float, s: int, k: int) -> np.ndarray:
    phase = np.exp(-1j * ((-1.0) ** (s & 1)) * theta)
    c, d = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    if k & 1:
        return np.array([d, -c * phase], dtype=complex)
    return np.array([c, d * phase], dtype=complex)


def basis_vector(theta: float, alpha: float, s: int, k: int) -> PureState:
    """Measurement basis vector |M_k^s(theta, alpha)>."""
    return PureState(basis_raw(theta, alpha, s, k))


def outcome_tuple(index: int, m: int) -> tuple[int, ...]:
    """Bits of an outcome record, first-measured qubit on the most
    significant bit."""
    return tuple((index >> (m - 1 - j)) & 1 for j in range(m))


def record_columns(pat: MeasurementPattern, records: np.ndarray) -> dict[int, np.ndarray]:
    """The outcome bit of each measured qubit over stacked record indices,
    read as in ``outcome_tuple``."""
    m = pat.n_measured
    return {q: ((records >> (m - 1 - pos)) & 1).astype(np.uint8) for pos, q in enumerate(pat.measured)}


@dataclass(frozen=True)
class AnswerSet:
    """The noiseless branch of every outcome record under a pattern.

    ``probs`` are the exact branch probabilities; ``hat`` rows are the
    normalized answers (zero where the branch probability vanishes).
    """

    outputs: tuple[int, ...]
    probs: np.ndarray
    hat: np.ndarray


def _resource_vector(resource) -> tuple[np.ndarray, int]:
    if isinstance(resource, GraphState):
        return resource.state.amplitudes, resource.state.n
    if isinstance(resource, PureState):
        return resource.amplitudes, resource.n
    raise TypeError(f"expected PureState or GraphState, got {type(resource).__name__}")


def frame_branches(resource, pat: MeasurementPattern) -> tuple[np.ndarray, np.ndarray]:
    """Every branch of every adaptation frame, from one contraction.

    A frame is one vector of adaptation bits s(r).  Returns ``frame_of``,
    the frame row of each record r, and ``psi`` of shape (frames, 2^M,
    2^outputs): psi[f, k] is the unnormalized output vector left when the
    measured qubits are projected onto <M_{k_i}^{s_i}| with s the bits of
    frame f.  Record r's own branch is psi[frame_of[r], r].
    """
    amp, n = _resource_vector(resource)
    if n != pat.n_qubits:
        raise ValueError(f"pattern expects {pat.n_qubits} qubits, state has {n}")
    m = pat.n_measured
    if pat.is_nonadaptive():
        frames, frame_of = np.zeros((1, m), dtype=np.uint8), np.zeros(2**m, dtype=np.intp)
    else:
        columns = record_columns(pat, np.arange(2**m))
        bits = np.stack([e.evaluate_columns(columns) for e in pat.adapt], axis=1)
        frames, frame_of = np.unique(bits, axis=0, return_inverse=True)
    # Measured axes first in temporal order, so record bits read MSB-first.
    t = np.transpose(amp.reshape((2,) * n), list(pat.measured) + list(pat.outputs))
    t = t.reshape((1,) + t.shape)
    for pos in range(m):
        bras = np.conj([[basis_raw(pat.thetas[pos], pat.alphas[pos], s, k) for k in (0, 1)] for s in (0, 1)])
        b = bras[frames[:, pos]][:, None, :, :, None]  # (frame, 1, k, a, 1)
        t = t.reshape(t.shape[0], 2**pos, 2, -1)
        t = b[:, :, :, 0] * t[:, :, None, 0] + b[:, :, :, 1] * t[:, :, None, 1]
    return frame_of.reshape(-1), t.reshape(len(frames), 2**m, -1)


def branch_answers(resource, pat: MeasurementPattern) -> AnswerSet:
    """Each record's noiseless branch, taken from its own frame."""
    frame_of, psi = frame_branches(resource, pat)
    vec = psi[frame_of, np.arange(frame_of.size)]
    probs = np.einsum("ka,ka->k", vec, vec.conj()).real
    hat = np.zeros_like(vec)
    good = probs > _ZERO_BRANCH
    hat[good] = vec[good] / np.sqrt(probs[good])[:, None]
    return AnswerSet(outputs=pat.outputs, probs=probs, hat=hat)


def ideal_answers(resource, pat: MeasurementPattern) -> dict[tuple[int, ...], tuple[float, PureState | None]]:
    """Map outcome record -> (probability, normalized answer state).

    Zero-probability branches are flagged with a ``None`` state.
    """
    ans = branch_answers(resource, pat)
    m = pat.n_measured
    out: dict[tuple[int, ...], tuple[float, PureState | None]] = {}
    for idx in range(2**m):
        key = outcome_tuple(idx, m)
        if ans.probs[idx] > _ZERO_BRANCH:
            out[key] = (float(ans.probs[idx]), PureState(ans.hat[idx]))
        else:
            out[key] = (0.0, None)
    return out


_POW_X = (np.eye(2, dtype=complex), X)
_POW_Z = (np.eye(2, dtype=complex), Z)


def byproduct_unitary(pat: MeasurementPattern, outcome: Sequence[int]) -> np.ndarray:
    """(-1)^{f_sig} X^{f_x} Z^{f_z} over the output qubits, ascending order."""
    bits = {q: int(b) & 1 for q, b in zip(pat.measured, outcome)}
    if len(outcome) != pat.n_measured:
        raise ValueError("outcome length does not match the measured list")
    sign = 1.0
    factors = []
    for q in pat.outputs:
        bp = pat.byproduct_for(q)
        sign *= (-1.0) ** bp.fsig.evaluate(bits)
        factors.append(_POW_X[bp.fx.evaluate(bits)] @ _POW_Z[bp.fz.evaluate(bits)])
    if not factors:
        return np.array([[sign]], dtype=complex)
    return sign * kron_all(factors)


def apply_byproducts(pat: MeasurementPattern, vec: np.ndarray) -> np.ndarray:
    """BP(r) vec for every record r, stacked in record order: the rows are
    ``byproduct_unitary(pat, outcome_tuple(r, M)) @ vec``."""
    n_records = 2**pat.n_measured
    columns = record_columns(pat, np.arange(n_records))
    k = len(pat.outputs)
    out = np.repeat(np.asarray(vec, dtype=complex).reshape((1,) + (2,) * k), n_records, axis=0)
    sign = np.ones(n_records)
    for axis, q in enumerate(pat.outputs, start=1):
        bp = pat.byproduct_for(q)
        sign *= (-1.0) ** bp.fsig.evaluate_columns(columns)
        view = np.moveaxis(out, axis, 1)  # (record, bit of q, other outputs)
        fz = bp.fz.evaluate_columns(columns).astype(bool)
        view[fz, 1] *= -1.0
        fx = bp.fx.evaluate_columns(columns).astype(bool)
        view[fx] = view[fx, ::-1]
    return out.reshape(n_records, -1) * sign[:, None]
