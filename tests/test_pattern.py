import dataclasses
import functools
import math

import numpy as np
import pytest

from onewaysim.channels import NoiseChannel
from onewaysim.fidelity import fidelity_adaptive
from onewaysim.graphstate import Graph, build_graph_state, resource_state
from onewaysim.linalg import PureState, X, Z, kron_all
from onewaysim.pattern import (
    BooleanExpr,
    ByproductSpec,
    MeasurementPattern,
    PatternPlan,
    basis_raw,
    byproduct_codes,
    frame_branches,
)


def outcome_tuple(index, m):
    """Bits of record ``index``, first-measured qubit on the most
    significant bit: the record order of the package."""
    return tuple((index >> (m - 1 - j)) & 1 for j in range(m))


def evaluate(expr, bits):
    """``expr`` on one record, ``bits`` mapping each qubit to its outcome:
    the scalar reference for the plan's adaptation bits and by-products."""
    v = expr.const
    for q in expr.xor:
        v ^= bits[q] & 1
    return v


def byproduct_unitary(pat, outcome):
    """X^{f_x} Z^{f_z} over the output qubits, ascending order: the
    reference for ``byproduct_codes``, one record at a time."""
    bits = {q: int(b) & 1 for q, b in zip(pat.measured, outcome)}
    assert len(outcome) == pat.n_measured
    specs = {bp.qubit: bp for bp in pat.byproducts}
    factors = []
    for q in pat.outputs:
        bp = specs.get(q, ByproductSpec(q))
        x, z = evaluate(bp.fx, bits), evaluate(bp.fz, bits)
        factors.append(np.linalg.matrix_power(X, x) @ np.linalg.matrix_power(Z, z))
    return kron_all(factors) if factors else np.eye(1, dtype=complex)


def rsp_pattern(theta):
    return MeasurementPattern(
        n_qubits=2,
        measured=(0,),
        thetas=(theta,),
        alphas=(math.pi / 2,),
        adapt=(BooleanExpr.zero(),),
        byproducts=(ByproductSpec(qubit=1, fx=BooleanExpr.of(0)),),
    )


def rotation_pattern(p1, p2, p3):
    return MeasurementPattern(
        n_qubits=5,
        measured=(0, 1, 2, 3),
        thetas=(0.0, p1, p2, p3),
        alphas=(math.pi / 2,) * 4,
        adapt=(
            BooleanExpr.zero(),
            BooleanExpr.of(0),
            BooleanExpr.of(1),
            BooleanExpr.of(0, 2),
        ),
        byproducts=(
            ByproductSpec(qubit=4, fx=BooleanExpr.of(3, 1), fz=BooleanExpr.of(2, 0)),
        ),
    )


def euler_rotation(p1, p2, p3):
    def rx(phi):
        return np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * X

    def rzm(phi):
        return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])

    return rx(p3) @ rzm(p2) @ rx(p1)


def scrambled_pattern(thetas=(0.1, 0.3, 0.5, 0.7)):
    """An adaptive pattern whose measured qubits (4, 0, 2, 5) do not ascend,
    with outputs 1 and 3 between them."""
    return MeasurementPattern(
        n_qubits=6,
        measured=(4, 0, 2, 5),
        thetas=tuple(thetas),
        alphas=(math.pi / 2,) * 4,
        adapt=(BooleanExpr(), BooleanExpr.of(4, const=1), BooleanExpr.of(0, 4), BooleanExpr.of(2)),
        byproducts=(
            ByproductSpec(qubit=1, fx=BooleanExpr.of(4, 2), fz=BooleanExpr.of(0, 5, const=1)),
            ByproductSpec(qubit=3, fz=BooleanExpr.of(2, 4)),
        ),
    )


def x_pattern(n, measured):
    """Equatorial measurements of ``measured``, in that order, with no
    adaptation and no by-products."""
    m = len(measured)
    return MeasurementPattern(n, measured, (0.0,) * m, (math.pi / 2,) * m, (BooleanExpr(),) * m)


class TestBooleanExpr:
    def test_xor_parity_normalization(self):
        e = BooleanExpr(xor=(1, 1, 2))
        assert e.xor == (2,)

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: BooleanExpr(const=2), ValueError),
            (lambda: BooleanExpr(const=-1), ValueError),
            (lambda: BooleanExpr(const=1.0), TypeError),
            (lambda: BooleanExpr.of(0.9), TypeError),
            (lambda: BooleanExpr.of(np.int64(3), np.uint8(1), 3, const=np.int64(1)), BooleanExpr(1, (1,))),
        ],
        ids=["const_2", "const_negative", "const_float", "float_vertex", "numpy_integers"],
    )
    def test_integer_vertices_and_constants(self, make, expected):
        if isinstance(expected, BooleanExpr):
            e = make()
            assert e == expected and type(e.const) is int and all(type(v) is int for v in e.xor)
        else:
            with pytest.raises(expected):
                make()

    @pytest.mark.parametrize(
        "pat, n_frames",
        [
            (scrambled_pattern(), 8),
            (rsp_pattern(0.7), 1),
            (MeasurementPattern(4, (0, 1, 2), (0.2, 0.4, 0.6), (math.pi / 2,) * 3, (BooleanExpr(1),) * 3), 1),
        ],
        ids=["scrambled", "nonadaptive", "constant_adaptation"],
    )
    def test_plan_matches_scalar(self, pat, n_frames):
        """The plan's adaptation bits and by-product rows, read off all
        records at once, match ``evaluate`` record by record, and its frames
        are exactly the distinct rows of adaptation bits, in order of first
        appearance, whether or not the pattern adapts."""
        m = pat.n_measured
        rows, row_of = pat.plan.byproducts
        specs = {bp.qubit: bp for bp in pat.byproducts}
        for r in range(2**m):
            bits = dict(zip(pat.measured, outcome_tuple(r, m)))
            assert list(pat.plan.adapt_bits[r]) == [evaluate(e, bits) for e in pat.adapt]
            bps = [specs.get(q, ByproductSpec(q)) for q in pat.outputs]
            assert list(rows[row_of[r]]) == [evaluate(bp.fz, bits) + 2 * evaluate(bp.fx, bits) for bp in bps]
        distinct = list(dict.fromkeys(map(tuple, pat.plan.adapt_bits.tolist())))
        assert pat.plan.frames[0].tolist() == [list(row) for row in distinct]
        assert len(distinct) == n_frames


class TestPatternValidation:
    def test_causality_violation(self):
        with pytest.raises(ValueError, match="not measured earlier"):
            MeasurementPattern(
                n_qubits=3,
                measured=(0, 1),
                thetas=(0.0, 0.0),
                alphas=(math.pi / 2, math.pi / 2),
                adapt=(BooleanExpr.of(1), BooleanExpr.zero()),
            )

    def test_z_measurement_cannot_adapt(self):
        with pytest.raises(ValueError, match="cannot be adaptive"):
            MeasurementPattern(
                n_qubits=2,
                measured=(0, 1),
                thetas=(0.0, 0.0),
                alphas=(math.pi / 2, 0.0),
                adapt=(BooleanExpr.zero(), BooleanExpr.of(0)),
            )

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError, match="only 0 and pi/2"):
            MeasurementPattern(
                n_qubits=1,
                measured=(0,),
                thetas=(0.0,),
                alphas=(0.3,),
                adapt=(BooleanExpr.zero(),),
            )

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match=r"theta\[1\]=.*: angles must be finite"):
            MeasurementPattern(
                n_qubits=3,
                measured=(0, 1),
                thetas=(0.0, theta),
                alphas=(math.pi / 2, math.pi / 2),
                adapt=(BooleanExpr.zero(),) * 2,
            )

    @pytest.mark.parametrize(
        "n_qubits, measured, expected",
        [
            (3, (0.5,), TypeError),
            (3, (1.0, 0.0), TypeError),
            (np.int64(3), (np.int64(1), np.uint8(0)), (1, 0)),
        ],
        ids=["half", "float_indices", "numpy_integers"],
    )
    def test_integer_qubit_indices(self, n_qubits, measured, expected):
        def make():
            m = len(measured)
            return MeasurementPattern(n_qubits, measured, (0.0,) * m, (math.pi / 2,) * m, (BooleanExpr(),) * m)

        if isinstance(expected, tuple):
            pat = make()
            assert pat.measured == expected and all(type(q) is int for q in pat.measured)
            assert pat.outputs == (2,)
        else:
            with pytest.raises(expected, match="cannot be interpreted as an integer"):
                make()

    @pytest.mark.parametrize(
        "n_qubits, output, expected",
        [
            (3.0, 2, TypeError),
            (3, 2.0, TypeError),
            (np.int64(3), np.uint8(2), (3, 2)),
        ],
        ids=["float_count", "float_byproduct_qubit", "numpy_integers"],
    )
    def test_integer_count_and_byproduct_qubit(self, n_qubits, output, expected):
        # A count or qubit is coerced on entry: a numpy count was kept as it
        # came, and a float by-product qubit passed the output check (2.0 == 2).
        def make():
            bp = ByproductSpec(qubit=output, fx=BooleanExpr.of(1))
            return MeasurementPattern(n_qubits, (0, 1), (0.0, 0.0), (math.pi / 2,) * 2, (BooleanExpr(),) * 2, (bp,))

        if isinstance(expected, tuple):
            pat = make()
            assert (pat.n_qubits, pat.byproducts[0].qubit) == expected
            assert type(pat.n_qubits) is int and type(pat.byproducts[0].qubit) is int
            assert pat.outputs == (2,)
        else:
            with pytest.raises(expected, match="cannot be interpreted as an integer"):
                make()

    def test_byproduct_on_measured_qubit_rejected(self):
        with pytest.raises(ValueError, match="non-output"):
            MeasurementPattern(
                n_qubits=2,
                measured=(0,),
                thetas=(0.0,),
                alphas=(math.pi / 2,),
                adapt=(BooleanExpr.zero(),),
                byproducts=(ByproductSpec(qubit=0),),
            )


def plan_arrays(value):
    """Every array in a plan piece: a tuple, a dict or an array."""
    if isinstance(value, np.ndarray):
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, tuple) else ()
    return [a for item in items for a in plan_arrays(item)]


class TestPlan:
    def test_built_once_per_instance(self):
        pat = rotation_pattern(0.1, 0.2, 0.3)
        assert pat.plan is pat.plan
        assert dataclasses.replace(pat).plan is not pat.plan

    @pytest.mark.parametrize("pat", [rotation_pattern(0.1, 0.2, 0.3), rsp_pattern(0.5)], ids=["rotation", "rsp"])
    def test_every_array_read_only(self, pat):
        pieces = [name for name, v in vars(PatternPlan).items() if isinstance(v, functools.cached_property)]
        arrays = [a for name in pieces for a in plan_arrays(getattr(pat.plan, name))]
        assert len(pieces) >= 9 and len(arrays) >= 8
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    @pytest.mark.parametrize(
        "n, measured, blocks",
        [
            (15, (*range(6), *range(7, 14)), [(0, 3), (3, 6), (6, 9), (9, 13)]),
            (8, tuple(range(7)), [(0, 3), (3, 7)]),
            (11, tuple(range(10)), [(0, 3), (3, 6), (6, 10)]),
            (5, tuple(range(4)), [(0, 4)]),
            (8, (0, 1, 3, 4, 5, 6), [(0, 2), (2, 6)]),
            (4, (0, 2), [(0, 1), (1, 2)]),
            (3, (), []),
        ],
        ids=["cnot15", "chain7", "chain10", "chain4", "output_ends_block", "outputs_between", "no_measured"],
    )
    def test_ascending_blocks(self, n, measured, blocks):
        """Ascending patterns contract in the resource's own order; a block
        ends at an output between two measured qubits, and a last run of
        one position joins the block before it."""
        plan = x_pattern(n, measured).plan
        assert plan.order == tuple(range(n))
        assert plan.blocks == tuple(range(*b) for b in blocks)

    def test_non_ascending_order(self):
        """Outputs first, then the measured qubits in temporal order, which
        no output interrupts."""
        plan = scrambled_pattern().plan
        assert plan.order == (1, 3, 4, 0, 2, 5)
        assert plan.blocks == (range(0, 4),)
        assert x_pattern(7, (5, 4, 3, 2, 1, 0, 6)).plan.blocks == (range(0, 3), range(3, 7))

    def test_caller_lists_cannot_change_the_pattern(self):
        ref = rotation_pattern(0.3, 0.6, 0.9)
        measured, thetas, alphas = list(ref.measured), [np.float32(x) for x in ref.thetas], list(ref.alphas)
        adapt, byproducts = list(ref.adapt), list(ref.byproducts)
        pat = MeasurementPattern(5, measured, thetas, alphas, adapt, byproducts)
        fields = ("measured", "thetas", "alphas", "adapt", "byproducts")
        assert all(isinstance(getattr(pat, name), tuple) for name in fields)
        assert all(type(x) is float for x in pat.thetas + pat.alphas)
        resource = resource_state(Graph.path(5))
        chans = {q: NoiseChannel(B=0.4, C=0.5, S=0.8, t=0.3) for q in range(5)}
        before = fidelity_adaptive(pat, resource, {q: chans[q] for q in range(4)}, {4: chans[4]})
        thetas[1] += 1.0
        alphas[3] = 0.0
        adapt[3] = BooleanExpr.zero()
        byproducts.clear()
        after = fidelity_adaptive(dataclasses.replace(pat), resource, {q: chans[q] for q in range(4)}, {4: chans[4]})
        np.testing.assert_array_equal(after.z, before.z)
        np.testing.assert_array_equal(after.f, before.f)


class TestBasisVector:
    def test_x_eigenvector(self):
        v = basis_raw(0.0, math.pi / 2, 0, 0)
        assert np.allclose(v, [1, 1] / np.sqrt(2))

    def test_z_direction(self):
        v = basis_raw(1.234, 0.0, 0, 0)
        assert np.allclose(v, [1, 0])

    def test_adapted_phase(self):
        v = basis_raw(math.pi / 2, math.pi / 2, 1, 1)
        expect = np.array([1.0, -np.exp(1j * math.pi / 2)]) / np.sqrt(2)
        assert np.max(np.abs(v - expect)) < 1e-12

    def test_orthonormal(self):
        v0 = basis_raw(0.7, math.pi / 2, 1, 0)
        v1 = basis_raw(0.7, math.pi / 2, 1, 1)
        assert abs(np.vdot(v0, v1)) < 1e-12
        assert abs(np.linalg.norm(v0) - 1.0) < 1e-12 and abs(np.linalg.norm(v1) - 1.0) < 1e-12


def own_branches(resource, pat):
    """Each record's probability and normalized noiseless branch, taken
    from its own frame."""
    frame_of, psi = frame_branches(resource, pat)
    vec = psi[frame_of, np.arange(frame_of.size)]
    probs = np.einsum("ka,ka->k", vec, vec.conj()).real
    return probs, vec / np.sqrt(probs)[:, None]


class TestIdealAnswers:
    def test_rsp_branches(self):
        phi = 1.1
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        probs, hat = own_branches(gs, rsp_pattern(phi))
        target = np.array([np.cos(phi / 2), -1j * np.sin(phi / 2)])
        for k in (0, 1):
            assert abs(probs[k] - 0.5) < 1e-10
            expect = np.linalg.matrix_power(X, k) @ target
            assert abs(abs(np.vdot(expect, hat[k])) - 1.0) < 1e-10

    def test_isolated_plus_z_measurement(self):
        pat = MeasurementPattern(
            n_qubits=2,
            measured=(0,),
            thetas=(0.0,),
            alphas=(0.0,),
            adapt=(BooleanExpr.zero(),),
        )
        probs, _ = own_branches(resource_state(Graph(2, ())), pat)
        assert abs(probs[0] - 0.5) < 1e-12
        assert abs(probs[1] - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self):
        pat = rotation_pattern(0.4, 1.3, 2.1)
        resource = resource_state(Graph.path(5))
        probs, _ = own_branches(resource, pat)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_rotation_reproduces_euler_rotation(self):
        rng = np.random.default_rng(9)
        p1, p2, p3 = rng.uniform(0, 2 * np.pi, size=3)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi_in = PureState(v / np.linalg.norm(v))
        pat = rotation_pattern(p1, p2, p3)
        resource = resource_state(Graph.path(5), {0: psi_in})
        probs, hat = own_branches(resource, pat)
        ref0 = euler_rotation(p1, p2, p3) @ psi_in.amplitudes
        for idx in range(16):
            key = outcome_tuple(idx, 4)
            assert abs(probs[idx] - 1 / 16) < 1e-10
            expect = byproduct_unitary(pat, key) @ ref0
            fid = abs(np.vdot(expect, hat[idx])) ** 2
            assert abs(fid - 1.0) < 1e-10


class TestByproductUnitary:
    def test_zero_outcomes_identity(self):
        pat = rotation_pattern(0.1, 0.2, 0.3)
        u = byproduct_unitary(pat, (0, 0, 0, 0))
        assert np.allclose(u, np.eye(2))

    def test_rsp_flip(self):
        u = byproduct_unitary(rsp_pattern(0.5), (1,))
        assert np.allclose(u, X)

    def test_rotation_sign_case(self):
        # Outcomes (k1..k4) = (0,1,1,0): X from k2, Z from k3.
        pat = rotation_pattern(0.1, 0.2, 0.3)
        u = byproduct_unitary(pat, (0, 1, 1, 0))
        assert np.allclose(u, X @ Z)

    def test_multi_qubit_outputs(self):
        pat = MeasurementPattern(
            n_qubits=4,
            measured=(0, 1),
            thetas=(0.0, 0.0),
            alphas=(math.pi / 2,) * 2,
            adapt=(BooleanExpr.zero(),) * 2,
            byproducts=(
                ByproductSpec(qubit=2, fx=BooleanExpr.of(0)),
                ByproductSpec(qubit=3, fz=BooleanExpr.of(1)),
            ),
        )
        u = byproduct_unitary(pat, (1, 1))
        assert np.allclose(u, kron_all([X, Z]))


class TestApplyByproducts:
    @pytest.mark.parametrize(
        "pat",
        [
            rotation_pattern(0.1, 0.2, 0.3),
            rsp_pattern(0.5),
            MeasurementPattern(
                n_qubits=6,
                measured=(4, 0, 2),
                thetas=(0.0, 0.3, 0.0),
                alphas=(math.pi / 2,) * 3,
                adapt=(BooleanExpr.zero(), BooleanExpr.of(4), BooleanExpr.zero()),
                byproducts=(
                    ByproductSpec(qubit=1, fx=BooleanExpr.of(4, 2), fz=BooleanExpr.of(0, const=1)),
                    ByproductSpec(qubit=3, fz=BooleanExpr.of(2, 4)),
                    ByproductSpec(qubit=5, fx=BooleanExpr.of(0)),
                ),
            ),
            # No measured qubit: one empty record, whose by-product is the
            # constant part alone.
            MeasurementPattern(
                n_qubits=1,
                measured=(),
                thetas=(),
                alphas=(),
                adapt=(),
                byproducts=(ByproductSpec(qubit=0, fx=BooleanExpr(const=1)),),
            ),
        ],
    )
    def test_matches_byproduct_unitary_on_every_record(self, pat):
        """``byproduct_codes`` row row_of[r] is B X B^dagger with B = BP(r)
        BP(r0), in Liouville order, for every record r and two choices of
        r0; the rows are distinct."""
        rng = np.random.default_rng(11)
        k, m = len(pat.outputs), pat.n_measured
        x = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        rows, row_of = pat.plan.byproducts
        assert len(np.unique(rows.reshape(len(rows), -1), axis=0)) == len(rows)
        for r0 in {0, 2**m - 1}:
            codes = byproduct_codes(pat, liouville(x, k), r0)
            assert codes.shape == (len(rows), 4**k)
            b0 = byproduct_unitary(pat, outcome_tuple(r0, m))
            for r in range(2**m):
                b = byproduct_unitary(pat, outcome_tuple(r, m)) @ b0
                assert np.max(np.abs(codes[row_of[r]] - liouville(b @ x @ b.conj().T, k))) < 1e-15


def liouville(mat, k):
    """The entries of a 2^k x 2^k matrix with each qubit's row bit and
    column bit adjacent, qubits ascending."""
    return mat.reshape((2,) * (2 * k)).transpose([a for j in range(k) for a in (j, k + j)]).reshape(-1)
