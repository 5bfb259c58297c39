import math

import numpy as np
import pytest

from onewaysim.graphstate import Graph, build_graph_state, resource_state
from onewaysim.linalg import PureState, X, Z, kron_all
from onewaysim.pattern import (
    BooleanExpr,
    ByproductSpec,
    MeasurementPattern,
    apply_byproducts,
    basis_vector,
    branch_answers,
    byproduct_unitary,
    ideal_answers,
    outcome_tuple,
)


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
            ByproductSpec(
                qubit=4,
                fx=BooleanExpr.of(3, 1),
                fz=BooleanExpr.of(2, 0),
                fsig=BooleanExpr(and2=((2, 1),)),
            ),
        ),
    )


def euler_rotation(p1, p2, p3):
    def rx(phi):
        return np.cos(phi / 2) * np.eye(2) - 1j * np.sin(phi / 2) * X

    def rzm(phi):
        return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])

    return rx(p3) @ rzm(p2) @ rx(p1)


class TestBooleanExpr:
    def test_xor_parity_normalization(self):
        e = BooleanExpr(xor=(1, 1, 2))
        assert e.xor == (2,)

    def test_evaluate_with_monomial(self):
        e = BooleanExpr(const=1, xor=(0,), and2=((1, 2),))
        assert e.evaluate({0: 1, 1: 1, 2: 1}) == 1
        assert e.evaluate({0: 0, 1: 1, 2: 1}) == 0
        assert e.evaluate({0: 0, 1: 1, 2: 0}) == 1

    def test_evaluate_columns_matches_scalar(self):
        e = BooleanExpr(const=1, xor=(0, 2), and2=((1, 2),))
        rng = np.random.default_rng(0)
        cols = {q: rng.integers(0, 2, size=40).astype(np.uint8) for q in range(3)}
        vec = e.evaluate_columns(cols)
        for row in range(40):
            bits = {q: int(cols[q][row]) for q in range(3)}
            assert vec[row] == e.evaluate(bits)

    def test_degree_three_rejected(self):
        with pytest.raises(ValueError, match="degree > 2"):
            BooleanExpr.from_json({"and2": [[0, 1, 2]]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown expression fields"):
            BooleanExpr.from_json({"xor3": [0]})

    def test_json_round_trip(self):
        e = BooleanExpr(const=1, xor=(3, 1), and2=((2, 1),))
        assert BooleanExpr.from_json(e.to_json()) == e


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

    def test_json_round_trip(self):
        pat = rotation_pattern(0.3, 0.6, 0.9)
        again = MeasurementPattern.from_json(pat.to_json())
        assert again == pat


class TestBasisVector:
    def test_x_eigenvector(self):
        v = basis_vector(0.0, math.pi / 2, 0, 0)
        assert np.allclose(v.amplitudes, [1, 1] / np.sqrt(2))

    def test_z_direction(self):
        v = basis_vector(1.234, 0.0, 0, 0)
        assert np.allclose(v.amplitudes, [1, 0])

    def test_adapted_phase(self):
        v = basis_vector(math.pi / 2, math.pi / 2, 1, 1)
        expect = np.array([1.0, -np.exp(1j * math.pi / 2)]) / np.sqrt(2)
        assert np.max(np.abs(v.amplitudes - expect)) < 1e-12

    def test_orthonormal(self):
        v0 = basis_vector(0.7, math.pi / 2, 1, 0).amplitudes
        v1 = basis_vector(0.7, math.pi / 2, 1, 1).amplitudes
        assert abs(np.vdot(v0, v1)) < 1e-12


class TestIdealAnswers:
    def test_rsp_branches(self):
        phi = 1.1
        gs = build_graph_state(Graph.from_edges(2, [(0, 1)]))
        answers = ideal_answers(gs, rsp_pattern(phi))
        target = np.array([np.cos(phi / 2), -1j * np.sin(phi / 2)])
        for k in (0, 1):
            prob, state = answers[(k,)]
            assert abs(prob - 0.5) < 1e-10
            expect = np.linalg.matrix_power(X, k) @ target
            assert abs(abs(np.vdot(expect, state.amplitudes)) - 1.0) < 1e-10

    def test_isolated_plus_z_measurement(self):
        pat = MeasurementPattern(
            n_qubits=2,
            measured=(0,),
            thetas=(0.0,),
            alphas=(0.0,),
            adapt=(BooleanExpr.zero(),),
        )
        answers = ideal_answers(resource_state(Graph(2, ())), pat)
        assert abs(answers[(0,)][0] - 0.5) < 1e-12
        assert abs(answers[(1,)][0] - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self):
        pat = rotation_pattern(0.4, 1.3, 2.1)
        resource = resource_state(Graph.path(5))
        ans = branch_answers(resource, pat)
        assert abs(ans.probs.sum() - 1.0) < 1e-10

    def test_rotation_reproduces_euler_rotation(self):
        rng = np.random.default_rng(9)
        p1, p2, p3 = rng.uniform(0, 2 * np.pi, size=3)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi_in = PureState(v / np.linalg.norm(v))
        pat = rotation_pattern(p1, p2, p3)
        resource = resource_state(Graph.path(5), {0: psi_in})
        answers = ideal_answers(resource, pat)
        ref0 = euler_rotation(p1, p2, p3) @ psi_in.amplitudes
        for idx in range(16):
            key = outcome_tuple(idx, 4)
            prob, state = answers[key]
            assert abs(prob - 1 / 16) < 1e-10
            expect = byproduct_unitary(pat, key) @ ref0
            fid = abs(np.vdot(expect, state.amplitudes)) ** 2
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
        # Outcomes (k1..k4) = (0,1,1,0): sign -1, X from k2, Z from k3.
        pat = rotation_pattern(0.1, 0.2, 0.3)
        u = byproduct_unitary(pat, (0, 1, 1, 0))
        assert np.allclose(u, -(X @ Z))

    def test_multi_qubit_outputs(self):
        pat = MeasurementPattern(
            n_qubits=4,
            measured=(0, 1),
            thetas=(0.0, 0.0),
            alphas=(math.pi / 2,) * 2,
            adapt=(BooleanExpr.zero(),) * 2,
            byproducts=(
                ByproductSpec(qubit=2, fx=BooleanExpr.of(0)),
                ByproductSpec(qubit=3, fz=BooleanExpr.of(1), fsig=BooleanExpr(const=1)),
            ),
        )
        u = byproduct_unitary(pat, (1, 1))
        assert np.allclose(u, -kron_all([X, Z]))


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
                    ByproductSpec(qubit=3, fz=BooleanExpr.of(2, 4), fsig=BooleanExpr(and2=((0, 4),))),
                    ByproductSpec(qubit=5, fx=BooleanExpr.of(0), fsig=BooleanExpr.of(2, const=1)),
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
                byproducts=(ByproductSpec(qubit=0, fx=BooleanExpr(const=1), fsig=BooleanExpr(const=1)),),
            ),
        ],
    )
    def test_matches_byproduct_unitary_on_every_record(self, pat):
        rng = np.random.default_rng(11)
        d = 2 ** len(pat.outputs)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        rows = apply_byproducts(pat, vec)
        m = pat.n_measured
        assert rows.shape == (2**m, d)
        for r in range(2**m):
            expect = byproduct_unitary(pat, outcome_tuple(r, m)) @ vec
            assert np.max(np.abs(rows[r] - expect)) < 1e-15
