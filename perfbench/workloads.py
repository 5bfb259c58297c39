"""The workloads: inputs made from a seed, one operation per sweep point,
and the check of each answer against ``reference``.

A workload holds one round of points.  Every run repeats whole rounds of the
same points, so the mix of operations is the same in every run.  An
operation builds its point's channels and calls into ``onewaysim`` through
module attributes, so that a traced run sees the calls.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from onewaysim import channels, correlations, fidelity, graphstate, linalg, oracle, pattern

ATOL = 1e-9
# Nelder-Mead stops at xatol = fatol = 1e-6 (the default of ``mep``); the
# package's own MEP tests hold the value to 1e-4.
MEP_ATOL = 1e-4


def _random_qubit(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _jittered_grid(rng, count: int, step: float) -> list[float]:
    """One exposure time inside each cell [k step, (k + 1) step)."""
    return [(k + rng.uniform(0.2, 0.8)) * step for k in range(count)]


def _record_keys(m: int) -> list[tuple[int, ...]]:
    return [tuple((r >> (m - 1 - j)) & 1 for j in range(m)) for r in range(2**m)]


def chain_pattern(thetas) -> pattern.MeasurementPattern:
    """Adaptive cluster chain 0-1-...-m: vertex j is measured with its angle's
    sign flipped by the outcomes at odd distance before it; the output m
    carries X from outcomes at odd distance and Z from those at even
    distance."""
    m = len(thetas)
    odd = lambda j: tuple(range(j - 1, -1, -2))
    even = lambda j: tuple(range(j - 2, -1, -2))
    return pattern.MeasurementPattern(
        n_qubits=m + 1,
        measured=tuple(range(m)),
        thetas=tuple(float(x) for x in thetas),
        alphas=(math.pi / 2,) * m,
        adapt=tuple(pattern.BooleanExpr.of(*odd(j)) for j in range(m)),
        byproducts=(
            pattern.ByproductSpec(
                qubit=m, fx=pattern.BooleanExpr.of(*odd(m)), fz=pattern.BooleanExpr.of(*even(m))
            ),
        ),
    )


class Workload:
    """One round of sweep points; subclasses define the operation and check."""

    points: list
    SETUPS = 5  # set-ups per run: this process and fresh ones

    def op(self, point):
        raise NotImplementedError

    def reference(self, point):
        raise NotImplementedError

    def check(self, point, result, expected) -> str | None:
        """None when ``result`` agrees with ``expected``, else the reason."""
        raise NotImplementedError


class _ChainSweep(Workload):
    """Random adaptive chains with shifted general noise on every vertex,
    swept over t."""

    m: int
    n_chains: int
    n_times: int

    def __init__(self, seed: int, stream: int):
        rng = np.random.default_rng([seed, stream])
        m = self.m
        self.keys = _record_keys(m)
        self.chains = []
        for _ in range(self.n_chains):
            thetas = rng.uniform(0.0, 2.0 * math.pi, size=m)
            psi = _random_qubit(rng)
            params = []
            for _ in range(m + 1):
                B = rng.uniform(0.2, 1.5)
                # C >= B/2 keeps the map completely positive; S != 1/2 shifts
                # the fixed point, so the answer noise is not a Pauli mixture.
                params.append((B, B / 2 + rng.uniform(0.3, 1.5), rng.uniform(0.65, 0.95)))
            resource = graphstate.resource_state(
                graphstate.Graph.path(m + 1), {0: linalg.PureState(psi)}
            )
            self.chains.append((thetas, psi, params, chain_pattern(thetas), resource))
        times = _jittered_grid(rng, self.n_times, 0.9 / self.n_times)
        self.points = [(c, t) for c in range(self.n_chains) for t in times]

    def _channels(self, point) -> dict[int, channels.NoiseChannel]:
        chain, t = point
        params = self.chains[chain][2]
        return {q: channels.NoiseChannel(B=B, C=C, S=S, t=t) for q, (B, C, S) in enumerate(params)}

    def reference(self, point):
        chain, t = point
        thetas, psi, params, _, _ = self.chains[chain]
        return ref.chain_reference(psi, thetas, params, t)

    def _compare(self, z, f, expected) -> str | None:
        z_ref, f_ref = expected
        if any(x is None for x in f):
            return "a reachable record has no fidelity"
        dz = float(np.max(np.abs(np.asarray(z) - z_ref)))
        df = float(np.max(np.abs(np.asarray(f, dtype=float) - f_ref)))
        if dz > ATOL or df > ATOL:
            return f"max |dZ| = {dz:.3e}, max |dF| = {df:.3e} against the density-matrix reference"
        return None


class AdaptiveSweep(_ChainSweep):
    """fidelity_adaptive on 7-qubit chains (m = 6)."""

    m, n_chains, n_times = 6, 2, 4

    def __init__(self, seed: int):
        super().__init__(seed, 1)

    def op(self, point):
        chans = self._channels(point)
        _, _, _, pat, resource = self.chains[point[0]]
        measured = {q: chans[q] for q in range(self.m)}
        return fidelity.fidelity_adaptive(pat, resource, measured, {self.m: chans[self.m]})

    def check(self, point, result, expected):
        rows = [result.per_outcome[k] for k in self.keys]
        return self._compare([z for z, _ in rows], [f for _, f in rows], expected)


class OracleCheck(_ChainSweep):
    """oracle.simulate on 6-qubit chains (m = 5)."""

    m, n_chains, n_times = 5, 4, 6

    def __init__(self, seed: int):
        super().__init__(seed, 3)

    def op(self, point):
        _, _, _, pat, resource = self.chains[point[0]]
        return oracle.simulate(resource, pat, self._channels(point))

    def check(self, point, result, expected):
        z = [result.branches.get(k, (0.0, None))[0] for k in self.keys]
        f = [result.fidelities.get(k) for k in self.keys]
        return self._compare(z, f, expected)


class Cnot15Sweep(Workload):
    """fidelity_nonadaptive on the paper's 15-qubit CNOT; a fresh product
    input per point and phase-flip or white noise on all 15 qubits."""

    GAMMA = 0.25

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        bx = lambda support, const=0: pattern.BooleanExpr.of(*support, const=const)
        self.graph = graphstate.Graph.from_edges(15, ref.CNOT15_EDGES)
        self.pattern = pattern.MeasurementPattern(
            n_qubits=15,
            measured=ref.CNOT15_MEASURED,
            thetas=tuple(math.pi / 2 if q in ref.CNOT15_Y else 0.0 for q in ref.CNOT15_MEASURED),
            alphas=(math.pi / 2,) * 13,
            adapt=(pattern.BooleanExpr.zero(),) * 13,
            byproducts=(
                pattern.ByproductSpec(qubit=6, fx=bx(ref.CNOT15_FX6), fz=bx(ref.CNOT15_FZ6, 1)),
                pattern.ByproductSpec(qubit=14, fx=bx(ref.CNOT15_FX14), fz=bx(ref.CNOT15_FZ14)),
            ),
        )
        # Zero noise once per round, then three exposure times per model.
        sweep = [("pf", 0.0)]
        for kind in ("pf", "white"):
            sweep += [(kind, t) for t in _jittered_grid(rng, 3, 0.15)]
        self.points = [(kind, t, _random_qubit(rng), _random_qubit(rng)) for kind, t in sweep]

    def op(self, point):
        kind, t, psi_c, psi_t = point
        inputs = {0: linalg.PureState(psi_c), 8: linalg.PureState(psi_t)}
        resource = graphstate.resource_state(self.graph, inputs)
        make = channels.NoiseChannel.phase_flip if kind == "pf" else channels.NoiseChannel.white
        chans = {q: make(self.GAMMA, t) for q in range(15)}
        measured = {q: chans[q] for q in ref.CNOT15_MEASURED}
        return fidelity.fidelity_nonadaptive(self.pattern, resource, measured, {6: chans[6], 14: chans[14]})

    def reference(self, point):
        kind, t, psi_c, psi_t = point
        if t == 0.0:
            return 1.0, ref.cnot15_zero_noise_error(psi_c, psi_t)
        B, C = (0.0, 2.0 * self.GAMMA) if kind == "pf" else (4.0 * self.GAMMA, 4.0 * self.GAMMA)
        return ref.cnot15_noisy_fidelity(psi_c, psi_t, B, C, t), 0.0

    def check(self, point, result, expected):
        f_ref, branch_error = expected
        if branch_error > ATOL:
            return f"noiseless branches differ from BP(r) CNOT|psi> by {branch_error:.3e}"
        rows = np.array(list(result.per_outcome.values()), dtype=float)
        if rows.shape != (2**13, 2):
            return f"report holds {rows.shape} instead of 8192 (Z, F) records"
        dz = float(np.max(np.abs(rows[:, 0] * 2**13 - 1.0)))
        df = float(np.max(np.abs(rows[:, 1] - f_ref)))
        if dz > ATOL or df > ATOL:
            return f"max |2^13 Z - 1| = {dz:.3e}, max |dF| = {df:.3e} against the flip enumeration"
        return None


class RspSweep(Workload):
    """RSP fidelity beside the entanglement and discord of the two-qubit
    graph state with noise on its measured qubit, one (model, t, angle) point
    per operation; discord takes its Bell-diagonal closed form."""

    GAMMA = 1.0
    MEASURES = ("rsp_fidelity", "concurrence", "negativity", "discord")

    def __init__(self, seed: int, stream: int = 5):
        rng = np.random.default_rng([seed, stream])
        self.resource = graphstate.build_graph_state(graphstate.Graph.from_edges(2, [(0, 1)]))
        self.density = self.resource.state.density()
        # The paper's comparison: a phase-flip point with more concurrence
        # but lower RSP fidelity than a white-noise point.  With
        # b = e^{-4 gamma t_w}, any e^{-2 gamma t_pf} in ((3b - 1)/2, b) has it.
        # The cells are narrow because MEP's cost depends on t for phase flip.
        t_w = rng.uniform(0.10, 0.12)
        b = math.exp(-4.0 * self.GAMMA * t_w)
        lower = (3.0 * b - 1.0) / 2.0
        t_pf = -math.log(lower + rng.uniform(0.4, 0.6) * (b - lower)) / (2.0 * self.GAMMA)
        sweep = [("white", t_w), ("pf", t_pf)] + self._more_times(rng)
        self.points = [(kind, t, rng.uniform(0.0, 2.0 * math.pi)) for kind, t in sweep]
        self.claim = (self.points[1], self.points[0])  # (phase flip, white)

    def _more_times(self, rng) -> list[tuple[str, float]]:
        # Three times per model over [0, 0.6); white noise kills the
        # entanglement from t = ln(3) / 4 on, while discord stays.
        return [(kind, t) for kind in ("pf", "white") for t in _jittered_grid(rng, 3, 0.2)]

    def _correlations(self, rho) -> dict[str, float]:
        return {
            "concurrence": correlations.concurrence(rho),
            "negativity": correlations.negativity(rho, (0,)),
            "discord": correlations.discord(rho),
        }

    def op(self, point):
        kind, t, theta = point
        make = channels.NoiseChannel.phase_flip if kind == "pf" else channels.NoiseChannel.white
        ch = make(self.GAMMA, t)
        rsp = pattern.MeasurementPattern(
            n_qubits=2,
            measured=(0,),
            thetas=(theta,),
            alphas=(math.pi / 2,),
            adapt=(pattern.BooleanExpr.zero(),),
            byproducts=(pattern.ByproductSpec(qubit=1, fx=pattern.BooleanExpr.of(0)),),
        )
        rho = channels.apply(ch, self.density, 0)
        return {
            "rsp_fidelity": fidelity.fidelity_nonadaptive(rsp, self.resource, {0: ch}).average,
            **self._correlations(rho),
        }

    def reference(self, point):
        kind, t, _ = point
        expected = {"own": ref.two_qubit_closed_forms(kind, self.GAMMA, t)}
        if point is self.claim[0]:
            kind_w, t_w, _ = self.claim[1]
            expected["white_partner"] = ref.two_qubit_closed_forms(kind_w, self.GAMMA, t_w)
        return expected

    def check(self, point, result, expected):
        own = expected["own"]
        for name in self.MEASURES:
            tol = MEP_ATOL if name == "mep" else ATOL
            if abs(result[name] - own[name]) > tol:
                return f"{name} = {result[name]!r}, closed form {own[name]!r}"
        partner = expected.get("white_partner")
        if partner is not None and not (
            result["concurrence"] > partner["concurrence"]
            and result["rsp_fidelity"] < partner["rsp_fidelity"]
        ):
            return "phase-flip point does not beat the white point in concurrence while losing in RSP fidelity"
        return None


class CorrelationSweep(RspSweep):
    """The same comparison with discord by optimizer and MEP, whose searches
    take about 2 s per point."""

    MEASURES = RspSweep.MEASURES + ("mep",)
    # A set-up holds a 2-s warm-up operation, so a run makes fewer of them.
    SETUPS = 3

    def __init__(self, seed: int):
        super().__init__(seed, 4)

    def _more_times(self, rng):
        return [("white", rng.uniform(0.50, 0.55))]  # after entanglement sudden death

    def _correlations(self, rho):
        return {
            "concurrence": correlations.concurrence(rho),
            "negativity": correlations.negativity(rho, (0,)),
            "discord": correlations.discord(rho, method="optimize"),
            "mep": correlations.mep(rho),
        }


WORKLOADS = {
    "adaptive_sweep": AdaptiveSweep,
    "cnot15_sweep": Cnot15Sweep,
    "oracle_check": OracleCheck,
    "rsp_sweep": RspSweep,
    "correlation_sweep": CorrelationSweep,
}
