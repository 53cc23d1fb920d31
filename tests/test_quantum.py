"""Quantum cycle constructions: models, exact tables, and the gamma search."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import contextuality
from contextuality import (
    Behavior,
    ContextualityError,
    DegenerateParams,
    EvenCycleParams,
    GammaResult,
    InvalidArgument,
    InvalidModel,
    NegativeProbability,
    NotNondisturbing,
    OddCycleParams,
    QuantumModel,
    Scenario,
    behavior_from_model,
    build_even_cycle,
    build_odd_cycle,
    check_hardy_tsirelson,
    check_nondisturbance,
    detect_cycle_paradox,
    evaluate_all,
    hardy_probability,
    make_n_cycle,
    optimize_gamma,
    quantum_bound,
    random_nd_coupling,
    trace_probability,
    validate_model,
)
from contextuality.quantum import (
    GAMMA_NINE_NOTE,
    HARDY_TSIRELSON,
    _cross,
    _cycle_behavior,
    _exact_pairwise_tables,
    _nelder_mead,
    _odd_witness,
)

CABELLO = OddCycleParams(
    n=5,
    eta=(1 / math.sqrt(3),) * 3,
    v3=(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0),
    thetas=(math.pi / 4,),
)


def qubit_scenario() -> Scenario:
    return Scenario(("M1",), {"M1": ("0", "1")}, (("M1",),))


def plus_projectors() -> tuple[np.ndarray, np.ndarray]:
    plus = np.array([1, 1]) / math.sqrt(2)
    minus = np.array([1, -1]) / math.sqrt(2)
    return np.outer(plus, plus), np.outer(minus, minus)


# ======================================================================
# 1. Model validation and Born values
# ======================================================================


class TestValidateModel:
    def make_valid(self) -> tuple[QuantumModel, Scenario]:
        s = qubit_scenario()
        p0, p1 = plus_projectors()
        model = QuantumModel(
            dimension=2, state=np.array([1.0, 0.0], dtype=complex), projectors={"M1": (p0, p1)}
        )
        return model, s

    def test_valid_model_passes(self):
        model, s = self.make_valid()
        validate_model(model, s)

    def test_non_unit_state_rejected(self):
        model, s = self.make_valid()
        bad = QuantumModel(2, np.array([1.0, 1.0], dtype=complex), model.projectors)
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_state_shape_rejected(self):
        model, s = self.make_valid()
        bad = QuantumModel(2, np.eye(2, dtype=complex), model.projectors)
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_missing_family_rejected(self):
        model, s = self.make_valid()
        bad = QuantumModel(2, model.state, {"M9": model.projectors["M1"]})
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_family_size_mismatch_rejected(self):
        model, s = self.make_valid()
        bad = QuantumModel(2, model.state, {"M1": model.projectors["M1"][:1]})
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_non_idempotent_rejected(self):
        model, s = self.make_valid()
        half = np.eye(2) * 0.5
        bad = QuantumModel(2, model.state, {"M1": (half, np.eye(2) - half)})
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_non_hermitian_rejected(self):
        model, s = self.make_valid()
        upper = np.array([[1.0, 1.0], [0.0, 0.0]])
        bad = QuantumModel(2, model.state, {"M1": (upper, np.eye(2) - upper)})
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_incomplete_family_rejected(self):
        model, s = self.make_valid()
        p0, _ = plus_projectors()
        bad = QuantumModel(2, model.state, {"M1": (p0, p0)})
        with pytest.raises(InvalidModel):
            validate_model(bad, s)

    def test_noncommuting_context_rejected(self):
        names = ("M1", "M2")
        s = Scenario(names, {m: ("0", "1") for m in names}, (("M1", "M2"),))
        p0, p1 = plus_projectors()
        z0 = np.diag([1.0, 0.0])
        z1 = np.diag([0.0, 1.0])
        bad = QuantumModel(
            2,
            np.array([1.0, 0.0], dtype=complex),
            {"M1": (z0, z1), "M2": (p0, p1)},
        )
        with pytest.raises(InvalidModel):
            validate_model(bad, s)


class TestTraceProbability:
    def test_plus_measurement_on_zero_state(self):
        s = qubit_scenario()
        p0, p1 = plus_projectors()
        model = QuantumModel(2, np.array([1.0, 0.0], dtype=complex), {"M1": (p0, p1)})
        assert trace_probability(model, s, ("M1",), ("0",)) == pytest.approx(0.5, abs=1e-15)
        assert trace_probability(model, s, ("M1",), ("1",)) == pytest.approx(0.5, abs=1e-15)

    def test_pair_ordering_is_irrelevant_for_commuting_projectors(self):
        model, behavior = build_odd_cycle(CABELLO)
        s = behavior.scenario
        p_fwd = trace_probability(model, s, ("M1", "M2"), ("0", "1"))
        p_rev = trace_probability(model, s, ("M2", "M1"), ("1", "0"))
        assert p_fwd == pytest.approx(p_rev, abs=1e-14)


# ======================================================================
# 2. Float tables to exact nondisturbing tables
# ======================================================================


class TestExactTables:
    def test_behavior_from_model_is_exactly_nondisturbing(self):
        _, behavior = build_odd_cycle(CABELLO)
        assert check_nondisturbance(behavior).ok
        for t in behavior.tables:
            assert sum(t) == 1
            assert all(isinstance(x, Fraction) for x in t)

    def test_non_pairwise_route_renormalizes(self):
        s = qubit_scenario()
        p0, p1 = plus_projectors()
        model = QuantumModel(2, np.array([1.0, 0.0], dtype=complex), {"M1": (p0, p1)})
        b = behavior_from_model(model, s)
        assert b.tables == ((Fraction(1, 2), Fraction(1, 2)),)

    def test_non_pairwise_disturbing_snap_rejected(self):
        # A-B-C with three outcomes each: A and C act on one qutrit factor, B
        # on the other. Snapping each context separately moves B's marginal
        # differently in (A, B) and (B, C).
        rng = np.random.default_rng(1)

        def basis():
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            return [np.outer(q[:, k], q[:, k].conj()) for k in range(3)]

        eye = np.eye(3)
        a, b, c = basis(), basis(), basis()
        psi = rng.normal(size=9) + 1j * rng.normal(size=9)
        projectors = {
            "A": tuple(np.kron(p, eye) for p in a),
            "B": tuple(np.kron(eye, p) for p in b),
            "C": tuple(np.kron(p, eye) for p in c),
        }
        model = QuantumModel(9, psi / np.linalg.norm(psi), projectors)
        labels = ("0", "1", "2")
        s = Scenario(("A", "B", "C"), {m: labels for m in "ABC"}, (("A", "B"), ("B", "C")))
        with pytest.raises(NotNondisturbing, match="exact tables are rebuilt only for dichotomic pair contexts"):
            behavior_from_model(model, s)

    def test_conflicting_pins_rejected(self):
        s = make_n_cycle(3)
        raw = [
            [0.0, 0.0, 0.5, 0.5],  # forces q(M1) = 1
            [0.25, 0.25, 0.25, 0.25],
            [0.5, 0.0, 0.5, 0.0],  # zeros at (0,1),(1,1) force q(M1) = 0
        ]
        with pytest.raises(InvalidModel):
            _exact_pairwise_tables(s, raw, 1e-10)

    def test_odd_anticorrelation_loop_rejected(self):
        # Three pairwise perfect anticorrelations cannot share marginals
        # unless all are 1/2; these floats say 3/10, so propagation clashes.
        s = make_n_cycle(3)
        raw = [
            [0.0, 0.7, 0.3, 0.0],
            [0.0, 0.3, 0.7, 0.0],
            [0.0, 0.7, 0.3, 0.0],
        ]
        with pytest.raises(InvalidModel):
            _exact_pairwise_tables(s, raw, 1e-10)

    def test_pin_contradicting_propagated_marginal_rejected(self):
        s = make_n_cycle(3)
        raw = [
            [0.5, 0.0, 0.0, 0.5],  # perfect correlation: q(M2) = q(M1) = 1/2
            [0.0, 0.0, 0.5, 0.5],  # zeros at (0,0),(0,1) pin q(M2) = 1
            [0.25, 0.25, 0.25, 0.25],
        ]
        with pytest.raises(InvalidModel, match="conflicting marginals for 'M2'"):
            _exact_pairwise_tables(s, raw, 1e-10)

    def test_pinned_marginal_making_cell_negative_rejected(self):
        s = make_n_cycle(3)
        raw = [
            [0.0, 0.0, 0.5, 0.5],  # pins q(M1) = 1
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],  # but context 3 says q(M1) is 1/2
        ]
        with pytest.raises(NegativeProbability):
            _exact_pairwise_tables(s, raw, 1e-10)

    def test_seeded_raw_tables_rebuild_exactly_or_raise(self):
        # Random zero patterns over shuffled n-cycles whose pairs are stored
        # in either order. Raw tables come from an exact coupling (floated,
        # with noise far below eps), from shared float marginals, or from
        # nothing shared at all.
        eps = 1e-10
        rebuilt = 0
        for seed in range(2000):
            rng = random.Random(seed)
            n = rng.randint(3, 7)
            names = tuple(f"M{i}" for i in range(1, n + 1))
            pairs = [(names[i], names[(i + 1) % n]) for i in range(n)]
            pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
            rng.shuffle(pairs)
            s = Scenario(names, {m: ("0", "1") for m in names}, tuple(pairs))
            mode = rng.randrange(3)
            if mode == 0:
                coupling = random_nd_coupling(s, rng)
                raw = [[float(x) + rng.uniform(0, 1e-13) if x else 0.0 for x in t] for t in coupling.tables]
            else:
                q = {m: rng.choice([0.0, 0.5, 1.0, rng.random()]) for m in names}
                raw = []
                for u, v in pairs:
                    qu, qv = q[u], q[v]
                    e = rng.uniform(max(0.0, qu + qv - 1), min(qu, qv))
                    cells = [1 - qu - qv + e, qv - e, qu - e, e] if mode == 1 else [rng.random() for _ in "0123"]
                    raw.append([0.0 if rng.random() < 0.3 or abs(c) <= eps else c for c in cells])
            try:
                tables = _exact_pairwise_tables(s, raw, eps)
            except (InvalidModel, NegativeProbability):
                assert mode != 0, f"seed {seed}: an exact coupling must rebuild"
                continue
            rebuilt += 1
            for t, flo in zip(tables, raw):
                assert sum(t) == 1 and min(t) >= 0, f"seed {seed}: {t}"
                assert all(x == 0 for x, f in zip(t, flo) if f <= eps), f"seed {seed}: {t} vs {flo}"
            assert check_nondisturbance(Behavior(s, tables)).ok, f"seed {seed}"
        assert rebuilt > 600


class TestCycleBehavior:
    def test_promised_zero_that_is_not_zero_names_cell_and_context(self):
        model, _ = build_odd_cycle(CABELLO)
        with pytest.raises(InvalidModel, match=r"expected zero at \(0,1\) of context 2"):
            _cycle_behavior(model, {"n": 5}, [(1, 3), (2, 1)], witness=1)

    def test_witness_cell_of_zero_is_degenerate(self):
        model, _ = build_odd_cycle(CABELLO)
        with pytest.raises(DegenerateParams, match="underflows"):
            _cycle_behavior(model, {"n": 5}, [(1, 3)], witness=3)


# ======================================================================
# 3. Odd cycles
# ======================================================================


class TestOddCycle:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            OddCycleParams(4, (0, 0, 1), (1, 0, 0), ())
        with pytest.raises(ValueError):
            OddCycleParams(3, (0, 0, 1), (1, 0, 0), ())
        with pytest.raises(ValueError):
            OddCycleParams(7, (0, 0, 1), (1, 0, 0), (0.5,))  # needs 2 angles

    def test_params_json(self):
        assert CABELLO.to_json_dict()["n"] == 5
        assert len(CABELLO.to_json_dict()["thetas"]) == 1

    def test_cabello_witness_is_exactly_one_ninth(self):
        _, behavior = build_odd_cycle(CABELLO)
        assert behavior.tables[0][1] == Fraction(1, 9), (
            f"symmetric five-cycle witness should be 1/9, got {behavior.tables[0][1]}"
        )

    @pytest.mark.parametrize("n,thetas", [(5, (0.9,)), (7, (0.8, 1.1)), (9, (0.7, 1.0, 1.3))])
    def test_zero_patterns(self, n, thetas):
        params = OddCycleParams(n, (0.3, 0.2, 0.9), (0.8, 0.1, 0.6), thetas)
        model, behavior = build_odd_cycle(params)
        for ci in range(n):
            assert behavior.tables[ci][3] == 0, f"(1,1) of context {ci + 1} must vanish"
        for j in range(3, n + 1, 2):
            assert behavior.tables[j - 1][0] == 0, f"(0,0) of context {j} must vanish"
        assert check_nondisturbance(behavior).ok
        cert = detect_cycle_paradox(behavior)
        assert cert is not None and cert.base_context_index == 1

    def test_witness_matches_trace(self):
        model, behavior = build_odd_cycle(CABELLO)
        s = behavior.scenario
        raw = trace_probability(model, s, s.contexts[0], ("0", "1"))
        assert abs(raw - float(behavior.tables[0][1])) < 1e-10

    @pytest.mark.parametrize(
        "params",
        [
            OddCycleParams(5, (0, 0, 1), (1, 0, 0), (0.5,)),  # v3 orthogonal to state
            OddCycleParams(5, (0, 0, 1), (0, 0, 1), (0.5,)),  # v3 parallel to state
            OddCycleParams(5, (0, 0, 1), (0.6, 0, 0.8), (0.0,)),  # angle multiple of pi
            OddCycleParams(5, (0, 0, 0), (1, 0, 0), (0.5,)),  # zero state
        ],
        ids=["orthogonal-seed", "parallel-seed", "flat-angle", "zero-state"],
    )
    def test_degenerate_params_rejected(self, params):
        with pytest.raises(DegenerateParams):
            build_odd_cycle(params)

    @pytest.mark.parametrize(
        "eta, v3, thetas, message",
        [
            ((math.nan, 1, 0), (1, 0, 0), (0.5,), "eta must be finite"),
            ((0, 0, 1), (math.inf, 1, 1), (0.5,), "v3 must be finite"),
            ((0, 0, 1), (0.6, 0, 0.8), (-math.inf,), "thetas must be finite"),
            ((1, 0), (0.6, 0, 0.8), (0.5,), "eta must have 3 entries for n=5, got 2"),
            ((0, 0, 1), (0.6, 0, 0.8, 0), (0.5,), "v3 must have 3 entries for n=5, got 4"),
            ((0, 0, 1), (0.6, 0, 0.8), (0.5, 0.5), "thetas must have 1 entries for n=5, got 2"),
        ],
    )
    def test_params_reject_bad_entries(self, eta, v3, thetas, message):
        # rejected before any float reaches the builder's Fraction snapping
        with pytest.raises(InvalidArgument, match=message):
            OddCycleParams(5, eta, v3, thetas)


# ======================================================================
# 4. Even cycles
# ======================================================================


class TestEvenCycle:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            EvenCycleParams(5, 0.3)
        with pytest.raises(ValueError):
            EvenCycleParams(2, 0.3)
        with pytest.raises(DegenerateParams):
            EvenCycleParams(4, 0.0)
        with pytest.raises(DegenerateParams):
            EvenCycleParams(4, math.pi / 4)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_zero_patterns_and_witness(self, n):
        alpha = 0.35
        model, behavior = build_even_cycle(EvenCycleParams(n, alpha))
        half = n // 2
        for i in range(2, half + 1):
            assert behavior.tables[i - 1][2] == 0, f"(1,0) of context {i} must vanish"
        assert behavior.tables[half][3] == 0, f"(1,1) of context {half + 1} must vanish"
        for i in range(half + 2, n + 1):
            assert behavior.tables[i - 1][1] == 0, f"(0,1) of context {i} must vanish"
        assert check_nondisturbance(behavior).ok
        witness = float(behavior.tables[0][3])
        assert witness == pytest.approx(hardy_probability(n, alpha), abs=1e-9)

    def test_witness_position_carries_paradox(self):
        _, behavior = build_even_cycle(EvenCycleParams(4, 0.3))
        cert = detect_cycle_paradox(behavior)
        assert cert is not None
        assert cert.base_context_index == 1
        assert cert.witness_pair == ("1", "1")

    def test_stays_below_quantum_bound(self):
        for n in (4, 6):
            _, behavior = build_even_cycle(EvenCycleParams(n, 0.4))
            r = evaluate_all(behavior)
            assert float(r.max_value) <= quantum_bound(n) + 1e-9


class TestHardyProbability:
    def test_endpoints_vanish(self):
        assert hardy_probability(4, 0.0) == 0.0
        assert hardy_probability(4, math.pi / 4) == pytest.approx(0.0, abs=1e-15)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            hardy_probability(5, 0.3)

    def test_closed_form_unchanged_where_finite(self):
        alphas = [k * math.pi / 64 for k in range(1, 32)] + [math.pi / 4 - 1e-9, 0.3, 1.2]
        for n in range(4, 65, 2):
            for a in alphas:
                c, s = math.cos(a), math.sin(a)
                old = ((c * s ** (n - 1) - s * c ** (n - 1)) / (c ** (n - 1) + s ** (n - 1))) ** 2
                assert hardy_probability(n, a) == old, (n, a)

    @pytest.mark.parametrize("n", [2000, 3000, 10**4, 10**5])
    def test_long_cycles_do_not_underflow(self, n):
        # cos^(n-1) and sin^(n-1) both underflow near pi/4 for large n
        for a in [0.3, 0.7, math.pi / 4 - 1e-6, math.pi / 4, 0.9, 1.3]:
            value = hardy_probability(n, a)
            assert math.isfinite(value) and 0 <= value <= 1, (n, a, value)
        assert hardy_probability(n, 0.5) == pytest.approx(math.sin(0.5) ** 2)
        assert hardy_probability(n, 1.0) == pytest.approx(math.cos(1.0) ** 2)

    def test_peak_value_is_the_four_cycle_ceiling(self):
        # max over alpha of the n=4 closed form equals (5*sqrt(5)-11)/2.
        alphas = np.linspace(1e-6, math.pi / 4 - 1e-6, 20001)
        peak = max(hardy_probability(4, a) for a in alphas)
        assert peak == pytest.approx(HARDY_TSIRELSON, abs=1e-6)


# ======================================================================
# 5. Gamma optimization
# ======================================================================


class TestOptimizeGamma:
    def test_even_four_hits_closed_form_ceiling(self):
        res = optimize_gamma(4)
        assert res.gamma == pytest.approx(HARDY_TSIRELSON, abs=1e-9)
        assert isinstance(res.params, EvenCycleParams)
        assert check_hardy_tsirelson(res.gamma)

    def test_odd_five_hits_one_ninth(self):
        res = optimize_gamma(5, restarts=8, seed=0)
        assert res.gamma == pytest.approx(1 / 9, abs=1e-6)
        assert isinstance(res.params, OddCycleParams)
        assert len(res.trace) == 8
        _, behavior = build_odd_cycle(res.params)
        assert abs(float(behavior.tables[0][1]) - res.gamma) < 1e-6

    def test_even_six_beats_four(self):
        g4 = optimize_gamma(4).gamma
        g6 = optimize_gamma(6).gamma
        assert g6 > g4, "longer even cycles reach larger paradox probability"

    def test_json_shape(self):
        d = optimize_gamma(4).to_json_dict()
        assert set(d) == {"n", "gamma", "params", "trace", "notes"}
        assert d["params"]["n"] == 4

    def test_nine_carries_note(self):
        res = optimize_gamma(9, restarts=1, seed=0)
        assert res.notes, "the n=9 result must flag its closed-form comparison"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            optimize_gamma(3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_negative_seed_rejected(self, n):
        # numpy's generator would refuse it with a ValueError of its own
        with pytest.raises(InvalidArgument, match="seed must be non-negative, got -1"):
            optimize_gamma(n, restarts=1, seed=-1)

    def test_argument_errors_are_value_errors_too(self):
        for call in (lambda: optimize_gamma(3), lambda: EvenCycleParams(5, 0.3), lambda: hardy_probability(3, 0.3)):
            with pytest.raises(InvalidArgument) as err:
                call()
            assert isinstance(err.value, ValueError) and isinstance(err.value, ContextualityError)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, n, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            optimize_gamma(n, restarts=1, tol=tol)

    def test_package_import_leaves_scipy_unloaded(self):
        code = (
            "import sys, contextuality as c\n"
            "loaded = ['scipy' in sys.modules]\n"
            "c.optimize_gamma(5, restarts=1)\n"
            "c.build_odd_cycle(c.OddCycleParams(5, (0, 0, 1), (0.6, 0, 0.8), (0.7,)))\n"
            "loaded.append('scipy' in sys.modules)\n"
            "print(loaded)\n"
        )
        src = str(Path(contextuality.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[False, False]", (
            "scipy loaded by: import contextuality, optimize_gamma or build_odd_cycle"
        )

    # optimize_gamma(n, restarts, seed).to_json_dict(), as computed by scipy's Nelder-Mead
    PINNED = {
        (5, 2, 7): {
            "n": 5, "gamma": 0.1111111111111114,
            "params": {"n": 5, "eta": [0.0, 0.0, 1.0], "v3": [0.5773502719192347, 0.0, 0.816496578997601],
                       "thetas": [-2.3561944963024066]},
            "trace": [[0, 0.11111111111111133], [1, 0.1111111111111114]], "notes": [],
        },
        (7, 1, 3): {
            "n": 7, "gamma": 0.20000000000000048,
            "params": {"n": 7, "eta": [0.0, 0.0, 1.0], "v3": [0.5773502633907297, 0.0, 0.8164965850281647],
                       "thetas": [-2.617993889473621, 3.7570723537123936]},
            "trace": [[0, 0.20000000000000048]], "notes": [],
        },
        (9, 1, 11): {
            "n": 9, "gamma": 0.25737122778180616,
            "params": {"n": 9, "eta": [0.0, 0.0, 1.0], "v3": [0.5883835540626806, 0.0, 0.8085819644962213],
                       "thetas": [0.40397412334531124, 0.4522784437248786, -2.6463188563128037]},
            "trace": [[0, 0.25737122778180616]], "notes": [GAMMA_NINE_NOTE],
        },
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_odd_results(self, key):
        n, restarts, seed = key
        assert optimize_gamma(n, restarts=restarts, seed=seed).to_json_dict() == self.PINNED[key]

    def test_import_and_numpy_free_commands_leave_numpy_unloaded(self, tmp_path):
        hardy = str(tmp_path / "hardy.json")
        code = (
            "import contextlib, io, sys\n"
            "from contextuality import cli\n"
            "loaded = ['numpy' in sys.modules]\n"
            f"for argv in (['fixtures', '--name', 'hardy', '--out', {hardy!r}],\n"
            f"             ['pp', 'find', '--behavior', {hardy!r}],\n"
            f"             ['ineq', '--behavior', {hardy!r}]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.run(argv) == 0, argv\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "print(loaded)\n"
        )
        src = str(Path(contextuality.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[False, False, False, False]", (
            "numpy loaded by: import contextuality, fixtures, pp find, ineq"
        )

    def test_lc_witness_and_bell_pp_find_leave_numpy_unloaded(self, tmp_path):
        bell = str(tmp_path / "bell.json")
        code = (
            "import contextlib, io, random, sys\n"
            "import contextuality as c\n"
            "from contextuality import cli\n"
            "rng = random.Random(0)\n"
            "loaded = []\n"
            "for k in (2, 3, 4):\n"
            "    b = c.collapse(c.random_nd_coupling(c.make_bipartite_bell(k, 2), rng))\n"
            "    c.is_logically_contextual(b)\n"
            "    loaded.append('numpy' in sys.modules)\n"
            "c.is_logically_contextual(c.random_pnd(c.make_n_cycle(14, 3), rng))\n"
            "loaded.append('numpy' in sys.modules)\n"
            f"c.save_behavior(c.random_nd_coupling(c.make_bipartite_bell(3, 2), rng), {bell!r})\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.run(['pp', 'find', '--behavior', {bell!r}]) in (0, 1)\n"
            "loaded.append('numpy' in sys.modules)\n"
            "print(loaded)\n"
        )
        src = str(Path(contextuality.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[False, False, False, False, False]", (
            "numpy loaded by: lc on Bell (2, 2), (3, 2), (4, 2), lc on a 14-cycle, pp find on Bell (3, 2)"
        )

    def test_tsirelson_check_rejects_excess(self):
        assert check_hardy_tsirelson(HARDY_TSIRELSON)
        assert not check_hardy_tsirelson(HARDY_TSIRELSON + 1e-6)
        with pytest.raises(ValueError):
            check_hardy_tsirelson(0.1, n=5)


class TestNelderMead:
    """_nelder_mead replays scipy's Nelder-Mead bit for bit."""

    @staticmethod
    def _scipy(f, x0, options):
        res = minimize(f, x0, method="Nelder-Mead", options=options)
        return res.x, res.fun

    @pytest.mark.parametrize("n", [5, 7, 9])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gamma_objective_matches_scipy(self, n, seed):
        rng = np.random.default_rng(seed)
        x0 = np.concatenate([[rng.uniform(0.1, math.pi / 2)], rng.uniform(-math.pi, math.pi, (n - 3) // 2)])
        f = lambda x: -_odd_witness(n, x[0], x[1:])  # noqa: E731
        options = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}
        x, fun = _nelder_mead(f, x0, **options)
        want_x, want_fun = self._scipy(f, x0, options)
        assert x.tobytes() == want_x.tobytes() and fun == want_fun

    @staticmethod
    def _terrace(x):
        return float(np.floor(10 * np.sum((x - 0.3) ** 2))) + 1e-3 * float(np.sum(x**2))

    @staticmethod
    def _stepped_bowl(x):
        return float(np.floor(4 * np.sum(np.abs(x - 0.3)))) + float(np.sum((x - 0.1) ** 2))

    # From [0, -0.2, -0.4] the terrace takes expansions, rejected expansions,
    # reflections, both contractions and shrinks after each; maxiter=25 stops
    # on the count. The other two starts meet a shrink whose rounding matters
    # and an expansion that ties its reflection.
    @pytest.mark.parametrize(
        "f, x0, maxiter",
        [
            ("_terrace", [0.0, -0.2, -0.4], 4000),
            ("_terrace", [0.0, -0.2, -0.4], 25),
            ("_terrace", [1.1, 0.0, -0.1], 4000),
            ("_stepped_bowl", [0.0, 1.6, 0.9, -0.4], 4000),
        ],
    )
    def test_every_step_matches_scipy(self, f, x0, maxiter):
        f, x0 = getattr(self, f), np.array(x0)
        options = {"xatol": 1e-8, "fatol": 1e-10, "maxiter": maxiter}
        x, fun = _nelder_mead(f, x0, **options)
        want_x, want_fun = self._scipy(f, x0, options)
        assert x.tobytes() == want_x.tobytes() and fun == want_fun

    def test_cross_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
            a = rng.standard_normal((400, 3)) * scale
            b = rng.standard_normal((400, 3)) * scale
            a[::7, rng.integers(3)] = 0.0
            b[::5, rng.integers(3)] = -0.0
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at 1e300
                for u, v in zip(a, b):
                    assert _cross(u, v).tobytes() == np.cross(u, v).tobytes(), (u, v)
