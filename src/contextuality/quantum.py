"""Quantum models on small Hilbert spaces and the cycle constructions whose
behaviors carry possibilistic paradoxes.

A model is a pure state plus one projective measurement per scenario
measurement; context probabilities are Born-rule traces of projector
products, which is well defined because projectors of compatible
measurements commute. The two families built here live on an n-cycle:

* odd n: real rank-1 projectors |v_i><v_i| in dimension 3, consecutive
  vectors orthogonal, built from a seed vector and a ladder of rotations;
  outcome "1" means the projector fires. The paradox witness is p_1(0,1).
* even n: a two-qubit state with Schmidt angle alpha and rank-2 projectors
  |p_k><p_k| x I and I x |q_k><q_k| placed around the cycle so neighbours
  act on different factors; outcome "1" means the projector does NOT fire
  (with the firing convention the promised zero pattern is unattainable,
  so the complement labeling is part of the construction). The witness is
  p_1(1,1), with a closed form in alpha.

Float Born probabilities are converted to exact rational tables in a way
that preserves nondisturbance exactly: each measurement gets one rational
marginal, contexts with two structural zeros pin the relation between their
marginals, and every cell is rebuilt from the marginals, so overlapping
contexts agree by construction rather than by rounding luck.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .behavior import Behavior, joint_outcomes, require_nondisturbing
from .errors import DegenerateParams, InvalidArgument, InvalidModel, NegativeProbability, NotNondisturbing, shown
from .errors import require_ints
from .lazy import Deferred
from .scenario import Scenario, make_n_cycle

np = Deferred("numpy", globals(), "np")

EPS = 1e-10
# Snapping floor ~1/(2*SNAP_DENOMINATOR) must sit below EPS, or a marginal
# that survives the zero clamp can still round to 0 and erase a small but
# genuine paradox probability.
SNAP_DENOMINATOR = 10**12
HARDY_TSIRELSON = (5 * math.sqrt(5) - 11) / 2


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """A pure state and one projective measurement per measurement label.

    projectors[m][k] is the projector for outcome index k of measurement m;
    each family sums to the identity and commutes with the families of
    compatible measurements.
    """

    dimension: int
    state: np.ndarray
    projectors: dict[str, tuple[np.ndarray, ...]]


def validate_model(model: QuantumModel, s: Scenario) -> None:
    """Check the model invariants against a scenario, each up to EPS.

    :raises InvalidModel: on a shape mismatch, a non-unit state, a family
        that is not a projective partition of the identity, or
        non-commuting projectors inside some context.
    """
    d = model.dimension
    if model.state.shape != (d,):
        raise InvalidModel(f"state has shape {model.state.shape}, expected ({d},)")
    if abs(np.linalg.norm(model.state) - 1) > EPS:
        raise InvalidModel(f"state norm {np.linalg.norm(model.state)} is not 1")
    if set(model.projectors) != set(s.measurements):
        raise InvalidModel("projector families do not match the scenario's measurements")
    eye = np.eye(d)
    for m in s.measurements:
        family = model.projectors[m]
        if len(family) != len(s.outcomes[m]):
            raise InvalidModel(
                f"measurement {m!r} has {len(family)} projectors for {len(s.outcomes[m])} outcomes"
            )
        total = np.zeros((d, d), dtype=complex)
        for k, p in enumerate(family):
            if p.shape != (d, d):
                raise InvalidModel(f"projector {m!r}[{k}] has shape {p.shape}")
            if np.linalg.norm(p - p.conj().T) > EPS:
                raise InvalidModel(f"projector {m!r}[{k}] is not Hermitian")
            if np.linalg.norm(p @ p - p) > EPS:
                raise InvalidModel(f"projector {m!r}[{k}] is not idempotent")
            total += p
        if np.linalg.norm(total - eye) > EPS:
            raise InvalidModel(f"projectors of {m!r} do not sum to the identity")
    for c in s.contexts:
        for m1, m2 in itertools.combinations(c, 2):
            for p, q in itertools.product(model.projectors[m1], model.projectors[m2]):
                if np.linalg.norm(p @ q - q @ p) > EPS:
                    raise InvalidModel(f"projectors of {m1!r} and {m2!r} do not commute in context {c}")


def trace_probability(
    model: QuantumModel, s: Scenario, measurements: tuple[str, ...], outcomes: tuple[str, ...]
) -> float:
    """Raw Born probability <state| prod_m P_(m; outcome) |state>.

    No clamping or rationalization; this is the independent float path used
    to cross-check constructed tables against closed forms.
    """
    vec = model.state.astype(complex)
    for m, o in zip(reversed(measurements), reversed(outcomes)):
        vec = model.projectors[m][s.outcome_index(m, o)] @ vec
    return float(np.real(np.vdot(model.state, vec)))


# -- float table -> exact nondisturbing rational table ------------------------


def _snap(x: float, eps: float) -> Fraction:
    if x <= eps:
        return Fraction(0)
    if x >= 1 - eps:
        return Fraction(1)
    return Fraction(x).limit_denominator(SNAP_DENOMINATOR)


# A dichotomic pair table is (1 - q_u - q_v + e, q_v - e, q_u - e, e) with
# e = p(1,1), so a zero at cell k forces e = c + a*q_u + b*q_v, (c, a, b) = _ZERO_FORMS[k].
_ZERO_FORMS = ((-1, 1, 1), (0, 0, 1), (0, 1, 0), (0, 0, 0))


def _exact_pairwise_tables(
    s: Scenario, raw: list[list[float]], eps: float
) -> tuple[tuple[Fraction, ...], ...]:
    """Rebuild dichotomic pairwise tables exactly from per-measurement
    marginals, honoring every structural zero, so nondisturbance is exact."""
    float_marginal: dict[str, float] = {}
    for (u, v), p in zip(s.contexts, raw):
        float_marginal.setdefault(u, p[2] + p[3])
        float_marginal.setdefault(v, p[1] + p[3])

    # Constraint graph between marginals: two zero cells of one context equate
    # their forms, c + a q_u + b q_v = 0, which pins q_u or q_v when b or a is 0
    # and is an invertible edge (a, b = +-1) otherwise.
    zeros = [[_ZERO_FORMS[k] for k, val in enumerate(p) if val <= eps] for p in raw]
    pins: dict[str, Fraction] = {}
    edges: dict[str, list[tuple[str, int, int]]] = {m: [] for m in s.measurements}
    for (u, v), forms in zip(s.contexts, zeros):
        for (c1, a1, b1), (c2, a2, b2) in itertools.combinations(forms, 2):
            c, a, b = c1 - c2, a1 - a2, b1 - b2
            if a == 0 or b == 0:
                target, value = (v, Fraction(-c, b)) if a == 0 else (u, Fraction(-c, a))
                if target in pins and pins[target] != value:
                    raise InvalidModel(f"inconsistent forced marginals for {target!r}")
                pins[target] = value
            else:
                edges[u].append((v, -a * b, -b * c))
                edges[v].append((u, -a * b, -a * c))

    q: dict[str, Fraction] = {}
    for start in s.measurements:
        if start in q:
            continue
        q[start] = pins.get(start, _snap(float_marginal[start], eps))
        stack = [start]
        while stack:
            m = stack.pop()
            for other, a, b in edges[m]:
                val = a * q[m] + b
                # q already agrees with pins wherever both are set
                if q.get(other, pins.get(other, val)) != val:
                    raise InvalidModel(f"zero pattern forces conflicting marginals for {other!r}")
                if other not in q:
                    q[other] = val
                    stack.append(other)

    tables = []
    for ci, (u, v) in enumerate(s.contexts):
        qu, qv = q[u], q[v]
        c, a, b = zeros[ci][-1] if zeros[ci] else (_snap(raw[ci][3], eps), 0, 0)
        e = c + a * qu + b * qv
        cells = (1 - qu - qv + e, qv - e, qu - e, e)
        for val, flo in zip(cells, raw[ci]):
            if val < 0:
                raise NegativeProbability(
                    f"rationalized cell of context {s.contexts[ci]} is negative ({val})"
                )
            if flo <= eps and val != 0:
                raise InvalidModel(
                    f"zero cell of context {s.contexts[ci]} did not rationalize to 0"
                )
        tables.append(cells)
    return tuple(tables)


def behavior_from_model(
    model: QuantumModel, s: Scenario, metadata: dict | None = None
) -> Behavior:
    """Evaluate the Born rule on every context and return an exact Behavior.

    Values in [-EPS, EPS] become exact zeros; anything below -EPS raises.
    On scenarios whose contexts are all dichotomic pairs the rational tables
    are rebuilt from shared per-measurement marginals and are exactly
    nondisturbing; otherwise each cell is snapped to a small-denominator
    rational and the table renormalized to sum exactly 1.

    :raises InvalidModel: if the model fails its invariants.
    :raises NegativeProbability: if some Born value is below -EPS.
    :raises NotNondisturbing: if the snapped tables of overlapping contexts
        no longer share their marginals exactly.
    """
    validate_model(model, s)
    raw: list[list[float]] = []
    for c in s.contexts:
        vals = []
        for labels in joint_outcomes(s, c):
            p = trace_probability(model, s, c, labels)
            if p < -EPS:
                raise NegativeProbability(f"Born value {p} for {c} {labels}")
            vals.append(0.0 if abs(p) <= EPS else p)
        raw.append(vals)

    pairwise = s.is_simple and all(len(s.outcomes[m]) == 2 for m in s.measurements)
    if pairwise:
        return Behavior(s, _exact_pairwise_tables(s, raw, EPS), metadata=metadata)
    tables = []
    for ci in range(len(s.contexts)):
        cells = [_snap(p, EPS) for p in raw[ci]]
        total = sum(cells)
        if total == 0:
            raise InvalidModel(f"context {s.contexts[ci]} has no probability mass")
        tables.append(tuple(x / total for x in cells))
    behavior = Behavior(s, tuple(tables), metadata=metadata)
    try:
        require_nondisturbing(behavior)
    except NotNondisturbing as e:
        raise NotNondisturbing(f"{e}; exact tables are rebuilt only for dichotomic pair contexts") from None
    return behavior


# -- odd cycles: real vectors in dimension 3 ----------------------------------


@dataclass(frozen=True)
class OddCycleParams:
    """Parameters of the odd-cycle construction.

    thetas are the rotation angles for the odd-index vectors 5, 7, ..., n,
    so there are (n-3)/2 of them. eta and v3 are 3-vectors, not necessarily
    normalized; every entry must be finite. The builder normalizes and rejects
    degenerate configurations.
    """

    n: int
    eta: tuple[float, float, float]
    v3: tuple[float, float, float]
    thetas: tuple[float, ...]

    def __post_init__(self) -> None:
        require_ints(n=self.n)
        if self.n < 5 or self.n % 2 == 0:
            raise InvalidArgument(f"odd-cycle construction needs odd n >= 5, got {self.n}")
        for name, want in (("eta", 3), ("v3", 3), ("thetas", (self.n - 3) // 2)):
            value = tuple(float(x) for x in getattr(self, name))
            object.__setattr__(self, name, value)
            if len(value) != want:
                raise InvalidArgument(f"{name} must have {want} entries for n={self.n}, got {len(value)}")
            if not all(map(math.isfinite, value)):
                raise InvalidArgument(f"{name} must be finite, got {shown(value)}")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "eta": list(self.eta), "v3": list(self.v3), "thetas": list(self.thetas)}


# Entries up to this size keep the squared norm of a 3-vector finite.
_NORM_SAFE = math.sqrt(sys.float_info.max / 3)
# A norm below this vanishes.
_NORM_FLOOR = 1e-9


def _direction(v: tuple[float, float, float]) -> np.ndarray:
    """The parameter direction v as an array, divided by its largest entry
    when that entry would overflow the norm or is nonzero and below
    _NORM_FLOOR; the direction is the same. An all-zero v is kept."""
    big = max(map(abs, v))
    return np.array(v if big == 0 or _NORM_FLOOR <= big <= _NORM_SAFE else [x / big for x in v], dtype=float)


def _unit(x: np.ndarray, degenerate: str) -> np.ndarray:
    """x normalized, or DegenerateParams(degenerate) if its norm vanishes."""
    norm = np.linalg.norm(x)
    if norm < _NORM_FLOOR:
        raise DegenerateParams(degenerate)
    return x / norm


def _gram_schmidt(eta: np.ndarray, v: np.ndarray, what: str) -> np.ndarray:
    return _unit(eta - np.dot(v, eta) * v, f"state is parallel to {what}; cannot orthonormalize")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two 3-vectors, with its roundings but not its axis handling."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _rotate(theta: float, axis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Right-handed rotation of v by theta about the unit vector axis."""
    return (
        v * math.cos(theta)
        + _cross(axis, v) * math.sin(theta)
        + axis * np.dot(axis, v) * (1 - math.cos(theta))
    )


def _odd_vectors(params: OddCycleParams) -> tuple[list[np.ndarray], np.ndarray]:
    n = params.n
    eta = _unit(_direction(params.eta), "state has vanishing norm")
    v: dict[int, np.ndarray] = {3: _unit(_direction(params.v3), "v3 has vanishing norm")}
    if abs(np.dot(v[3], eta)) < 1e-9:
        raise DegenerateParams("v3 is orthogonal to the state")
    v[4] = _gram_schmidt(eta, v[3], "v3's partner")
    thetas = dict(zip(range(5, n + 1, 2), params.thetas))
    for k in range(5, n + 1, 2):
        if abs(math.sin(thetas[k])) < 1e-9:
            raise DegenerateParams(f"rotation angle for vector {k} is a multiple of pi")
        v[k] = _rotate(thetas[k], v[k - 1], v[k - 2])
        if k < n:
            v[k + 1] = _gram_schmidt(eta, v[k], f"vector {k}")
    v[1] = _gram_schmidt(eta, v[n], f"vector {n}")
    v[2] = _unit(_cross(v[1], v[3]), "first and third vectors are parallel; no common orthogonal")
    return [v[i] for i in range(1, n + 1)], eta


def build_odd_cycle(params: OddCycleParams) -> tuple[QuantumModel, Behavior]:
    """Construct the odd-cycle model and its behavior.

    Measurement M_i is the projector onto v_i (outcome "1" = fires), with
    consecutive vectors orthogonal so the cycle's contexts are compatible.
    The behavior's zero pattern is checked on the way out: outcome (1,1) is
    impossible in every context and (0,0) is impossible in the contexts at
    odd positions from 3 on; the paradox witness is p_1(0,1).

    :raises DegenerateParams: for parameter choices that collapse the
        construction (state orthogonal or parallel to a seed, angles at
        multiples of pi).
    """
    n = params.n
    vecs, eta = _odd_vectors(params)
    for i in range(n):
        overlap = abs(np.dot(vecs[i], vecs[(i + 1) % n]))
        if overlap > 1e-10:
            raise InvalidModel(f"vectors {i + 1} and {(i + 1) % n + 1} are not orthogonal: {overlap}")
    eye = np.eye(3)
    projectors = {}
    for i, vec in enumerate(vecs):
        fire = np.outer(vec, vec)
        projectors[f"M{i + 1}"] = (eye - fire, fire)
    model = QuantumModel(dimension=3, state=eta.astype(complex), projectors=projectors)
    metadata = {
        "construction": "odd-cycle",
        "n": n,
        "eta": list(np.round(eta, 15)),
        "v3": list(np.round(vecs[2], 15)),
        "thetas": list(params.thetas),
    }
    zeros = [(i, 3) for i in range(1, n + 1)] + [(j, 0) for j in range(3, n + 1, 2)]
    return _cycle_behavior(model, metadata, zeros, witness=1)


def _cycle_behavior(
    model: QuantumModel, metadata: dict, zeros: list[tuple[int, int]], witness: int
) -> tuple[QuantumModel, Behavior]:
    """The model's behavior on the dichotomic n-cycle, checked on the way out:
    zeros lists the promised zero cells as (1-based context, cell) in check
    order, and witness is the paradox cell of context 1, which must not be 0.

    :raises InvalidModel: at the first promised zero cell that is not 0.
    :raises DegenerateParams: if the witness cell rationalized to 0.
    """
    behavior = behavior_from_model(model, make_n_cycle(metadata["n"], 2), metadata=metadata)
    for i, cell in zeros:
        if behavior.tables[i - 1][cell] != 0:
            raise InvalidModel(f"expected zero at ({cell >> 1},{cell & 1}) of context {i}")
    if behavior.tables[0][witness] == 0:
        raise DegenerateParams(
            "paradox probability underflows the zero clamp at these parameters"
        )
    return model, behavior


# -- even cycles: two qubits ---------------------------------------------------


@dataclass(frozen=True)
class EvenCycleParams:
    """Parameters of the even-cycle construction: the Schmidt angle only.

    alpha must lie strictly between 0 (product state) and pi/4 (maximally
    entangled state); at either endpoint the paradox probability vanishes.
    """

    n: int
    alpha: float

    def __post_init__(self) -> None:
        require_ints(n=self.n)
        if self.n < 4 or self.n % 2 == 1:
            raise InvalidArgument(f"even-cycle construction needs even n >= 4, got {self.n}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < math.pi / 4:
            raise DegenerateParams(
                f"alpha must lie strictly inside (0, pi/4), got {self.alpha}"
            )

    def to_json_dict(self) -> dict:
        return {"n": self.n, "alpha": self.alpha}


def _even_layout(n: int) -> dict[int, tuple[str, int]]:
    """Cycle position (1-based) -> (party, vector index).

    Parties alternate around the cycle; both index-1 vectors sit at the two
    middle positions and indices grow toward the wrap, ending with both
    index-n/2 vectors adjacent at positions 1 and 2.
    """
    half = n // 2
    layout = {}
    for i in range(1, n + 1):
        if i == 1:
            idx = half
        elif i <= half + 1:
            idx = half + 2 - i
        else:
            idx = i - (half + 1)
        party = "A" if (i % 2) == ((half + 1) % 2) else "B"
        layout[i] = (party, idx)
    return layout


def hardy_probability(n: int, alpha: float) -> float:
    """Closed form of the even-cycle paradox probability p_1(1,1)."""
    require_ints(n=n)
    if n < 4 or n % 2 == 1:
        raise InvalidArgument(f"closed form applies to even n >= 4, got {n}")
    c, s = math.cos(alpha), math.sin(alpha)
    den = c ** (n - 1) + s ** (n - 1)
    if den == 0.0:
        # Both powers underflow near alpha = pi/4. The value is symmetric in
        # (c, s), so divide through by the larger power: t = (lo/hi)^(n-1) <= 1.
        lo, hi = sorted((c, s))
        t = (lo / hi) ** (n - 1)
        return ((hi * t - lo) / (1 + t)) ** 2
    return ((c * s ** (n - 1) - s * c ** (n - 1)) / den) ** 2


def build_even_cycle(params: EvenCycleParams) -> tuple[QuantumModel, Behavior]:
    """Construct the even-cycle two-qubit model and its behavior.

    The state is cos(alpha)|e1 f1> + sin(alpha)|e2 f2>; each measurement
    projects one factor onto a vector p_k or q_k interpolating between the
    Schmidt bases, arranged so neighbours act on different factors. Outcome
    "1" is the complement (projector does not fire). The zero pattern is
    checked on the way out, and the witness p_1(1,1) is checked against its
    closed form to 1e-10.

    :raises DegenerateParams: via EvenCycleParams for endpoint alpha.
    """
    n = params.n
    half = n // 2
    c, s = math.cos(params.alpha), math.sin(params.alpha)
    vec = {}
    for k in range(1, half + 1):
        norm = math.sqrt(c ** (2 * k - 1) + s ** (2 * k - 1))
        vec[k] = np.array([(-1) ** k * c ** (k - 0.5), 1j * s ** (k - 0.5)]) / norm
    eta = np.zeros(4, dtype=complex)
    eta[0] = c
    eta[3] = s
    layout = _even_layout(n)
    eye2 = np.eye(2)
    eye4 = np.eye(4)
    projectors = {}
    for i in range(1, n + 1):
        party, k = layout[i]
        rank1 = np.outer(vec[k], vec[k].conj())
        fire = np.kron(rank1, eye2) if party == "A" else np.kron(eye2, rank1)
        projectors[f"M{i}"] = (fire, eye4 - fire)
    model = QuantumModel(dimension=4, state=eta, projectors=projectors)
    witness = trace_probability(model, make_n_cycle(n, 2), ("M1", "M2"), ("1", "1"))
    if abs(witness - hardy_probability(n, params.alpha)) > 1e-10:
        raise InvalidModel("witness does not match its closed form")
    metadata = {"construction": "even-cycle", "n": n, "alpha": params.alpha}
    zeros = [(i, 2) for i in range(2, half + 1)] + [(half + 1, 3)] + [(i, 1) for i in range(half + 2, n + 1)]
    return _cycle_behavior(model, metadata, zeros, witness=3)


# -- gamma optimization --------------------------------------------------------


@dataclass(frozen=True)
class GammaResult:
    """Best paradox probability found for one cycle length.

    trace holds (restart index, best value of that restart) pairs; notes
    carry caveats worth keeping next to the number.
    """

    n: int
    gamma: float
    params: OddCycleParams | EvenCycleParams
    trace: tuple[tuple[int, float], ...] = field(default=(), compare=False)
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "params": self.params.to_json_dict(),
            "trace": [[i, v] for i, v in self.trace],
            "notes": list(self.notes),
        }


def _odd_witness(n: int, phi: float, thetas: np.ndarray) -> float:
    """Fast objective: p_1(0,1) = <v2|eta>^2 of the odd construction with
    eta = e_z and v3 tilted by phi, or 0 when the parameters degenerate."""
    try:
        params = OddCycleParams(
            n, (0.0, 0.0, 1.0), (math.sin(phi), 0.0, math.cos(phi)), tuple(thetas)
        )
        vecs, eta = _odd_vectors(params)
    except DegenerateParams:
        return 0.0
    return float(np.dot(vecs[1], eta) ** 2)


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float, maxiter: int) -> tuple[np.ndarray, float]:
    """Minimize f from x0 by Nelder-Mead; return (x, f(x)).

    Replays scipy's minimize(method="Nelder-Mead") without bounds, adaptive
    coefficients or maxfev, float operation for float operation: the start
    simplex scales each coordinate by 1.05 (a 0 becomes 0.00025); reflection 1,
    expansion 2, contraction and shrink 1/2; stop once all vertices are within
    xatol and all values within fatol of the best, or after maxiter iterations.
    """
    n = len(x0)
    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice here, and argsort need not be stable
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = f(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


GAMMA_NINE_NOTE = (
    "best found for n=9 exceeds the alternative closed-form candidate "
    "(1+16/sqrt(27))^(-1) ~ 0.245146"
)


def optimize_gamma(n: int, restarts: int = 40, tol: float = 1e-10, seed: int = 0) -> GammaResult:
    """Maximize the cycle's paradox probability over its free parameters.

    Even n: the witness depends only on the Schmidt angle, so this is a
    golden-section search of the closed form over (0, pi/4) down to an
    interval of width tol; deterministic, restarts and seed unused.

    Odd n: multi-start Nelder-Mead (the in-library _nelder_mead, which takes
    scipy's iterates) over (phi, theta_5, ..., theta_n), the state-seed angle
    and the (n-3)/2 rotation angles, from starts drawn by a generator seeded by
    seed. Degenerate parameters score 0; the best value wins, ties keep the
    earliest restart. Best-effort: the largest value found, no convergence guarantee.

    :raises ValueError: if n, restarts or seed is not an int, n < 4, restarts < 1,
        seed < 0 or tol is not finite and positive.
    """
    require_ints(n=n, restarts=restarts, seed=seed)
    if n < 4:
        raise InvalidArgument(f"cycle constructions need n >= 4, got {n}")
    if restarts < 1:
        raise InvalidArgument(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    if not 0 < tol < math.inf:
        raise InvalidArgument(f"tol must be finite and positive, got {tol}")
    if n % 2 == 0:
        lo, hi = 1e-9, math.pi / 4 - 1e-9
        golden = (math.sqrt(5) - 1) / 2
        a, b = lo, hi
        c1, c2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = hardy_probability(n, c1), hardy_probability(n, c2)
        iterations = 0
        while b - a > tol and iterations < 500:
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + golden * (b - a)
                f2 = hardy_probability(n, c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - golden * (b - a)
                f1 = hardy_probability(n, c1)
            iterations += 1
        alpha = (a + b) / 2
        gamma = hardy_probability(n, alpha)
        return GammaResult(
            n=n,
            gamma=gamma,
            params=EvenCycleParams(n, alpha),
            trace=((0, gamma),),
        )

    rng = np.random.default_rng(seed)
    m = (n - 3) // 2
    best_val = -1.0
    best_x: np.ndarray | None = None
    trace = []
    for r in range(restarts):
        x0 = np.concatenate([[rng.uniform(0.1, math.pi / 2)], rng.uniform(-math.pi, math.pi, m)])
        x, fun = _nelder_mead(
            lambda x: -_odd_witness(n, x[0], x[1:]), x0, xatol=tol * 1e-2, fatol=tol * 1e-4, maxiter=4000
        )
        val = -fun
        trace.append((r, float(val)))
        if val > best_val:
            best_val = float(val)
            best_x = x
    phi = float(best_x[0])
    params = OddCycleParams(
        n, (0.0, 0.0, 1.0), (math.sin(phi), 0.0, math.cos(phi)), tuple(float(t) for t in best_x[1:])
    )
    notes = (GAMMA_NINE_NOTE,) if n == 9 else ()
    return GammaResult(n=n, gamma=best_val, params=params, trace=tuple(trace), notes=notes)


def check_hardy_tsirelson(value: float, n: int = 4) -> bool:
    """Whether a 4-cycle paradox probability respects its Tsirelson-type
    ceiling (5*sqrt(5)-11)/2, up to 1e-9."""
    if n != 4:
        raise InvalidArgument(f"the bound applies to n=4, got {n}")
    return value <= HARDY_TSIRELSON + 1e-9
