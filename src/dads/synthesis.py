"""Stage-by-stage construction of deadzone-adapted backstepping controllers.

The engine builds a Lyapunov function V and feedback k for a strict-feedback
plant (n >= 0 leading integrators, m levels) in two phases:

* a base step handling the first controlled level, chosen by n: with n >= 1
  it pole-places the integrator chain and solves a shifted Lyapunov equation,
  with n = 0 (the pure chain) it takes V1 = x1^2 / 2;
* one backstep per further level: each absorbs one more level of the
  plant, replacing (V, k) by (V + (y - k)^2 / 2, -(M / eta) (y - k)) where
  the stacked gain M dominates every cross term produced by the previous
  stage.  The backstep reads that level's maps from the plant itself, and
  the drift of the block it extends from `systems.state_rates`.

A backstep takes each previous-stage map's partials from one jet pass,
samples its majorants R, r, rho with them and builds the new stage from the
same partials, so each backstep nests one more jet level.  The majorants
cannot be derived from closures; the caller supplies them per level.
`synthesize` samples each assumption once, states in the box of
`dads.systems`: on the same (state, theta) draws, the gains below the input
are free of theta (a ValueError otherwise) and obey eta <= g <= mu
(1 + |theta|); then the first-level drift bound r and each backstep's
(R, r, rho).  Each side of a bound is evaluated once on all its draws (each
gain g once, for the theta test and both gain bounds), and
`_validate_scaled_bound` judges the values; a violation raises with its
witness point.

A stage carries one disturbance gain, gain_a.  Rates halve and gains double
per backstep, so a base started at (2^{m-1} c, 2^{1-m} a) ends at (c, a);
the quadratic-form base divides its gain by the comparison constant M, so
that chain ends at (c, a / M).  The pure chain's first-level gain is
`chain_base_gain`.  The design constants are `controllers.DadsGains`; the
CLI is the one module of the package that imports this engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controllers import DadsGains
from .jets import SmoothMap, as_tuple, jet_exp, norm_sq, partials
from .systems import StrictFeedbackSystem, box_sampler, draw_rows, state_rates, truncate


class MajorantViolationError(Exception):
    """A sampled growth-majorant inequality failed; carries the witness point."""

    def __init__(self, name: str, point, lhs: float, bound: float):
        self.name = name
        self.point = tuple(float(v) for v in point)
        self.lhs = float(lhs)
        self.bound = float(bound)
        super().__init__(
            f"majorant {name!r} violated at {self.point}: "
            f"required {lhs:.6g} <= {bound:.6g}, bound > 0"
        )


@dataclass(frozen=True)
class StageMajorants:
    """Per-level growth majorants.

    R(x, z) bounds (|dV/dx| + |k| + |dk/dx . Phi|) / |x| for the incoming
    stage; r(x) bounds |f(x)| / |x| for the x-block drift; rho(x, y) bounds
    (|h| + |phi|) / (|x| + |y|) for the new level.
    """

    R: SmoothMap
    r: SmoothMap
    rho: SmoothMap


@dataclass(frozen=True)
class DadsStage:
    """One backstepping level: (V, k, sigma) plus its rate/gain bookkeeping.

    The stage satisfies |state|^2 <= sigma * V and a dissipation inequality
    with decay rate_c and disturbance gain gain_a (on the quadratic-form base
    path the comparison constant already divides the gain).
    """

    level: int
    V: SmoothMap
    k: SmoothMap
    sigma: SmoothMap
    rate_c: float
    gain_a: float


@dataclass(frozen=True, eq=False)
class BaseStepResult:
    """Output of the quadratic-form base step."""

    P: np.ndarray
    omega: np.ndarray
    K_const: float
    M_const: float
    stage: DadsStage


def _validate_scaled_bound(name, lhs, bound, pts):
    """Check 0 < bound and lhs <= bound at drawn points; raise at the first violation.

    pts holds one drawn point per row; lhs and bound are numbers or arrays of
    one entry per row, which the caller evaluated on all of them at once.
    The caller evaluates and judges under np.errstate(all="ignore").  Every
    bound the construction assumes (a majorant, a gain, a gain growth) is a
    positive function.
    """
    lhs = np.broadcast_to(lhs, len(pts))
    bound = np.broadcast_to(bound, len(pts))
    # negated so that a nan on either side is a violation too
    bad = ~((lhs <= bound * (1.0 + 1e-12) + 1e-12) & (bound > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise MajorantViolationError(name, pts[i], lhs[i], bound[i])


def chain_base_gain(x1, z, m: int, gains: DadsGains, rv, asq):
    """The pure chain's first-level gain M1 at (x1, z), given r(x1) = rv and
    |alpha1(x1)|^2 = asq: the parameter-bound, disturbance and decay
    contributions of a chain of m levels.
    """
    ez = jet_exp(z)
    return (
        (gains.b + 1.0 + ez) * rv
        + (1.0 + ez) / (2.0 ** (3 - m) * gains.a) * (asq + rv * rv * x1 * x1)
        + 2.0 ** (m - 2) * gains.c
    )


def solve_base_theorem3(
    m: int,
    gains: DadsGains,
    eta1: SmoothMap,
    r: SmoothMap,
    alpha1: SmoothMap,
) -> DadsStage:
    """Base step for the pure strict-feedback chain: V1 = x1^2 / 2.

    k1 = -(M1(x1, z) / eta1(x1)) x1 with M1 = `chain_base_gain`.  For a chain
    of m levels the stage starts at rate 2^{m-1} c and gain 2^{1-m} a.
    """
    if m < 1:
        raise ValueError("m must be >= 1")

    def k1(x1, z):
        M1 = chain_base_gain(x1, z, m, gains, r(x1), norm_sq(as_tuple(alpha1(x1))))
        return -(M1 / eta1(x1)) * x1

    def V1(x1, z):
        return 0.5 * x1 * x1

    return DadsStage(
        level=1,
        V=SmoothMap(2, V1, name="V1"),
        k=SmoothMap(2, k1, name="k1"),
        sigma=SmoothMap(2, lambda x1, z: 2.0, name="sigma1"),
        rate_c=2.0 ** (m - 1) * gains.c,
        gain_a=2.0 ** (1 - m) * gains.a,
    )


def _companion_gain(n: int, poles: Sequence[float]) -> np.ndarray:
    """omega such that the chain closed with y1 = omega . x has the given poles."""
    coeffs = np.poly(poles)  # leading 1, then c_{n-1} ... c_0
    return -coeffs[1:][::-1]


def _solve_lyapunov_kron(A_shift: np.ndarray) -> np.ndarray:
    """Unique SPD solution of A' P + P A = -I via the Kronecker linear system."""
    n = A_shift.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, A_shift.T) + np.kron(A_shift.T, eye)
    P = np.linalg.solve(lhs, -eye.reshape(-1)).reshape(n, n)
    return 0.5 * (P + P.T)


def solve_base_theorem1(
    n: int,
    m: int,
    gains: DadsGains,
    eta1: SmoothMap,
    r: SmoothMap,
    alpha1: SmoothMap,
) -> BaseStepResult:
    """Base step for the integrator chain cascaded with a y-block.

    Pole-places the chain at -(2^{m-1} c + k/2), k = 1..n, solves the shifted
    Lyapunov equation for P, and assembles V1 = x'Px + (y1 - omega'x)^2 / 2
    with k1 = -(G / eta1)(y1 - omega'x).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    c = gains.c
    shift = 2.0 ** (m - 1) * c
    poles = [-(shift + 0.5 * (k + 1)) for k in range(n)]
    omega = _companion_gain(n, poles)
    A = np.diag(np.ones(n - 1), 1)
    bvec = np.zeros(n)
    bvec[-1] = 1.0
    Acl = A + np.outer(bvec, omega)
    P = _solve_lyapunov_kron(Acl + shift * np.eye(n))

    K_vec = 2.0 * bvec @ P - omega @ A - (omega @ bvec) * omega
    K_const = float(np.linalg.norm(K_vec))

    # comparison constant: smallest eigenvalue of the (n+1)-variable quadratic
    # form x'Px + (y1 - omega'x)^2 / 2, inflated by 1% for strictness
    Q = np.zeros((n + 1, n + 1))
    Q[:n, :n] = P + 0.5 * np.outer(omega, omega)
    Q[:n, n] = -0.5 * omega
    Q[n, :n] = -0.5 * omega
    Q[n, n] = 0.5
    lam_min = float(np.linalg.eigvalsh(Q)[0])
    if lam_min <= 0:
        raise RuntimeError("comparison quadratic form is not positive definite")
    M_const = 1.01 / lam_min

    b_gain, a = gains.b, gains.a
    omega_norm = float(np.linalg.norm(omega))
    omega_b = abs(float(omega @ bvec))
    denom = 2.0 ** (3 - m) * a

    def G_fn(*args):
        xs, y1, z = args[:n], args[n], args[n + 1]
        ez = jet_exp(z)
        rv = r(*xs, y1)
        head = K_const + rv * (1.0 + omega_norm) * (1.0 + b_gain + ez)
        asq = norm_sq(as_tuple(alpha1(*xs, y1)))
        return (
            M_const / (2.0 ** (m + 1) * c) * head * head
            + omega_b
            + 2.0 ** (m - 2) * c
            + M_const * (1.0 + ez) / denom
            * (asq + rv * rv * (norm_sq(xs) + y1 * y1))
            + rv * (1.0 + b_gain + ez)
        )

    def V1(*args):
        xs, y1 = args[:n], args[n]
        quad = 0.0
        for i in range(n):
            for j in range(n):
                quad = quad + xs[i] * P[i, j] * xs[j]
        resid = y1 - sum(omega[i] * xs[i] for i in range(n))
        return quad + 0.5 * resid * resid

    def k1(*args):
        xs, y1, z = args[:n], args[n], args[n + 1]
        resid = y1 - sum(omega[i] * xs[i] for i in range(n))
        return -(G_fn(*args) / eta1(*xs, y1)) * resid

    stage = DadsStage(
        level=1,
        V=SmoothMap(n + 2, V1, name="V1"),
        k=SmoothMap(n + 2, k1, name="k1"),
        sigma=SmoothMap(n + 2, lambda *a_: M_const, name="sigma1"),
        rate_c=shift,
        gain_a=2.0 ** (1 - m) * a / M_const,
    )
    return BaseStepResult(P=P, omega=omega, K_const=K_const, M_const=M_const, stage=stage)


def _dk_times_rows(dk, sys: StrictFeedbackSystem, rows, xs) -> list:
    """dk/dx . A for the x-block xs = (x, y_1..y_j), A's level rows being rows[q].

    Row n + q of A is rows[q] (sys.phi or sys.alpha) at the head of level
    q + 1; the integrator rows of A are zero and are left out.
    """
    n = sys.n
    vals = [as_tuple(rows[q](*xs[: n + q + 1])) for q in range(len(xs) - n)]
    return [
        sum(dk[n + q] * v[col] for q, v in enumerate(vals))
        for col in range(rows[0].codim)
    ]


def backstep(
    prev: DadsStage,
    sys: StrictFeedbackSystem,
    j: int,
    gains: DadsGains,
    majorants: StageMajorants,
    n_samples: int = 200,
    seed: int = 0,
) -> DadsStage:
    """Absorb plant level j + 1 (1 <= j < m) into the stage on (x, y_1..y_j).

    First the majorants are sampled, in order R, r, rho, n_samples draws each
    from default_rng(seed); the first violation raises.  Then V -> V + s^2/2
    and k -> -(M/eta) s with s = y - k.  The stacked gain M dominates every
    cross term the previous stage's certificate leaves over; all derivatives
    of the previous maps come from the one jet pass `partials` that the
    checks read too.  The new stage runs at half the rate and twice the gain.
    """
    if not 1 <= j < sys.m:
        raise ValueError(f"level index j must be in [1, {sys.m - 1}], got {j}")
    d = sys.n + j
    if prev.V.arity != d + 1 or prev.k.arity != d + 1:
        raise ValueError(
            f"previous stage maps have arity {prev.V.arity}, expected {d + 1}"
        )
    dk, dV = partials(prev.k), partials(prev.V)
    block_plant = truncate(sys, d)

    def R_lhs(pt):
        xs, z = pt[:d], pt[d]
        mag = np.sqrt(norm_sq(xs))
        grad_V = np.sqrt(norm_sq(dV(*xs, z)[:d]))
        kv = abs(prev.k(*xs, z))
        dk_phi = norm_sq(_dk_times_rows(dk(*xs, z), sys, sys.phi, xs))
        return np.where(mag == 0.0, 0.0, (grad_V + kv + np.sqrt(dk_phi)) / mag)

    def r_lhs(pt):
        # the x-block with the new level, theta and d set to zero
        drift = state_rates(block_plant, pt, 0.0, np.zeros(sys.p), np.zeros(sys.l))
        mag = np.sqrt(norm_sq(pt))
        return np.where(mag == 0.0, 0.0, np.sqrt(norm_sq(drift)) / mag)

    def rho_lhs(pt):
        # scale by |x| + |y| with x the block and y the new level
        xs, y = pt[:d], pt[d]
        mag = np.sqrt(norm_sq(xs)) + abs(y)
        hv = abs(sys.h[j](*pt))
        pv = np.sqrt(norm_sq(as_tuple(sys.phi[j](*pt))))
        return np.where(mag == 0.0, 0.0, (hv + pv) / mag)

    rng = np.random.default_rng(seed)
    for name, lhs, bound, width in (("R (stage growth)", R_lhs, majorants.R, d + 1),
                                    ("r (x-block drift)", r_lhs, majorants.r, d),
                                    ("rho (new-level growth)", rho_lhs, majorants.rho, d + 1)):
        pts = draw_rows(box_sampler(width), rng, n_samples)
        cols = tuple(np.ascontiguousarray(pts.T))
        with np.errstate(all="ignore"):
            _validate_scaled_bound(name, lhs(cols), bound(*cols), pts)

    b_gain, Gamma = gains.b, gains.Gamma
    cc = prev.rate_c
    aa = prev.gain_a
    alpha, eta, mu = sys.alpha[j], sys.eta[j], sys.mu[j - 1]

    def stacked_gain(*args):
        """The error s = y - k and the stacked gain M that multiplies it."""
        xs, y, z = args[:d], args[d], args[d + 1]
        ez = jet_exp(z)
        emz = jet_exp(-z)
        Vv = prev.V(*xs, z)
        s = y - prev.k(*xs, z)
        *dkx, dkz = dk(*xs, z)
        dVz = dV(*xs, z)[d]
        dkx_sq = norm_sq(dkx)
        Rv = majorants.R(*xs, z)
        rv = majorants.r(*xs)
        rhov = majorants.rho(*xs, y)
        muv = mu(*xs)
        sigv = prev.sigma(*xs, z)
        # |alpha' - dk/dx . G|^2, G the disturbance matrix of the x-block
        dk_G = _dk_times_rows(dkx, sys, sys.alpha, xs)
        mismatch = norm_sq(a - g for a, g in zip(as_tuple(alpha(*xs, y)), dk_G))

        P_val = (
            (rv + muv) / 2.0 * (1.0 + dkx_sq)
            + rhov
            + (1.0 + muv / 2.0 * (3.0 + dkx_sq) + rhov) * Rv
        )
        one_dkz = 1.0 + dkz * dkz
        return s, (
            cc / 4.0
            + Gamma * Gamma * emz * emz / (4.0 * cc) * one_dkz * one_dkz * Vv
            + P_val * (b_gain + ez)
            + 0.5 * (Gamma * emz / 4.0 * (1.0 + s * s) + muv) * one_dkz
            + 0.5 * muv * dkx_sq
            + rhov
            + sigv / cc * P_val * P_val * (b_gain + 1.0 + ez) ** 2
            + (1.0 + ez) / (4.0 * aa) * mismatch
            + (1.0 + ez) / (2.0 * aa) * P_val * P_val * (s * s + norm_sq(xs))
            + Gamma * emz / 4.0 * (1.0 + dVz * dVz)
        )

    def k_bar(*args):
        s, gain = stacked_gain(*args)
        return -(gain / eta(*args[:d + 1])) * s

    def V_bar(*args):
        xs, y, z = args[:d], args[d], args[d + 1]
        s = y - prev.k(*xs, z)
        return prev.V(*xs, z) + 0.5 * s * s

    def sigma_bar(*args):
        xs, z = args[:d], args[d + 1]
        Rv = majorants.R(*xs, z)
        return (1.0 + 2.0 * Rv * Rv) * prev.sigma(*xs, z) + 4.0

    lvl = prev.level + 1
    return DadsStage(
        level=lvl,
        V=SmoothMap(d + 2, V_bar, name=f"V{lvl}"),
        k=SmoothMap(d + 2, k_bar, name=f"k{lvl}"),
        sigma=SmoothMap(d + 2, sigma_bar, name=f"sigma{lvl}"),
        rate_c=prev.rate_c / 2.0,
        gain_a=2.0 * prev.gain_a,
    )


@dataclass(frozen=True)
class MajorantPack:
    """User-supplied growth majorants for a full synthesis run.

    base_r is the first-level scaled bound; levels[i] holds the (R, r, rho)
    triple for the backstep that absorbs level i+2.
    """

    base_r: SmoothMap
    levels: tuple[StageMajorants, ...]


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesis run; its last stage holds the final feedback k and V."""

    M_const: float
    stage_trace: tuple[DadsStage, ...]

    def report(self) -> str:
        lines = ["synthesis stage trace", "====================="]
        lines += [f"stage {st.level}: rate_c={st.rate_c:g} gain_a={st.gain_a:g}"
                  for st in self.stage_trace]
        lines.append(f"comparison constant M = {self.M_const:g}")
        return "\n".join(lines)


def _validate_plant_bounds(sys: StrictFeedbackSystem, n_samples, seed):
    """g_j free of theta below the input, then eta_j <= g_j on every level and
    g_j <= mu_j (1 + |theta|) below the input.

    Each draw is a state in the synthesis box followed by a theta from the
    plant's ball, drawn one after the other; each g_j is evaluated once on
    the draws, and every check reads that value.
    """
    dim = sys.state_dim
    pts = draw_rows(box_sampler(dim, (sys.p, sys.theta_radius)),
                    np.random.default_rng(seed), n_samples)
    cols = tuple(np.ascontiguousarray(pts.T))
    heads = [cols[: sys.n + j + 1] for j in range(sys.m)]
    with np.errstate(all="ignore"):
        g = [sys.g[j](*heads[j], *cols[dim:]) for j in range(sys.m)]
        for j in range(sys.m - 1):
            still = sys.g[j](*heads[j], *np.zeros(sys.p))
            if np.any(np.abs(g[j] - still) > 1e-9 * (1.0 + np.abs(still))):
                raise ValueError(
                    f"gain of level {j + 1} must not depend on the unknown parameters "
                    "for the inductive construction to apply"
                )
        growth = 1.0 + np.sqrt(norm_sq(cols[dim:]))
        for j in range(sys.m):
            _validate_scaled_bound(f"eta{j + 1} (gain lower bound)", sys.eta[j](*heads[j]),
                                   g[j], pts)
            if j < sys.m - 1:
                _validate_scaled_bound(f"mu{j + 1} (gain growth)", g[j],
                                       sys.mu[j](*heads[j]) * growth, pts)


def _validate_base_drift(sys: StrictFeedbackSystem, r: SmoothMap, n_samples, seed):
    """0 < r and (|h_1| + |phi_1|) / |head| <= r on the first-level head (x, y_1)."""
    pts = draw_rows(box_sampler(sys.n + 1), np.random.default_rng(seed), n_samples)
    head = tuple(np.ascontiguousarray(pts.T))
    with np.errstate(all="ignore"):
        mag = np.sqrt(norm_sq(head))
        content = abs(sys.h[0](*head)) + np.sqrt(norm_sq(as_tuple(sys.phi[0](*head))))
        _validate_scaled_bound("r (first-level drift)",
                               np.where(mag == 0.0, 0.0, content / mag), r(*head), pts)


def synthesize(
    sys: StrictFeedbackSystem,
    gains: DadsGains,
    majorant_pack: MajorantPack,
    n_samples: int = 200,
    seed: int = 0,
) -> SynthesisResult:
    """Run the full construction: base step, then one backstep per level.

    The base step is chosen by the number of leading integrators: V1 = x1^2/2
    (comparison constant 2) when n = 0, the pole-placed quadratic form of the
    chain (comparison constant M from the base step) when n >= 1.  The final
    stage has rate_c = gains.c exactly, and gain_a = gains.a when n = 0 and
    gains.a / M when n >= 1.

    Before building, each assumption the construction makes is sampled once
    at n_samples points, states in the box of `dads.systems`: the plant's
    gains free of theta below the input (a ValueError otherwise), the
    plant's gain bounds, the first-level drift bound and, in each backstep,
    its majorants.  The first bound violation raises MajorantViolationError.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if len(majorant_pack.levels) != sys.m - 1:
        raise ValueError(f"majorant pack must supply {sys.m - 1} backstep levels")
    _validate_plant_bounds(sys, n_samples, seed)
    _validate_base_drift(sys, majorant_pack.base_r, n_samples, seed)
    first_level = (gains, sys.eta[0], majorant_pack.base_r, sys.alpha[0])
    if sys.n == 0:
        stage, M_const = solve_base_theorem3(sys.m, *first_level), 2.0
    else:
        base = solve_base_theorem1(sys.n, sys.m, *first_level)
        stage, M_const = base.stage, base.M_const
    trace = [stage]
    for j in range(1, sys.m):
        stage = backstep(
            stage, sys, j, gains, majorant_pack.levels[j - 1],
            n_samples=n_samples, seed=seed + j,
        )
        trace.append(stage)

    return SynthesisResult(M_const=M_const, stage_trace=tuple(trace))


# ---------------------------------------------------------------------------
# Hand-derived majorants for the built-in wing-rock plant
# ---------------------------------------------------------------------------

# Calibrated headroom constants for the stage-2 growth bound; frozen after a
# sampling scan over a box 25% larger than the validation default (observed
# worst-case ratio ~60, kept with a 10x safety factor).
_WR_R2_SCALE = 600.0
_WR_R2_POW = (11, 10, 3)  # exponents of (1 + x1^2 + x2^2), (1 + e^z), (1 + e^-z)


def wingrock_majorants(gains: DadsGains) -> MajorantPack:
    """Growth majorants for the built-in wing-rock plant.

    Stage 1's drift and regressor vanish, so the base bound is 1.  The
    stage-1 growth bound is exact: |dV1/dx1| + |k1| = (1 + M1)|x1|.  The
    stage-2 bound uses a smooth template with frozen calibration constants.
    """
    base_r = SmoothMap(1, lambda x1: 1.0, name="wr_r1")

    # the built base step's M1 with wing-rock's r1 = 1 and alpha1 = 0
    level2 = StageMajorants(
        R=SmoothMap(2, lambda x1, z: 1.0 + chain_base_gain(x1, z, 3, gains, 1.0, 0.0),
                    name="wr_R1"),
        r=SmoothMap(1, lambda x1: 1.0, name="wr_r2"),
        rho=SmoothMap(2, lambda x1, x2: 1.5 + 0.5 * x2 * x2, name="wr_rho2"),
    )

    q1, q2, q3 = _WR_R2_POW

    def R2(x1, x2, z):
        ez = jet_exp(z)
        emz = jet_exp(-z)
        return (
            _WR_R2_SCALE
            * (1.0 + x1 * x1 + x2 * x2) ** q1
            * (1.0 + ez) ** q2
            * (1.0 + emz) ** q3
        )

    level3 = StageMajorants(
        R=SmoothMap(3, R2, name="wr_R2"),
        r=SmoothMap(2, lambda x1, x2: 1.0, name="wr_r3"),
        rho=SmoothMap(3, lambda x1, x2, x3: 1.0, name="wr_rho3"),
    )
    return MajorantPack(base_r=base_r, levels=(level2, level3))
