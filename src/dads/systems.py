"""The strict-feedback plant type for control design.

One plant type covers the family: a chain of n >= 0 leading integrators
cascaded with a strict-feedback block of m >= 1 levels, the input entering the
last level.  n = 0 is the pure strict-feedback chain (the wing-rock plant).
The plant carries the positive majorants eta (lower bound on the controlled
gain) and mu (upper bound proportional to 1 + |theta|) that the backstepping
synthesis relies on.  theta is unknown and its bound arbitrary; the plant
only names the radius of its theta ball.  The rest of the domain that every
sampled bound draws from, and the one sampler they all draw through, live here,
as does the disturbance: a cos(w t) e^(-decay t) per channel, zero when it has
no amplitudes.  `BUILTINS` maps each built-in plant's name to its builder, one
row per plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .jets import SmoothMap, as_tuple, jet_cos, jet_exp


def _dot(vec_map_out, v) -> float:
    """Dot product of a SmoothMap's tuple output with a plain vector.

    A weight that is the float 0.0 is skipped, term and sum: a channel a
    level does not receive costs nothing, in the interpreted plant and in
    the trace alike.  The skipped term could only have carried a nan or inf
    of v, or the sign of a zero, into the sum.
    """
    acc = 0.0
    for a, b in zip(as_tuple(vec_map_out), v):
        if not (isinstance(a, float) and a == 0.0):
            acc = acc + a * b
    return acc


# every sampled bound draws states and z from [-BOX_RADIUS, BOX_RADIUS], theta
# (or its estimate) from the plant's theta_radius ball and d from this ball
BOX_RADIUS = 3.0
D_RADIUS = 30.0


def sample_ball(rng: np.random.Generator, dim: int, radius: float) -> list[float]:
    """A random direction scaled by a radius drawn uniformly from [0, radius]:
    as floats, the bits of numpy's v / norm(v) * rng.uniform(0.0, radius)."""
    v = rng.standard_normal(dim)
    norm, scale = max(math.sqrt(v @ v), 1e-12), rng.random() * radius
    return [e / norm * scale for e in v.tolist()]


def box_sampler(box_dim: int, *balls: tuple[int, float]):
    """rng -> one draw: box_dim box entries, then a point of each (dim, radius) ball."""
    def draw(rng):
        row = rng.uniform(-BOX_RADIUS, BOX_RADIUS, box_dim).tolist()
        for dim, radius in balls:
            row += sample_ball(rng, dim, radius)
        return row
    return draw


def draw_rows(sampler, rng: np.random.Generator, n: int) -> tuple[np.ndarray, tuple]:
    """n draws of sampler(rng), in order: the rows of an array, and its
    columns as a tuple of contiguous arrays, one per sample entry."""
    rows = np.array([sampler(rng) for _ in range(n)], float)
    return rows, tuple(np.ascontiguousarray(rows.T))


@dataclass(frozen=True)
class StrictFeedbackSystem:
    """Integrator chain x (length n >= 0) cascaded with a y-block (length m >= 1).

    x_i' = x_{i+1} (with x_{n+1} = y_1) and
    y_j' = h_j + g_j * y_{j+1} + phi_j . theta + alpha_j . d (with y_{m+1} = u).
    h_j, phi_j, alpha_j, eta_j take (x, y_1..y_j); g_j additionally takes
    theta; mu has the m - 1 entries for the levels below the input.  n = 0 is
    the pure strict-feedback chain.  theta_radius is the radius of the ball
    synthesis and the sampled checks draw theta from; it bounds no true theta.
    The output Y is the first output_dim states, whose norm the simulator logs.
    The constructor rejects per-level tuples of the wrong length, maps of the
    wrong arity, phi/alpha of a codimension other than p/l, and an output_dim
    outside [1, n + m].
    """

    n: int
    m: int
    h: tuple[SmoothMap, ...]
    phi: tuple[SmoothMap, ...]
    alpha: tuple[SmoothMap, ...]
    g: tuple[SmoothMap, ...]
    eta: tuple[SmoothMap, ...]
    mu: tuple[SmoothMap, ...]
    p: int
    l: int
    theta_radius: float
    output_dim: int

    def __post_init__(self):
        if not (self.n >= 0 and self.m >= 1):
            raise ValueError(f"n must be >= 0 and m >= 1, got n = {self.n}, m = {self.m}")
        if self.output_dim not in range(1, self.state_dim + 1):
            raise ValueError(f"output_dim must be an integer in [1, {self.state_dim}], "
                             f"got {self.output_dim}")
        for name in ("h", "phi", "alpha", "g", "eta", "mu"):
            maps = getattr(self, name)
            levels = self.m - 1 if name == "mu" else self.m
            if len(maps) != levels:
                raise ValueError(f"{name} has {len(maps)} entries, expected {levels}")
            for j, f in enumerate(maps):
                # level j + 1 reads (x, y_1..y_{j+1}); g_j also reads theta
                arity = self.n + j + 1 + (self.p if name == "g" else 0)
                if f.arity != arity:
                    raise ValueError(
                        f"{name}[{j}] takes {f.arity} arguments, expected {arity}"
                    )
        for name, codim in (("phi", self.p), ("alpha", self.l)):
            for j, f in enumerate(getattr(self, name)):
                if f.codim != codim:
                    raise ValueError(f"{name}[{j}] has codim {f.codim}, expected {codim}")

    @property
    def state_dim(self) -> int:
        return self.n + self.m


def truncate(sys: StrictFeedbackSystem, dim: int) -> StrictFeedbackSystem:
    """The plant cut after its first `dim` states; state dim + 1 becomes the input.

    A backstepping stage of dimension `dim` closes the loop through this
    truncation, with its feedback in place of the next state.  The output
    keeps those of its states that remain.
    """
    levels = dim - sys.n
    if not 1 <= levels <= sys.m:
        raise ValueError(f"cannot truncate a {sys.state_dim}-state plant to {dim} states")
    per_level = {
        name: getattr(sys, name)[:levels] for name in ("h", "phi", "alpha", "g", "eta")
    }
    return replace(sys, m=levels, mu=sys.mu[: levels - 1],
                   output_dim=min(sys.output_dim, dim), **per_level)


def _check_columns(sys: StrictFeedbackSystem, s, theta, d) -> None:
    """Each of state, theta and d is a vector or a (dim, N) array of columns."""
    for what, arr, dim in (("theta", theta, sys.p), ("d", d, sys.l),
                           ("state", s, sys.state_dim)):
        if arr.shape[:1] != (dim,) or arr.ndim > 2:
            raise ValueError(
                f"{what} has shape {arr.shape}, expected ({dim},) or ({dim}, N)"
            )


def eval_dynamics(sys: StrictFeedbackSystem, state, u, theta, d) -> np.ndarray:
    """Full state derivative: the integrator shift, then one row per level.

    state, theta and d are vectors, or (dim, N) arrays holding N points as
    columns (u is then a number or N values); the result has state's shape.
    """
    theta = np.asarray(theta, float)
    d = np.asarray(d, float)
    s = np.asarray(state, float)
    if s.shape != (sys.state_dim,) or theta.shape != (sys.p,) or d.shape != (sys.l,):
        _check_columns(sys, s, theta, d)

    out = np.empty(s.shape)
    for i, rate in enumerate(state_rates(sys, s, u, theta, d)):
        out[i] = rate
    return out


def state_rates(sys: StrictFeedbackSystem, s, u, theta, d) -> list:
    """The n + m entries of the state derivative, in generic arithmetic.

    s, theta and d are sequences of numbers, of arrays of columns, or of
    traced values.  This is the one home of the plant formula:
    eval_dynamics evaluates it on arrays and the simulator traces it.
    """
    n = sys.n
    rates = list(s[1 : n + 1])
    for j in range(sys.m):
        head = tuple(s[: n + j + 1])
        nxt = s[n + j + 1] if j + 1 < sys.m else u
        rates.append(
            sys.h[j](*head)
            + sys.g[j](*head, *theta) * nxt
            + _dot(sys.phi[j](*head), theta)
            + _dot(sys.alpha[j](*head), d)
        )
    return rates


@dataclass(frozen=True)
class DisturbanceProfile:
    """Deterministic disturbance signal d(t), defined for all t >= 0.

    Checked at construction: no amplitudes and frequencies (the zero signal)
    or dim of each, and a finite decay >= 0 that only a nonzero signal may
    have nonzero.
    """

    dim: int
    amplitudes: tuple[float, ...] = ()
    frequencies: tuple[float, ...] = ()
    decay: float = 0.0

    def __post_init__(self):
        a, w = len(self.amplitudes), len(self.frequencies)
        if a != w or w not in (0, self.dim):
            raise ValueError(f"disturbance needs {self.dim} amplitudes/frequencies, got {a}/{w}")
        # a disturbance that grows is an input error; the chained comparison
        # also rejects nan
        if not 0.0 <= self.decay < math.inf:
            raise ValueError(f"decay must be finite and >= 0, got {self.decay}")
        if self.decay != 0.0 and not a:
            raise ValueError(f"a zero disturbance has no decay, got {self.decay}")

    @property
    def persists(self) -> bool:
        """Whether d(t) does not decay: it has amplitudes and decay 0."""
        return bool(self.amplitudes) and self.decay == 0.0

    def __call__(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("disturbance signals are defined for t >= 0")
        return np.array(sample_disturbance(self, t), float)


def sample_disturbance(profile: DisturbanceProfile, t) -> tuple:
    """The entries of d(t), in generic arithmetic.

    t is a number or a traced value: this is the one home of the disturbance
    formula a cos(w t) e^(-decay t), which DisturbanceProfile evaluates and
    the simulator traces.  A profile without amplitudes gives float zeros,
    and a zero decay the float factor 1, which the trace folds away.
    """
    if not profile.amplitudes:
        return (0.0,) * profile.dim
    e = jet_exp(-profile.decay * t) if profile.decay != 0.0 else 1.0
    return tuple(
        a * jet_cos(w * t) * e for a, w in zip(profile.amplitudes, profile.frequencies))


@dataclass(frozen=True)
class ParameterSignal:
    """theta(t), held constant."""

    dim: int
    value: tuple[float, ...] = ()

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.value, float)


def constant_parameter(value: Sequence[float]) -> ParameterSignal:
    return ParameterSignal(len(value), tuple(value))


# ---------------------------------------------------------------------------
# Built-in plants
# ---------------------------------------------------------------------------

def wingrock() -> StrictFeedbackSystem:
    """Aircraft wing-rock plant: a 3-level pure strict-feedback chain (n = 0).

    x1' = x2
    x2' = th1 x1 + th2 x2 + th3 x1 x2 + th4 x2^2 + x3 + d1
    x3' = u + d2

    All controlled gains are 1, so eta = mu = 1 hold with equality.  The
    output is the roll angle and rate (x1, x2), the pair that the closed-form
    law's sigma bounds: |(x1, x2)|^2 <= sigma V.
    """
    def const(arity, value, codim=1, name=""):
        if codim == 1:
            return SmoothMap(arity, lambda *a: value, name=name)
        return SmoothMap(arity, lambda *a: (value,) * codim, codim=codim, name=name)

    h = (const(1, 0.0, name="h1"), const(2, 0.0, name="h2"), const(3, 0.0, name="h3"))
    phi = (
        const(1, 0.0, codim=4, name="phi1"),
        SmoothMap(2, lambda x1, x2: (x1, x2, x1 * x2, x2 * x2), codim=4, name="phi2"),
        const(3, 0.0, codim=4, name="phi3"),
    )
    alpha = (
        const(1, 0.0, codim=2, name="alpha1"),
        SmoothMap(2, lambda x1, x2: (1.0, 0.0), codim=2, name="alpha2"),
        SmoothMap(3, lambda x1, x2, x3: (0.0, 1.0), codim=2, name="alpha3"),
    )
    g = tuple(const(i + 1 + 4, 1.0, name=f"g{i + 1}") for i in range(3))
    eta = tuple(const(i + 1, 1.0, name=f"eta{i + 1}") for i in range(3))
    mu = tuple(const(i + 1, 1.0, name=f"mu{i + 1}") for i in range(2))
    return StrictFeedbackSystem(
        n=0, m=3, h=h, phi=phi, alpha=alpha, g=g, eta=eta, mu=mu,
        p=4, l=2, theta_radius=40.0, output_dim=2,
    )


BUILTINS = {"wingrock": wingrock}
