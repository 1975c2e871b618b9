"""Planar realization of the angle model for z -> z^d + c.

Landing points of external rays are computed by a pullback cascade along
the (finite, eventually periodic) orbit of a rational angle: starting from
Boettcher-coordinate approximations at large potential, each sweep takes a
d-th root of the successor ray's point one potential level down, choosing
the root closest to the previous point on the same ray.  The potential is
lowered geometrically in fractional substeps so consecutive points on a ray
stay close enough to make the branch choice unambiguous.  The cascade
converges to the landing points of the whole angle orbit at once, which
also provides exact re-anchor targets for long Birkhoff sums.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .angles import ArcSet, angle_orbit, format_angle, times_d
from .tower import TowerGraph, trace


class LandingError(RuntimeError):
    """Pullback cascade failed to reach the Cauchy tolerance in depth."""


class CriticalProximity(RuntimeError):
    """An orbit passed within tolerance of the critical point."""

    def __init__(self, step: int, z: complex):
        super().__init__(f"orbit within critical tolerance at step {step} "
                         f"(|z| = {abs(z):.3e})")
        self.step = step
        self.z = z


class PolynomialModel:
    """The map f(z) = z^d + c with its cached critical orbit.

    The critical orbit 0, c, c^d + c, ... is iterated until it revisits an
    earlier point within tol_orbit, giving the numerical preperiod and
    period; parameters whose critical orbit escapes or fails to close up
    are rejected.
    """

    __slots__ = ("degree", "c", "tol_orbit", "critical_orbit", "preperiod",
                 "period")

    def __init__(self, degree: int, c: complex, tol_orbit: float = 1e-9,
                 max_preperiod: int = 200):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        self.degree = degree
        self.c = complex(c)
        self.tol_orbit = tol_orbit
        pts: list[complex] = [0j]
        z = 0j
        found = None
        for _ in range(max_preperiod):
            z = z ** degree + self.c
            if abs(z) > 1e6:
                raise ValueError(f"critical orbit escapes for c = {c}")
            for j, w in enumerate(pts):
                if abs(z - w) < tol_orbit:
                    found = j
                    break
            if found is not None:
                break
            pts.append(z)
        if found is None:
            raise ValueError(
                f"critical orbit of c = {c} shows no recurrence within "
                f"{max_preperiod} steps (tol {tol_orbit:g})")
        self.preperiod = found
        self.period = len(pts) - found
        self.critical_orbit = tuple(pts)

    def f(self, z: complex) -> complex:
        return z ** self.degree + self.c

    def df(self, z: complex) -> complex:
        return self.degree * z ** (self.degree - 1)

    def log_deriv(self, z: complex) -> float:
        """log|f'(z)|; the critical point is a logarithmic singularity."""
        if z == 0:
            raise ValueError("log|Df| is singular at the critical point")
        return math.log(self.degree) + (self.degree - 1) * math.log(abs(z))

    def __repr__(self):
        return (f"PolynomialModel(degree={self.degree}, c={self.c}, "
                f"preperiod={self.preperiod}, period={self.period})")


@dataclass(frozen=True)
class OrbitLanding:
    """Landing points for one angle and its whole forward orbit."""

    angle: Fraction
    preperiod: int
    period: int
    points: tuple[complex, ...]
    rows: int
    final_diff: float

    def point_at(self, k: int) -> complex:
        """Landing point of the k-th forward image of the angle."""
        if k < len(self.points):
            return self.points[k]
        return self.points[self.preperiod
                           + (k - self.preperiod) % self.period]


def _closest_root(w: complex, d: int, ref: complex) -> complex:
    if w == 0:
        return 0j
    r = abs(w) ** (1.0 / d)
    theta = cmath.phase(w) / d
    best = None
    best_dist = math.inf
    for j in range(d):
        cand = cmath.rect(r, theta + 2 * math.pi * j / d)
        dist = abs(cand - ref)
        if dist < best_dist:
            best, best_dist = cand, dist
    return best


class LandingSolver:
    """Pullback cascade computing ray landing points to a Cauchy tolerance.

    substeps interleaved potential levels t0 * d^(-m/substeps) keep
    consecutive points on each ray close, so the d-th-root branch nearest
    the previous sweep is always the continuation of the same ray.

    Near a landing cycle of multiplier L the remaining error decays like
    t^b with b = log|L| / (q log d), so weakly repelling cycles need many
    rows; the default depth covers b down to about 0.2.  Angles whose
    orbit passes through the critical point itself converge to a point
    off by about sqrt(machine eps), since the root extraction turns a
    one-ulp phase error at the critical value into its square root.
    """

    __slots__ = ("model", "tol_land", "depth", "substeps", "base_potential",
                 "potential_floor")

    def __init__(self, model: PolynomialModel, tol_land: float = 1e-12,
                 depth: int = 600, substeps: int = 3,
                 base_potential: float = math.log(1e4),
                 potential_floor: float = 1e-15):
        self.model = model
        self.tol_land = tol_land
        self.depth = depth
        self.substeps = substeps
        self.base_potential = base_potential
        self.potential_floor = potential_floor

    def land_orbit(self, a: Fraction) -> OrbitLanding:
        d = self.model.degree
        c = self.model.c
        p, q, orbit = angle_orbit(a, d)
        n_pos = len(orbit)

        def succ(k: int) -> int:
            return k + 1 if k + 1 < n_pos else p

        S = self.substeps
        t0 = self.base_potential
        ring: list[list[complex]] = []
        for m in range(S):
            t = t0 * d ** (-m / S)
            ring.append([cmath.rect(math.exp(t), 2 * math.pi * float(x))
                         for x in orbit])
        prev = ring[S - 1]
        diff = math.inf
        for m in range(S, self.depth + S):
            old = ring[m % S]
            new = [_closest_root(old[succ(k)] - c, d, prev[k])
                   for k in range(n_pos)]
            diff = max(abs(new[k] - old[k]) for k in range(n_pos))
            ring[m % S] = new
            prev = new
            potential = t0 * d ** (-m / S)
            if potential < self.potential_floor and diff <= self.tol_land:
                return OrbitLanding(a % 1, p, q, tuple(new), m, diff)
        raise LandingError(
            f"no convergence for angle {format_angle(a)} within depth "
            f"{self.depth} (last sweep moved {diff:.3e})")

    def land(self, a: Fraction) -> complex:
        return self.land_orbit(a).points[0]


def green(model: PolynomialModel, z: complex, n: int = 50) -> float:
    """Truncated Green function estimate max(0, log|f^n(z)|) / d^n.

    Escaping orbits are cut off early at |z| > 1e8, where log|f(z)| is
    log|z| * d to machine precision, so no overflow occurs.
    """
    d = model.degree
    w = complex(z)
    for k in range(n):
        if abs(w) > 1e8:
            return math.log(abs(w)) / d ** k
        w = model.f(w)
    return max(0.0, math.log(abs(w))) / d ** n if w != 0 else 0.0


def birkhoff_lyapunov(model: PolynomialModel, solver: LandingSolver,
                      a: Fraction, n: int, reanchor_interval: int = 25,
                      crit_tol: float = 1e-7) -> float:
    """Birkhoff average of log|Df| over n steps of the landed orbit of a.

    The orbit is forward-iterated from land(a) and pulled back onto the
    landing point of the shifted angle every reanchor_interval steps, which
    removes the exponential drift of raw iteration near a repelling set.
    Orbits passing within crit_tol of the critical point are rejected as
    excluded samples; the default sits above the sqrt(machine eps) error
    floor of landed precritical points, whose log-derivative would
    otherwise contribute a large finite value in place of -infinity.
    """
    return _birkhoff(model, solver.land_orbit(a), n, reanchor_interval,
                     crit_tol)


def _birkhoff(model: PolynomialModel, landing: OrbitLanding, n: int,
              reanchor_interval: int = 25, crit_tol: float = 1e-7) -> float:
    """birkhoff_lyapunov along an orbit that is already landed."""
    if n <= 0:
        raise ValueError("n must be >= 1")
    if reanchor_interval < 1:
        raise ValueError("reanchor_interval must be >= 1")
    z = landing.points[0]
    total = 0.0
    for k in range(n):
        if abs(z) < crit_tol:
            raise CriticalProximity(k, z)
        total += model.log_deriv(z)
        z = model.f(z)
        if (k + 1) % reanchor_interval == 0:
            z = landing.point_at(k + 1)
    return total / n


# --------------------------------------------------------------------------
# large-scale bookkeeping


def koebe_constant(modulus: float) -> float:
    """Distortion bound K(M) for branches extendible across modulus M.

    A separating annulus of modulus M confines the branch domain to a disk
    of radius r = 4 e^(-2 pi M) relative to the extension (Groetzsch), and
    the Koebe distortion theorem on that disk gives
    K = ((1+r)/(1-r))^4.  Infinite when the annulus is too thin (r >= 1).
    The exact constant is configuration; only K >= 1 and monotone decay to
    1 as M grows are relied upon.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    r = 4.0 * math.exp(-2.0 * math.pi * modulus)
    if r >= 1.0:
        return math.inf
    return ((1.0 + r) / (1.0 - r)) ** 4


@dataclass(frozen=True)
class LargeScaleParams:
    """Euclidean radius and annulus modulus defining large-scale returns."""

    delta_ls: float
    modulus: float

    def __post_init__(self):
        if self.delta_ls <= 0:
            raise ValueError("delta_ls must be positive")
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")

    @property
    def koebe(self) -> float:
        return koebe_constant(self.modulus)


def large_scale_events(a: Fraction, g: TowerGraph, witness_domain: int,
                       witness_arcs: ArcSet, n: int) -> list[int]:
    """Times j <= n at which the lifted orbit of a sits in the witness set.

    The witness set is a union of arcs inside one domain, kept away from
    its cutpoints; entering it certifies a large-scale time for the planar
    orbit, so the returned list never needs planar moduli.  The trace is
    exact, and a trace leaving the expanded graph simply stops producing
    events.
    """
    t = trace(a, g, n)
    d = g.partition.degree
    events = []
    x = a % 1
    for j, did in enumerate(t.domain_ids):
        if did == witness_domain and witness_arcs.contains(x):
            events.append(j)
        x = times_d(x, d)
    return events


# --------------------------------------------------------------------------
# export


def landing_table_csv(model: PolynomialModel, solver: LandingSolver,
                      angles, n: int) -> str:
    """CSV of angle, landing point, and n-step Lyapunov average."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["angle", "re", "im", "lyapunov"])
    for a in angles:
        landing = solver.land_orbit(a)
        z = landing.points[0]
        try:
            lam = format(_birkhoff(model, landing, n), ".17g")
        except CriticalProximity:
            lam = "excluded"
        w.writerow([format_angle(a), format(z.real, ".17g"),
                    format(z.imag, ".17g"), lam])
    return buf.getvalue()
