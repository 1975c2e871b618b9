"""Planar realization of the angle model for z -> z^d + c.

Landing points of external rays are computed by a pullback cascade along
the (finite, eventually periodic) orbit of a rational angle: starting from
Boettcher-coordinate approximations at large potential, each sweep takes a
d-th root of the successor ray's point one potential level down, choosing
the root closest to the previous point on the same ray.  The potential is
lowered geometrically in fractional substeps so consecutive points on a ray
stay close enough to make the branch choice unambiguous.  A batch of angles
sweeps one shared pool holding each distinct angle of their orbits once,
so orbits that run into each other's tails land those points only once;
every angle gets the landing points of its whole orbit, and every
log|Df| series along an orbit is read off those points.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angles import format_angle

# Orbits passing within CRIT_TOL of the critical point are excluded from
# Lyapunov averages: it sits above the sqrt(machine eps) error floor of
# landed precritical points, whose log-derivative would otherwise
# contribute a large finite value in place of -infinity.
CRIT_TOL = 1e-7

# Potential levels t0 * d^(-m/SUBSTEPS), from t0 = BASE_POTENTIAL down
SUBSTEPS = 3
BASE_POTENTIAL = math.log(1e4)


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

    __slots__ = ("degree", "c", "critical_orbit", "preperiod", "period")

    def __init__(self, degree: int, c: complex, tol_orbit: float = 1e-9,
                 max_preperiod: int = 200):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        self.degree = degree
        self.c = complex(c)
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

    def step_indices(self, n: int) -> np.ndarray:
        """Indices into points of the images at steps 0..n-1, wrapping
        round the cycle once the points run out."""
        k = np.arange(n)
        tail = k >= len(self.points)
        k[tail] = self.preperiod + (k[tail] - self.preperiod) % self.period
        return k

    def log_derivs(self, model: PolynomialModel, n: int,
                   crit_tol: float = 0.0) -> np.ndarray:
        """log|Df| at steps 0..n-1, one evaluation per landed point tiled
        by step_indices.  The steps visit points 0, 1, ... in order before
        they repeat, so CriticalProximity names the first point within
        crit_tol of the critical point."""
        if n < 1:
            raise ValueError("n must be >= 1")
        points = self.points[:n]
        for k, z in enumerate(points):
            if abs(z) < crit_tol:
                raise CriticalProximity(k, z)
        vals = np.array([model.log_deriv(z) for z in points])
        return vals[self.step_indices(n)]


def _nearest_roots(w: np.ndarray, d: int, ref: np.ndarray) -> np.ndarray:
    """Per point, the d-th root of w nearest ref: the first of the roots
    |w|^(1/d) e^(i (arg(w)/d + 2 pi j/d)), j = 0..d-1, on a tie, and 0
    where w = 0."""
    r = np.abs(w) ** (1.0 / d)
    theta = np.angle(w) / d
    for j in range(d):
        phi = theta + 2 * math.pi * j / d
        cand = np.empty_like(w)
        cand.real = r * np.cos(phi)
        cand.imag = r * np.sin(phi)
        dist = np.abs(cand - ref)
        if j == 0:
            best, best_dist = cand, dist
        else:
            closer = dist < best_dist
            best = np.where(closer, cand, best)
            best_dist = np.where(closer, dist, best_dist)
    best[w == 0] = 0
    return best


def _orbit_pool(keys, d: int):
    """Pool the orbits of the reduced angles keys under x -> d*x mod 1.

    Returns (phase, members, sizes, pres, succ): 2 pi x for each distinct
    angle x of the orbits, which make up the pool; the pool indices of
    each orbit in orbit order, orbit after orbit; each orbit's size and
    preperiod; and each pool point's successor.

    Each orbit's run starts with the angles it adds to the pool, so pool
    index j was added by the last run o with first[o] <= j, at offset
    t = j - first[o].  A walk stops at the first angle already pooled; the
    rest of its orbit is that angle's forward orbit, read off the run that
    added it: from offset t to the end, then round the cycle back to t.
    """
    # the reduced angle u/v, 0 <= u < v, is pooled under the one int
    # v*v + u, which no other reduced angle shares
    pool: dict[int, int] = {}
    phase, runs, pres, first = [], [], [], []
    for a in keys:
        p, q = a.numerator, a.denominator
        first.append(len(phase))
        while True:
            g = math.gcd(p, q)
            v = q // g
            j = pool.setdefault(v * v + p // g, len(phase))
            if j < len(phase):
                break
            # int / int rounds correctly: float() of the angle
            phase.append(p / q)
            p = d * p % q
        fresh = list(range(first[-1], len(phase)))
        o = bisect.bisect_right(first, j) - 1
        t = j - first[o]
        if o == len(runs):
            runs.append(fresh)
            pres.append(t)
        else:
            run, pre = runs[o], pres[o]
            runs.append(fresh + run[t:] + run[pre:t])
            pres.append(len(fresh) + max(pre - t, 0))
    members = np.array([j for run in runs for j in run], dtype=np.intp)
    sizes = np.array([len(run) for run in runs], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    # the next point in the run, or the cycle's start; it depends on the
    # angle alone, so every run through a point writes the same value
    nxt = np.arange(len(members), dtype=np.intp) + 1
    nxt[starts + sizes - 1] = starts + pres
    succ = np.empty(len(phase), dtype=np.intp)
    succ[members] = members[nxt]
    return 2 * math.pi * np.array(phase), members, sizes, pres, succ


class LandingSolver:
    """Pullback cascade computing ray landing points to a Cauchy tolerance.

    land_many lands a batch of angles at once.  Its points form a pool
    holding each distinct reduced angle of the batch's orbits once, with
    one successor index array, and each orbit is the list of its points'
    pool indices in orbit order.  Each potential row is a single numpy
    sweep over the pool: the successor's point one level up, minus c, has
    its d d-th roots formed from |w|^(1/d) and arg(w)/d + 2 pi j/d, and the
    root nearest the previous point on the same ray is kept (the first one
    on a tie; w = 0 gives 0).  An orbit's move on a row is the largest move
    among its points.  A point's value on every row depends only on its
    own angle's forward orbit, so a landing does not depend on the rest of
    the batch, and land_orbit is the batch of one.

    SUBSTEPS interleaved potential levels t0 * d^(-m/SUBSTEPS) keep
    consecutive points on each ray close, so the d-th-root branch nearest
    the previous sweep is always the continuation of the same ray.  Once
    the potential is below potential_floor, each orbit whose sweep moved
    no point by more than tol_land is frozen at that row, its points read
    there, and the pool shrinks to the points a live orbit still uses; an
    orbit still moving after depth rows gets a LandingError in its slot.

    Near a landing cycle of multiplier L the remaining error decays like
    t^b with b = log|L| / (q log d), so weakly repelling cycles need many
    rows; the default depth covers b down to about 0.2.  Angles whose
    orbit passes through the critical point itself converge to a point
    off by about sqrt(machine eps), since the root extraction turns a
    one-ulp phase error at the critical value into its square root.
    """

    __slots__ = ("model", "tol_land", "depth", "potential_floor")

    def __init__(self, model: PolynomialModel, tol_land: float = 1e-12,
                 depth: int = 600, potential_floor: float = 1e-15):
        self.model = model
        self.tol_land = tol_land
        self.depth = depth
        self.potential_floor = potential_floor

    def land_many(self, angles) -> list[OrbitLanding | LandingError]:
        """One slot per angle, in order: its landing or its LandingError."""
        angles = list(angles)
        d = self.model.degree
        c = self.model.c
        S = SUBSTEPS
        t0 = BASE_POTENTIAL
        keys = list(dict.fromkeys(a % 1 for a in angles))
        phase, members, sizes, pres, succ = _orbit_pool(keys, d)
        starts = np.cumsum(sizes) - sizes
        ring = []
        for m in range(S):
            r = math.exp(t0 * d ** (-m / S))
            z = np.empty(len(phase), dtype=np.complex128)
            z.real = r * np.cos(phase)
            z.imag = r * np.sin(phase)
            ring.append(z)
        live = np.arange(len(keys))
        diff = np.full(len(keys), math.inf)
        done: dict[Fraction, OrbitLanding] = {}
        prev = ring[S - 1]
        for m in range(S, self.depth + S):
            if not len(live):
                break
            old = ring[m % S]
            new = _nearest_roots(old[succ] - c, d, prev)
            diff = np.maximum.reduceat(np.abs(new - old)[members], starts)
            ring[m % S] = new
            prev = new
            if t0 * d ** (-m / S) >= self.potential_floor:
                continue
            landed = diff <= self.tol_land
            if not landed.any():
                continue
            for i in np.flatnonzero(landed):
                k = live[i]
                pre, n = pres[k], int(sizes[i])
                pts = tuple(new[members[starts[i]:starts[i] + n]].tolist())
                done[keys[k]] = OrbitLanding(keys[k], pre, n - pre, pts, m)
            # keep the points a live orbit still uses
            members = members[np.repeat(~landed, sizes)]
            used = np.zeros(len(new), dtype=bool)
            used[members] = True
            pos = np.cumsum(used) - 1
            members = pos[members]
            succ = pos[succ[used]]
            ring = [z[used] for z in ring]
            prev = prev[used]
            live, diff, sizes = live[~landed], diff[~landed], sizes[~landed]
            starts = np.cumsum(sizes) - sizes
        last = {keys[k]: float(diff[i]) for i, k in enumerate(live)}
        return [done[a % 1] if a % 1 in done else LandingError(
            f"no convergence for angle {format_angle(a)} within depth "
            f"{self.depth} (last sweep moved {last[a % 1]:.3e})")
            for a in angles]

    def land_orbit(self, a: Fraction) -> OrbitLanding:
        """land_many of one angle, raising its LandingError.

        Each row then pays numpy's per-call overhead for one short orbit,
        about twice the time of a scalar loop.  That cost is accepted: the
        stages land in batches, and the one-at-a-time callers
        (the benchmark's output checks and the tests) land few angles.
        """
        landing = self.land_many([a])[0]
        if isinstance(landing, LandingError):
            raise landing
        return landing

    def land(self, a: Fraction) -> complex:
        return self.land_orbit(a).points[0]


# --------------------------------------------------------------------------
# export


def landing_table_csv(model: PolynomialModel, landings, n: int) -> str:
    """CSV of angle, landing point, and n-step Lyapunov average of each
    landing slot; a LandingError slot is raised."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["angle", "re", "im", "lyapunov"])
    for landing in landings:
        if isinstance(landing, LandingError):
            raise landing
        z = landing.points[0]
        try:
            vals = landing.log_derivs(model, n, CRIT_TOL)
            lam = format(float(vals.mean()), ".17g")
        except CriticalProximity:
            lam = "excluded"
        w.writerow([format_angle(landing.angle), format(z.real, ".17g"),
                    format(z.imag, ".17g"), lam])
    return buf.getvalue()
