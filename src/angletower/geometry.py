"""Planar realization of the angle model for z -> z^d + c.

Landing points of external rays are computed along the (finite, eventually
periodic) orbit of a rational angle.  A pullback sweep starts from
Boettcher-coordinate approximations at large potential and, row by row,
takes the d-th root of the successor ray's point one potential level down
nearest the previous point on the same ray; once the orbit barely moves,
Newton on its cycle finishes it and the rest of the orbit is pulled back
from there.  A batch of angles sweeps one pool holding each distinct angle
of their orbits once, and the log|Df| series along the landed orbits are
read off one array over their points.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from collections import Counter
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
# An orbit moving at most COARSE below potential COARSE tries Newton once,
# in a batch every NEWTON_EVERY rows: NEWTON_STEPS steps, NEWTON_REACH reach
COARSE = 1e-6
NEWTON_STEPS = 8
NEWTON_REACH = 64
NEWTON_EVERY = 16
# Critical orbit steps searched for a recurrence; potential rows a landing
# sweeps; the potential below which a sweep row may land an orbit
MAX_PREPERIOD = 200
DEPTH = 600
POTENTIAL_FLOOR = 1e-15


class LandingError(RuntimeError):
    """Pullback cascade failed to reach the Cauchy tolerance in depth."""


class PolynomialModel:
    """The map f(z) = z^d + c with its cached critical orbit.

    The critical orbit 0, c, c^d + c, ... is iterated until it revisits an
    earlier point within tol_orbit, giving the numerical preperiod and
    period; parameters whose critical orbit escapes or fails to close up
    are rejected.
    """

    __slots__ = ("degree", "c", "critical_orbit", "preperiod", "period")

    def __init__(self, degree: int, c: complex, tol_orbit: float = 1e-9):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        self.degree = degree
        self.c = complex(c)
        pts: list[complex] = [0j]
        z = 0j
        found = None
        for _ in range(MAX_PREPERIOD):
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
                f"{MAX_PREPERIOD} steps (tol {tol_orbit:g})")
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
        k, pre = np.arange(n), self.preperiod
        return np.where(k < len(self.points), k, pre + (k - pre) % self.period)


def log_deriv_rows(model: PolynomialModel, landings, n: int,
                   crit_tol: float = 0.0):
    """log|Df| at steps 0..n-1 of each landing slot, one row each, and each
    slot's first point within crit_tol of the critical point (n if none of
    points[:n] is).  The rows gather one array of model.log_deriv at the
    points the steps visit, so a point keeps its bits however it is read;
    points within crit_tol hold nan, and a slot with no landing reads 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals, first, crit, shapes = [], [], [], []
    # step indices per orbit shape; no landing reads the 0 after the values
    steps = {None: np.zeros(n, dtype=np.int32)}
    for ld in landings:
        pts, key = (), None
        if isinstance(ld, OrbitLanding):
            pts, key = ld.points[:n], (len(ld.points), ld.preperiod)
            if key not in steps:
                steps[key] = ld.step_indices(n).astype(np.int32)
        near = [abs(z) < crit_tol for z in pts]
        crit.append(near.index(True) if True in near else n)
        first.append(len(vals) if pts else -1)
        shapes.append(key)
        vals += [math.nan if x else model.log_deriv(z)
                 for z, x in zip(pts, near)]
    at = np.array([steps[k] for k in shapes], dtype=np.int32).reshape(-1, n)
    at += np.array(first, dtype=np.intp)[:, None]
    return np.append(vals, 0.0)[at], np.array(crit)


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
    return 2 * math.pi * np.array(phase), members, sizes, np.array(pres), succ


class LandingSolver:
    """Ray landing in two phases: a pullback sweep, then Newton on the cycle.

    land_many lands a batch of angles at once, sweeping a pool that holds
    each distinct reduced angle of their orbits once.  Each potential row
    t0 * d^(-m/SUBSTEPS) is one _nearest_roots call over the pool, and an
    orbit's move on a row is the largest move among its points.

    Once the potential is below COARSE (or POTENTIAL_FLOOR, if larger) and
    an orbit's move is at most COARSE, Newton on f^p(z) = z refines its
    cycle from its points on that row, and the orbit is pulled back from
    the refined point along the roots nearest those points.  It lands at
    that row if no Newton step overflows or exceeds NEWTON_REACH times its
    last move, Newton converges, the cycle repels, and the pullback closes
    within tol_land and moves no point beyond that reach.  Any other orbit
    sweeps on, with no second try, to a row below POTENTIAL_FLOOR that
    moves it by at most tol_land, or to a LandingError after DEPTH rows.
    Newton runs in batches (every NEWTON_EVERY rows, on the last row, on
    rows below POTENTIAL_FLOOR, and once every live orbit waits), and
    waiting orbits keep sweeping.  rows is the row an orbit froze at, and
    counters adds up orbits, rows swept and the landings of each phase.
    An orbit's steps read only its own points, which depend only on its
    angle, so land_orbit is the batch of one.

    Near a cycle of multiplier L the sweep's error decays like t^b with
    b = log|L| / (q log d); DEPTH covers b down to about 0.2.
    Orbits through the critical point land about sqrt(machine eps) off: the
    root turns a one-ulp phase error at the critical value into its root.
    """

    __slots__ = ("model", "tol_land", "counters")

    def __init__(self, model: PolynomialModel, tol_land: float = 1e-12):
        self.model = model
        self.tol_land = tol_land
        self.counters = Counter()

    def _finish(self, held, sizes, pres):
        """Newton and the pullback for the held orbits, each from its own
        (row, points, reach): {orbit: (row, points)} of those that pass."""
        i = np.array(list(held))
        rows, snaps, reach = zip(*held.values())
        snap, sizes, pres = np.concatenate(snaps), sizes[i], pres[i]
        d, c, reach = self.model.degree, self.model.c, np.array(reach)
        per, first = sizes - pres, np.cumsum(sizes) - sizes
        z, mult = snap[first + pres], np.zeros(len(sizes), dtype=complex)
        sound, done = np.ones(len(z), dtype=bool), np.zeros(len(z), dtype=bool)
        with np.errstate(all="ignore"):
            for _ in range(NEWTON_STEPS):
                on = sound & ~done
                if not on.any():
                    break
                w, dw = z, np.ones_like(z)
                for k in range(per.max()):
                    dw = np.where(k < per, d * w ** (d - 1) * dw, dw)
                    w = np.where(k < per, w ** d + c, w)
                step = (w - z) / (dw - 1)
                sound &= ~on | ((np.abs(step) <= reach) & np.isfinite(dw))
                mult = np.where(on, dw, mult)
                z = np.where(on, z - step, z)
                done |= on & (np.abs(step) <= self.tol_land)
        # pull back round each repelling orbit: point size - 1 - j on step j
        ok = sound & done & (np.abs(mult) > 1)
        if not ok.any():
            return {}
        out, cur, at0, n = snap.copy(), z[ok], first[ok], sizes[ok]
        for j in range(n.max()):
            at = at0 + np.maximum(n - 1 - j, 0)
            cur = _nearest_roots(cur - c, d, snap[at])
            out[at[j < n]] = cur[j < n]
        ok &= ((np.abs(out[first + pres] - z) <= self.tol_land)
               & (np.maximum.reduceat(np.abs(out - snap), first) <= reach))
        return {j: (r, p) for j, r, p, o in
                zip(i, rows, np.split(out, first[1:]), ok) if o}

    def land_many(self, angles) -> list[OrbitLanding | LandingError]:
        """One slot per angle, in order: its landing or its LandingError."""
        angles = list(angles)
        d, c = self.model.degree, self.model.c
        S, t0 = SUBSTEPS, BASE_POTENTIAL
        reduced = [a % 1 for a in angles]
        keys = list(dict.fromkeys(reduced))
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
        coarse = np.ones(len(keys), dtype=bool)
        diff = np.full(len(keys), math.inf)
        done, held = {}, {}
        prev = ring[S - 1]
        count = self.counters
        count["landing.orbits"] += len(keys)

        def points(i):  # live orbit i's points on the current row
            return new[members[starts[i]:starts[i] + sizes[i]]]
        for m in range(S, DEPTH + S):
            if not len(live):
                break
            count["landing.rows"] += 1
            old = ring[m % S]
            new = _nearest_roots(old[succ] - c, d, prev)
            diff = np.maximum.reduceat(np.abs(new - old)[members], starts)
            ring[m % S] = prev = new
            t = t0 * d ** (-m / S)
            if t >= max(COARSE, POTENTIAL_FLOOR):
                continue
            tried = np.flatnonzero(coarse & (diff <= COARSE))
            landed = (diff <= self.tol_land) & (t < POTENTIAL_FLOOR)
            for i in tried:
                held[i] = (m, points(i), NEWTON_REACH * diff[i])
            coarse[tried] = False
            found = {}
            if held and (m % NEWTON_EVERY == 0 or t < POTENTIAL_FLOOR
                         or len(held) == len(live) or m == DEPTH + S - 1):
                found = self._finish(held, sizes, pres)
                landed[list(found)] = True
                count["landing.newton"] += len(found)
                held = {}
            if not landed.any():
                continue
            for i in np.flatnonzero(landed):
                k, n, pre = live[i], int(sizes[i]), int(pres[i])
                row, pts = found.get(i) or (m, points(i))
                done[keys[k]] = OrbitLanding(keys[k], pre, n - pre,
                                             tuple(pts.tolist()), row)
            # keep the points a live orbit still uses
            members = members[np.repeat(~landed, sizes)]
            used = np.zeros(len(new), dtype=bool)
            used[members] = True
            pos = np.cumsum(used) - 1
            members = pos[members]
            succ = pos[succ[used]]
            ring = [z[used] for z in ring]
            prev = prev[used]
            live, pres, diff, sizes, coarse = (
                x[~landed] for x in (live, pres, diff, sizes, coarse))
            starts = np.cumsum(sizes) - sizes
        count["landing.sweep"] = (count["landing.orbits"]
                                  - count["landing.newton"])
        last = {keys[k]: float(diff[i]) for i, k in enumerate(live)}
        return [done[r] if r in done else LandingError(
            f"no convergence for angle {format_angle(a)} within depth "
            f"{DEPTH} (last sweep moved {last[r]:.3e})")
            for a, r in zip(angles, reduced)]

    def land_orbit(self, a: Fraction) -> OrbitLanding:
        """land_many of one angle, raising its LandingError; about 3.6 ms a
        ray of c = i on a 2-core x86 host, so the stages land in batches."""
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
    rows, crit = log_deriv_rows(model, landings, n, CRIT_TOL)
    for landing, vals, k in zip(landings, rows, crit):
        if isinstance(landing, LandingError):
            raise landing
        z = landing.points[0]
        lam = format(float(vals.mean()), ".17g") if k == n else "excluded"
        w.writerow([format_angle(landing.angle), format(z.real, ".17g"),
                    format(z.imag, ".17g"), lam])
    return buf.getvalue()
