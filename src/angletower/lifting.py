"""Cesaro lifting of sample measures to the tower, with diagnostics.

A measure is a finite weighted set of rational angles placed on the base.
Its lift at horizon n is the average of the pushed masses over the first n
steps of every trace.  Everything downstream (liftability verdicts,
invariance defects, density ratios, Lyapunov and entropy estimates) reads
off the traced ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction

import numpy as np

from .angles import CirclePartition, format_angle, orbit_numerators
from .geometry import (CRIT_TOL, LandingError, LandingSolver,
                       PolynomialModel, log_deriv_rows)
from .streams import (Gather, TraceEnsemble, _gather, common_numerators,
                      is_dyadic, trace_ensemble, window_digits, word_codes)
from .tower import TowerGraph

PROVENANCES = ("brolin", "dirac-periodic", "conformal", "custom")

DEFAULT_FLOOR = 0.05
DENSITY_DEPTH = 6


@dataclass(frozen=True, eq=False)
class SampleMeasure:
    """Weighted rational angles nums[i] / den summing to unit mass.

    den need not be reduced (d^K, d^bits - 1 for the Brolin samplers);
    angles is a lazy, read-only Fraction view.  horizon, unless None,
    bounds the steps over which the samples behave like typical points
    (dyadic samples eventually ride the partition boundary).
    """

    nums: tuple[int, ...]
    den: int
    weights: np.ndarray
    provenance: str
    horizon: int | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.nums:
            raise ValueError("a measure needs at least one sample")
        weights = np.array(self.weights, dtype=np.float64)
        if weights.shape != (len(self.nums),) or not (
                np.isfinite(weights) & (weights > 0)).all():
            raise ValueError(f"weights must be {len(self.nums)} finite "
                             f"numbers > 0")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def angles(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.den) for j in self.nums)


def orbit_hits_boundary(a: Fraction, partition: CirclePartition) -> bool:
    """Whether the angle orbit meets the partition boundary set, exactly:
    the boundary angles (preimages of strictly preperiodic ray angles) are
    strictly preperiodic, so only the preperiod, the at most log_d q steps
    whose denominator shares a factor with d, can meet one."""
    d = partition.degree
    x = Fraction(a) % 1
    p, q = x.numerator, x.denominator
    boundary = {(b.numerator, b.denominator) for b in partition.boundary}
    # d*p/q in lowest terms is (d/g)*p/(q/g), g = gcd(q, d)
    while (g := math.gcd(q, d)) > 1:
        if (p, q) in boundary:
            return True
        p, q = d // g * p % (q // g), q // g
    return False


def brolin_samples(partition: CirclePartition, count: int, horizon: int,
                   seed: int) -> SampleMeasure:
    """Uniform (maximal-entropy) sampler: angles j / d^K, d not dividing j.

    K = horizon + G guard digits, where G = window_digits(d), the base-d
    digits of one 64-bit word (64 for d = 2, 40 for d = 3, 32 for d = 4).
    The guard digits protect the measure, not the streams, whose backward
    scan is exact at any K; the sample values depend on K, so it stays.
    A numerator not divisible by d keeps every iterate within the horizon
    at exact denominator d^(K-k) > d^G, which no partition boundary angle
    can match, so no trace rides a cutpoint and no resampling is ever
    needed.  Requires every d-adic boundary angle to have fewer than G
    fractional base-d digits.

    Numerators are seeded random bytes reduced mod d^K, moved up by one
    when d divides them (for d = 2 that sets the low bit).  When d^K is not
    a power of two, 64 more random bits keep the modulo bias below 2^-64.
    The measure holds them as ints over den = d^K, with no Fraction built;
    every weight is 1/count, so its diagnostics take the count path.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d = partition.degree
    guard = window_digits(d)
    for b in partition.boundary:
        if is_dyadic(b, d) and d ** (guard - 1) % b.denominator:
            raise ValueError(
                f"boundary angle {format_angle(b)} exceeds the base-{d} "
                f"guard resolution")
    K = horizon + guard
    den = d ** K
    nbytes = ((den - 1).bit_length() + 7) // 8
    if den & (den - 1):
        nbytes += 8
    rng = np.random.default_rng(seed)
    raw = rng.bytes(count * nbytes)
    js = (int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "big") % den
          for i in range(count))
    return SampleMeasure(tuple(j + (j % d == 0) for j in js), den,
                         [1.0 / count] * count, "brolin", horizon)


def brolin_period_samples(partition: CirclePartition, count: int,
                          seed: int, bits: int) -> SampleMeasure:
    """Uniform sampler on angles j / (d^bits - 1): periodic, short orbits.

    The denominator is coprime to d, so every sample is periodic with
    period dividing bits and its orbit can never meet the (strictly
    preperiodic) boundary angles.  Coarser than the dyadic sampler but
    each sample admits a cheap landed orbit, which Lyapunov estimation
    needs.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    d = partition.degree
    den = d ** bits - 1
    rng = np.random.default_rng(seed)
    js = rng.integers(0, den, size=count).tolist()
    return SampleMeasure(tuple(js), den, [1.0 / count] * count, "brolin")


def dirac_cycle(partition: CirclePartition, a: Fraction) -> SampleMeasure:
    """The invariant atomic measure on the cycle of a periodic angle."""
    d = partition.degree
    a = Fraction(a) % 1
    # q is coprime to d, so every iterate p/q is in lowest terms over q
    preperiod, q, nums = orbit_numerators(a, d)
    if preperiod:
        raise ValueError(f"angle {format_angle(a)} is not periodic "
                         f"under multiplication by {d}")
    return SampleMeasure(tuple(nums), q, [1.0 / len(nums)] * len(nums),
                         "dirac-periodic")


def custom_measure(pairs, partition: CirclePartition,
                   provenance: str) -> SampleMeasure:
    """Measure from explicit (angle, weight) pairs, none of whose orbits
    meets the partition's boundary."""
    pairs = tuple(pairs)
    angles = [Fraction(a) % 1 for a, _ in pairs]
    for a in angles:
        if orbit_hits_boundary(a, partition):
            raise ValueError(
                f"sample {format_angle(a)} has a boundary-riding orbit")
    return SampleMeasure(*common_numerators(angles),
                         [float(w) for _, w in pairs], provenance)


# --------------------------------------------------------------------------
# the lift


@dataclass(frozen=True)
class TowerMass:
    """Cesaro average of the lifted sample masses, truncated at level R.

    mass maps domain id to weight for domains of level <= R; escaped is
    the averaged weight sitting above R (it may re-descend later, and the
    average accounts for that at each step separately).
    """

    mass: dict[int, float]
    escaped: float
    n: int
    R: int

    def __post_init__(self):
        if any(w < 0 for w in self.mass.values()) or self.escaped < -1e-15:
            raise ValueError("negative mass")
        total = sum(self.mass.values()) + self.escaped
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mass plus escaped is {total!r}, not 1")


def make_ensemble(mu: SampleMeasure, g: TowerGraph, n: int) -> TraceEnsemble:
    """Trace the measure's samples n steps, honoring its horizon."""
    if mu.horizon is not None and n > mu.horizon:
        raise ValueError(
            f"measure is exact to horizon {mu.horizon}, requested {n}")
    return trace_ensemble(mu, mu.weights, g, n)


def _count_sums(weights: np.ndarray, size=None) -> np.ndarray | None:
    """T[c] for c up to size (the sample count by default), the in-order
    float sum of c copies of the common weight, or None unless all weights
    are equal (as from every shipped sampler).  A sum in sample order adds
    w per sample counted and 0.0 otherwise, so it is T[c] to the bit: the
    diagnostics read counts through T."""
    if not len(weights) or (weights != weights[0]).any():
        return None
    T = np.full(len(weights) + 1 if size is None else size + 1, weights[0])
    T[0] = 0.0
    return np.cumsum(T, out=T)


def _step_mass(inside: np.ndarray, weights: np.ndarray, T) -> np.ndarray:
    """The weight inside at each step (column): T[c] of _count_sums for c
    samples inside, or a running sum in sample order, which fixes its bits."""
    if T is not None:
        return T[np.count_nonzero(inside, axis=0)]
    return np.cumsum(inside * weights[:, None], axis=0)[-1]


class _Curves:
    """Retained mass at levels <= R, for each R of R_grid, at each step
    0..n-1."""

    def __init__(self, ens: TraceEnsemble, R_grid, n: int):
        self.T = _count_sums(ens.weights)
        self.w, self.levels = ens.weights, ens.levels
        self.R_grid = R_grid
        self.n = n
        self.step_mass = np.empty((len(R_grid), n))

    def add(self, k0: int, states: np.ndarray) -> None:
        lv = _gather(self.levels, states[:, :max(0, self.n - k0)])
        k1 = k0 + lv.shape[1]
        for i, R in enumerate(self.R_grid):
            self.step_mass[i, k0:k1] = _step_mass(lv <= R, self.w, self.T)

    def rows(self, n_grid) -> list[tuple[int, int, float, float]]:
        rows = []
        for R, mass in zip(self.R_grid, self.step_mass):
            cum = np.cumsum(mass)
            for n in n_grid:
                retained = float(cum[n - 1] / n)
                rows.append((n, R, retained, 1.0 - retained))
        rows.sort()
        return rows


def lift_cesaro(ens: TraceEnsemble, n: int, R: int) -> TowerMass:
    """The horizon-n Cesaro lift of the ensemble restricted to levels <= R.

    Averages the pushed sample masses over steps 0..n-1, as the defect
    folds them; step 0 places everything on the base, so n = 1 returns
    the inclusion itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    occupation = _Defect(ens, n - 1)
    ens.fold(n, occupation)
    mass = {i: float(w) for i, w in enumerate(occupation.total / n)
            if w != 0.0 and ens.levels[i] <= R}
    # escaped is the mass complement, so conservation holds to the same
    # accuracy as the input normalization
    escaped = math.fsum([math.fsum(ens.weights), -math.fsum(mass.values())])
    return TowerMass(mass, max(escaped, 0.0), n, R)


def retained_curves(ens: TraceEnsemble, n_grid, R_grid
                    ) -> list[tuple[int, int, float, float]]:
    """Rows (n, R, retained, escaped) over both grids from a single trace."""
    n_grid = sorted(set(int(n) for n in n_grid))
    R_grid = sorted(set(int(R) for R in R_grid))
    if n_grid[0] < 1:
        raise ValueError("horizons must be >= 1")
    n_max = n_grid[-1]
    curves = _Curves(ens, R_grid, n_max)
    ens.fold(n_max, curves)
    return curves.rows(n_grid)


def curves_csv(rows) -> str:
    lines = ["n,R,retained,escaped"]
    for n, R, retained, escaped in rows:
        lines.append(f"{n},{R},{retained:.17g},{escaped:.17g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LiftReport:
    """Empirical liftability verdict with its supporting curves.

    The verdict is a finite-horizon surrogate for the vague-limit
    definition: `liftable` when some truncation keeps at least
    DEFAULT_FLOOR mass across the whole horizon grid, `not-liftable` when
    every truncation has fallen below it at the largest horizon.
    """

    curves: tuple[tuple[int, int, float, float], ...]
    verdict: str
    densities: dict | None = None
    invariance_defect: float | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "floor": DEFAULT_FLOOR,
            "note": "finite-horizon surrogate verdict",
            "curves": [list(r) for r in self.curves],
            "densities": (None if self.densities is None else
                          {"".join(map(str, k)): v
                           for k, v in sorted(self.densities.items())}),
            "invariance_defect": self.invariance_defect,
        }


def liftability_verdict(rows) -> LiftReport:
    rows = tuple(sorted(rows))
    by_R: dict[int, list] = {}
    for n, R, retained, _ in rows:
        by_R.setdefault(R, []).append((n, retained))
    stable = any(min(ret for _, ret in pts) >= DEFAULT_FLOOR
                 for pts in by_R.values())
    if stable:
        verdict = "liftable"
    elif all(max(pts)[1] < DEFAULT_FLOOR for pts in by_R.values()):
        verdict = "not-liftable"
    else:
        verdict = "inconclusive"
    return LiftReport(rows, verdict)


class _Defect:
    """Weighted domain counts at step 0, summed over steps 0..n (the
    Cesaro occupation), and at step n."""

    def __init__(self, ens: TraceEnsemble, n: int):
        self.w, self.size = ens.weights, len(ens.levels)
        self.n = n

    def add(self, k0: int, states: np.ndarray) -> None:
        for k in range(k0, min(k0 + states.shape[1], self.n + 1)):
            self.last = np.bincount(states[:, k - k0], weights=self.w,
                                    minlength=self.size)
            if k == 0:
                self.first = self.last
                self.total = self.last.copy()
            else:
                self.total += self.last

    def value(self, test_ids) -> float:
        ids = np.asarray(list(test_ids), dtype=np.intp)
        shifted = (self.total[ids] - self.first[ids]) / self.n
        plain = (self.total[ids] - self.last[ids]) / self.n
        return float(np.abs(shifted - plain).max())


def invariance_defect(ensemble: TraceEnsemble, n: int, test_ids) -> float:
    """max over domain indicators of |Cesaro(phi o fhat) - Cesaro(phi)|.

    Computed from the defining sums (steps 1..n against steps 0..n-1),
    both read off one pass of per-step weighted domain counts over steps
    0..n; the telescoping bound 2 sup|phi| / n is a theorem about this
    quantity, not an input.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    defect = _Defect(ensemble, n)
    ensemble.fold(n, defect)
    return defect.value(test_ids)


@dataclass(frozen=True)
class DensityReport:
    """Empirical Radon-Nikodym ratios of the projected lift against mu."""

    depth: int
    retained: float
    ratios: dict[tuple, float]
    corrected: dict[tuple, float]
    skipped: tuple[tuple, ...]

    def to_json(self) -> dict:
        key = lambda word: "".join(map(str, word))
        return {
            "depth": self.depth,
            "retained": self.retained,
            "ratios": {key(k): v for k, v in sorted(self.ratios.items())},
            "corrected": {key(k): v
                          for k, v in sorted(self.corrected.items())},
            "skipped": [key(k) for k in self.skipped],
        }


class _Density:
    """Retained (level <= R) weight of each depth-m cylinder word summed
    over steps 0..n-m-1, and mu, the weight of the words at step 0."""

    def __init__(self, ens: TraceEnsemble, m: int, R: int, n: int):
        self.syms, self.w, self.m = ens.symbols, ens.weights, m
        self.N = N = ens.graph.partition.size
        self.T = _count_sums(self.w)
        self.steps = n - m
        self.base = N ** m
        self.lead = np.int64(N ** (m - 1))
        self.wid = word_codes(self.syms[:, :m], N)
        self.mu_mass = np.bincount(self.wid, weights=self.w,
                                   minlength=self.base)
        # w[keep].sum() is numpy's pairwise sum of c copies of w
        self.pairwise = cache(lambda c: float(np.full(c, self.w[0]).sum()))
        self.proj = np.zeros(self.base, dtype=np.float64)
        self.retained_sum = 0.0
        self.retained_at = ens.levels <= R

    def add(self, k0: int, states: np.ndarray) -> None:
        syms, w, T, wid = self.syms, self.w, self.T, self.wid
        kept = _gather(self.retained_at, states[:, :max(0, self.steps - k0)])
        for k in range(k0, k0 + kept.shape[1]):
            if k > 0:
                # shift the word one symbol on, in place
                wid -= syms[:, k - 1] * self.lead
                wid *= self.N
                wid += syms[:, k + self.m - 1]
            keep = kept[:, k - k0]
            if T is not None:
                self.proj += T[np.bincount(wid[keep], minlength=self.base)]
                self.retained_sum += self.pairwise(
                    int(np.count_nonzero(keep)))
            elif keep.any():
                self.proj += np.bincount(wid[keep], weights=w[keep],
                                         minlength=self.base)
                self.retained_sum += float(w[keep].sum())

    def report(self) -> DensityReport:
        N, m, mu_mass = self.N, self.m, self.mu_mass
        proj = self.proj / self.steps
        retained = self.retained_sum / self.steps
        ratios = {}
        corrected = {}
        skipped = []
        for i in np.nonzero(mu_mass + proj)[0]:
            word = tuple(int(x) for x in np.unravel_index(i, (N,) * m))
            if mu_mass[i] == 0.0:
                skipped.append(word)
                continue
            r = float(proj[i] / mu_mass[i])
            ratios[word] = r
            corrected[word] = r / retained if retained > 0 else math.inf
        return DensityReport(m, retained, ratios, corrected, tuple(skipped))


def project_and_density(ensemble: TraceEnsemble, m: int,
                        R: int) -> DensityReport:
    """Ratio (projected retained lift of Z) / mu(Z) per depth-m cylinder.

    Cylinder membership at step k needs the symbols k..k+m-1, so the
    average runs over k < n - m, n the horizon.  mu(Z) is the empirical
    weight of the samples starting in Z; cylinders of no weight are
    skipped.
    The corrected map divides by the overall retained mass, which is the
    constant the raw ratios approach for an invariant liftable input.
    """
    if m < 1:
        raise ValueError("depth must be >= 1")
    n = ensemble.horizon
    if n - m < 1:
        raise ValueError("horizon too short for this cylinder depth")
    density = _Density(ensemble, m, R, n)
    ensemble.fold(n, density)
    return density.report()


# --------------------------------------------------------------------------
# dynamical consistency estimates


@dataclass(frozen=True)
class LyapunovReport:
    """The two exponents; landings holds each sample's landing slot (None
    when not landed), which to_json leaves out."""

    lambda_f: float | None
    lambda_fhat: float | None
    n: int
    used_weight: float
    excluded: tuple[tuple[int, str], ...]
    landings: tuple

    def to_json(self) -> dict:
        return {
            "lambda_f": self.lambda_f,
            "lambda_fhat": self.lambda_fhat,
            "n": self.n,
            "used_weight": self.used_weight,
            "excluded": [list(e) for e in self.excluded],
        }


def lyapunov_consistency(ensemble: TraceEnsemble, model: PolynomialModel,
                         solver: LandingSolver, R: int,
                         n: int) -> LyapunovReport:
    """Base and tower Lyapunov estimates from the same landed orbits.

    lambda_f averages log|Df| over every traced step; lambda_fhat
    reweights the same evaluations by the retained (level <= R)
    indicator, which is the lift-side exponent.  Samples whose landing
    fails, or whose landed orbit passes within CRIT_TOL of the critical
    point, are excluded and reported.
    """
    retained = Gather(ensemble, ensemble.levels <= R, n)
    ensemble.fold(n, retained)
    landings = solver.land_many(ensemble.angles)
    excluded = [(s, f"landing failed: {landing}")
                for s, landing in enumerate(landings)
                if isinstance(landing, LandingError)]
    fit = [s for s, landing in enumerate(landings)
           if not isinstance(landing, LandingError)]
    rows, crit = log_deriv_rows(model, [landings[s] for s in fit], n, CRIT_TOL)
    excluded += [(s, f"critical proximity at step {k}")
                 for s, k in zip(fit, crit.tolist()) if k < n]
    excluded.sort()
    fit = np.array(fit, dtype=np.intp)[crit == n]
    rows = rows[crit == n]
    w = ensemble.weights[fit]
    keep = retained.out[fit]
    used = float(w.sum())
    hat_num = float((w * np.where(keep, rows, 0.0).sum(axis=1)).sum())
    hat_den = float((w * keep.sum(axis=1)).sum())
    lam_f = float((w * rows.mean(axis=1)).sum()) / used if used > 0 else None
    # a vanishing retained fraction means the lift carries no mass and
    # the tower-side exponent is undefined, not merely noisy
    if hat_den > 1e-6 * max(used, 1e-300) * n:
        lam_hat = hat_num / hat_den
    else:
        lam_hat = None
    return LyapunovReport(lam_f, lam_hat, n, used, tuple(excluded),
                          tuple(landings))


def entropy_estimate(ensemble: TraceEnsemble, m1: int, m2: int) -> float:
    """Plugin cylinder entropy increment between depths m1 < m2.

    Per depth m the plugin entropy is H_m = -sum_s w_s log p(word_m(s))
    with p the empirical word distribution of the ensemble itself.  The
    estimate is (H_m2 - H_m1) / (m2 - m1): plugin values carry an
    m-independent bias that the difference cancels.
    """
    if not 1 <= m1 < m2:
        raise ValueError("depths must satisfy 1 <= m1 < m2")
    if m2 > ensemble.horizon:
        raise ValueError("depth exceeds the traced horizon")
    w = ensemble.weights
    H = []
    for m in (m1, m2):
        wid = word_codes(ensemble.symbols[:, :m],
                         ensemble.graph.partition.size)
        _, inv = np.unique(wid, return_inverse=True)
        p = np.bincount(inv, weights=w)
        H.append(float(-(w * np.log(p[inv])).sum()))
    return (H[1] - H[0]) / (m2 - m1)


def lift_report(ens: TraceEnsemble, n_grid, R_grid) -> LiftReport:
    """One-stop verdict: curves, verdict, defect, and density ratios of
    the depth-DENSITY_DEPTH cylinders.

    One walk of the ensemble to the largest horizon folds all three
    diagnostics, block by block.
    """
    n_grid = sorted(set(int(n) for n in n_grid))
    R_grid = sorted(set(int(R) for R in R_grid))
    if n_grid[0] < 1:
        raise ValueError("horizons must be >= 1")
    n_max = n_grid[-1]
    curves, defect = _Curves(ens, R_grid, n_max), _Defect(ens, n_max)
    folds = [curves, defect]
    if n_max > DENSITY_DEPTH:
        # folded whatever the verdict, which the curves give only at the end
        density = _Density(ens, DENSITY_DEPTH, max(R_grid), n_max)
        folds.append(density)
    ens.fold(n_max, *folds)
    report = liftability_verdict(curves.rows(n_grid))
    test_ids = np.flatnonzero(ens.levels <= max(R_grid))
    densities = None
    if report.verdict == "liftable" and n_max > DENSITY_DEPTH:
        densities = density.report().corrected
    return LiftReport(report.curves, report.verdict, densities,
                      defect.value(test_ids))
