"""Discretized conformal measures and the liftability equivalence check.

The conformality equation mu(f(A)) = int_A |Df|^delta dmu is discretized
over depth-m cylinders: one landed node per cylinder, transfer weights
|Df(node)|^(-delta), and the exponent delta* solved by bisection on the
leading eigenvalue.  The operator is applied as a gather over the
cylinder child table, on the table's largest strong component, which
each basis computes once.  The left eigenvector at delta* is the
approximate conformal measure on cylinders.  On top of the solve sits an
experiment that feeds that measure to the tower lift and compares the
two sides of the liftability criterion: positive-Lyapunov mass against
the retained lift, with conical-point frequency and density checks
alongside.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property

import numpy as np

from .angles import ArcSet, CirclePartition, format_angle, word_text
from .geometry import (CRIT_TOL, LandingError, LandingSolver,
                       log_deriv_rows)
from .inducing import (DEFAULT_MARGIN, choose_W, recurrent_witness_domain,
                       return_records, strong_components)
from .lifting import (DEFAULT_FLOOR, DensityReport, LiftReport,
                      SampleMeasure, _Curves, _Density, liftability_verdict,
                      make_ensemble)
from .streams import Gather, symbol_cells, symbol_matrix, word_codes
from .tower import TowerGraph

# Offsets over NODE_SCALE tried in order when placing the quadrature node
# in a cylinder's largest component.  Exact midpoints are unusable:
# components have dyadic endpoints, dyadic midpoints are precritical (5/16
# doubles to 5/8 and then onto the cut angle 1/4 for the interval
# parameter), and any offset too close to 1/2 makes every node shadow that
# precritical orbit for about depth-many steps, which wrecks finite-horizon
# derivative and return statistics in lockstep.  An off-center numerator
# over 2^16-1 keeps nodes interior, gives each orbit a short cycle with
# small odd part, and those cycles stay clear of every cut angle.
NODE_SCALE = 65535
NODE_OFFSETS = tuple(range(26000, 26040))

EIGEN_TOL = 1e-10
EIGEN_MAX_ITER = 20_000
DELTA_TOL = 1e-6
RHO_TOL = 1e-9
DELTA_GRID = tuple(k / 10 for k in range(21))


def _orbit_meets(p: int, den: int, d: int, steps: int, boundary) -> bool:
    """Whether p/den meets boundary (over den) in its first steps angles."""
    return any(p * d ** k % den in boundary for k in range(steps))


def _place_nodes(arcs, partition: CirclePartition, den: int) -> list:
    """(p, k) per arc-set: the node p/den in its largest component [a, b),
    the first a + (b - a) t / NODE_SCALE for t = NODE_OFFSETS[k] whose
    orbit misses the boundary.  den is a multiple of the lattice and of
    each arc-set's den times NODE_SCALE.  The boundary is strictly
    preperiodic, and an orbit is periodic once den's factors shared with d
    divide out, after `steps` steps."""
    d = partition.degree
    boundary = {b * (den // partition.lattice)
                for b in partition.boundary_nums}
    steps, q = 0, den
    while (g := math.gcd(q, d)) > 1:
        steps, q = steps + 1, q // g
    nodes = []
    for arcset in arcs:
        a, b = arcset.largest_component()
        scale = den // (arcset.den * NODE_SCALE)
        for k, t in enumerate(NODE_OFFSETS):
            p = (a * NODE_SCALE + (b - a) * t) * scale % den
            if not _orbit_meets(p, den, d, steps, boundary):
                break
        else:
            raise ValueError(f"no interior node found in component at "
                             f"{format_angle(a, arcset.den)}")
        nodes.append((p, k))
    return nodes


@dataclass(frozen=True, eq=False)
class CylinderBasis:
    """Depth-m cylinders with landed quadrature nodes nums[i] / den.

    children[i, t] is the index of the cylinder whose word is
    word(i)[1:] + (t,), or -1 when that word is inadmissible; at depth 0
    the single cylinder is its own child once.  moved lists cylinders
    whose node needed a fallback offset.
    """

    partition: CirclePartition
    depth: int
    words: tuple
    arcs: tuple
    nums: tuple
    den: int
    landings: tuple
    log_derivs: np.ndarray
    children: np.ndarray
    moved: tuple

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def support(self) -> np.ndarray:
        """Mask of the largest strong component of the child graph, and on
        a tie the one holding the lowest node."""
        labels = strong_components(self.children)
        sizes = np.bincount(labels)[labels]
        return labels == labels[sizes.argmax()]


def enumerate_cylinders(partition: CirclePartition, depth: int
                        ) -> list[tuple[tuple[int, ...], ArcSet]]:
    """All admissible words of the given depth with their exact arc-sets,
    in lexicographic word order.

    Every cylinder boundary is a j-step preimage (j < depth) of a
    partition boundary b: over L = lattice * d^(depth-1) the numerator
    (b + i*lattice) * d^(depth-1-j) for i < d^j.  Each gap between
    consecutive cuts carries the itinerary of its left end, so one stream
    of the cuts reads every word, and a word's arc-set is its gaps.
    """
    d, lattice = partition.degree, partition.lattice
    L = lattice * d ** max(depth - 1, 0)
    cuts = sorted({0} | {(b + i * lattice) * d ** (depth - 1 - j)
                         for j in range(depth) for i in range(d ** j)
                         for b in partition.boundary_nums})
    rows = symbol_matrix(cuts, L, depth, symbol_cells(partition)).tolist()
    gaps: dict[tuple[int, ...], list[int]] = {}
    for row, lo, hi in zip(rows, cuts, cuts[1:] + [L]):
        gaps.setdefault(tuple(row), []).extend((lo, hi))
    return [(w, ArcSet._of(L, gaps[w])) for w in sorted(gaps)]


def build_basis(partition: CirclePartition, solver: LandingSolver,
                depth: int) -> CylinderBasis:
    """Enumerate depth-m cylinders and land one node in each, over den =
    lattice * d^(depth-1) * NODE_SCALE: the cylinder lattice refined."""
    words, arcs = zip(*enumerate_cylinders(partition, depth))
    den = (partition.lattice * partition.degree ** max(depth - 1, 0)
           * NODE_SCALE)
    nums, offsets = zip(*_place_nodes(arcs, partition, den))
    landings = solver.land_many([Fraction(p, den) for p in nums])
    for word, p, landing in zip(words, nums, landings):
        if isinstance(landing, LandingError):
            raise LandingError(f"node {format_angle(p, den)} of cylinder "
                               f"{word_text(word, partition.size)}: "
                               f"{landing}") from landing
    # the code of word[1:] + (t,) is (c*N mod N^m) + t, c the word's code
    N = partition.size
    codes = word_codes(np.array(words, dtype=np.int64), N)
    child = (codes * N % N ** depth)[:, None] + np.arange(N)
    at = np.searchsorted(codes, child)
    children = np.where(codes[np.minimum(at, len(codes) - 1)] == child, at, -1)
    return CylinderBasis(partition, depth, words, arcs, nums, den,
                         tuple(landings),
                         log_deriv_rows(solver.model, landings, 1)[0][:, 0],
                         children, tuple(np.flatnonzero(offsets).tolist()))


@dataclass(frozen=True, eq=False)
class EigenResult:
    rho: float
    vector: np.ndarray
    residual: float
    iterations: int
    support_size: int


def leading_eigen(basis: CylinderBasis, delta: float,
                  tol: float) -> EigenResult:
    """Leading eigenvalue with nonnegative left eigenvector (sum 1) of the
    transfer operator at delta.

    M^T v at cylinder Z is the sum over its children Z' of
    |Df(node Z)|^(-delta) v[Z'], each term multiplied before it is added,
    in ascending child order.  The operator is restricted to the support,
    the largest strong component of the child graph, and the eigenvector
    re-embedded with zeros outside it.
    """
    mask = basis.support
    K = int(mask.sum())
    # children renumbered inside the support; absent or outside reads v[K]
    at = np.append(np.where(mask, np.cumsum(mask) - 1, K), K)
    cols = at[basis.children[mask]].T
    w = np.exp(-delta * basis.log_derivs)[mask]
    v = np.append(np.full(K, 1.0 / K), 0.0)
    for it in range(EIGEN_MAX_ITER):
        u = sum(w * v[c] for c in cols)
        rho = float(u.sum())
        u /= rho
        done = np.max(np.abs(u - v[:K])) <= tol
        v[:K] = u
        if done:
            break
    else:
        raise RuntimeError(
            f"power iteration did not converge in {EIGEN_MAX_ITER} steps")
    residual = float(np.max(np.abs(sum(w * v[c] for c in cols)
                                   - rho * v[:K])))
    full = np.zeros(basis.size)
    full[mask] = v[:K]
    return EigenResult(rho, full, residual, it + 1, K)


@dataclass(frozen=True, eq=False)
class ConformalSolve:
    """Solved exponent with its eigenvalue curve and cylinder weights."""

    basis: CylinderBasis
    grid: tuple
    grid_rhos: tuple
    delta: float
    rho: float
    weights: np.ndarray
    eigen_residual: float
    support_size: int
    evaluations: int

    @property
    def grid_strictly_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.grid_rhos,
                                         self.grid_rhos[1:]))

    def to_json(self) -> dict:
        return {
            "depth": self.basis.depth,
            "delta": self.delta,
            "rho": self.rho,
            "eigen_residual": self.eigen_residual,
            "support": self.support_size,
            "cylinders": self.basis.size,
            "moved_nodes": len(self.basis.moved),
            "evaluations": self.evaluations,
            "grid": list(self.grid),
            "grid_rhos": list(self.grid_rhos),
            "weights": {word_text(w, self.basis.partition.size): float(x)
                        for w, x in zip(self.basis.words, self.weights)},
        }


def solve_delta(basis: CylinderBasis, delta_tol: float = DELTA_TOL,
                eigen_tol: float = EIGEN_TOL) -> ConformalSolve:
    """Bisect rho(delta) = 1 over [0, 2].

    DELTA_GRID is evaluated first, both to report the curve and to tighten
    the bracket; bisection then runs until the bracket is below delta_tol
    and the midpoint eigenvalue is within RHO_TOL of 1, and its last
    solve is the result.
    """
    grid = DELTA_GRID
    rhos = []
    for dlt in grid:
        rhos.append(leading_eigen(basis, dlt, tol=eigen_tol).rho)
    if not (rhos[0] > 1.0 > rhos[-1]):
        raise ValueError(f"no bracket: rho({grid[0]})={rhos[0]}, "
                         f"rho({grid[-1]})={rhos[-1]}")
    lo, hi = grid[0], grid[-1]
    for g, r in zip(grid, rhos):
        if r > 1.0:
            lo = max(lo, g)
        else:
            hi = min(hi, g)
    evals = 0
    while True:
        mid = (lo + hi) / 2
        final = leading_eigen(basis, mid, tol=eigen_tol)
        if mid == lo or mid == hi:
            break
        evals += 1
        if final.rho > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= delta_tol and abs(final.rho - 1.0) <= RHO_TOL:
            break
    return ConformalSolve(basis, grid, tuple(rhos), mid, final.rho,
                          final.vector, final.residual,
                          final.support_size, evals)


def conformality_residual(basis: CylinderBasis, weights,
                          delta: float) -> float:
    """Max over cylinders of |mu(f(Z)) - |Df(node Z)|^delta mu(Z)|.

    f is injective on each cylinder by construction, and mu(f(Z)) is the
    weight sum of Z's shift children.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (basis.size,):
        raise ValueError("weight vector does not match the basis")
    ch = basis.children
    lhs = np.where(ch >= 0, w[np.clip(ch, 0, None)], 0.0).sum(axis=1)
    rhs = np.exp(delta * basis.log_derivs) * w
    return float(np.max(np.abs(lhs - rhs)))


def curve_csv(solve: ConformalSolve) -> str:
    """CSV of the evaluated eigenvalue curve."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["delta", "rho"])
    for d, r in zip(solve.grid, solve.grid_rhos):
        w.writerow([format(d, ".17g"), format(r, ".17g")])
    return buf.getvalue()


def weights_csv(solve: ConformalSolve) -> str:
    """CSV of cylinder words, nodes, derivative moduli, and weights."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["word", "angle", "deriv", "weight"])
    basis = solve.basis
    for word, p, dv, wt in zip(basis.words, basis.nums,
                               np.exp(basis.log_derivs), solve.weights):
        w.writerow([word_text(word, basis.partition.size),
                    format_angle(p, basis.den), format(dv, ".17g"),
                    format(wt, ".17g")])
    return buf.getvalue()


# --------------------------------------------------------------------------
# the equivalence experiment


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Both sides of the liftability criterion, reported side by side.

    The Lyapunov side estimates mu{ |Df^n| > lambda^n } over the grids
    and the mass of the dichotomy sets (expanding points whose early
    tower-visit frequency below the cap is under eps).  The lift side is
    the retained-mass verdict plus the conical-point return statistics
    and the projected-density check; consistent records whether the two
    sides agree on this configuration.
    """

    delta: float
    level_cap: int
    lift_horizon: int
    lyapunov_cells: dict
    dichotomy_cells: dict
    positive_lyapunov_mass: float
    excluded: tuple
    lift: LiftReport
    liftable: bool
    witness_domain: int
    conical_frequency: float
    conical_tail_mass: float
    conical_returns: int
    density: DensityReport
    density_min: float
    consistent: bool

    def to_json(self) -> dict:
        plain = {f.name: getattr(self, f.name) for f in fields(self)}
        del plain["lyapunov_cells"], plain["dichotomy_cells"]
        return {**plain,
                "lyapunov": [{"lam": lam, "n": n, "mass": mass}
                             for (lam, n), mass
                             in sorted(self.lyapunov_cells.items())],
                "dichotomy": [{"lam": lam, "n": n, "eps": eps, "mass": mass}
                              for (lam, n, eps), mass
                              in sorted(self.dichotomy_cells.items())],
                "excluded": len(self.excluded),
                "lift": self.lift.to_json(),
                "density": self.density.to_json()}


def lyapunov_liftability_experiment(
        solve: ConformalSolve, g: TowerGraph, solver: LandingSolver, *,
        lambdas=(1.1, 1.2, 1.5), horizons=(6, 8, 10),
        eps_grid=(0.05, 0.1, 0.2), level_cap: int = 8, lift_horizon: int,
        margin: Fraction = DEFAULT_MARGIN) -> EquivalenceReport:
    """Run both sides of the liftability criterion on a solved measure.

    The solved cylinder weights become a weighted atomic measure at the
    quadrature nodes; that measure is lifted through the tower graph for
    the retained-mass verdict while the node orbits supply the n-step
    derivative sums.  Nodes passing within CRIT_TOL of the critical
    point are excluded from the Lyapunov side and reported.  All that
    the lift side reads comes from one walk of the lifted measure.
    """
    basis = solve.basis
    if basis.depth < 1:
        raise ValueError("experiment needs cylinder depth >= 1")
    if lift_horizon <= basis.depth:
        raise ValueError("lift horizon must exceed the cylinder depth")
    nmax = max(horizons)
    w = np.asarray(solve.weights, dtype=np.float64)
    w = w / w.sum()
    keep = w > 0
    nums = [p for p, k in zip(basis.nums, keep) if k]
    landings = [ld for ld, k in zip(basis.landings, keep) if k]
    wk = w[keep]
    # the nodes over the lcm of their reduced denominators
    shared = math.gcd(basis.den, *nums)
    mu = SampleMeasure(tuple(p // shared for p in nums), basis.den // shared,
                       wk, "conformal")
    ens = make_ensemble(mu, g, lift_horizon)
    n_grid = sorted({max(lift_horizon // 4, 1),
                     max(lift_horizon // 2, 1), lift_horizon})
    curves = _Curves(ens, (level_cap,), lift_horizon)
    below_cap = Gather(ens, ens.levels <= level_cap, nmax)
    density = _Density(ens, basis.depth, level_cap, lift_horizon)
    refusal = None
    try:  # no witness domain is refused after the walk and the node check
        witness_id = recurrent_witness_domain(g).id
    except ValueError as err:
        witness_id, refusal = -1, err
    in_domain = Gather(ens, np.arange(len(ens.levels)) == witness_id,
                       lift_horizon)
    # the fold refuses horizons past the lift horizon
    ens.fold(max(lift_horizon, nmax), curves, below_cap, density, in_domain)
    lift = liftability_verdict(curves.rows(n_grid))
    liftable = lift.verdict == "liftable"

    # n-step derivative sums along the node orbits
    logs, crit = log_deriv_rows(solver.model, landings, nmax, CRIT_TOL)
    inc = crit == nmax
    excluded = np.flatnonzero(~inc).tolist()
    win = wk[inc]
    if win.sum() <= 0:
        raise ValueError("every node was excluded near the critical point")
    win = win / win.sum()
    cum = np.cumsum(logs[inc], axis=1)

    # Lyapunov cells: mass of the nodes expanding faster than lam over n
    # steps; dichotomy sets: those of them whose early visit frequency at
    # or below the cap is under eps (their mass should be negligible)
    below_cap = below_cap.out[inc]
    lyap_cells = {}
    dich_cells = {}
    for lam in lambdas:
        for n in horizons:
            big = cum[:, n - 1] > n * math.log(lam)
            lyap_cells[(float(lam), int(n))] = float(win[big].sum())
            freq = below_cap[:, :n].mean(axis=1)
            for eps in eps_grid:
                dich_cells[(float(lam), int(n), float(eps))] = \
                    float(win[big & (freq <= eps)].sum())

    headline = lyap_cells[(float(min(lambdas)), int(max(horizons)))]

    if refusal:
        raise refusal
    witness = choose_W(g, g.domains[witness_id], margin)
    ind = return_records(ens, witness, in_domain.out)
    tail = ind.censored_entry >= lift_horizon // 2
    tail_mass = float(ens.weights[ind.censored_sample[tail]].sum())

    density = density.report()
    ratios = np.array(list(density.ratios.values()))
    density_min = float(ratios.min()) if len(ratios) else 0.0

    consistent = (headline > DEFAULT_FLOOR) == liftable
    return EquivalenceReport(
        solve.delta, level_cap, lift_horizon, lyap_cells, dich_cells, headline,
        tuple(excluded), lift, liftable, witness.domain_id,
        ind.witness_frequency, tail_mass, ind.return_count, density,
        density_min, consistent)
