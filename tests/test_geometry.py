"""Landing, Lyapunov and Green computations against closed-form values.

For c = -2 the Julia set is [-2, 2] and w + 1/w conjugates the squaring
map to it, so every ray landing point is 2 cos(2 pi a) exactly.  For c = i
the critical orbit angles have known landing points.  These closed forms
are the oracles for the cascade.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angletower import geometry
from angletower.angles import RayChoice, angle_orbit, build_partition
from angletower.conformal import build_basis, enumerate_cylinders
from angletower.geometry import (
    BASE_POTENTIAL, COARSE, CRIT_TOL, NEWTON_REACH, NEWTON_STEPS, SUBSTEPS,
    LandingError, LandingSolver, PolynomialModel, landing_table_csv,
    log_deriv_rows,
)
from angletower.lifting import brolin_period_samples

from oracles import f, green, quadrature_node

CHEB = PolynomialModel(2, -2)
DEND = PolynomialModel(2, 1j)


@pytest.fixture(scope="module")
def cheb_solver():
    return LandingSolver(CHEB)


@pytest.fixture(scope="module")
def dend_solver():
    return LandingSolver(DEND)


# --------------------------------------------------------------------------
# model bookkeeping


def test_critical_orbit_detection():
    assert CHEB.preperiod == 2 and CHEB.period == 1
    assert CHEB.critical_orbit == (0, -2, 2)
    assert DEND.preperiod == 2 and DEND.period == 2
    assert DEND.critical_orbit[0] == 0
    assert abs(DEND.critical_orbit[1] - 1j) < 1e-12
    assert abs(DEND.critical_orbit[2] - (-1 + 1j)) < 1e-12
    assert abs(DEND.critical_orbit[3] - (-1j)) < 1e-12


def test_escaping_parameter_rejected():
    with pytest.raises(ValueError, match="escapes"):
        PolynomialModel(2, 3.0)


def test_wandering_parameter_rejected(monkeypatch):
    # interior of the main cardioid converges, but only within tolerance
    # after many steps; a generic outside-but-bounded point never closes up
    monkeypatch.setattr(geometry, "MAX_PREPERIOD", 60)
    with pytest.raises(ValueError, match="no recurrence"):
        PolynomialModel(2, 0.25 + 0.52j)


def test_log_deriv_values():
    assert CHEB.log_deriv(2) == pytest.approx(math.log(4), abs=1e-14)
    assert DEND.log_deriv(1j) == pytest.approx(math.log(2), abs=1e-14)
    with pytest.raises(ValueError):
        CHEB.log_deriv(0)


# --------------------------------------------------------------------------
# landing oracle


def test_landing_interval_model(cheb_solver):
    for a in [F(0), F(1, 2), F(1, 3), F(1, 5), F(2, 7), F(5, 12), F(1, 96),
              F(13, 17), F(9, 31)]:
        want = 2 * math.cos(2 * math.pi * float(a))
        got = cheb_solver.land(a)
        assert abs(got - want) < 1e-9, a
        assert abs(got.imag) < 1e-9


def test_landing_precritical_angle(cheb_solver):
    # 3/8 maps onto 3/4, which lands on the critical point; the root
    # extraction there squares the attainable precision, so only about
    # sqrt(machine eps) survives
    got = cheb_solver.land(F(3, 8))
    assert abs(got - 2 * math.cos(2 * math.pi * 3 / 8)) < 1e-7
    assert abs(cheb_solver.land(F(3, 4))) < 1e-7


def test_landing_critical_angles_dendrite(dend_solver):
    assert abs(dend_solver.land(F(1, 6)) - 1j) < 1e-9
    assert abs(dend_solver.land(F(1, 3)) - (-1 + 1j)) < 1e-9
    assert abs(dend_solver.land(F(2, 3)) - (-1j)) < 1e-9


def test_landing_beta_fixed_point(dend_solver):
    beta = dend_solver.land(F(0))
    assert abs(f(DEND, beta) - beta) < 1e-10
    assert beta.real > 1 and beta.imag < 0


def test_whole_orbit_landed_consistently(dend_solver):
    res = dend_solver.land_orbit(F(1, 12))
    # each orbit point maps to the next under f
    for k in range(len(res.points) - 1):
        assert abs(f(DEND, res.points[k]) - res.points[k + 1]) < 1e-9
    # wraparound into the cycle
    last = res.points[-1]
    assert abs(f(DEND, last) - res.points[res.preperiod]) < 1e-9


def test_nonconvergence_reported(monkeypatch):
    monkeypatch.setattr(geometry, "DEPTH", 5)
    with pytest.raises(LandingError):
        LandingSolver(CHEB).land(F(1, 7))


CUBIC = PolynomialModel(3, 0.34062501931660666 + 1.2712298784187062j)


@pytest.mark.parametrize("model", [DEND, CUBIC], ids=["d2", "d3"])
def test_land_many_matches_land_orbit(model):
    # periodic, preperiodic, 0, an angle >= 1 and duplicates in one batch
    batch = [F(1, 7), F(1, 6), F(0), F(5, 4), F(1, 7), F(2, 9), F(1, 4),
             F(9, 31), F(0), F(13, 12)]
    solver = LandingSolver(model)
    got = solver.land_many(batch)
    assert got == [solver.land_orbit(a) for a in batch]
    assert solver.land_many(batch[::-1]) == got[::-1]
    assert got[3].angle == F(1, 4) and got[3] == got[6]
    assert solver.land_many([]) == []


# per degree: an angle a, angles falling onto one cycle, and a pair on the
# cycle of 0 that freezes at different rows once POTENTIAL_FLOOR = 1e-3
OVERLAPS = {2: (F(1, 7), (F(1, 6), F(1, 3), F(2, 3)), (F(0), F(1, 8))),
            3: (F(1, 13), (F(1, 24), F(1, 8), F(3, 8)), (F(0), F(1, 9)))}


@pytest.mark.parametrize("model", [DEND, CUBIC], ids=["d2", "d3"])
def test_land_many_pool_matches_land_orbit(model):
    # orbits that run into each other share pool points, and 5/4 is 1/4
    d = model.degree
    a, onto_cycle, _ = OVERLAPS[d]
    batch = [a, d * a, d * d * a, *onto_cycle, F(5, 4), F(1, 4), d * a]
    solver = LandingSolver(model)
    assert solver.land_many(batch) == [solver.land_orbit(b) for b in batch]


@pytest.mark.parametrize("model", [DEND, CUBIC], ids=["d2", "d3"])
def test_land_many_pool_compaction(model, monkeypatch):
    # the first of the pair freezes while the second still sweeps its
    # points; then the second freezes and its points leave the pool while
    # the orbit of 1/5 or 1/13 still sweeps
    d = model.degree
    first, second = OVERLAPS[d][2]
    monkeypatch.setattr(geometry, "POTENTIAL_FLOOR", 1e-3)
    solver = LandingSolver(model)
    batch = [first, second, F(1, 5) if d == 2 else F(1, 13)]
    got = solver.land_many(batch)
    assert got == [solver.land_orbit(b) for b in batch]
    assert got[0].rows < got[1].rows < got[2].rows
    assert got[0].period == got[1].period == 1


def test_land_many_sweeps_each_distinct_angle_once(monkeypatch):
    # the first row sweeps the pool: one point per distinct reduced angle
    # over all node orbits, however many orbits pass through it
    part = build_partition(RayChoice(3, (F(1, 6),)))
    nodes = [quadrature_node(arcs, part)[0]
             for _, arcs in enumerate_cylinders(part, 3)]
    distinct = {x for b in nodes for x in angle_orbit(b, 3)[2]}
    assert len(distinct) < sum(len(angle_orbit(b, 3)[2]) for b in nodes)
    sizes = []
    sweep = geometry._nearest_roots

    def recording(w, d, ref):
        sizes.append(len(w))
        return sweep(w, d, ref)

    monkeypatch.setattr(geometry, "_nearest_roots", recording)
    build_basis(part, LandingSolver(CUBIC), 3)
    assert sizes[0] == len(distinct)


def _scalar_roots(w, d):
    return [cmath.rect(abs(w) ** (1 / d),
                       cmath.phase(w) / d + 2 * math.pi * j / d)
            for j in range(d)] if w else [0j]


def _scalar_finish(solver, snap, pre, diff):
    """The Newton finish as a plain loop: the refined points of the orbit
    whose points on the coarse row are snap, or None when it is rejected."""
    d, c = solver.model.degree, solver.model.c
    z = snap[pre]
    try:
        for _ in range(NEWTON_STEPS):
            w, dw = z, 1
            for _ in range(len(snap) - pre):
                w, dw = w ** d + c, d * w ** (d - 1) * dw
            step = (w - z) / (dw - 1)
            if not (cmath.isfinite(dw) and abs(step) <= NEWTON_REACH * diff):
                return None
            z -= step
            if abs(step) <= solver.tol_land:
                break
        else:
            return None
    except OverflowError:
        return None
    if abs(dw) <= 1:
        return None
    points, cur = list(snap), z
    for k in reversed(range(len(snap))):
        cur = min(_scalar_roots(cur - c, d), key=lambda r: abs(r - snap[k]))
        points[k] = cur
    move = max(abs(x - y) for x, y in zip(points, snap))
    if abs(points[pre] - z) > solver.tol_land or move > NEWTON_REACH * diff:
        return None
    return points


def _scalar_landing(solver, a):
    """The per-point cascade as a plain loop: (rows, points) of the orbit
    of a, choosing each root with cmath and the first nearest on a tie,
    with one try of the Newton finish at the first row that passes the
    coarse test."""
    d, c, S = solver.model.degree, solver.model.c, SUBSTEPS
    pre, _, orbit = angle_orbit(a, d)
    succ = [k + 1 for k in range(len(orbit) - 1)] + [pre]
    ring = [[cmath.rect(math.exp(BASE_POTENTIAL * d ** (-m / S)),
                        2 * math.pi * float(x)) for x in orbit]
            for m in range(S)]
    prev = ring[S - 1]
    coarse = True
    for m in range(S, geometry.DEPTH + S):
        old, new = ring[m % S], []
        for k, ref in enumerate(prev):
            roots = _scalar_roots(old[succ[k]] - c, d)
            new.append(min(roots, key=lambda z: abs(z - ref)))
        diff = max(abs(x - y) for x, y in zip(new, old))
        ring[m % S] = prev = new
        t = BASE_POTENTIAL * d ** (-m / S)
        if coarse and t < max(COARSE, geometry.POTENTIAL_FLOOR) \
                and diff <= COARSE:
            coarse = False
            points = _scalar_finish(solver, new, pre, diff)
            if points is not None:
                return m, points
        if t < geometry.POTENTIAL_FLOOR and diff <= solver.tol_land:
            return m, new
    raise LandingError(a)


@pytest.mark.parametrize("model", [DEND, CUBIC], ids=["d2", "d3"])
def test_land_many_matches_scalar_cascade(model):
    # numpy's abs, angle and power may differ from libm in the last bit,
    # so points agree to a tolerance while the convergence rows agree
    # exactly
    batch = [F(1, 7), F(1, 6), F(0), F(3, 8), F(2, 9), F(11, 31)]
    solver = LandingSolver(model)
    for a, got in zip(batch, solver.land_many(batch)):
        rows, points = _scalar_landing(solver, a)
        assert got.rows == rows, a
        assert max(abs(x - y) for x, y in zip(got.points, points)) < 1e-11


def test_land_many_error_stays_in_its_slot(monkeypatch):
    # the ray 0 lands at row 70 and the ray 1/7 only at row 131, so at
    # depth 100 only 1/7 fails, and the batch still lands 0
    deep = LandingSolver(DEND).land_orbit(F(0))
    monkeypatch.setattr(geometry, "DEPTH", 100)
    solver = LandingSolver(DEND)
    zero, seventh = solver.land_many([F(0), F(1, 7)])
    assert zero == deep
    assert isinstance(seventh, LandingError)
    assert str(seventh).startswith(
        "no convergence for angle 1/7 within depth 100")
    with pytest.raises(LandingError):
        solver.land_orbit(F(1, 7))


def test_newton_lands_dendrite_orbits_on_their_cycles():
    # the sweep alone stops once no point moves by more than tol_land, and
    # leaves residuals near 1e-12; Newton on the cycle lands to rounding
    part = build_partition(RayChoice(2, (F(1, 6),)))
    mu = brolin_period_samples(part, 512, seed=8, bits=12)
    solver = LandingSolver(DEND)
    worst = 0.0
    for ld in solver.land_many(mu.angles):
        pts = ld.points
        nxt = pts[1:] + (pts[ld.preperiod],)
        worst = max(worst, *(abs(f(DEND, z) - w) for z, w in zip(pts, nxt)))
    assert worst <= 1e-13
    assert solver.counters["landing.sweep"] == 0


# sha1 of the rows and points of the depth-5 cubic node landings, made by
# the sweep alone before the Newton finish existed
CUBIC_NODES_SHA1 = "dab94f8f66e0a0dbbb50a3ee93a2d4dd820abc7f"


def test_long_cycles_keep_the_sweep_landing():
    # the nodes' cycles are 256 long, so f^p overflows, Newton rejects
    # every orbit and each lands bit for bit as the sweep alone lands it
    part = build_partition(RayChoice(3, (F(1, 6),)))
    nodes = [quadrature_node(arcs, part)[0]
             for _, arcs in enumerate_cylinders(part, 5)]
    solver = LandingSolver(CUBIC)
    landings = solver.land_many(nodes)
    assert max(ld.period for ld in landings) == 256
    text = repr([(ld.rows, ld.points) for ld in landings])
    assert hashlib.sha1(text.encode()).hexdigest() == CUBIC_NODES_SHA1
    assert solver.counters["landing.newton"] == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(2, 401))
def test_shift_equivariance(num, den):
    a = F(num, den) % 1
    solver = LandingSolver(CHEB)
    z = solver.land(a)
    assert abs(f(CHEB, z) - solver.land(a * 2)) < 1e-8


def test_shift_equivariance_dendrite(dend_solver):
    for a in [F(1, 5), F(3, 11), F(7, 24), F(5, 48), F(10, 21)]:
        z = dend_solver.land(a)
        assert abs(f(DEND, z) - dend_solver.land(a * 2)) < 1e-8


# --------------------------------------------------------------------------
# Green function


def test_green_vanishes_on_landed_points(cheb_solver, dend_solver):
    for a in [F(1, 7), F(2, 9), F(11, 31)]:
        assert green(CHEB, cheb_solver.land(a)) < 1e-6
        assert green(DEND, dend_solver.land(a)) < 1e-6


def test_green_at_critical_point():
    assert green(CHEB, 0) < 1e-12


def test_green_large_argument():
    z = 1e6
    assert green(CHEB, z, 40) == pytest.approx(math.log(abs(z)), rel=1e-5)


def test_green_positive_off_the_set():
    # for c = -2 the point 3 maps to w + 1/w with w the golden ratio
    # squared, so G(3) = log((3 + sqrt 5)/2)
    want = math.log((3 + math.sqrt(5)) / 2)
    assert green(CHEB, 3.0, 60) == pytest.approx(want, abs=1e-10)


# --------------------------------------------------------------------------
# Birkhoff averages


def orbit_row(model, landing, n, crit_tol=0.0):
    """log|Df| at steps 0..n-1 of one landed orbit that stays off the
    critical point."""
    rows, crit = log_deriv_rows(model, [landing], n, crit_tol)
    assert crit.tolist() == [n]
    return rows[0]


def test_lyapunov_fixed_point(cheb_solver):
    lam = orbit_row(CHEB, cheb_solver.land_orbit(F(0)), 100, CRIT_TOL).mean()
    assert lam == pytest.approx(math.log(4), abs=1e-12)


def test_lyapunov_period_one_interior(cheb_solver):
    # ray 1/3 lands at -1, a fixed point with |f'| = 2
    landing = cheb_solver.land_orbit(F(1, 3))
    lam = orbit_row(CHEB, landing, 200, CRIT_TOL).mean()
    assert lam == pytest.approx(math.log(2), abs=1e-10)


def test_lyapunov_two_cycle_dendrite(dend_solver):
    # ray 1/3 lands on the cycle -1+i -> -i of multiplier moduli
    # 2 sqrt 2 and 2
    landing = dend_solver.land_orbit(F(1, 3))
    lam = orbit_row(DEND, landing, 200, CRIT_TOL).mean()
    assert lam == pytest.approx(1.25 * math.log(2), abs=1e-8)


def test_lyapunov_random_angles_near_log_two(cheb_solver):
    rng = random.Random(7)
    den = 2 ** 16 - 1
    vals = []
    for _ in range(64):
        a = F(rng.randrange(1, den), den)
        landing = cheb_solver.land_orbit(a)
        vals.append(orbit_row(CHEB, landing, 512, CRIT_TOL).mean())
    mean = sum(vals) / len(vals)
    assert mean == pytest.approx(math.log(2), rel=0.1)


def test_lyapunov_shift_invariant(cheb_solver):
    a = F(9, 31)
    lam = orbit_row(CHEB, cheb_solver.land_orbit(a), 310, CRIT_TOL).mean()
    landing2 = cheb_solver.land_orbit(a * 2)
    lam2 = orbit_row(CHEB, landing2, 310, CRIT_TOL).mean()
    assert lam == pytest.approx(lam2, abs=1e-6)


# z^3 + c with the ray 1/6 landing on the critical value (the shipped
# cubic config), and z^4 + c with c = -2^(1/3), whose critical value maps
# to the fixed point 2^(1/3)
CUBIC = PolynomialModel(3, complex(0.34062501931660666, 1.2712298784187062))
QUARTIC = PolynomialModel(4, -2 ** (1 / 3))


@pytest.mark.parametrize("d,angle", [
    (2, "1/7"), (2, "9/31"), (2, "1601/4095"), (2, "982/1365"),
    (3, "1619/1640"), (3, "59/82"), (3, "5/13"),
    (4, "1/5"), (4, "13/255"), (4, "7/85"),
])
def test_lyapunov_is_the_exact_cycle_mean(d, angle):
    # a periodic angle's steps run round its landed cycle, so over a
    # whole number of turns the Birkhoff average is the cycle mean
    model = {2: DEND, 3: CUBIC, 4: QUARTIC}[d]
    a = F(angle)
    solver = LandingSolver(model)
    landing = solver.land_orbit(a)
    assert landing.preperiod == 0
    cycle = [model.log_deriv(z) for z in landing.points]
    exact = math.fsum(cycle) / len(cycle)
    n = landing.period * (200 // landing.period + 1)
    lam = orbit_row(model, landing, n, CRIT_TOL).mean()
    assert lam == pytest.approx(exact, rel=1e-12)


def test_log_derivs_tile_the_landed_points(dend_solver):
    landing = dend_solver.land_orbit(F(1, 12))
    n = 3 * len(landing.points)
    vals = orbit_row(DEND, landing, n)
    assert vals.tolist() == [DEND.log_deriv(landing.points[k])
                             for k in landing.step_indices(n)]
    # past the last point the steps wrap round into the cycle
    assert vals[len(landing.points)] == vals[landing.preperiod]


def test_log_derivs_stop_at_the_first_critical_step(cheb_solver):
    # 1/8 -> 1/4 -> 1/2 -> 0: the second image lands on the critical point
    landing = cheb_solver.land_orbit(F(1, 8))
    crit = log_deriv_rows(CHEB, [landing], 10, crit_tol=1e-7)[1]
    assert crit.tolist() == [1]
    assert orbit_row(CHEB, landing, 1, crit_tol=1e-7)[0] == \
        CHEB.log_deriv(landing.points[0])


def test_lyapunov_excluded_near_critical(cheb_solver):
    # ray 1/4 lands exactly on the critical point
    landing = cheb_solver.land_orbit(F(1, 4))
    assert log_deriv_rows(CHEB, [landing], 10, CRIT_TOL)[1].tolist() == [0]


def test_lyapunov_rejects_bad_n(cheb_solver):
    with pytest.raises(ValueError):
        log_deriv_rows(CHEB, [cheb_solver.land_orbit(F(1, 7))], 0, CRIT_TOL)


# --------------------------------------------------------------------------
# export


def test_landing_csv(cheb_solver):
    text = landing_table_csv(CHEB, cheb_solver.land_many([F(1, 3), F(1, 4)]),
                             50)
    lines = text.strip().splitlines()
    assert lines[0] == "angle,re,im,lyapunov"
    row = lines[1].split(",")
    assert row[0] == "1/3"
    assert float(row[1]) == pytest.approx(-1.0, abs=1e-9)
    assert float(row[3]) == pytest.approx(math.log(2), abs=1e-9)
    assert lines[2].split(",")[3] == "excluded"
