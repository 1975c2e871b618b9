"""Lift construction, verdicts, and diagnostics on the interval model.

Exact oracles: the Dirac measure at angle 0 lifts to mass 1/n on the base
and (n-1)/n on the first domain; the stationary chain of the c=-2 model
keeps 1 - 2^-(R-1) of Lebesgue mass below level R; every periodic cycle
of that model has cycle-averaged log-derivative exactly log 2.
"""

import hashlib
import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angletower import lifting as lf
from angletower.angles import RayChoice, angle_orbit, build_partition, times_d
from angletower.geometry import LandingSolver, PolynomialModel
from angletower.inducing import choose_W, first_return
from angletower import streams
from angletower.streams import trace_ensemble, word_codes
from angletower.tower import TowerTooShallow, build_tower

from oracles import (angle_at, boundary_measure, custom_measure,
                     orbit_hits_boundary)

CHEB = RayChoice(2, (F(1, 2),))
DEND = RayChoice(2, (F(1, 6),))
CUBIC = RayChoice(3, (F(1, 6),))
PAIR = RayChoice(2, (F(5, 12), F(7, 12)))


@pytest.fixture(scope="module")
def part():
    return build_partition(CHEB)


@pytest.fixture(scope="module")
def graph():
    return build_tower(CHEB, 8, extra_levels=2100)


@pytest.fixture(scope="module")
def brolin_ens(part, graph):
    mu = lf.brolin_samples(part, 2000, 1000, seed=13)
    return mu, lf.make_ensemble(mu, graph, 1000)


@pytest.fixture(scope="module")
def dense_ens(part, graph):
    mu = lf.brolin_samples(part, 65536, 256, seed=5)
    return mu, lf.make_ensemble(mu, graph, 256)


@pytest.fixture(scope="module")
def period_ens(part, graph):
    mu = lf.brolin_period_samples(part, 512, seed=3, bits=12)
    return mu, lf.make_ensemble(mu, graph, 240)


@pytest.fixture(scope="module")
def dirac_ens(part, graph):
    mu = custom_measure([(F(0), 1.0)], part, provenance="dirac-periodic")
    return mu, lf.make_ensemble(mu, graph, 100)


@pytest.fixture(scope="module")
def climbing_ens(part, graph):
    mu = boundary_measure([(F(1, 8), 1.0)])
    return mu, lf.make_ensemble(mu, graph, 2000)


# --------------------------------------------------------------------------
# measures


def test_measure_validation(part):
    with pytest.raises(ValueError):
        custom_measure(((F(1, 3), 0.5),), part, provenance="custom")
    with pytest.raises(ValueError):
        custom_measure(((F(1, 3), -1.0), (F(2, 3), 2.0)), part,
                       provenance="custom")
    with pytest.raises(ValueError):
        custom_measure(((F(1, 3), 1.0),), part, provenance="homebrew")
    with pytest.raises(ValueError):
        custom_measure((), part, provenance="custom")
    with pytest.raises(ValueError):
        lf.SampleMeasure((1, 3), 8, [0.5, 0.25], "custom")
    with pytest.raises(ValueError):
        lf.SampleMeasure((), 8, [], "custom")


def test_measure_rejects_weights_of_another_length():
    with pytest.raises(ValueError, match="must be 2 finite numbers"):
        lf.SampleMeasure((1, 2), 3, [1.0], "custom")


def test_measure_rejects_a_nan_weight():
    with pytest.raises(ValueError, match="must be 1 finite numbers"):
        lf.SampleMeasure((1,), 3, [math.nan], "custom")


def test_brolin_sampler(part):
    mu = lf.brolin_samples(part, 50, 200, seed=1)
    assert len(mu.angles) == 50
    assert mu.horizon == 200
    assert abs(sum(mu.weights) - 1.0) < 1e-12
    for a, w in zip(mu.angles, mu.weights):
        assert w == 1.0 / 50
        assert a.denominator == 1 << 264
        assert a.numerator % 2 == 1


def test_brolin_sampler_rejects_deep_dyadic_boundary():
    deep = build_partition(RayChoice(2, (F(1, 1 << 70),)))
    with pytest.raises(ValueError):
        lf.brolin_samples(deep, 10, 100, seed=0)


def test_period_sampler(part):
    mu = lf.brolin_period_samples(part, 30, seed=2, bits=12)
    assert mu.horizon is None
    for a in mu.angles:
        assert 4095 % a.denominator == 0
        assert not orbit_hits_boundary(a, part)


def test_dirac_cycle(part):
    mu = lf.dirac_cycle(part, F(1, 3))
    assert sorted(mu.angles) == [F(1, 3), F(2, 3)]
    assert all(w == 0.5 for w in mu.weights)
    single = lf.dirac_cycle(part, F(0))
    assert (single.angles, single.weights.tolist()) == ((F(0),), [1.0])
    with pytest.raises(ValueError):
        lf.dirac_cycle(part, F(1, 6))


# sha1 of repr(nums) of brolin_samples(partition, 40, 120, seed), computed
# from the Fraction samples (numerators over d^K) the integer sampler
# replaced
FROZEN_BROLIN_NUMS = {
    2: (DEND, 11, "8c19286b2bf7698464eaebcf5302c2c8df410445"),
    3: (CUBIC, 12, "692a01b2cdd5c5dcefe15d31bdc244502d362689"),
}


@pytest.mark.parametrize("d", list(FROZEN_BROLIN_NUMS))
def test_brolin_numerators_frozen(d):
    rc, seed, sha1 = FROZEN_BROLIN_NUMS[d]
    mu = lf.brolin_samples(build_partition(rc), 40, 120, seed=seed)
    assert mu.den == d ** (120 + lf.window_digits(d))
    assert hashlib.sha1(repr(mu.nums).encode()).hexdigest() == sha1
    assert mu.angles == tuple(F(j, mu.den) for j in mu.nums)
    assert all(w == 1 / 40 for w in mu.weights)


def test_measure_views_and_denominators(part):
    period = lf.brolin_period_samples(part, 30, seed=2, bits=12)
    assert period.den == 4095
    assert period.angles == tuple(F(j, 4095) for j in period.nums)
    cycle = lf.dirac_cycle(part, F(2, 7))
    assert cycle.den == 7 and sorted(cycle.nums) == [1, 2, 4]
    mixed = boundary_measure([(F(1, 3), 0.5), (F(5, 8), 0.5)])
    assert (mixed.den, mixed.nums) == (24, (8, 15))
    assert mixed.angles == (F(1, 3), F(5, 8))
    assert mixed.weights.tolist() == [0.5, 0.5]
    # numerators over an unreduced den keep it; the views reduce
    over = lf.SampleMeasure((2, 3), 8, [0.5, 0.5], "custom")
    assert (over.den, over.nums) == (8, (2, 3))
    assert over.angles == (F(1, 4), F(3, 8))
    assert over.weights.tolist() == [0.5, 0.5]
    # the views are built once and cannot be written through
    assert mixed.angles is mixed.angles
    with pytest.raises(ValueError):
        mixed.weights[0] = 1.0


def _measures(part, n, seed):
    d = part.degree
    cycle = F(1, 7) if d == 2 else F(1, 8)
    return {
        "brolin": lf.brolin_samples(part, 60, n, seed),
        "periodic": lf.brolin_period_samples(part, 60, seed, bits=10),
        "dirac": lf.dirac_cycle(part, cycle),
        # one common denominator fits no route the parts take alone
        "mixed": boundary_measure(
            [(F(1, 3), 0.25), (F(5, 2 ** 70), 0.25), (F(2, 7), 0.25),
             (F(1 + seed, 7 ** 25), 0.25)]),
    }


@pytest.mark.parametrize("rc", [DEND, CUBIC, PAIR],
                         ids=["dend", "cubic", "pair"])
def test_tracing_numerators_matches_each_fraction(rc):
    n = 40
    g = build_tower(rc, 4, extra_levels=n)
    for name, mu in _measures(g.partition, n, seed=3).items():
        ens = lf.make_ensemble(mu, g, n)
        for s, a in enumerate(mu.angles):
            alone = trace_ensemble((a,), [1.0], g, n)
            assert (ens.symbols[s] == alone.symbols[0]).all(), (name, s)
            assert (ens.states[s] == alone.states[0]).all(), (name, s)
            assert angle_at(ens, s, 5) == angle_at(alone, 0, 5)


def test_brolin_trace_builds_no_fraction(monkeypatch, graph):
    mu = lf.brolin_samples(graph.partition, 200, 300, seed=4)
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
    ens = lf.make_ensemble(mu, graph, 300)
    assert ens.count == 200
    lf.lift_report(ens, (100, 300), (4, 8))
    assert not made
    monkeypatch.undo()
    assert ens.angles == mu.angles


def test_custom_measure_boundary_guard(part):
    with pytest.raises(ValueError, match="boundary-riding orbit"):
        custom_measure([(F(1, 8), 1.0)], part, provenance="custom")


def test_orbit_hits_boundary(part):
    assert orbit_hits_boundary(F(1, 8), part)
    assert orbit_hits_boundary(F(1, 4), part)
    assert not orbit_hits_boundary(F(1, 7), part)
    assert not orbit_hits_boundary(F(0), part)


def test_orbit_hits_boundary_past_any_step_budget(part):
    # doubling strips one factor 2 a step: 1/2^5002 meets the boundary
    # angle 1/4 at step 5000 and the fixed point 0 at step 5002
    assert orbit_hits_boundary(F(1, 2 ** 5002), part)
    assert not orbit_hits_boundary(F(1, 3 * 2 ** 5002), part)
    with pytest.raises(ValueError, match="boundary-riding"):
        custom_measure([(F(1, 2 ** 5002), 1.0)], part,
                       provenance="custom")


# strictly preperiodic ray choices: 1/2 -> 0, 1/6 -> 1/2 -> 1/2 under
# tripling, 1/12 -> 1/3 -> 1/3 under quadrupling
ORACLE_PARTITIONS = {d: build_partition(RayChoice(d, (a,)))
                     for d, a in ((2, F(1, 6)), (3, F(1, 6)), (4, F(1, 12)))}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(0, 3000),
       st.integers(1, 600), st.integers(0, 5), st.booleans())
def test_integer_orbits_match_fraction_oracle(d, num, den, k, onto_boundary):
    part = ORACLE_PARTITIONS[d]
    a = F(num, den)
    if onto_boundary:
        # k steps before a boundary angle, which the orbit only meets
        # once the stepped numerator is reduced
        b = part.boundary[num % len(part.boundary)]
        a = (b + num) / d ** k
    orbit, x = [], a % 1
    while x not in orbit:
        orbit.append(x)
        x = times_d(x, d)
    pre = orbit.index(x)
    got = angle_orbit(a, d)
    assert got == (pre, len(orbit) - pre, orbit)
    assert [float(y) for y in got[2]] == [float(y) for y in orbit]
    # the whole orbit, with no step budget
    hit = not set(part.boundary).isdisjoint(orbit)
    assert orbit_hits_boundary(a, part) == hit


# --------------------------------------------------------------------------
# the lift


def test_dirac_lift_exact(graph, dirac_ens):
    _, ens = dirac_ens
    tm = lf.lift_cesaro(ens, 100, R=8)
    assert set(tm.mass) == {0, 1}
    assert tm.mass[0] == pytest.approx(0.01, abs=1e-15)
    assert tm.mass[1] == pytest.approx(0.99, abs=1e-13)
    assert tm.escaped == 0.0
    assert sum(tm.mass.values()) == pytest.approx(1.0, abs=1e-13)


def test_lift_single_step_stays_on_base(graph, dirac_ens):
    _, ens = dirac_ens
    tm = lf.lift_cesaro(ens, 1, R=8)
    assert tm.mass == {0: 1.0}
    assert tm.escaped == 0.0


def test_brolin_lift_retained(graph, brolin_ens):
    _, ens = brolin_ens
    tm = lf.lift_cesaro(ens, 1000, R=6)
    retained = sum(tm.mass.values())
    assert retained >= 0.9
    # stationary chain keeps 1 - 2^-5 below level 6
    assert retained == pytest.approx(1 - 2.0 ** -5, abs=0.01)
    assert abs(sum(tm.mass.values()) + tm.escaped - 1.0) <= 1e-12


def test_retained_monotone_in_R(graph, brolin_ens):
    _, ens = brolin_ens
    vals = [sum(lf.lift_cesaro(ens, 500, R=R).mass.values())
            for R in (2, 4, 6, 8)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_mass_conservation_exact(graph, brolin_ens):
    _, ens = brolin_ens
    for n in (100, 350, 777):
        tm = lf.lift_cesaro(ens, n, R=5)
        assert abs(sum(tm.mass.values()) + tm.escaped - 1.0) <= 1e-12


def dense_lift_cesaro(g, n, R, ens) -> lf.TowerMass:
    """lift_cesaro from its definition: the weighted domain sums of steps
    0..n-1, one whole state column at a time, added in step order and
    divided by n; the oracle the folded blocks must match bit for bit."""
    total = np.zeros(len(g.domains))
    for k in range(n):
        total += np.bincount(ens.states[:, k], weights=ens.weights,
                             minlength=len(g.domains))
    mass = {i: float(w) for i, w in enumerate(total / n)
            if w != 0.0 and g.domains[i].level <= R}
    escaped = math.fsum([math.fsum(ens.weights), -math.fsum(mass.values())])
    return lf.TowerMass(mass, max(escaped, 0.0), n, R)


@pytest.mark.parametrize("case", ["periodic", "unequal"])
def test_lift_cesaro_sample_blocks_match_dense_formula(monkeypatch, part,
                                                       graph, case):
    # the 301 state columns walked in blocks of 7, down to one column per
    # block, against the lazily walked state matrix; the unequal weights
    # grow with the sample index
    n = 300
    if case == "periodic":
        mu = lf.brolin_period_samples(part, 50, seed=4, bits=12)
    else:
        mu = boundary_measure([(F(k, 1023), (k + 1) / 1325)
                               for k in range(1, 51)])
        assert len(set(mu.weights)) == 50
    ens = lf.make_ensemble(mu, graph, n)
    for R in (4, 8):
        want = dense_lift_cesaro(graph, n, R, ens)
        for cells in (streams._BLOCK_CELLS, 7 * 50, 1):
            monkeypatch.setattr(streams, "_BLOCK_CELLS", cells)
            assert lf.lift_cesaro(ens, n, R) == want, (R, cells)
            monkeypatch.undo()


def test_lift_cesaro_without_ensemble_streams_the_walk(graph, brolin_ens):
    # the lift folds the tower walk's blocks, and holds no samples x
    # horizon state matrix
    _, ens = brolin_ens
    tracemalloc.start()
    try:
        got = lf.lift_cesaro(ens, 1000, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == dense_lift_cesaro(graph, 1000, 6, ens)
    assert peak < ens.states.nbytes / 2


def test_lift_cesaro_walk_buffer_fits_the_horizon(part, graph):
    # 400 samples x 500 steps: a walk buffer of the full block width (655
    # columns) alone is 1.31 times the 501-column state matrix, and the
    # lift held 1.68 times it at its peak
    mu = lf.brolin_samples(part, 400, 500, seed=3)
    states = 400 * 501 * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        lf.lift_cesaro(lf.make_ensemble(mu, graph, 500), 500, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * states


def test_tower_mass_validation():
    with pytest.raises(ValueError):
        lf.TowerMass({0: 0.7}, 0.2, 10, 4)
    with pytest.raises(ValueError):
        lf.TowerMass({0: -0.1, 1: 1.1}, 0.0, 10, 4)


def test_make_ensemble_respects_horizon(part, graph):
    mu = lf.brolin_samples(part, 5, 50, seed=4)
    with pytest.raises(ValueError):
        lf.make_ensemble(mu, graph, 51)


# --------------------------------------------------------------------------
# verdicts


def test_brolin_verdict_liftable(graph, brolin_ens):
    _, ens = brolin_ens
    rows = lf.retained_curves(ens, (250, 500, 1000), (4, 6, 8))
    report = lf.liftability_verdict(rows)
    assert report.verdict == "liftable"
    assert "surrogate" in report.to_json()["note"]


def test_climbing_orbit_not_liftable(graph, climbing_ens):
    _, ens = climbing_ens
    rows = lf.retained_curves(ens, (250, 500, 1000, 2000), (4, 6, 8))
    report = lf.liftability_verdict(rows)
    assert report.verdict == "not-liftable"
    for _, _, retained, escaped in rows:
        assert retained < 0.05
        assert escaped > 0.95


def test_mixed_rows_inconclusive():
    rows = [(100, 4, 0.02, 0.98), (200, 4, 0.06, 0.94)]
    assert lf.liftability_verdict(rows).verdict == "inconclusive"


def test_curves_csv_roundtrip(graph, brolin_ens):
    _, ens = brolin_ens
    rows = lf.retained_curves(ens, (250, 500), (4, 8))
    text = lf.curves_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,R,retained,escaped"
    assert len(lines) == 5
    n, R, retained, escaped = lines[1].split(",")
    assert (int(n), int(R)) == (250, 4)
    assert 0 <= float(retained) <= 1
    assert abs(float(retained) + float(escaped) - 1) < 1e-12


# --------------------------------------------------------------------------
# invariance defect


def test_defect_dirac_exact(dirac_ens):
    _, ens = dirac_ens
    for n in (10, 50, 100):
        # the base is left at step 1 and never revisited
        assert lf.invariance_defect(ens, n, [0, 1, 2]) == \
            pytest.approx(1.0 / n, abs=1e-15)


def test_defect_matches_defining_sums(graph, brolin_ens):
    _, ens = brolin_ens
    ids = [i for i, dom in graph.domains.items() if dom.level <= 8]
    w = ens.weights[:, None]
    for n in (250, 500, 1000):
        expected = max(
            abs(float(((ens.states[:, 1:n + 1] == dom) * w).sum() / n
                      - ((ens.states[:, :n] == dom) * w).sum() / n))
            for dom in ids)
        assert abs(lf.invariance_defect(ens, n, ids) - expected) <= 1e-15


def test_defect_bound_and_decrease(graph, brolin_ens):
    _, ens = brolin_ens
    ids = [i for i, dom in graph.domains.items() if dom.level <= 8]
    defects = [lf.invariance_defect(ens, n, ids) for n in (250, 500, 1000)]
    for d, n in zip(defects, (250, 500, 1000)):
        assert d <= 2.0 / n
    assert defects[0] > defects[1] > defects[2]


# --------------------------------------------------------------------------
# densities


def test_density_ratios_near_one(dense_ens):
    _, ens = dense_ens
    report = lf.project_and_density(ens, 6, 8)
    assert len(report.ratios) == 64
    assert not report.skipped
    for word, val in report.corrected.items():
        assert len(word) == 6
        assert 0.9 <= val <= 1.1
    assert report.retained == pytest.approx(1 - 2.0 ** -7, abs=0.01)


def test_density_climbing_ratios_vanish(climbing_ens):
    _, ens = climbing_ens
    report = lf.project_and_density(ens, 4, 8)
    for val in report.ratios.values():
        assert val < 0.02
    assert report.skipped


def test_density_skips_zero_mass_words(part, graph):
    # the 2-cycle at 1/3 stays inside one arc; 5/6 starts in the other
    mu = custom_measure([(F(1, 3), 0.5), (F(5, 6), 0.5)], part,
                        provenance="custom")
    ens = lf.make_ensemble(mu, graph, 60)
    report = lf.project_and_density(ens, 4, 8)
    assert set(report.ratios) == {(0, 0, 0, 0), (1, 0, 0, 0)}
    assert report.skipped == ()
    # a sparse measure projects onto words its initial mass never saw
    mu2 = lf.brolin_samples(part, 3, 100, seed=8)
    rep2 = lf.project_and_density(lf.make_ensemble(mu2, graph, 100), 4, 8)
    assert rep2.skipped


def test_density_json(dense_ens, graph):
    mu, _ = dense_ens
    report = lf.project_and_density(lf.make_ensemble(mu, graph, 64), 3, 8)
    data = json.loads(json.dumps(report.to_json()))
    assert data["depth"] == 3
    assert set(len(k) for k in data["ratios"]) == {3}


# --------------------------------------------------------------------------
# float summation order: curves.csv and the densities are pinned to the
# bit, so a reordered sum must show up here and not in the artifacts


@pytest.fixture(scope="module")
def weighted_ens(part, graph):
    base = lf.brolin_samples(part, 1500, 600, seed=21)
    w = np.random.default_rng(21).random(1500) + 0.05
    mu = boundary_measure(zip(base.angles, w / w.sum()))
    return mu, lf.make_ensemble(mu, graph, 600)


def test_retained_curves_add_samples_in_order(graph, weighted_ens):
    _, ens = weighted_ens
    n_grid, R_grid = (150, 300, 600), (3, 5, 8)
    rows = lf.retained_curves(ens, n_grid, R_grid)
    assert len(rows) == 9
    # reducing axis 0 of a row-major matrix adds the samples in order
    lv = np.ascontiguousarray(ens.levels[ens.states[:, :600]])
    w = ens.weights
    for n, R, retained, escaped in rows:
        ref = np.cumsum(((lv <= R) * w[:, None]).sum(axis=0))[n - 1] / n
        assert retained == float(ref)
        assert escaped == 1.0 - float(ref)


def test_project_and_density_matches_step_loop(weighted_ens):
    _, ens = weighted_ens
    m, R, n = 4, 6, ens.horizon
    report = lf.project_and_density(ens, m, R)
    N = ens.graph.partition.size
    w = ens.weights
    proj = np.zeros(N ** m)
    retained = 0.0
    for k in range(n - m):
        wid = word_codes(ens.symbols[:, k:k + m], N)
        keep = ens.levels[ens.states[:, k]] <= R
        proj += np.bincount(wid[keep], weights=w[keep], minlength=N ** m)
        retained += float(w[keep].sum())
    proj /= n - m
    retained /= n - m
    mu_mass = np.bincount(word_codes(ens.symbols[:, :m], N), weights=w,
                          minlength=N ** m)
    assert report.retained == retained
    assert len(report.ratios) == N ** m
    for word, ratio in report.ratios.items():
        i = word_codes(np.array([word]), N)[0]
        assert ratio == float(proj[i] / mu_mass[i])
        assert report.corrected[word] == ratio / retained


# --------------------------------------------------------------------------
# equal weights: the count path against the weighted sums it stands for


@pytest.mark.parametrize("rc", [CHEB, DEND, CUBIC, PAIR],
                         ids=["cheb", "dend", "cubic", "pair"])
def test_count_path_matches_weighted_path(monkeypatch, rc):
    n = 160
    g = build_tower(rc, 6, extra_levels=n)
    ids = [i for i, dom in g.domains.items() if dom.level <= 6]
    for name, mu in _measures(g.partition, n, seed=9).items():
        if name == "mixed":
            continue
        ens = lf.make_ensemble(mu, g, n)
        short = lf.make_ensemble(mu, g, n - 7)
        assert lf._count_sums(ens.weights) is not None, name
        results = []
        for weighted in (False, True):
            if weighted:
                monkeypatch.setattr(lf, "_count_sums", lambda w: None)
            results.append((
                lf.retained_curves(ens, (40, 100, n), (2, 4, 6)),
                [lf.invariance_defect(ens, k, ids) for k in (1, 50, n)],
                lf.project_and_density(ens, 4, 5),
                lf.project_and_density(short, 2, 3),
            ))
            monkeypatch.undo()
        counted, summed = results
        assert counted == summed, name


def test_count_sums_are_in_order_sums():
    w = np.full(1000, 1 / 1000)
    T = lf._count_sums(w)
    for c in (0, 1, 7, 333, 1000):
        assert T[c] == np.cumsum(np.r_[0.0, w[:c]])[-1]
    assert lf._count_sums(np.array([0.25, 0.75])) is None


def test_diagnostics_past_the_traced_horizon(graph, period_ens):
    _, ens = period_ens
    with pytest.raises(ValueError,
                       match="ensemble traced to 240, requested 300"):
        lf.retained_curves(ens, (100, 300), (4, 8))
    with pytest.raises(ValueError,
                       match="ensemble traced to 240, requested 241"):
        lf.invariance_defect(ens, 241, [0])


# --------------------------------------------------------------------------
# Lyapunov consistency


@pytest.fixture(scope="module")
def cheb_solver():
    return LandingSolver(PolynomialModel(2, -2.0))


def test_lyapunov_brolin_log2(graph, period_ens, cheb_solver):
    _, ens = period_ens
    # every cycle multiplier of this model is +-2^q, so each periodic
    # sample averages to log 2 exactly over a whole number of cycles
    rep = lf.lyapunov_consistency(ens, cheb_solver.model, cheb_solver,
                                  R=8, n=240)
    assert rep.lambda_f == pytest.approx(math.log(2), abs=1e-6)
    assert rep.lambda_fhat == pytest.approx(rep.lambda_f, rel=0.01)
    assert not rep.excluded
    assert rep.used_weight == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_dirac_fixed_point(graph, dirac_ens, cheb_solver):
    _, ens = dirac_ens
    rep = lf.lyapunov_consistency(ens, cheb_solver.model, cheb_solver,
                                  R=8, n=100)
    assert rep.lambda_f == pytest.approx(math.log(4), abs=1e-9)
    assert rep.lambda_fhat == pytest.approx(math.log(4), abs=1e-9)


def test_lyapunov_not_liftable_undefined(graph, climbing_ens, cheb_solver):
    _, ens = climbing_ens
    rep = lf.lyapunov_consistency(ens, cheb_solver.model, cheb_solver,
                                  R=8, n=500)
    assert rep.lambda_f is None
    assert rep.lambda_fhat is None
    assert rep.excluded


def test_lyapunov_reports_exclusions(part, graph, cheb_solver):
    mu = boundary_measure([(F(3, 16), 0.5), (F(1, 3), 0.5)])
    ens = lf.make_ensemble(mu, graph, 60)
    rep = lf.lyapunov_consistency(ens, cheb_solver.model, cheb_solver,
                                  R=8, n=60)
    assert len(rep.excluded) == 1
    assert rep.excluded[0][0] == 0
    assert rep.used_weight == pytest.approx(0.5)
    # the surviving 2-cycle at angle 1/3 lands on z = -1 with |Df| = 2
    assert rep.lambda_f == pytest.approx(math.log(2), abs=1e-9)


def test_lyapunov_lands_non_d_adic_dyadic_sample():
    # 205 / (3^8 - 1) = 1/32 has denominator a power of 2 but not of 3: it
    # is periodic under tripling with period 8 and gets landed
    cubic = RayChoice(3, (F(1, 6),))
    g = build_tower(cubic, 4, extra_levels=40)
    model = PolynomialModel(3, complex(0.34062501931660666,
                                       1.2712298784187062))
    solver = LandingSolver(model)
    mu = custom_measure([(F(205, 3 ** 8 - 1), 0.5), (F(1, 3 ** 5), 0.5)],
                        g.partition, provenance="custom")
    ens = lf.make_ensemble(mu, g, 40)
    rep = lf.lyapunov_consistency(ens, model, solver, R=4, n=40)
    assert solver.land_orbit(F(1, 32)).period == 8
    assert rep.lambda_f is not None and math.isfinite(rep.lambda_f)


# --------------------------------------------------------------------------
# entropy


def test_entropy_brolin_log2(dense_ens):
    _, ens = dense_ens
    h = lf.entropy_estimate(ens, 6, 8)
    assert h == pytest.approx(math.log(2), rel=0.05)


def test_entropy_dirac_zero(dirac_ens):
    _, ens = dirac_ens
    assert lf.entropy_estimate(ens, 4, 6) == 0.0
    assert lf.entropy_estimate(ens, 2, 4) == 0.0


def test_entropy_single_depth_and_errors(dirac_ens):
    _, ens = dirac_ens
    assert lf.entropy_estimate(ens, 1, 5) == 0.0
    with pytest.raises(ValueError):
        lf.entropy_estimate(ens, 5, 5)
    with pytest.raises(ValueError):
        lf.entropy_estimate(ens, 4, 2000)


# --------------------------------------------------------------------------
# event frequency against lifted mass


@pytest.fixture(scope="module")
def margin_ens(part, graph):
    mu = lf.brolin_period_samples(part, 512, seed=9, bits=16)
    return mu, lf.make_ensemble(mu, graph, 200)


def test_large_scale_frequency_consistent(graph, margin_ens):
    # visits to the notched level-2 domain are the large-scale times
    _, ens = margin_ens
    mean_freq = first_return(ens, choose_W(graph, 2, F(1, 64))
                             ).witness_frequency
    tm = lf.lift_cesaro(ens, 200, R=8)
    # the witness keeps 15/16 of the domain's angular mass
    assert mean_freq > 0.3
    assert mean_freq == pytest.approx(tm.mass[2] * 15 / 16, abs=0.05)


# --------------------------------------------------------------------------
# one-stop report


def test_lift_report_brolin(graph, brolin_ens):
    _, ens = brolin_ens
    report = lf.lift_report(ens, n_grid=(250, 500, 1000), R_grid=(4, 6, 8))
    assert report.verdict == "liftable"
    assert report.invariance_defect <= 2 / 1000
    assert report.densities
    assert all(v > 0 for v in report.densities.values())
    data = json.loads(json.dumps(report.to_json()))
    assert data["verdict"] == "liftable"
    assert len(data["curves"]) == 9


def test_lift_report_memory_and_step_layout():
    # the shipped dendrite lift: each step of the trace is one contiguous
    # column, and the report allocates less than two state matrices
    g = build_tower(DEND, 8, extra_levels=64)
    mu = lf.brolin_samples(g.partition, 2000, 1000, seed=7)
    ens = lf.make_ensemble(mu, g, 1000)
    for k in (0, 500, 999):
        assert ens.states[:, k].flags.c_contiguous
        assert ens.symbols[:, k].flags.c_contiguous
    tracemalloc.start()
    try:
        report = lf.lift_report(ens, (250, 500, 1000), (4, 6, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.densities
    assert peak <= 2 * ens.states.nbytes


# the tower of the ray 1/2 at degree 16: K = 16 symbols, some two-digit
@pytest.fixture(scope="module")
def d16_ens():
    g = build_tower(RayChoice(16, (F(1, 2),)), 8, extra_levels=64)
    mu = lf.brolin_samples(g.partition, 2000, 1000, seed=7)
    return lf.make_ensemble(mu, g, 1000)


def test_lift_report_density_bins_past_six_symbols(monkeypatch, d16_ens):
    # 16^6 bins would hold 128 MB a bin array; the depth drops to 4
    depths = []

    class Bounded(lf._Density):
        def __init__(self, ens, m, R, n):
            assert ens.graph.partition.size ** m <= 1 << 16, m
            depths.append(m)
            super().__init__(ens, m, R, n)

    monkeypatch.setattr(lf, "_Density", Bounded)
    report = lf.lift_report(d16_ens, (250, 500, 1000), (4, 6, 8))
    assert depths == [4]
    assert report.verdict == "liftable"
    assert {len(w) for w in report.densities} == {4}


def test_lift_json_keeps_one_density_key_per_word(d16_ens):
    report = lf.lift_report(d16_ens, (250, 500, 1000), (4, 6, 8))
    words = report.densities
    # bare digits would give (1, 12, ...) and (11, 2, ...) one text
    assert len({"".join(map(str, w)) for w in words}) < len(words)
    texts = report.to_json()["densities"]
    assert len(texts) == len(words)
    assert list(texts.values()) == [words[w] for w in sorted(words)]


# a cycle per tower whose lift leaves level 1 for good: not liftable at R = 1
CYCLE_ABOVE_LEVEL_1 = {"cheb": F(1, 7), "dend": F(1, 7), "cubic": F(1, 8),
                       "pair": F(1, 5)}


@pytest.mark.parametrize("name, rc", [("cheb", CHEB), ("dend", DEND),
                                      ("cubic", CUBIC), ("pair", PAIR)])
def test_streamed_lift_matches_materialized(monkeypatch, name, rc):
    n = 160
    g = build_tower(rc, 6, extra_levels=n)
    part = g.partition
    cases = {
        "brolin": (lf.brolin_samples(part, 60, n, seed=9), (2, 4, 6)),
        "periodic": (lf.brolin_period_samples(part, 60, 9, bits=10),
                     (2, 4, 6)),
        "dirac": (lf.dirac_cycle(part, CYCLE_ABOVE_LEVEL_1[name]), (1,)),
        # unequal weights over denominators no one scan takes together
        "custom": (boundary_measure(
            [(F(1, 3), 0.5), (F(5, 2 ** 70), 0.25), (F(2, 7), 0.125),
             (F(1, 7 ** 25), 0.125)]), (2, 4, 6)),
    }
    reports = {}
    for case, (mu, R_grid) in cases.items():
        ens = lf.make_ensemble(mu, g, n)
        # the reference folds the lazily walked state matrix as one block
        states = ens.states
        with monkeypatch.context() as whole:
            whole.setattr(streams, "walk_blocks", lambda g, table, syms, k:
                          iter([(0, states[:, :k + 1])]))
            traced = reports[case] = lf.lift_report(ens, (40, 100, n),
                                                    R_grid)
        # the default blocks hold the whole horizon; smaller ones carry
        # the walk across block ends, down to one step per block
        for cells in (streams._BLOCK_CELLS, 7 * len(mu.nums), 1):
            monkeypatch.setattr(streams, "_BLOCK_CELLS", cells)
            assert lf.lift_report(ens, (40, 100, n), R_grid) == traced, \
                (case, cells)
            monkeypatch.undo()
    assert reports["brolin"].densities and reports["custom"].densities
    assert reports["dirac"].verdict != "liftable"
    assert reports["dirac"].densities is None


def test_streamed_lift_raises_as_the_ensemble_does(monkeypatch):
    g = build_tower(CHEB, 3)
    climber = boundary_measure([(F(1, 8), 1.0)])
    brolin = lf.brolin_samples(g.partition, 50, 300, seed=2)
    monkeypatch.setattr(streams, "_BLOCK_CELLS", 50 * 3)
    for mu, n in ((climber, 12), (brolin, 300)):
        # the ensemble holds its symbols; each walk of it meets the frontier
        ens = lf.make_ensemble(mu, g, n)
        with pytest.raises(TowerTooShallow) as built:
            ens.states
        with pytest.raises(TowerTooShallow) as streamed:
            lf.lift_report(ens, (n // 2, n), (2,))
        assert str(streamed.value) == str(built.value)
    with pytest.raises(ValueError,
                       match="measure is exact to horizon 300, requested 301"):
        lf.make_ensemble(brolin, g, 301)


def test_streamed_lift_report_holds_no_state_matrix():
    # the shipped dendrite lift, walked and folded block by block: the
    # peak stays below one samples x (horizon + 1) int32 state matrix
    g = build_tower(DEND, 8, extra_levels=64)
    mu = lf.brolin_samples(g.partition, 2000, 1000, seed=7)
    tracemalloc.start()
    try:
        report = lf.lift_report(lf.make_ensemble(mu, g, 1000),
                                (250, 500, 1000), (4, 6, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.densities
    assert peak < 2000 * 1001 * 4


# --------------------------------------------------------------------------
# properties


PROP_GRAPH = build_tower(CHEB, 4, extra_levels=48)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=61),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=40))
def test_conservation_and_monotone_property(angles, n):
    g = PROP_GRAPH
    part = g.partition
    w = 1.0 / len(angles)
    mu = boundary_measure([(a, w) for a in angles])
    ens = lf.make_ensemble(mu, g, n)
    low = lf.lift_cesaro(ens, n, R=2)
    high = lf.lift_cesaro(ens, n, R=4)
    assert abs(sum(low.mass.values()) + low.escaped - 1.0) <= 1e-12
    assert abs(sum(high.mass.values()) + high.escaped - 1.0) <= 1e-12
    assert sum(low.mass.values()) <= sum(high.mass.values()) + 1e-15
