"""Published acceptance checklist, one test per criterion.

Each test exercises a criterion end to end at its stated tolerance and
prints one line with the measured values.  Run with

    python3 -m pytest tests/test_acceptance.py -v -s

so the per-criterion lines appear alongside the pass/fail verdicts.
Heavy inputs (towers, large Brolin ensembles, the induced system) are
module fixtures shared across criteria; fixtures that a criterion's
runtime budget covers record their own wall time.
"""

import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from angletower.angles import RayChoice
from angletower.census import (brute_force_census, cutpoint_census,
                               subset_count_bound, verify_appendix)
from angletower.cli import EXIT_OK, main
from angletower.conformal import (build_basis, conformality_residual,
                                  lyapunov_liftability_experiment,
                                  solve_delta)
from angletower.geometry import LandingSolver, PolynomialModel
from angletower.inducing import (choose_W, expansion_and_abramov,
                                 first_return, kac_check,
                                 recurrent_witness_domain)
from angletower.lifting import (DENSITY_DEPTH, brolin_period_samples,
                                brolin_samples, dirac_cycle,
                                invariance_defect, lift_cesaro, lift_report,
                                lyapunov_consistency, make_ensemble,
                                project_and_density, retained_curves)
from angletower.tower import build_tower, structural_checks

CHEB = RayChoice(2, (F(1, 2),))
DEND = RayChoice(2, (F(1, 6),))
PAIR = RayChoice(2, (F(5, 12), F(7, 12)))

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "chebyshev.ini"

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)


def report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


class timed:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


# --------------------------------------------------------------------------
# shared heavy inputs


@pytest.fixture(scope="module")
def cheb_graph():
    return build_tower(CHEB, 8, extra_levels=64)


@pytest.fixture(scope="module")
def dend_graph():
    return build_tower(DEND, 8, extra_levels=64)


@pytest.fixture(scope="module")
def towers_r12():
    return {"cheb": build_tower(CHEB, 12),
            "dend": build_tower(DEND, 12),
            "pair": build_tower(PAIR, 12)}


@pytest.fixture(scope="module")
def big_lifts(cheb_graph, dend_graph):
    # the criterion-7 workload: 1e4 Brolin samples lifted to n=1e3, R=8
    data = {}
    with timed() as t:
        for name, g in (("cheb", cheb_graph), ("dend", dend_graph)):
            mu = brolin_samples(g.partition, 10_000, 1000, seed=11)
            ens = make_ensemble(mu, g, 1000)
            rep = lift_report(ens, n_grid=(1000,), R_grid=(8,))
            data[name] = (mu, ens, rep)
    return data, t.elapsed


@pytest.fixture(scope="module")
def cheb_induced(cheb_graph):
    g = cheb_graph
    mu = brolin_period_samples(g.partition, 768, seed=13, bits=16)
    ens = make_ensemble(mu, g, 1600)
    witness = choose_W(g, recurrent_witness_domain(g), F(1, 64))
    return mu, ens, first_return(ens, witness)


@pytest.fixture(scope="module")
def cheb_solver():
    return LandingSolver(PolynomialModel(2, -2.0))


@pytest.fixture(scope="module")
def dend_solver():
    return LandingSolver(PolynomialModel(2, 1j))


# --------------------------------------------------------------------------
# criteria


def test_criterion_01_tower_oracle():
    with timed() as t:
        g = build_tower(CHEB, 6)
        rep = structural_checks(g)
    assert g.domain_count(within_truncation=True) == 7
    assert g.level_counts() == {l: 1 for l in range(8)}
    for did, d in g.domains.items():
        ages = sorted(c.age for c in d.cutpoints)
        if d.level == 0:
            assert ages == []
        elif d.level == 1:
            assert ages == [1]
        else:
            assert ages == [1, d.level]
    assert rep.passed
    assert t.elapsed < 1.0
    report(1, f"7 domains, ages {{1, l}} at every level >= 2, "
              f"structural checks pass, {t.elapsed:.3f}s (< 1s)")


def test_criterion_02_per_level_bound(towers_r12):
    bounds = {"cheb": 1, "dend": 1, "pair": 2}
    seen = {}
    for name, g in towers_r12.items():
        counts = g.level_counts()
        worst = max(counts.values())
        assert worst <= bounds[name], (name, counts)
        rep = structural_checks(g)
        assert rep.per_level_bound == bounds[name]
        assert rep.bound_violations == []
        seen[name] = worst
    report(2, f"per-level domain counts at R=12: "
              f"cheb {seen['cheb']} <= 1, dend {seen['dend']} <= 1, "
              f"pair {seen['pair']} <= 2, zero violations")


def test_criterion_03_markov_exactness(towers_r12, cheb_graph, dend_graph):
    edges = 0
    graphs = list(towers_r12.values()) + [cheb_graph, dend_graph]
    for g in graphs:
        rep = structural_checks(g)
        assert rep.markov_failures == []
        edges += sum(len(g.successors(d)) for d in g.domains
                     if g.is_expanded(d))
    report(3, f"image arc-set equals target arc-set on all {edges} edges "
              f"across {len(graphs)} towers, exact rational, 0 tolerance")


def test_criterion_04_cutpoint_census():
    with timed() as t:
        g = build_tower(DEND, 2, extra_levels=26)
        [did] = [i for i, d in g.domains.items() if d.level == 2]
        tbl = cutpoint_census(g, 2, did, 20)
        rep = verify_appendix(tbl, g.partition.size)
        dfs = brute_force_census(g, did, 8)
    assert rep.ok, rep.first_violation()
    assert tbl.s[:len(dfs.s)] == dfs.s
    assert {k: v for k, v in tbl.L.items() if k[0] <= 8} == dfs.L
    assert t.elapsed < 30.0
    report(4, f"c=i R=2 T=20: {rep.checked} exact bounds hold, DP equals "
              f"DFS through t=8, {t.elapsed:.2f}s (< 30s)")


def test_criterion_05_subset_bound():
    checked = 0
    for n in (20, 40, 60):
        for eps in ("0.05", "0.1", "0.2", "0.3"):
            b = subset_count_bound(eps, n)
            assert b.holds, (n, eps, b)
            checked += 1
    report(5, f"binomial tail bound holds at all {checked} grid points "
              f"(n in {{20,40,60}}, eps in {{0.05,0.1,0.2,0.3}})")


def test_criterion_06_lifting_sanity(cheb_graph, big_lifts):
    data, _ = big_lifts
    _, ens, _ = data["cheb"]
    g = cheb_graph
    worst_gap = 0.0
    for n in (100, 1000):
        tm = lift_cesaro(ens, n, 8)
        gap = abs(sum(tm.mass.values()) + tm.escaped - 1.0)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12
    ids = [i for i, d in g.domains.items() if d.level <= 8]
    defects = {n: invariance_defect(ens, n, ids) for n in (100, 1000)}
    for n, defect in defects.items():
        assert defect <= 2 / n, (n, defect)
    rep = lift_report(ens, n_grid=(1000,), R_grid=(2, 4, 6, 8))
    retained = [row[2] for row in sorted(rep.curves)]
    assert retained == sorted(retained)
    # the report's one walk gives what the single-diagnostic folds give
    assert rep.curves == tuple(retained_curves(ens, (1000,), (2, 4, 6, 8)))
    assert rep.densities == project_and_density(ens, DENSITY_DEPTH,
                                                8).corrected
    report(6, f"mass gap {worst_gap:.2e} (<= 1e-12), invariance defect "
              f"{defects[100]:.4f}/{defects[1000]:.4f} vs 2/n, retained "
              f"non-decreasing in R: {['%.3f' % r for r in retained]}")


def test_criterion_07_brolin_liftable(big_lifts):
    data, elapsed = big_lifts
    stats = {}
    for name in ("cheb", "dend"):
        _, _, rep = data[name]
        assert rep.verdict == "liftable", (name, rep.verdict)
        [(n, R, retained, _)] = rep.curves
        assert (n, R) == (1000, 8)
        assert retained >= 0.5, (name, retained)
        stats[name] = retained
    assert elapsed < 120.0
    report(7, f"1e4 Brolin samples, n=1e3, R=8: retained "
              f"cheb {stats['cheb']:.4f}, dend {stats['dend']:.4f} "
              f"(>= 0.5), both liftable, {elapsed:.1f}s (< 120s)")


def test_criterion_08_lyapunov_identities(cheb_graph, cheb_solver,
                                          cheb_induced):
    g = cheb_graph
    mu = brolin_period_samples(g.partition, 512, seed=17, bits=12)
    ens = make_ensemble(mu, g, 240)
    rep = lyapunov_consistency(ens, cheb_solver.model, cheb_solver,
                               R=8, n=240)
    assert rep.lambda_f == pytest.approx(LOG2, rel=0.02)
    assert rep.lambda_fhat == pytest.approx(rep.lambda_f, rel=0.05)

    beta = dirac_cycle(g.partition, F(0))
    beta_ens = make_ensemble(beta, g, 64)
    beta_rep = lyapunov_consistency(beta_ens, cheb_solver.model,
                                    cheb_solver, R=8, n=64)
    assert beta_rep.lambda_f == pytest.approx(LOG4, rel=0.01)

    _, _, ind = cheb_induced
    expansion = expansion_and_abramov(ind, cheb_solver)
    assert expansion.entropy_rate == pytest.approx(LOG2, rel=0.05)
    report(8, f"brolin lambda {rep.lambda_f:.5f} (log 2 +- 2%), dirac-beta "
              f"{beta_rep.lambda_f:.5f} (log 4 +- 1%), tower side "
              f"{rep.lambda_fhat:.5f} (+- 5%), entropy "
              f"{expansion.entropy_rate:.5f} (log 2 +- 5%)")


def test_criterion_09_kac_abramov(cheb_solver, cheb_induced):
    _, _, ind = cheb_induced
    kac = kac_check(ind, 8)
    assert kac.relative_error is not None and kac.relative_error <= 0.05
    assert kac.censor_fraction < 0.05
    assert kac.verdict == "ok"
    expansion = expansion_and_abramov(ind, cheb_solver)
    assert expansion.lambda_error is not None
    assert expansion.lambda_error <= 0.05
    report(9, f"kac relative error {kac.relative_error:.4f} (<= 5%) with "
              f"censoring {kac.censor_fraction:.4f} (< 5%), abramov "
              f"lambda error {expansion.lambda_error:.4f} (<= 5%)")


def test_criterion_10_conformal_solve(cheb_solver):
    part = build_tower(CHEB, 1).partition
    with timed() as t:
        basis10 = build_basis(part, cheb_solver, 10)
        solve10 = solve_delta(basis10)
        basis8 = build_basis(part, cheb_solver, 8)
        solve8 = solve_delta(basis8)
        residual8 = conformality_residual(basis8, solve8.weights,
                                          solve8.delta)
    assert 0.98 <= solve10.delta <= 1.02
    assert residual8 <= 1e-3
    assert solve10.eigen_residual <= 1e-8
    assert solve10.grid_strictly_decreasing
    assert t.elapsed < 60.0
    report(10, f"delta* = {solve10.delta:.8f} in [0.98, 1.02], m=8 "
               f"conformality residual {residual8:.2e} (<= 1e-3), eigen "
               f"residual {solve10.eigen_residual:.2e} (<= 1e-8), rho "
               f"strictly decreasing, {t.elapsed:.1f}s (< 60s)")


def test_criterion_11_equivalence_consistency(cheb_graph, cheb_solver,
                                              dend_graph, dend_solver):
    stats = {}
    for name, g, solver in (("cheb", cheb_graph, cheb_solver),
                            ("dend", dend_graph, dend_solver)):
        basis = build_basis(g.partition, solver, 8)
        solve = solve_delta(basis)
        rep = lyapunov_liftability_experiment(solve, g, solver,
                                              lift_horizon=1000)
        if name == "cheb":
            assert rep.positive_lyapunov_mass > 0.9
        assert rep.liftable
        assert rep.density.skipped == ()
        assert rep.density_min > 0.0
        assert rep.consistent, name
        stats[name] = rep
    cheb = stats["cheb"]
    report(11, f"c=-2 positive-Lyapunov mass "
               f"{cheb.positive_lyapunov_mass:.3f} (> 0.9), density floor "
               f"cheb {cheb.density_min:.2e} / dend "
               f"{stats['dend'].density_min:.2e} (> 0 on all cylinders), "
               f"both sides agree on both shipped configurations")


def test_criterion_12_reproducibility(tmp_path):
    commands = ("tower-build", "tower-export", "census", "lift",
                "lyapunov", "induce", "conformal", "report")
    outs = {}
    with timed() as t:
        for tag in ("a", "b"):
            out = tmp_path / tag
            for cmd in commands:
                code = main([cmd, "--config", str(CONFIG), "--out",
                             str(out)])
                assert code == EXIT_OK, (tag, cmd, code)
            outs[tag] = out
    names = sorted(p.name for p in outs["a"].iterdir())
    assert names == sorted(p.name for p in outs["b"].iterdir())
    artifacts = manifests = 0
    for name in names:
        ta = (outs["a"] / name).read_text()
        tb = (outs["b"] / name).read_text()
        if name.endswith(".manifest.json"):
            ma, mb = json.loads(ta), json.loads(tb)
            ma.pop("wall_time_s")
            mb.pop("wall_time_s")
            assert ma == mb, name
            manifests += 1
        else:
            assert ta == tb, name
            artifacts += 1
    report(12, f"two full pipeline runs: {artifacts} artifacts "
               f"byte-identical, {manifests} manifests identical up to "
               f"wall time, {t.elapsed:.1f}s")
