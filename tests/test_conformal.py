"""Conformal solve and equivalence experiment tests.

The c=-2 oracles lean on the interval picture: the landing map is
2 cos(2 pi theta), normalized arclength on [-2, 2] is exactly
1-conformal, and |Df| at a landed angle is 4|cos(2 pi theta)|.  These
give independent routes to the operator entries, the eigenvector, and
the residual that never touch the solver's own arithmetic.
"""

import dataclasses
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angletower import conformal
from angletower.angles import ArcSet, RayChoice, build_partition
from angletower.conformal import (DELTA_GRID, EIGEN_TOL, NODE_OFFSETS,
                                  NODE_SCALE, build_basis,
                                  conformality_residual, curve_csv,
                                  enumerate_cylinders, leading_eigen,
                                  lyapunov_liftability_experiment,
                                  solve_delta, weights_csv)
from angletower.geometry import LandingSolver, PolynomialModel
from angletower.streams import symbol_matrix
from angletower.tower import build_tower

from oracles import (components, custom_measure, orbit_hits_boundary,
                     quadrature_node)

CHEB = RayChoice(2, (F(1, 2),))
DEND = RayChoice(2, (F(1, 6),))


@pytest.fixture(scope="module")
def cheb_part():
    return build_partition(CHEB)


@pytest.fixture(scope="module")
def cheb_solver():
    return LandingSolver(PolynomialModel(2, -2.0))


@pytest.fixture(scope="module")
def dend_part():
    return build_partition(DEND)


@pytest.fixture(scope="module")
def dend_solver():
    return LandingSolver(PolynomialModel(2, 1j))


@pytest.fixture(scope="module")
def cheb_bases(cheb_part, cheb_solver):
    return {m: build_basis(cheb_part, cheb_solver, m)
            for m in (0, 1, 2, 4, 6, 8, 10)}


@pytest.fixture(scope="module")
def cheb_solves(cheb_bases):
    return {m: solve_delta(cheb_bases[m]) for m in (1, 2, 4, 6, 8, 10)}


@pytest.fixture(scope="module")
def cheb_graph():
    return build_tower(CHEB, 8, extra_levels=64)


@pytest.fixture(scope="module")
def cheb_report(cheb_solves, cheb_graph, cheb_solver):
    return lyapunov_liftability_experiment(
        cheb_solves[8], cheb_graph, cheb_solver,
        lambdas=(1.1, 1.2, 1.5, 5.0), lift_horizon=1000)


def nodes(basis):
    return tuple(F(p, basis.den) for p in basis.nums)


def trig_deriv(a):
    # |Df| at the landing point of angle a, for c=-2
    return 4.0 * abs(math.cos(2 * math.pi * float(a)))


def lebesgue_cdf(x):
    # pullback of normalized arclength on [-2, 2] through 2 cos(2 pi t),
    # split evenly between the two angle preimages of each point
    x = float(x)
    if x <= 0.5:
        return (1.0 - math.cos(2 * math.pi * x)) / 4.0
    return 0.5 + (1.0 + math.cos(2 * math.pi * x)) / 4.0


def lebesgue_weight(arcset):
    total = 0.0
    for s, l in components(arcset):
        e = s + l
        if e <= 1:
            total += lebesgue_cdf(e) - lebesgue_cdf(s)
        else:
            total += (1.0 - lebesgue_cdf(s)) + lebesgue_cdf(e - 1)
    return total


# --------------------------------------------------------------------------
# basis and nodes


def test_basis_m1_nodes_frozen(cheb_bases):
    b = cheb_bases[1]
    assert b.words == ((0,), (1,))
    # piece [1/4, 3/4) plus offset 5200/13107 of its length, exactly
    assert nodes(b) == (F(23507, 52428), F(49721, 52428))
    assert b.moved == ()


def test_basis_m2_nodes_frozen(cheb_bases):
    b = cheb_bases[2]
    assert b.words == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert nodes(b) == (F(15707, 52428), F(49721, 104856),
                        F(18307, 104856), F(102149, 104856))
    assert b.moved == ()


def test_deriv_matches_trig_oracle(cheb_bases):
    for m in (1, 2, 8):
        b = cheb_bases[m]
        for rep, ld in zip(nodes(b), b.log_derivs):
            assert math.exp(ld) == pytest.approx(trig_deriv(rep), abs=1e-9)


def test_children_realize_full_shift(cheb_bases):
    b = cheb_bases[2]
    assert b.children.tolist() == [[0, 1], [2, 3], [0, 1], [2, 3]]
    assert (cheb_bases[8].children >= 0).all()


def test_m0_self_child(cheb_bases):
    assert cheb_bases[0].children.tolist() == [[0, -1]]


def test_children_shift_words_on_a_proper_subshift():
    # kappa = 2: arc 0 maps inside arc 1, so some shifted words are absent
    part = build_partition(RayChoice(2, (F(5, 12), F(7, 12))))
    solver = LandingSolver(PolynomialModel(2, -1.5436890126920764))
    for depth in (1, 2, 5):
        b = build_basis(part, solver, depth)
        index = {w: i for i, w in enumerate(b.words)}
        assert b.children.dtype == np.int64
        assert b.children.tolist() == [
            [index.get(w[1:] + (t,), -1) for t in range(part.size)]
            for w in b.words]
        assert (b.children >= 0).any(axis=1).all()
        assert (b.children < 0).any() == (depth > 1)


def test_cylinders_stream_the_boundaries_only(monkeypatch):
    # lattice 786,432: its cells at depth 8 would be 10^8 angles, the
    # cylinder boundaries are at most 1 + N (d^8 - 1) / (d - 1)
    part = build_partition(RayChoice(2, (F(131071, 393216),)))
    streamed = []

    def counting(nums, den, n, cells):
        streamed.append(len(nums))
        return symbol_matrix(nums, den, n, cells)

    monkeypatch.setattr(conformal, "symbol_matrix", counting)
    assert part.lattice == 786432
    assert len(enumerate_cylinders(part, 8)) == 2 ** 8
    assert len(streamed) == 1
    assert streamed[0] <= 1 + part.size * (2 ** 8 - 1)


def test_quadrature_node_fallback(cheb_part):
    # first candidate lands exactly on the cut angle 1/4
    length = F(1, 8)
    t0, t1 = (F(t, NODE_SCALE) for t in NODE_OFFSETS[:2])
    s = (F(1, 4) - length * t0) % 1
    arcs = ArcSet([(s, length)])
    den = math.lcm(arcs.den * NODE_SCALE, cheb_part.lattice)
    [(p, k)] = conformal._place_nodes([arcs], cheb_part, den)
    node = F(p, den)
    assert k == 1
    assert node != F(1, 4)
    assert node == (s + length * t1) % 1 == F(131071, 524280)
    assert quadrature_node(arcs, cheb_part) == (node, 1)
    assert not orbit_hits_boundary(node, cheb_part)


def test_midpoints_ride_the_critical_orbit(cheb_part):
    # why plain midpoints are not usable as nodes here
    assert orbit_hits_boundary(F(5, 16), cheb_part)
    arcs = ArcSet([(F(1, 4), F(1, 8))])
    a, b = arcs.largest_component()
    assert F(a + b, 2 * arcs.den) == F(5, 16)


# (degree, angles, depths): kappa = 1 and 2 at d = 2, 3 and 4 up to about
# a thousand cylinders, and the theta_n family near c = -3/4 at depth 8
NODE_CASES = [(2, (F(1, 2),), range(1, 11)), (2, (F(1, 6),), range(1, 11)),
              (2, (F(5, 12), F(7, 12)), range(1, 9)),
              (3, (F(1, 6),), range(1, 7)), (3, (F(1, 6), F(5, 6)), (1, 5)),
              (4, (F(1, 12),), range(1, 6)),
              (4, (F(1, 12), F(7, 12)), range(1, 5))] + [
              (2, (F(2 ** n - 1, 3 * 2 ** n),), (8,)) for n in (3, 5, 7, 9)]


@pytest.mark.parametrize("d, angles, depths", NODE_CASES)
def test_integer_nodes_match_the_fraction_oracle(d, angles, depths):
    part = build_partition(RayChoice(d, angles))
    for m in depths:
        arcs = [arcset for _, arcset in enumerate_cylinders(part, m)]
        den = part.lattice * d ** (m - 1) * NODE_SCALE
        got = conformal._place_nodes(arcs, part, den)
        want = [quadrature_node(arcset, part) for arcset in arcs]
        assert [(F(p, den), k) for p, k in got] == want, m


def test_basis_nodes_over_the_cylinder_lattice(cheb_part, cheb_bases):
    for m, b in cheb_bases.items():
        assert b.den == cheb_part.lattice * 2 ** max(m - 1, 0) * NODE_SCALE
        want = [quadrature_node(arcset, cheb_part) for arcset in b.arcs]
        assert nodes(b) == tuple(node for node, _ in want)
        assert b.moved == tuple(i for i, (_, k) in enumerate(want) if k)


# --------------------------------------------------------------------------
# operator and eigen


def dense_operator(basis, delta):
    """Transfer matrix with entry (Z', Z) = |Df(node Z)|^(-delta) for each
    child Z' of Z, built entry by entry."""
    K = basis.size
    op = np.zeros((K, K))
    for z in range(K):
        for child in basis.children[z]:
            if child >= 0:
                op[child, z] = math.exp(-delta * basis.log_derivs[z])
    return op


def test_operator_m1_entries_against_oracle(cheb_bases):
    # every entry is 1/|Df(node)|, so each column sums to 2/|Df(node)|
    b = cheb_bases[1]
    res = leading_eigen(b, 1.0, EIGEN_TOL)
    assert res.rho == pytest.approx(2.0 / trig_deriv(nodes(b)[0]), abs=1e-9)
    assert res.vector.tolist() == [0.5, 0.5]


def test_operator_matches_dense_oracle(cheb_bases, dend_part, dend_solver):
    bases = (cheb_bases[6], build_basis(dend_part, dend_solver, 6))
    for b in bases:
        for delta in (0.0, 1.0, 1.7):
            vals, vecs = np.linalg.eig(dense_operator(b, delta).T)
            k = int(np.argmax(vals.real))
            vec = np.abs(vecs[:, k].real)
            res = leading_eigen(b, delta, EIGEN_TOL)
            assert res.rho == pytest.approx(vals[k].real, rel=1e-9)
            assert res.vector == pytest.approx(vec / vec.sum(), rel=1e-8)


def test_rho_at_zero_is_symbol_count(cheb_bases):
    for m in (1, 2):
        assert leading_eigen(cheb_bases[m], 0.0, EIGEN_TOL).rho == 2.0


def test_eigen_iteration_cap(cheb_bases, monkeypatch):
    monkeypatch.setattr(conformal, "EIGEN_MAX_ITER", 2)
    with pytest.raises(RuntimeError, match="in 2 steps"):
        leading_eigen(cheb_bases[8], 1.0, EIGEN_TOL)


def test_eigen_reducible_fallback(cheb_bases):
    # one two-cylinder component {1, 2}, a transient cylinder 0 and a
    # lone self-loop at 3: the operator lives on {1, 2}
    b = dataclasses.replace(
        cheb_bases[2],
        children=np.array([[1, 2], [2, -1], [1, -1], [3, -1]]),
        log_derivs=np.array([0.0, math.log(2), math.log(2), 0.0]))
    res = leading_eigen(b, 1.0, EIGEN_TOL)
    assert res.support_size == 2
    assert res.rho == pytest.approx(0.5)
    assert res.vector.tolist() == [0.0, 0.5, 0.5, 0.0]


def test_support_tie_goes_to_the_lowest_node(cheb_bases):
    # {3, 4}, reached from the transient 0, completes before {1, 2} and
    # ties it at two cylinders: the support is the one holding node 1
    b = dataclasses.replace(
        cheb_bases[2], children=np.array([[3, -1], [2, -1], [1, -1],
                                          [4, -1], [3, -1]]))
    assert b.support.tolist() == [False, True, True, False, False]


# --------------------------------------------------------------------------
# the solve


def test_m1_closed_form(cheb_solves, cheb_bases):
    # identical rows: rho(delta) = 2 |Df|^(-delta), so
    # delta* = log 2 / log |Df| and the eigenvector is exactly flat
    s = cheb_solves[1]
    expect = math.log(2.0) / math.log(trig_deriv(nodes(cheb_bases[1])[0]))
    assert s.delta == pytest.approx(expect, abs=2e-6)
    assert s.weights.tolist() == [0.5, 0.5]
    assert s.eigen_residual == 0.0
    assert s.support_size == s.basis.size


def test_m0_bracket_failure(cheb_bases):
    with pytest.raises(ValueError, match="no bracket"):
        solve_delta(cheb_bases[0])


def test_m0_residual_trivially_zero(cheb_bases):
    assert conformality_residual(cheb_bases[0], [1.0], 0.0) == 0.0


@pytest.mark.parametrize("delta_tol", [1e-6, 0.0],
                         ids=["tolerance", "exhausted"])
def test_solve_delta_keeps_its_last_bisection_solve(monkeypatch, cheb_bases,
                                                    delta_tol):
    # the result is the last bisection step's solve, not a repeat at its
    # delta; only a loop that stops on mid == lo or mid == hi (a bracket
    # no float splits, as delta_tol = 0 forces) solves once more, at that
    # midpoint
    deltas, eigen = [], conformal.leading_eigen

    def counted(basis, delta, **kw):
        deltas.append(delta)
        return eigen(basis, delta, **kw)

    monkeypatch.setattr(conformal, "leading_eigen", counted)
    s = solve_delta(cheb_bases[4], delta_tol=delta_tol)
    exhausted = delta_tol == 0.0
    assert len(deltas) == len(DELTA_GRID) + s.evaluations + exhausted
    assert deltas[-1] == s.delta
    assert (deltas[-1] in deltas[:-1]) == exhausted
    again = eigen(cheb_bases[4], s.delta, EIGEN_TOL)
    assert (s.rho, s.eigen_residual) == (again.rho, again.residual)
    assert (s.weights == again.vector).all()


def test_delta_star_table(cheb_solves):
    frozen = {2: 1.00218001, 4: 0.99622226, 6: 1.00073427,
              8: 1.00043337, 10: 1.00013652}
    for m, val in frozen.items():
        assert cheb_solves[m].delta == pytest.approx(val, abs=2e-6)
    assert 0.98 <= cheb_solves[10].delta <= 1.02


def test_solve_invariants(cheb_solves):
    for m, s in cheb_solves.items():
        assert s.grid_strictly_decreasing
        assert s.support_size == s.basis.size
        assert (s.weights >= 0).all()
        assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert s.eigen_residual <= 1e-8
        assert abs(s.rho - 1.0) <= 1e-9


def test_delta_shift_shrinks_with_depth(cheb_solves):
    first = abs(cheb_solves[4].delta - cheb_solves[2].delta)
    last = abs(cheb_solves[10].delta - cheb_solves[8].delta)
    assert first == pytest.approx(0.005958, abs=1e-4)
    assert last == pytest.approx(0.000297, abs=1e-4)
    assert last < first


def test_lebesgue_eigenvector_oracle(cheb_bases):
    b = cheb_bases[8]
    oracle = np.array([lebesgue_weight(a) for a in b.arcs])
    assert oracle.sum() == pytest.approx(1.0, abs=1e-12)
    res = leading_eigen(b, 1.0, EIGEN_TOL)
    assert 0.97 <= res.rho <= 1.03
    assert abs(res.rho - 1.0) <= 2e-3
    assert np.max(np.abs(res.vector - oracle)) <= 5e-3


def test_residual_of_exact_oracle(cheb_bases):
    b = cheb_bases[8]
    oracle = [lebesgue_weight(a) for a in b.arcs]
    assert conformality_residual(b, oracle, 1.0) <= 1e-3


def test_residual_solved_and_perturbed(cheb_solves):
    s = cheb_solves[8]
    at_star = conformality_residual(s.basis, s.weights, s.delta)
    perturbed = conformality_residual(s.basis, s.weights, s.delta + 0.2)
    assert at_star <= 1e-8
    assert perturbed > 100 * max(at_star, 1e-12)
    assert perturbed == pytest.approx(3.25e-3, rel=0.1)


def test_dendrite_regression(dend_part, dend_solver):
    s4 = solve_delta(build_basis(dend_part, dend_solver, 4))
    assert s4.delta == pytest.approx(1.08692525, abs=2e-6)
    s10 = solve_delta(build_basis(dend_part, dend_solver, 10))
    assert s10.delta == pytest.approx(1.28292679, abs=2e-6)
    assert 1.0 < s10.delta < 2.0
    assert s10.grid_strictly_decreasing
    assert s10.support_size == s10.basis.size
    assert s10.basis.moved == ()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=2,
                max_size=2, unique=True))
def test_rho_strictly_monotone(cheb_bases, ks):
    lo, hi = sorted(ks)
    d1, d2 = lo / 20.0, hi / 20.0
    b = cheb_bases[4]
    r1 = leading_eigen(b, d1, EIGEN_TOL).rho
    r2 = leading_eigen(b, d2, EIGEN_TOL).rho
    assert r1 > r2


# --------------------------------------------------------------------------
# exports


def test_curve_csv(cheb_solves):
    lines = curve_csv(cheb_solves[8]).splitlines()
    assert lines[0] == "delta,rho"
    assert len(lines) == 22
    rhos = [float(r.split(",")[1]) for r in lines[1:]]
    assert rhos == sorted(rhos, reverse=True)
    assert rhos[0] == 2.0


def test_weights_csv(cheb_solves):
    lines = weights_csv(cheb_solves[8]).splitlines()
    assert lines[0] == "word,angle,deriv,weight"
    assert len(lines) == 257
    word, angle, deriv, weight = lines[1].split(",")
    assert set(word) <= {"0", "1"} and len(word) == 8
    assert "/" in angle
    assert float(deriv) > 0 and float(weight) > 0


def test_solve_json(cheb_solves):
    blob = json.loads(json.dumps(cheb_solves[2].to_json()))
    assert blob["depth"] == 2
    assert blob["support"] == blob["cylinders"] == 4
    assert len(blob["weights"]) == 4
    assert set(blob["weights"]) == {"00", "01", "10", "11"}
    assert blob["grid_rhos"][0] == 2.0


# --------------------------------------------------------------------------
# the equivalence experiment


def test_experiment_cheb_sides_agree(cheb_report):
    rep = cheb_report
    assert rep.liftable
    assert rep.positive_lyapunov_mass == 1.0
    assert rep.consistent
    assert rep.excluded == ()
    for n in (6, 8, 10):
        assert rep.lyapunov_cells[(1.1, n)] == 1.0
        assert rep.lyapunov_cells[(1.5, n)] == 1.0
        # lambda above sup |Df| = 4: the expanding set is empty
        assert rep.lyapunov_cells[(5.0, n)] == 0.0
    assert all(v == 0.0 for v in rep.dichotomy_cells.values())


def test_experiment_cheb_conical_and_density(cheb_report):
    rep = cheb_report
    assert rep.witness_domain == 2
    assert rep.conical_frequency == pytest.approx(0.438164, abs=0.05)
    assert rep.conical_tail_mass > 0.9
    assert rep.conical_returns > 10_000
    assert rep.density_min > 5e-4
    assert rep.density.skipped == ()
    assert rep.density.retained > 0.99
    assert len(rep.density.ratios) == 256


def test_experiment_measure_is_the_custom_measure_of_its_nodes(
        monkeypatch, cheb_solves, cheb_graph, cheb_solver):
    # two weights zeroed: the measure holds the other nodes, over the lcm
    # of their reduced denominators, and each candidate orbit is walked
    # once, in placing the nodes
    s = cheb_solves[4]
    w = s.weights.copy()
    w[[0, 5]] = 0.0
    s = dataclasses.replace(s, weights=w)
    made, walks = [], []
    make_ensemble, walk = conformal.make_ensemble, conformal._orbit_meets

    def recording(mu, g, n):
        made.append(mu)
        return make_ensemble(mu, g, n)

    def counting(p, *args):
        walks.append(p)
        return walk(p, *args)

    monkeypatch.setattr(conformal, "make_ensemble", recording)
    monkeypatch.setattr(conformal, "_orbit_meets", counting)
    basis = build_basis(s.basis.partition, cheb_solver, 4)
    lyapunov_liftability_experiment(dataclasses.replace(s, basis=basis),
                                    cheb_graph, cheb_solver, lift_horizon=100)
    kept = [(F(p, basis.den), x / w.sum())
            for p, x in zip(basis.nums, w) if x > 0]
    want = custom_measure(kept, basis.partition, provenance="conformal")
    (mu,) = made
    assert (mu.nums, mu.den) == (want.nums, want.den)
    assert mu.den < basis.den
    assert mu.weights.tolist() == want.weights.tolist()
    offsets = [quadrature_node(arcset, basis.partition)[1]
               for arcset in basis.arcs]
    assert len(walks) == sum(k + 1 for k in offsets)


def test_experiment_dend(cheb_solver, dend_part, dend_solver):
    g = build_tower(DEND, 8, extra_levels=64)
    s = solve_delta(build_basis(dend_part, dend_solver, 8))
    rep = lyapunov_liftability_experiment(s, g, dend_solver,
                                          lambdas=(1.1, 5.0),
                                          lift_horizon=1000)
    assert rep.liftable
    assert rep.positive_lyapunov_mass == 1.0
    assert rep.consistent
    assert rep.lyapunov_cells[(5.0, 10)] == 0.0
    assert rep.witness_domain == 1
    assert rep.conical_frequency == pytest.approx(0.414661, abs=0.05)
    assert rep.conical_tail_mass > 0.9
    assert rep.density_min > 5e-4
    assert rep.density.skipped == ()


def test_big_lambda_leaves_frequency_side_alone(cheb_bases, cheb_graph,
                                                cheb_solver):
    s = solve_delta(cheb_bases[6])
    small = lyapunov_liftability_experiment(s, cheb_graph, cheb_solver,
                                            lambdas=(1.1,), lift_horizon=1000)
    both = lyapunov_liftability_experiment(s, cheb_graph, cheb_solver,
                                           lambdas=(1.1, 5.0),
                                           lift_horizon=1000)
    assert small.conical_frequency == both.conical_frequency
    assert small.lift.verdict == both.lift.verdict
    for n in (6, 8, 10):
        assert small.lyapunov_cells[(1.1, n)] == both.lyapunov_cells[(1.1, n)]
        assert both.lyapunov_cells[(5.0, n)] == 0.0


def test_experiment_rejects_depth_zero(cheb_bases, cheb_graph, cheb_solver):
    class Stub:
        basis = cheb_bases[0]
        weights = np.array([1.0])
        delta = 0.0
    with pytest.raises(ValueError, match="depth"):
        lyapunov_liftability_experiment(Stub(), cheb_graph, cheb_solver,
                                        lift_horizon=1000)


def test_experiment_asks_for_the_witness_domain_once(monkeypatch, cheb_solves,
                                                    cheb_graph, cheb_solver):
    # asked once before the walk; a refusal is raised after the walk and
    # the node check, and a found domain is the conical witness's
    calls, find = [], conformal.recurrent_witness_domain

    def counted(g):
        calls.append(g)
        return find(g)

    monkeypatch.setattr(conformal, "recurrent_witness_domain", counted)
    rep = lyapunov_liftability_experiment(cheb_solves[4], cheb_graph,
                                          cheb_solver, lift_horizon=1000)
    assert calls == [cheb_graph]
    assert rep.witness_domain == find(cheb_graph).id

    def refused(g):
        calls.append(g)
        raise ValueError("no strongly connected component of size >= 2")

    monkeypatch.setattr(conformal, "recurrent_witness_domain", refused)
    with pytest.raises(ValueError, match="no strongly connected"):
        lyapunov_liftability_experiment(cheb_solves[4], cheb_graph,
                                        cheb_solver, lift_horizon=1000)
    assert len(calls) == 2


def test_experiment_json(cheb_report):
    blob = json.loads(json.dumps(cheb_report.to_json()))
    assert blob["liftable"] and blob["consistent"]
    assert len(blob["lyapunov"]) == 4 * 3
    assert len(blob["dichotomy"]) == 4 * 3 * 3
    assert blob["excluded"] == 0
    assert blob["lift"]["verdict"] == "liftable"
    assert blob["density"]["depth"] == 8
    assert blob["positive_lyapunov_mass"] == 1.0
