"""Survival census against independent enumeration and hand counts."""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angletower.angles import RayChoice
from angletower.census import (
    brute_force_census, brute_force_paths, cutpoint_census, l_table_csv,
    path_bound_constant, s_table_csv, subset_count_bound, verify_appendix,
)
from angletower.tower import TowerTooShallow, build_tower

CHEB = RayChoice(2, (F(1, 2),))
DEND = RayChoice(2, (F(1, 6),))
PAIR = RayChoice(2, (F(5, 12), F(7, 12)))


def deep_tower(rc, R, T):
    # census up to horizon T needs expanded domains through level R+T-1
    return build_tower(rc, R, extra_levels=T)


def level_domains(g, R):
    return sorted(d.id for d in g.domains.values() if d.level == R)


# --------------------------------------------------------------------------
# hand-derived counts


class TestChebyshevCounts:
    """From the level-2 domain only the wrap arc continues upward, so there
    is exactly one surviving path of every length.  From level 1 the chain
    reaches the level-2 domain, where both arcs continue above level 1 and
    the count doubles each step."""

    def test_single_path_above_two(self):
        g = deep_tower(CHEB, 2, 10)
        [d2] = level_domains(g, 2)
        tbl = cutpoint_census(g, 2, d2, 10)
        assert tbl.s == (1,) * 11
        for t in range(11):
            assert tbl.l_entry(t, 1) == 1
            assert tbl.l_entry(t, t + 2) == 1
            others = {m for m in range(1, t + 3)} - {1, t + 2}
            assert all(tbl.l_entry(t, m) == 0 for m in others)

    def test_doubling_above_one(self):
        g = deep_tower(CHEB, 1, 9)
        [d1] = level_domains(g, 1)
        tbl = cutpoint_census(g, 1, d1, 9)
        assert tbl.s == (1, 1, 2, 4, 8, 16, 32, 64, 128, 256)
        # every domain holds exactly one age-1 point, so L(t,1) counts
        # paths and the newborn rule L(t,1) <= N*s(t-1) is tight for t >= 2
        for t in range(2, 10):
            assert tbl.l_entry(t, 1) == 2 * tbl.s[t - 1]

    def test_one_step_count_is_upward_degree(self):
        g = deep_tower(CHEB, 2, 3)
        [d2] = level_domains(g, 2)
        ups = [tid for _, tid in g.successors(d2)
               if g.domains[tid].level >= 3]
        assert cutpoint_census(g, 2, d2, 1).s[1] == len(ups) == 1


class TestDendriteCounts:
    """Odd levels above 2 continue under both symbols, even levels under
    one, so the counts from the level-2 domain follow the Fibonacci
    recursion."""

    def test_fibonacci_growth(self):
        g = deep_tower(DEND, 2, 12)
        [d2] = level_domains(g, 2)
        tbl = cutpoint_census(g, 2, d2, 12)
        assert tbl.s == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)

    def test_small_cutpoint_table(self):
        g = deep_tower(DEND, 2, 3)
        [d2] = level_domains(g, 2)
        tbl = cutpoint_census(g, 2, d2, 3)
        expected = {
            (0, 1): 1, (0, 2): 1,
            (1, 1): 1, (1, 2): 1, (1, 3): 1,
            (2, 1): 2, (2, 2): 1, (2, 3): 1, (2, 4): 1,
            (3, 1): 3, (3, 2): 2, (3, 3): 1, (3, 4): 1, (3, 5): 1,
        }
        assert tbl.L == expected

    def test_max_over_level_domains(self):
        g = deep_tower(DEND, 2, 8)
        ids = level_domains(g, 2)
        counts = [max(cutpoint_census(g, 2, did, t).s[t] for did in ids)
                  for t in range(9)]
        assert counts[8] == 34
        assert counts == sorted(counts)  # nondecreasing growth here


# --------------------------------------------------------------------------
# dynamic programming vs explicit enumeration


@pytest.mark.parametrize("rc", [CHEB, DEND, PAIR], ids=["cheb", "dend", "pair"])
@pytest.mark.parametrize("R", [1, 2])
def test_dp_matches_dfs(rc, R):
    g = build_tower(rc, R, extra_levels=6)
    for did in level_domains(g, R):
        dp = cutpoint_census(g, R, did, 6)
        dfs = brute_force_census(g, did, 6)
        assert dp.s == dfs.s
        assert dp.L == dfs.L


def test_paths_are_words_without_repeats():
    g = build_tower(DEND, 2, extra_levels=5)
    [d2] = level_domains(g, 2)
    words = brute_force_paths(g, d2, 5)
    assert len(words) == len(set(words)) == 8
    assert all(len(w) == 5 for w in words)


def test_continuations_bounded_by_symbols():
    g = build_tower(PAIR, 2, extra_levels=4)
    for did, d in g.domains.items():
        if g.is_expanded(did):
            assert len(g.successors(did)) <= g.partition.size


# --------------------------------------------------------------------------
# rule verification


def test_appendix_rules_hold_dendrite():
    g = deep_tower(DEND, 2, 20)
    [d2] = level_domains(g, 2)
    rep = verify_appendix(cutpoint_census(g, 2, d2, 20), g.partition.size)
    assert rep.ok, rep.first_violation()
    assert rep.checked > 1000


def test_appendix_rules_hold_chebyshev():
    g = deep_tower(CHEB, 3, 15)
    [d3] = level_domains(g, 3)
    rep = verify_appendix(cutpoint_census(g, 3, d3, 15), g.partition.size)
    assert rep.ok, rep.first_violation()


def test_vacuous_horizon_zero():
    g = deep_tower(CHEB, 2, 0)
    [d2] = level_domains(g, 2)
    rep = verify_appendix(cutpoint_census(g, 2, d2, 0), g.partition.size)
    assert rep.ok


def test_poisoned_lookback_detected():
    g = deep_tower(DEND, 2, 6)
    [d2] = level_domains(g, 2)
    tbl = cutpoint_census(g, 2, d2, 6)
    tbl.L[(3, 2)] += 5
    rep = verify_appendix(tbl, g.partition.size)
    assert not rep.ok
    first = rep.first_violation()
    assert first.rule == "lookback"
    assert first.indices["t"] == 3 and first.indices["m"] == 2


def test_poisoned_path_count_detected():
    g = deep_tower(DEND, 2, 6)
    [d2] = level_domains(g, 2)
    tbl = cutpoint_census(g, 2, d2, 6)
    bad = tbl.s[:4] + (10 ** 9,) + tbl.s[5:]
    poisoned = type(tbl)(tbl.R, tbl.origin, tbl.horizon, bad, tbl.L)
    rep = verify_appendix(poisoned, g.partition.size)
    assert any(v.rule == "path-bound" and v.indices["t"] == 4
               for v in rep.violations)


def test_path_bound_constant_value():
    assert path_bound_constant(2, 2) == F(5)     # 2R + N/2 = 4 + 1
    assert path_bound_constant(3, 4) == F(8)


def test_insufficient_depth_reported():
    g = build_tower(DEND, 2)      # no extra levels
    [d2] = level_domains(g, 2)
    with pytest.raises(TowerTooShallow) as err:
        cutpoint_census(g, 2, d2, 5)
    assert str(err.value).endswith(
        "is an unexpanded frontier marker; rebuild the tower with "
        "extra_levels >= 4")
    with pytest.raises(TowerTooShallow, match="unexpanded frontier marker"):
        brute_force_paths(g, d2, 5)


def test_level_mismatch_rejected():
    g = build_tower(DEND, 2, extra_levels=2)
    with pytest.raises(ValueError):
        cutpoint_census(g, 2, 1, 3)  # domain 1 has level 1
    with pytest.raises(ValueError):
        cutpoint_census(g, 3, 2, 2)


# --------------------------------------------------------------------------
# subset counting


def test_subset_count_midpoint():
    res = subset_count_bound(0.5, 10)
    assert res.count == 638         # sizes up to floor(0.5 * 10) = 5
    assert res.holds


def test_subset_count_tiny_eps():
    res = subset_count_bound(F(1, 100), 10)
    assert math.floor(F(1, 100) * 10) == 0
    assert res.count == 1           # only the empty set


def test_subset_count_decimal_strings():
    # 0.1 * 30 must allow size 3 despite binary-float representation
    res = subset_count_bound("0.1", 30)
    assert math.floor(F(1, 10) * 30) == 3
    assert res.count == 1 + 30 + math.comb(30, 2) + math.comb(30, 3)


def test_subset_count_rejects_bad_eps():
    with pytest.raises(ValueError):
        subset_count_bound(0, 10)
    with pytest.raises(ValueError):
        subset_count_bound(1, 10)
    with pytest.raises(ValueError):
        subset_count_bound(0.5, 0)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 20), max_value=F(19, 20)),
       st.integers(1, 40))
def test_subset_count_matches_pascal(eps, n):
    res = subset_count_bound(eps, n)
    # independent route: cumulative Pascal row
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    assert res.count == sum(row[: math.floor(eps * n) + 1])


# --------------------------------------------------------------------------
# export


def test_csv_tables():
    g = deep_tower(DEND, 2, 4)
    [d2] = level_domains(g, 2)
    tbl = cutpoint_census(g, 2, d2, 4)
    s_lines = s_table_csv(tbl).strip().splitlines()
    assert s_lines[0] == "t,s"
    assert s_lines[1:] == ["0,1", "1,1", "2,2", "3,3", "4,5"]
    l_lines = l_table_csv(tbl).strip().splitlines()
    assert l_lines[0] == "t,m,L"
    assert "3,2,2" in l_lines
    assert len(l_lines) == 1 + sum(2 + t for t in range(5))
