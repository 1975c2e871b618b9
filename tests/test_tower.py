"""Tower construction against hand-computed graphs.

The two degree-2 reference models are small enough to derive the whole
truncated tower by hand; those graphs (ids, cutpoints, full edge lists) are
frozen here.  A two-ray model exercises multi-component domains.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angletower.angles import (ArcSet, RayChoice, build_partition,
                               format_angle, is_strictly_preperiodic, times_d)
from angletower.tower import (
    CutPoint, _Kernel, build_tower, structural_checks, tower_from_json,
    tower_to_json_str,
)

from oracles import angle_universe, trace

CHEB = RayChoice(2, (F(1, 2),))       # z^2 - 2, angle of the value -2
DEND = RayChoice(2, (F(1, 6),))       # z^2 + i
PAIR = RayChoice(2, (F(5, 12), F(7, 12)))   # two rays at one value
CUBIC = RayChoice(3, (F(1, 6),))
QUARTIC = RayChoice(4, (F(1, 12),))

FULL = ArcSet.full_circle()


def cp(n, age, *angles):
    """The cutpoint of the given age at the angles, over the lattice n."""
    nums = sorted(F(a) * n for a in angles)
    assert all(k.denominator == 1 for k in nums)
    return CutPoint(age, tuple(map(int, nums)), n)



@pytest.fixture(scope="module")
def cheb6():
    return build_tower(CHEB, 6)


@pytest.fixture(scope="module")
def dend6():
    return build_tower(DEND, 6)


@pytest.fixture(scope="module")
def pair4():
    return build_tower(PAIR, 4)


@pytest.fixture(scope="module")
def pair_part():
    return build_partition(PAIR)


# --------------------------------------------------------------------------
# full graph oracles


class TestChebyshevTower:
    """Value angle 1/2: partition arcs [1/4,3/4) and [3/4,1/4).

    Hand derivation: every domain is the full circle.  The base maps to D1
    (cutpoint age 1 at angle 1/2) under both symbols.  D1 loops to itself on
    the wrap arc and climbs to D2 = {age 1 at 1/2, age 2 at 0}.  From level
    l >= 2 the arc [1/4,3/4) keeps only the age-1 point (drop back to D2)
    while the wrap arc keeps only the age-l point at 0 (climb to D(l+1)).
    """

    def test_domain_census(self, cheb6):
        assert cheb6.domain_count() == 8
        assert cheb6.domain_count(within_truncation=True) == 7
        assert cheb6.level_counts() == {l: 1 for l in range(8)}
        assert cheb6.frontier == {7}

    def test_ids_follow_levels(self, cheb6):
        for i, d in cheb6.domains.items():
            assert d.level == i

    def test_domain_decorations(self, cheb6):
        n = cheb6.partition.lattice
        assert cheb6.domains[0].arcset == ArcSet.full_circle()
        assert cheb6.domains[0].cutpoints == ()
        assert cheb6.domains[1].cutpoints == (cp(n, 1, F(1, 2)),)
        for l in range(2, 8):
            assert cheb6.domains[l].cutpoints == (
                cp(n, 1, F(1, 2)), cp(n, l, 0))
        assert all(d.arcset == FULL for d in cheb6.domains.values())

    def test_exact_edge_list(self, cheb6):
        expected = {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 1}
        for l in range(2, 7):
            expected[(l, 0)] = 2
            expected[(l, 1)] = l + 1
        assert cheb6.edges == expected

    def test_structure_report(self, cheb6):
        rep = structural_checks(cheb6)
        assert rep.passed
        assert rep.per_level_bound == 1
        assert rep.base_in_edges == 0
        assert rep.sideways_edges == [
            (1, 1, 1), (2, 0, 2), (3, 0, 2), (4, 0, 2), (5, 0, 2), (6, 0, 2)]


class TestDendriteTower:
    """Value angle 1/6 (orbit 1/6, 1/3, 2/3, 1/3, ...): arcs split at 1/12
    and 7/12.

    Hand derivation: one domain per level, all full circles.  Writing the
    age-a point at angle x as a@x, the pattern is D1 = {1@1/6},
    D(2k) = {1@1/6, 2k@1/3}, D3 = {1@1/6, 2@1/3, 3@2/3} and
    D(2k+1) = {1@1/6, 2@1/3, (2k+1)@2/3} for k >= 2.  The arc [1/12,7/12)
    ages 1/6 and 1/3 but kills 2/3, so even levels climb while odd levels
    >= 3 drop to D3; the wrap arc keeps only 2/3, so odd levels climb while
    even levels fall all the way back to D1.
    """

    def test_domain_census(self, dend6):
        assert dend6.domain_count() == 8
        assert dend6.level_counts() == {l: 1 for l in range(8)}
        assert dend6.frontier == {7}
        for i, d in dend6.domains.items():
            assert d.level == i
            assert d.arcset == FULL

    def test_domain_decorations(self, dend6):
        sixth, third, two_thirds = F(1, 6), F(1, 3), F(2, 3)
        n = dend6.partition.lattice
        assert dend6.domains[1].cutpoints == (cp(n, 1, sixth),)
        assert dend6.domains[2].cutpoints == (
            cp(n, 1, sixth), cp(n, 2, third))
        assert dend6.domains[3].cutpoints == (
            cp(n, 1, sixth), cp(n, 2, third), cp(n, 3, two_thirds))
        assert dend6.domains[4].cutpoints == (
            cp(n, 1, sixth), cp(n, 4, third))
        assert dend6.domains[5].cutpoints == (
            cp(n, 1, sixth), cp(n, 2, third), cp(n, 5, two_thirds))
        assert dend6.domains[6].cutpoints == (
            cp(n, 1, sixth), cp(n, 6, third))
        assert dend6.domains[7].cutpoints == (
            cp(n, 1, sixth), cp(n, 2, third), cp(n, 7, two_thirds))

    def test_exact_edge_list(self, dend6):
        assert dend6.edges == {
            (0, 0): 1, (0, 1): 1,
            (1, 0): 2, (1, 1): 1,
            (2, 0): 3, (2, 1): 1,
            (3, 0): 3, (3, 1): 4,
            (4, 0): 5, (4, 1): 1,
            (5, 0): 3, (5, 1): 6,
            (6, 0): 7, (6, 1): 1,
        }

    def test_structure_report(self, dend6):
        rep = structural_checks(dend6)
        assert rep.passed
        assert rep.base_in_edges == 0
        # level drops back to D1 make the level-1 domain revisitable here,
        # unlike the Chebyshev tower where leaving D1 is final
        assert (2, 1, 1) in rep.sideways_edges


class TestTwoRayTower:
    """Both angles 5/12 and 7/12 land at one value: four partition arcs."""

    def test_partition_layout(self, pair_part):
        assert pair_part.boundary == (F(5, 24), F(7, 24), F(17, 24), F(19, 24))
        assert [l for _, l in pair_part.arcs] == [F(1, 12), F(5, 12), F(1, 12), F(5, 12)]

    def test_level_one_domains(self, pair4):
        n = pair4.partition.lattice
        assert pair4.domains[1].arcset == ArcSet.arc(F(5, 12), F(7, 12))
        assert pair4.domains[2].arcset == ArcSet.arc(F(7, 12), F(5, 12))
        both = (cp(n, 1, F(5, 12), F(7, 12)),)
        assert pair4.domains[1].cutpoints == both
        assert pair4.domains[2].cutpoints == both
        assert sum(1 for d in pair4.domains.values() if d.level == 1) == 2

    def test_split_intersection_step(self, pair_part):
        # the wrap domain meets arc [7/24,17/24) in two pieces; both existing
        # ray angles sit on the closure, so the step doubles them and also
        # cuts anew at the images of both arc endpoints
        kernel, n = _Kernel(pair_part), pair_part.lattice
        ray = cp(n, 1, F(5, 12), F(7, 12))
        image, cuts = kernel.step(ArcSet.arc(F(7, 12), F(5, 12)),
                                  ((1, ray.nums),), 1)
        assert image == ArcSet(((F(1, 6), F(1, 4)), (F(7, 12), F(1, 4))))
        assert tuple(map(kernel.cutpoint, cuts)) == (
            cp(n, 1, F(5, 12), F(7, 12)), cp(n, 2, F(1, 6), F(5, 6)))

    def test_split_step_in_graph(self, pair4):
        n = pair4.partition.lattice
        tid = pair4.edges[(2, 1)]
        d = pair4.domains[tid]
        assert d.arcset == ArcSet(((F(1, 6), F(1, 4)), (F(7, 12), F(1, 4))))
        assert d.cutpoints == (cp(n, 1, F(5, 12), F(7, 12)),
                               cp(n, 2, F(1, 6), F(5, 6)))
        assert d.level == 2

    def test_structure_report(self, pair4):
        rep = structural_checks(pair4)
        assert rep.passed
        assert rep.per_level_bound == 2
        assert all(n <= 2 for l, n in pair4.level_counts().items() if l > 0)


# --------------------------------------------------------------------------
# traces along angle orbits


class TestTraces:
    def test_fixed_angle_never_climbs(self, cheb6):
        t = trace(F(0), cheb6, 40)
        assert t.exit_step is None
        assert t.domain_ids == (0,) + (1,) * 40

    def test_value_angle_itself_loops(self, cheb6):
        # the lift from the base is NOT the one riding the new cutpoint, so
        # it falls into the level-1 loop and stays
        t = trace(F(1, 2), cheb6, 40)
        assert t.exit_step is None
        assert t.domain_ids == (0,) + (1,) * 40

    def test_preimage_angle_climbs_out(self, cheb6):
        # 1/8 doubles through 1/4, 1/2, 0, 0, ...; after hitting the
        # critical angle it ages one cutpoint forever and leaves the graph
        t = trace(F(1, 8), cheb6, 40)
        assert t.domain_ids == (0, 1, 2, 2, 3, 4, 5, 6, 7)
        assert t.exit_step == 8
        assert t.exit_level == 7

    def test_period_three_orbits_stay_low(self, cheb6):
        # orbits over denominator 7 never see two climbs in a row here
        for num in range(7):
            t = trace(F(num, 7), cheb6, 30)
            assert t.exit_step is None
            assert max(cheb6.domains[i].level for i in t.domain_ids) <= 3


# --------------------------------------------------------------------------
# truncation bookkeeping


def test_truncation_zero_keeps_only_base():
    g = build_tower(CHEB, 0)
    assert set(g.domains) == {0, 1}
    assert g.frontier == {1}
    assert g.edges == {(0, 0): 1, (0, 1): 1}


def test_extra_levels_extend_expansion():
    g = build_tower(CHEB, 4, extra_levels=3)
    assert g.expand_limit == 7
    assert g.domain_count() == 9
    assert g.frontier == {8}
    assert g.domain_count(within_truncation=True) == 5
    assert g.edges[(7, 1)] == 8


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        build_tower(CHEB, -1)
    with pytest.raises(ValueError):
        build_tower(CHEB, 3, extra_levels=-2)


# --------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("rc", [DEND, PAIR, CUBIC],
                         ids=["dend", "pair", "cubic"])
def test_json_roundtrip(rc):
    g = build_tower(rc, 5)
    payload = json.loads(tower_to_json_str(g))
    g2 = tower_from_json(payload)
    assert tower_to_json_str(g2) == tower_to_json_str(g)
    assert g2.frontier == g.frontier


def test_reload_names_the_domain_of_an_off_lattice_arc():
    payload = json.loads(tower_to_json_str(build_tower(DEND, 5)))
    payload["domains"][1]["arcs"][0][1] = "1/5"
    with pytest.raises(ValueError, match="domain 1 has an arc endpoint off "
                       "the lattice of 1/12"):
        tower_from_json(payload)


# every arc endpoint and cutpoint angle is a multiple of 1/N, N the lcm of
# the angle universe's denominators, so each domain's cuts live over N
@pytest.mark.parametrize("rc, n", [(CHEB, 4), (DEND, 12), (PAIR, 24),
                                   (CUBIC, 18), (QUARTIC, 48)],
                         ids=["cheb", "dend", "pair", "cubic", "quartic"])
def test_endpoints_live_on_the_universe_lattice(rc, n):
    g = build_tower(rc, 8, extra_levels=16)
    assert math.lcm(*(a.denominator
                      for a in angle_universe(g.partition))) == n
    assert g.partition.lattice == n
    assert [F(k, n) for k in g.partition.boundary_nums] == list(
        g.partition.boundary)
    for d in g.domains.values():
        assert n % d.arcset.den == 0
        assert all(n % a.denominator == 0 for a in d.cutpoint_angles())
        assert all(cp.lattice == n for cp in d.cutpoints)


# sha1 of tower_to_json_str, computed with the Fraction cutpoint code that
# the integer lattice replaced: the export must not move by a byte
FROZEN_TOWERS = {
    "cheb": (CHEB, 8, 200, "fc47cdd5665320fe1c14d4401bd11cbc7d017cb2"),
    "dend": (DEND, 8, 200, "c331002ed84718c6a3cad2cbaeb473894a45ee6e"),
    "pair": (PAIR, 12, 2000, "40f87fc6d825b1109234f715efc068fab9bdbb97"),
    "cubic": (CUBIC, 8, 200, "b09579095c4c489b651416c85b9dce55fd01ca4e"),
    "quartic": (QUARTIC, 8, 200, "9762f7fb26324b2ac70fb404357b86ffbfdb837e"),
}


@pytest.mark.parametrize("name", list(FROZEN_TOWERS))
def test_tower_json_bytes_frozen(name):
    rc, truncation, extra, sha1 = FROZEN_TOWERS[name]
    text = tower_to_json_str(build_tower(rc, truncation, extra_levels=extra))
    assert hashlib.sha1(text.encode()).hexdigest() == sha1


@pytest.mark.parametrize("name", list(FROZEN_TOWERS))
def test_tower_json_is_a_reencoding_fixed_point(name):
    # the report stage splices tower.json's text into report.json instead
    # of re-encoding the parsed tower, which is the same bytes only because
    # the export is a fixed point of parse and re-encode
    rc, truncation, extra, _ = FROZEN_TOWERS[name]
    text = tower_to_json_str(build_tower(rc, truncation, extra_levels=extra))
    assert json.dumps(json.loads(text), indent=1, sort_keys=True) == text


def test_from_json_rejects_off_lattice_angles():
    # the cheb lattice is 1/4: a cutpoint at 1/3 or an arc end at 1/8
    # cannot come from this tower
    payload = json.loads(tower_to_json_str(build_tower(CHEB, 3)))
    bad = copy.deepcopy(payload)
    bad["domains"][1]["cutpoints"][0]["angles"] = ["1/3"]
    with pytest.raises(ValueError, match="off the lattice of 1/4"):
        tower_from_json(bad)
    bad = copy.deepcopy(payload)
    bad["domains"][1]["arcs"] = [["1/8", "5/8"]]
    with pytest.raises(ValueError, match="off the lattice of 1/4"):
        tower_from_json(bad)
    # a non-reduced spelling on the lattice reads as its reduced angle
    ok = copy.deepcopy(payload)
    ok["domains"][1]["cutpoints"][0]["angles"] = ["2/4"]
    assert json.loads(tower_to_json_str(tower_from_json(ok))) == payload


def test_json_shape():
    g = build_tower(CHEB, 3)
    payload = json.loads(tower_to_json_str(g))
    assert payload["config"]["critical_value_angles"] == ["1/2"]
    assert payload["config"]["kappa"] == 1
    dom = payload["domains"][1]
    assert dom["arcs"] == [["0/1", "1/1"]]
    assert dom["cutpoints"] == [{"age": 1, "origin": 0, "angles": ["1/2"]}]
    first = payload["edges"][0]
    assert first == {"from": 0, "symbol": 0, "to": 1}


def test_dot_export():
    g = build_tower(CHEB, 3)
    dot = g.to_dot()
    assert dot.startswith("digraph tower {")
    assert dot.count("rank=same") == 5  # levels 0..4
    assert dot.count("->") == len(g.edges)
    assert "style=dashed" in dot  # frontier marker


# --------------------------------------------------------------------------
# invariants across a pool of valid ray choices


POOL = [F(1, 2), F(1, 4), F(3, 4), F(1, 6), F(5, 6), F(1, 12), F(5, 12),
        F(7, 12), F(3, 8), F(1, 10), F(3, 10)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(POOL))
def test_single_ray_tower_invariants(theta):
    g = build_tower(RayChoice(2, (theta,)), 4)
    rep = structural_checks(g)
    assert rep.passed
    assert all(n == 1 for l, n in g.level_counts().items())
    assert all(d.cutpoints for i, d in g.domains.items() if i != 0)
    # age-1 angles are always among the chosen value angles
    for d in g.domains.values():
        for c in d.cutpoints:
            if c.age == 1:
                assert set(c.angles) <= {theta}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(POOL), st.integers(0, 30))
def test_trace_follows_edges(theta, steps):
    g = build_tower(RayChoice(2, (theta,)), 5)
    t = trace(F(1, 7), g, steps)
    for a, b in zip(t.domain_ids, t.domain_ids[1:]):
        assert b in {to for (f, s), to in g.edges.items() if f == a}


# --------------------------------------------------------------------------
# the integer step against the Fraction step it replaced


def fraction_step(arcset, cutpoints, symbol, part):
    """The Fraction form of `step`: cutpoints are (age, origin, sorted
    Fraction angles), aged with times_d; the closure test reads the arc
    components directly."""
    d = part.degree
    piece = arcset.intersect(part.arc_set(symbol))
    if piece.is_empty:
        return None

    def closed(a):
        return any((a - s) % 1 <= l for s, l in piece.components)

    carried = {}
    for age, origin, angles in cutpoints:
        hit = tuple(a for a in angles if closed(a))
        if hit:
            carried.setdefault((age + 1, origin), set()).update(
                times_d(a, d) for a in hit)
    ends = (part.boundary[symbol], part.boundary[(symbol + 1) % part.size])
    born = {times_d(b, d) for b in ends if closed(b)}
    if born:
        carried[(1, 0)] = born
    return piece.image_times_d(d), tuple(sorted(
        (age, origin, tuple(sorted(angles)))
        for (age, origin), angles in carried.items()))


def fraction_tower_json(rc, truncation, extra_levels):
    """Breadth-first tower on `fraction_step`, exported like to_json."""
    part = build_partition(rc)
    domains, index, edges, frontier = [], {}, {}, set()

    def identify(arcset, cutpoints):
        key = (arcset, cutpoints)
        if key not in index:
            index[key] = len(domains)
            domains.append(key)
        return index[key]

    def level(cutpoints):
        return max((age for age, _, _ in cutpoints), default=0)

    pending = [identify(FULL, ())]
    while pending:
        nxt = []
        for did in pending:
            arcset, cutpoints = domains[did]
            if level(cutpoints) > truncation + extra_levels:
                frontier.add(did)
                continue
            for sym in range(part.size):
                cand = fraction_step(arcset, cutpoints, sym, part)
                if cand is None:
                    continue
                known = len(domains)
                tid = identify(*cand)
                edges[(did, sym)] = tid
                if tid >= known:
                    nxt.append(tid)
        pending = nxt
    return {
        "config": {"degree": rc.degree,
                   "critical_value_angles": [format_angle(a)
                                             for a in rc.angles],
                   "kappa": rc.kappa, "truncation": truncation,
                   "extra_levels": extra_levels},
        "domains": [{"id": i, "level": level(cps), "arcs": arcs.to_pairs(),
                     "cutpoints": [{"age": age, "origin": origin,
                                    "angles": [format_angle(a) for a in angs]}
                                   for age, origin, angs in cps]}
                    for i, (arcs, cps) in enumerate(domains)],
        "edges": [{"from": f, "symbol": s, "to": t}
                  for (f, s), t in sorted(edges.items())],
        "frontier": sorted(frontier),
    }


@st.composite
def ray_choices(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    kappa = draw(st.sampled_from([1, 2]))
    angle = st.fractions(min_value=0, max_value=1, max_denominator=40).map(
        lambda a: a % 1).filter(lambda a: is_strictly_preperiodic(a, d))
    angles = draw(st.lists(angle, min_size=kappa, max_size=kappa,
                           unique=True))
    return RayChoice(d, tuple(angles))


# a step costs what the arc-sets' cuts cost, never the lattice: 1/1048574
# puts N = 2,097,148 past the dense cell tables of streams
@settings(max_examples=40, deadline=None)
@given(ray_choices(), st.integers(0, 4), st.integers(0, 6))
@example(RayChoice(2, (F(1, 16382),)), 3, 4)
@example(RayChoice(2, (F(1, 1048574),)), 3, 4)
def test_integer_step_matches_fraction_oracle(rc, truncation, extra):
    # the text, not only its parse: the schema writer must lay out every
    # list as json.dumps does, the empty ones included
    g = build_tower(rc, truncation, extra_levels=extra)
    assert tower_to_json_str(g) == json.dumps(
        fraction_tower_json(rc, truncation, extra), indent=1, sort_keys=True)
