"""Exact circle arithmetic: unit and property tests.

The property tests compare ArcSet operations against brute membership
checks on probe grids, which is the independent oracle for this layer.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from angletower.angles import (
    ArcSet, CirclePartition, RayChoice, angle_orbit, build_partition,
    enumerate_cylinders, format_angle,
    is_strictly_preperiodic, itinerary, parse_angle, times_d,
)

from oracles import angle_universe, contains, cylinder_arcset

F = Fraction

CHEB = RayChoice(2, (F(1, 2),))          # c = -2 model
DEND = RayChoice(2, (F(1, 6),))          # c = i model
PAIR = RayChoice(2, (F(5, 12), F(7, 12)))  # kappa = 2, conjugate pair


# --------------------------------------------------------------------------
# angles


def test_angle_normalization():
    assert parse_angle("7/6") == F(1, 6)
    assert format_angle(F(0)) == "0/1"
    assert format_angle(F(3, 4)) == "3/4"
    # on a lattice: numerators in, reduced "p/q" out, off-lattice rejected
    assert parse_angle("7/6", 24) == 4
    assert parse_angle("2/4", 24) == 12
    assert format_angle(4, 24) == "1/6" and format_angle(0, 24) == "0/1"
    assert format_angle(24, 24) == "1/1"
    with pytest.raises(ValueError, match="off the lattice of 1/24"):
        parse_angle("1/5", 24)
    with pytest.raises(ValueError):
        parse_angle("1/0", 24)


def test_times_d_exact():
    assert times_d(F(1, 2), 2) == 0
    assert times_d(F(1, 6), 2) == F(1, 3)
    assert times_d(F(2, 3), 2) == F(1, 3)
    assert times_d(F(1, 12), 3) == F(1, 4)


def test_angle_orbit_preperiodic():
    pre, per, orbit = angle_orbit(F(1, 2), 2)
    assert (pre, per) == (1, 1)
    assert orbit == [F(1, 2), F(0)]
    pre, per, orbit = angle_orbit(F(1, 6), 2)
    assert (pre, per) == (1, 2)
    assert orbit == [F(1, 6), F(1, 3), F(2, 3)]


def test_strict_preperiodicity():
    assert is_strictly_preperiodic(F(1, 2), 2)
    assert is_strictly_preperiodic(F(1, 6), 2)
    assert not is_strictly_preperiodic(F(1, 3), 2)   # periodic
    assert not is_strictly_preperiodic(F(0), 2)      # fixed
    assert is_strictly_preperiodic(F(1, 12), 3)


def test_ray_choice_validation():
    with pytest.raises(ValueError):
        RayChoice(2, (F(1, 3),))
    with pytest.raises(ValueError):
        RayChoice(2, (F(0),))
    with pytest.raises(ValueError):
        RayChoice(1, (F(1, 2),))
    with pytest.raises(ValueError):
        RayChoice(2, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        RayChoice(2, (F(1, 6), F(1, 3), F(2, 3)))


# --------------------------------------------------------------------------
# arc-sets


def test_arcset_basic():
    a = ArcSet.arc(F(1, 4), F(3, 4))
    assert a.length() == F(1, 2)
    assert contains(a, F(1, 4)) and not contains(a, F(3, 4))
    assert a.closure_contains(3, 4)
    assert not contains(a, F(7, 8))
    w = ArcSet.arc(F(3, 4), F(1, 4))   # wraps through 0
    assert w.length() == F(1, 2)
    assert contains(w, F(0)) and contains(w, F(7, 8))
    assert not contains(w, F(1, 4))
    assert w.closure_contains(1, 4)


def test_arcset_full_and_empty():
    assert ArcSet.full_circle().length() == 1
    assert ArcSet.full_circle().cuts == (0, ArcSet.full_circle().den)
    assert ArcSet.arc(F(1, 3), F(1, 3)).is_empty
    assert ArcSet.empty().intersect(ArcSet.full_circle()).is_empty


def test_arcset_merge_touching():
    a = ArcSet([(F(0), F(1, 4)), (F(1, 4), F(1, 4))])
    assert a.components == ((F(0), F(1, 2)),)
    # merge across the wrap
    b = ArcSet([(F(1, 8), F(1, 8)), (F(7, 8), F(1, 4))])
    assert b.components == ((F(7, 8), F(3, 8)),)
    # tiling the circle collapses to the full circle
    c = ArcSet([(F(0), F(1, 2)), (F(1, 2), F(1, 2))])
    assert c == ArcSet.full_circle()


def test_arcset_overlap_rejected():
    with pytest.raises(ValueError):
        ArcSet([(F(0), F(1, 2)), (F(1, 4), F(1, 2))])
    with pytest.raises(ValueError):
        ArcSet([(F(3, 4), F(1, 2)), (F(1, 8), F(1, 4))])


def test_image_times_d():
    # an arc of length exactly 1/d covers the circle
    full = ArcSet.full_circle()
    assert ArcSet.arc(F(1, 4), F(3, 4)).image_times_d(2) == full
    a = ArcSet.arc(F(7, 24), F(17, 24)).image_times_d(2)
    assert a == ArcSet.arc(F(7, 12), F(5, 12))
    assert a.length() == F(5, 6)


def test_preimage_times_d():
    pre = ArcSet.arc(F(1, 2), F(3, 4)).preimage_times_d(2)
    assert pre.length() == F(1, 4)
    assert pre == ArcSet([(F(1, 4), F(1, 8)), (F(3, 4), F(1, 8))])


def test_subtract_closed_margins():
    full = ArcSet.full_circle()
    w = full.subtract_closed_margins([F(0), F(1, 2)], F(1, 32))
    assert w.length() == 1 - F(4, 32)
    assert len(w.components) == 2
    assert not contains(w, F(0)) and not contains(w, F(1, 2))
    # the half-open notch [c - m, c + m) keeps c + m and drops c - m
    assert contains(w, F(1, 32))
    assert not contains(w, F(31, 32))
    assert contains(w, F(1, 4))


def test_serialization_roundtrip():
    cases = [
        ArcSet.empty(),
        ArcSet.full_circle(),
        ArcSet.arc(F(3, 4), F(1, 4)),
        ArcSet([(F(1, 6), F(1, 6)), (F(2, 3), F(1, 4))]),
    ]
    for a in cases:
        assert ArcSet.from_pairs(a.to_pairs()) == a


small_fraction = st.fractions(min_value=0, max_value=1, max_denominator=48)


@st.composite
def arcsets(draw):
    n = draw(st.integers(0, 3))
    pieces = []
    for _ in range(n):
        s = draw(small_fraction) % 1
        l = draw(st.fractions(min_value=F(1, 48), max_value=F(1, 3),
                              max_denominator=48))
        pieces.append((s, l))
    try:
        return ArcSet(pieces)
    except ValueError:
        return ArcSet(pieces[:1])


PROBES = [F(k, 96) for k in range(96)]


@settings(max_examples=200, deadline=None)
@given(arcsets(), arcsets())
def test_intersection_matches_membership(a, b):
    c = a.intersect(b)
    for p in PROBES:
        assert contains(c, p) == (contains(a, p) and contains(b, p))


@settings(max_examples=200, deadline=None)
@given(arcsets(), st.sampled_from([2, 3, 4]))
def test_preimage_matches_membership(a, d):
    pre = a.preimage_times_d(d)
    for p in PROBES:
        assert contains(pre, p) == contains(a, times_d(p, d))
    assert pre.length() == a.length()


@settings(max_examples=200, deadline=None)
@given(arcsets(), st.sampled_from([2, 3]))
def test_image_contains_forward_points(a, d):
    # exactly the forward points: p is in the image iff a preimage is in a
    img = a.image_times_d(d)
    for p in PROBES:
        assert contains(img, p) == any(contains(a, (p + j) / d)
                                      for j in range(d))


@settings(max_examples=150, deadline=None)
@given(arcsets())
def test_normalization_is_canonical(a):
    # rebuilding from the components is the identity
    assert ArcSet(a.components) == a
    # components sorted, disjoint, non-empty
    starts = [s for s, _ in a.components]
    assert starts == sorted(starts)
    assert all(l > 0 for _, l in a.components)
    assert a.length() <= 1


# --------------------------------------------------------------------------
# partitions


def test_partition_chebyshev():
    p = build_partition(CHEB)
    assert p.boundary == (F(1, 4), F(3, 4))
    assert p.size == 2
    assert p.arcs[0] == (F(1, 4), F(1, 2))
    assert p.symbol_of(F(1, 4)) == 0          # boundary starts arc 0
    assert p.symbol_of(F(1, 2)) == 0
    assert p.symbol_of(F(3, 4)) == 1
    assert p.symbol_of(F(0)) == 1


def test_partition_dendrite():
    p = build_partition(DEND)
    assert p.boundary == (F(1, 12), F(7, 12))
    assert p.symbol_of(F(1, 6)) == 0
    assert p.symbol_of(F(2, 3)) == 1


def test_partition_kappa2():
    p = build_partition(PAIR)
    assert p.boundary == (F(5, 24), F(7, 24), F(17, 24), F(19, 24))
    assert p.size == 4
    lengths = sorted(l for _, l in p.arcs)
    assert lengths == [F(1, 12), F(1, 12), F(5, 12), F(5, 12)]
    # every arc no longer than 1/d, so multiplication by d is injective on it
    assert all(l <= F(1, 2) for _, l in p.arcs)


def test_partition_degree3():
    p = build_partition(RayChoice(3, (F(1, 12),)))
    assert p.size == 3
    assert all(l == F(1, 3) for _, l in p.arcs)


def test_partition_image_lengths():
    # image of each arc has length d*(arc length), capped at the full circle
    for rc in (CHEB, DEND, PAIR):
        p = build_partition(rc)
        for i in range(p.size):
            arc = p.arc_set(i)
            img = arc.image_times_d(p.degree)
            expect = arc.length() * p.degree
            assert img.length() == (1 if expect >= 1 else expect)


# --------------------------------------------------------------------------
# itineraries and cylinders


def test_itinerary_chebyshev():
    p = build_partition(CHEB)
    assert itinerary(F(0), p, 3) == (1, 1, 1)
    assert itinerary(F(1, 2), p, 3) == (0, 1, 1)
    # 1/8 -> 1/4 -> 1/2 -> 0
    assert itinerary(F(1, 8), p, 4) == (1, 0, 0, 1)


def test_cylinder_shrinks():
    p = build_partition(CHEB)
    cyl = cylinder_arcset((1, 1, 1), p)
    assert cyl.length() == F(1, 8)
    assert contains(cyl, F(0))
    assert cyl == ArcSet.arc(F(15, 16), F(1, 16))


def test_cylinder_membership_matches_itinerary():
    for rc in (CHEB, DEND, PAIR):
        p = build_partition(rc)
        for k in range(0, 97, 5):
            a = F(k, 97)
            w = itinerary(a, p, 5)
            assert contains(cylinder_arcset(w, p), a)


def test_nonadmissible_word_empty():
    # kappa=2 partition has a proper subshift: arc 0 maps inside arc 1
    p = build_partition(PAIR)
    assert cylinder_arcset((0, 1), p).length() > 0
    assert cylinder_arcset((0, 0), p).is_empty
    assert cylinder_arcset((0, 2), p).is_empty


def test_kappa1_models_are_full_shifts():
    for rc in (CHEB, DEND):
        p = build_partition(rc)
        cyls = enumerate_cylinders(p, 6)
        assert len(cyls) == 2 ** 6
        assert sum(c.length() for _, c in cyls) == 1


def test_enumerate_cylinders_partition_of_unity():
    for rc in (CHEB, DEND, PAIR):
        p = build_partition(rc)
        for depth in (1, 2, 4):
            cyls = enumerate_cylinders(p, depth)
            total = sum(c.length() for _, c in cyls)
            assert total == 1
            words = [w for w, _ in cyls]
            assert words == sorted(words)


def test_cylinder_endpoint_angles_live_in_orbit_field():
    # every cylinder endpoint is a backward image of a boundary angle, so
    # denominators stay within the finite field generated by the model
    p = build_partition(DEND)
    for w, c in enumerate_cylinders(p, 5):
        for s, l in c.components:
            for x in (s, (s + l) % 1):
                # 2^5 * endpoint is in the universe
                y = x
                for _ in range(5):
                    y = times_d(y, 2)
                assert y in angle_universe(p) or y in p.boundary
