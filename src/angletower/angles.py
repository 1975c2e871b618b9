"""Exact circle arithmetic for the external-angle model.

Angles enter and leave as reduced rationals in [0, 1) (``fractions.Fraction``,
written "p/q"); the dynamics on angles is multiplication by the polynomial
degree d, mod 1.  Inside, angles are integers over a common denominator.  All
set operations run on finite unions of half-open circle arcs [a, b) with the
convention that a boundary angle belongs to the arc it starts, held as
integer cuts over one reduced denominator (``ArcSet``).  A partition's
lattice N is the lcm of the denominators of every angle the tower can meet
(``CirclePartition.lattice``), so tower cutpoint angles are numerators k of
k/N and step as d*k mod N.  Everything in this module is exact: no floats
are produced except by explicit request.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

def parse_angle(text: str, n: int | None = None):
    """Parse "p/q" (or "p") into an angle in [0, 1).

    Returns a Fraction; given a lattice n, returns instead the numerator k
    in [0, n) of the angle k/n, with no Fraction built, and raises
    ValueError when q does not divide n (the angle is off the lattice).
    """
    if n is None:
        return Fraction(text.strip()) % 1
    p, q = _parse_ratio(text)
    if q <= 0 or n % q:
        raise ValueError(f"angle {text} is off the lattice of 1/{n}")
    return p * (n // q) % n


def format_angle(a, den: int = 1) -> str:
    """Serialize a/den as "p/q" in lowest terms, denominator always shown.

    a is a Fraction (or an int over 1), or with den > 1 an int numerator,
    reduced here with one gcd and no Fraction built.
    """
    if den == 1:
        return f"{a.numerator}/{a.denominator}"
    g = math.gcd(a, den)
    return f"{a // g}/{den // g}"


def times_d(a: Fraction, d: int) -> Fraction:
    """One step of the angle dynamics: d*a mod 1."""
    return (a * d) % 1


def orbit_numerators(a: Fraction, d: int) -> tuple[int, int, list[int]]:
    """(preperiod, q, numerators) of the forward orbit of a = p/q under
    multiplication by d: the orbit is p_k/q with p_(k+1) = d*p_k mod q,
    listed up to its first revisit."""
    x = a % 1
    p, q = x.numerator, x.denominator
    seen: dict[int, int] = {}
    while p not in seen:
        seen[p] = len(seen)
        p = d * p % q
    return seen[p], q, list(seen)


def angle_orbit(a: Fraction, d: int) -> tuple[int, int, list[Fraction]]:
    """Forward orbit of a rational angle under multiplication by d.

    Returns (preperiod, period, orbit) where orbit lists the preperiod +
    period distinct angles; orbit[preperiod:] is the cycle.  Always finite
    for rational input.
    """
    pre, q, nums = orbit_numerators(a, d)
    return pre, len(nums) - pre, [Fraction(n, q) for n in nums]


def is_strictly_preperiodic(a: Fraction, d: int) -> bool:
    """True when a's orbit enters a cycle that does not contain a itself."""
    return orbit_numerators(a, d)[0] >= 1


class ArcSet:
    """A finite union of half-open arcs on the circle, held in integers.

    The set is the union of [cuts[2i], cuts[2i+1]) / den: cuts is a strictly
    increasing tuple of ints in [0, den], so touching arcs are merged and an
    arc through 0 is split there into a first piece starting at 0 and a last
    piece ending at den.  den is reduced (den and the cuts share no factor),
    so (den, cuts) is canonical: it is the identification key of tower
    domains.  The full circle is (1, (0, 1)) and the empty set (1, ()).  The
    size grows with the number of arcs, not with den.  Instances are
    immutable and hashable.
    """

    __slots__ = ("den", "cuts")

    def __init__(self, components: Iterable[tuple[Fraction, Fraction]]):
        """The union of disjoint (start, length) arcs, 0 < length <= 1."""
        comps = [(Fraction(s) % 1, Fraction(l)) for s, l in components]
        comps = [(s, l) for s, l in comps if l > 0]
        den = math.lcm(*(x.denominator for c in comps for x in c))
        spans = []
        for s, l in comps:
            a = s.numerator * (den // s.denominator)
            b = a + l.numerator * (den // l.denominator)
            spans += [(a, b)] if b <= den else [(a, den), (0, b - den)]
        spans.sort()
        if any(a < b for (_, b), (a, _) in zip(spans, spans[1:])):
            raise ValueError("arc components overlap")
        self._set(den, _merged(spans))

    def _set(self, den: int, cuts) -> None:
        g = math.gcd(den, *cuts)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "cuts", tuple(c // g for c in cuts))

    @staticmethod
    def _of(den: int, cuts) -> "ArcSet":
        """Instance from a strictly increasing cut list over den."""
        out = object.__new__(ArcSet)
        out._set(den, cuts)
        return out

    def __setattr__(self, *_):
        raise AttributeError("ArcSet is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet._of(1, ())

    @staticmethod
    def full_circle() -> "ArcSet":
        return ArcSet._of(1, (0, 1))

    @staticmethod
    def arc(start, end) -> "ArcSet":
        """The half-open arc [start, end) taken counterclockwise; start == end
        is empty (use full_circle for the whole circle)."""
        return ArcSet(((start, (Fraction(end) - Fraction(start)) % 1),))

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.cuts

    def _spans(self):
        return zip(self.cuts[::2], self.cuts[1::2])

    def _circle_spans(self) -> list[tuple[int, int]]:
        """(start, end) in units of 1/den sorted by start, the pieces of an
        arc through 0 joined into one span ending past den."""
        spans = list(self._spans())
        if len(spans) > 1 and self.cuts[0] == 0 and self.cuts[-1] == self.den:
            first = spans.pop(0)
            spans[-1] = (spans[-1][0], self.den + first[1])
        return spans

    @property
    def components(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(start, length) of each arc, sorted by start."""
        return tuple((Fraction(a, self.den), Fraction(b - a, self.den))
                     for a, b in self._circle_spans())

    def length(self) -> Fraction:
        return Fraction(sum(self.cuts[1::2]) - sum(self.cuts[::2]), self.den)

    def closure_contains(self, p: int, q: int) -> bool:
        """Membership of the angle p/q (q > 0, any p) in the closed version
        of every arc."""
        k, rest = divmod(p * self.den, q)
        k %= self.den
        i = bisect_right(self.cuts, k)
        if i % 2 or rest:
            return i % 2 == 1
        # a sits on k / den: in the closure when an arc ends there
        return (i > 0 and self.cuts[i - 1] == k) or (
            k == 0 and self.cuts[-1:] == (self.den,))

    # -- set operations ----------------------------------------------------

    def intersect(self, other: "ArcSet") -> "ArcSet":
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.cuts]
        b = [c * (den // other.den) for c in other.cuts]
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i], b[j]), min(a[i + 1], b[j + 1])
            if lo < hi:
                out += (lo, hi)
            if a[i + 1] < b[j + 1]:
                i += 2
            else:
                j += 2
        return ArcSet._of(den, out)

    def complement(self) -> "ArcSet":
        """The rest of the circle: 0 and den toggled in the cuts."""
        return ArcSet._of(self.den, sorted(set(self.cuts) ^ {0, self.den}))

    def image_times_d(self, d: int) -> "ArcSet":
        """Forward image under angle multiplication by d.

        Each arc [a, b) maps to [d*a, d*b) folded mod den; an arc of length
        1/d covers the whole circle.  Correct as a set image even when
        distinct arcs' images overlap.
        """
        den = self.den
        spans = []
        for a, b in self._spans():
            if d * (b - a) >= den:
                return ArcSet.full_circle()
            s = d * a % den
            e = s + d * (b - a)
            spans += [(s, e)] if e <= den else [(s, den), (0, e - den)]
        return ArcSet._of(den, _merged(spans))

    def preimage_times_d(self, d: int) -> "ArcSet":
        """Full preimage under multiplication by d: d shifted copies of the
        cuts over the denominator d*den."""
        den = self.den
        return ArcSet._of(d * den, _merged(
            (a + j * den, b + j * den) for j in range(d)
            for a, b in self._spans()))

    def subtract_closed_margins(self, centers: Sequence[Fraction], margin: Fraction) -> "ArcSet":
        """Remove the closed arcs [c-margin, c+margin] around each center.

        The half-open representation cannot drop the single point c+margin:
        the arc [c-margin, c+margin) is removed, so c-margin is dropped and
        c+margin is kept.
        """
        out = self
        for c in centers:
            if 2 * margin >= 1:
                return ArcSet.empty()
            out = out.intersect(ArcSet.arc(c - margin, c + margin).complement())
        return out

    def largest_component(self) -> tuple[Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty arc-set has no components")
        return max(self.components, key=lambda c: (c[1], -c[0]))

    # -- serialization -----------------------------------------------------

    def to_pairs(self) -> list[list[str]]:
        """[["p/q", "r/s"], ...] start/end-exclusive pairs; end < start wraps,
        and the full circle is [["0/1", "1/1"]]."""
        den = self.den
        return [[format_angle(a, den),
                 format_angle(b if b <= den else b - den, den)]
                for a, b in self._circle_spans()]

    @staticmethod
    def from_pairs(pairs: Iterable[Sequence[str]]) -> "ArcSet":
        ends = [[_parse_ratio(x) for x in pair] for pair in pairs]
        for p, q in (end for pair in ends for end in pair):
            if q <= 0 or not 0 <= p <= q:
                raise ValueError(f"arc end {p}/{q} is not in [0, 1]")
        den = math.lcm(*(q for pair in ends for _, q in pair))
        spans = []
        for (p, q), (r, s) in ends:
            a, b = p * (den // q), r * (den // s)
            spans += [(a, b)] if a <= b else [(a, den), (0, b)]
        return ArcSet._of(den, _merged(spans))

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ArcSet) and self.den == other.den
                and self.cuts == other.cuts)

    def __hash__(self):
        return hash((self.den, self.cuts))

    def __repr__(self):
        if self.is_empty:
            return "ArcSet.empty()"
        body = " ".join(f"[{a},{b})" for a, b in self.to_pairs())
        return f"ArcSet({body})"


def _merged(spans) -> list[int]:
    """Cuts of the union of the spans [a, b), 0 <= a <= b: sorted, with
    overlapping and touching spans joined and empty ones dropped."""
    cuts: list[int] = []
    for a, b in sorted(spans):
        if a == b:
            continue
        if cuts and a <= cuts[-1]:
            cuts[-1] = max(cuts[-1], b)
        else:
            cuts += (a, b)
    return cuts


# a tower export repeats about lattice-many distinct angle texts
@lru_cache(maxsize=1 << 12)
def _parse_ratio(text: str) -> tuple[int, int]:
    """"p/q" (or "p") as the int pair (p, q)."""
    if not isinstance(text, str):
        raise TypeError(f"angle {text!r} is not a string")
    p, _, q = text.partition("/")
    return int(p), int(q or 1)


@dataclass(frozen=True)
class RayChoice:
    """Chosen external angles of the critical value.

    degree d >= 2 and 1 <= kappa <= 2 angles, each strictly preperiodic under
    multiplication by d (the dendrite/Misiurewicz condition in angle form).
    """

    degree: int
    angles: tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError(f"degree must be >= 2, got {self.degree}")
        angs = tuple(Fraction(a) % 1 for a in self.angles)
        object.__setattr__(self, "angles", angs)
        if not 1 <= len(angs) <= 2:
            raise ValueError(f"kappa must be 1 or 2, got {len(angs)}")
        if len(set(angs)) != len(angs):
            raise ValueError("critical-value angles must be distinct")
        for a in angs:
            if not is_strictly_preperiodic(a, self.degree):
                raise ValueError(
                    f"angle {format_angle(a)} is not strictly preperiodic under "
                    f"multiplication by {self.degree} (periodic or fixed)")

    @property
    def kappa(self) -> int:
        return len(self.angles)


class CirclePartition:
    """The angle partition cut at the full preimage set of the chosen angles.

    The boundary consists of the kappa*d angles (theta+j)/d; the N = kappa*d
    partition arcs are half-open [b_i, b_{i+1}) between consecutive boundary
    angles, indexed 0..N-1 starting from the smallest boundary angle.  Each
    arc has length <= 1/d, so multiplication by d is injective on every arc
    (an arc of length exactly 1/d maps onto the full circle).

    lattice is the lcm of the denominators of the boundary and of the
    forward orbits of the chosen angles: every tower arc endpoint and
    cutpoint angle is a multiple of 1/lattice, and multiplication by d
    maps that lattice into itself.  boundary_nums holds
    the boundary as numerators over lattice.
    """

    __slots__ = ("ray_choice", "boundary", "arcs", "lattice",
                 "boundary_nums", "_arc_sets")

    def __init__(self, ray_choice: RayChoice):
        d = ray_choice.degree
        boundary = sorted({Fraction(t + j, 1) / d % 1
                           for t in ray_choice.angles for j in range(d)})
        self.ray_choice = ray_choice
        self.boundary = tuple(boundary)
        n = len(boundary)
        self.arcs = tuple(
            (boundary[i], (boundary[(i + 1) % n] - boundary[i]) % 1)
            for i in range(n))
        self._arc_sets = tuple(ArcSet((arc,)) for arc in self.arcs)
        # each orbit denominator divides its angle's, and the angle is on
        # its own orbit, so the angles and the boundary give the lcm
        self.lattice = math.lcm(*(a.denominator for a in boundary),
                                *(t.denominator for t in ray_choice.angles))
        self.boundary_nums = tuple(
            b.numerator * (self.lattice // b.denominator) for b in boundary)

    @property
    def degree(self) -> int:
        return self.ray_choice.degree

    @property
    def size(self) -> int:
        """N, the number of partition arcs."""
        return len(self.arcs)

    def symbol_of(self, a: Fraction) -> int:
        """Index of the arc containing angle a (half-open convention)."""
        a = a % 1
        i = bisect_right(self.boundary, a) - 1
        return i % self.size if i >= 0 else self.size - 1

    def arc_set(self, symbol: int) -> ArcSet:
        return self._arc_sets[symbol]

    def __repr__(self):
        b = ", ".join(format_angle(x) for x in self.boundary)
        return f"CirclePartition(d={self.degree}, boundary=[{b}])"


def build_partition(ray_choice: RayChoice) -> CirclePartition:
    """Construct the angle partition for a validated ray choice."""
    return CirclePartition(ray_choice)


def itinerary(a: Fraction, partition: CirclePartition, n: int) -> tuple[int, ...]:
    """First n partition symbols of the angle orbit of a."""
    d = partition.degree
    out = []
    x = a % 1
    for _ in range(n):
        out.append(partition.symbol_of(x))
        x = times_d(x, d)
    return tuple(out)


def enumerate_cylinders(partition: CirclePartition, depth: int
                        ) -> list[tuple[tuple[int, ...], ArcSet]]:
    """All admissible words of the given depth with their exact arc-sets,
    in lexicographic word order."""
    level: list[tuple[tuple[int, ...], ArcSet]] = [((), ArcSet.full_circle())]
    d = partition.degree
    for _ in range(depth):
        nxt = []
        for word, arcs in level:
            pre = arcs.preimage_times_d(d)
            for s in range(partition.size):
                piece = partition.arc_set(s).intersect(pre)
                if not piece.is_empty:
                    nxt.append(((s,) + word, piece))
        # the recursion prepends, so re-sort to keep lexicographic order
        nxt.sort(key=lambda t: t[0])
        level = nxt
    return level
