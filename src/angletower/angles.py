"""Exact circle arithmetic for the external-angle model.

Angles are reduced rationals in [0, 1) backed by ``fractions.Fraction``; the
dynamics on angles is multiplication by the polynomial degree d, mod 1.  All
set operations run on finite unions of half-open circle arcs [a, b) with the
convention that a boundary angle belongs to the arc it starts.  Everything in
this module is exact: no floats are produced except by explicit request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def angle(value, den=None) -> Fraction:
    """Build an angle: a Fraction reduced mod 1 into [0, 1)."""
    a = Fraction(value, den) if den is not None else Fraction(value)
    return a % 1


def parse_angle(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an angle in [0, 1)."""
    return Fraction(text.strip()) % 1


def format_angle(a: Fraction) -> str:
    """Serialize an angle (or any Fraction) as "p/q", denominator always shown."""
    return f"{a.numerator}/{a.denominator}"


def times_d(a: Fraction, d: int) -> Fraction:
    """One step of the angle dynamics: d*a mod 1."""
    return (a * d) % 1


def circular_dist(a: Fraction, b: Fraction) -> Fraction:
    """Distance on the circle between two angles."""
    gap = (a - b) % 1
    return min(gap, 1 - gap)


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
    """A finite union of half-open arcs on the circle, held exactly.

    Components are (start, length) pairs with start in [0, 1) and
    0 < length <= 1, pairwise disjoint, sorted by start, with touching
    components merged (including across the wrap).  The full circle is the
    single component (0, 1).  Instances are immutable and hashable; the
    component tuple is the canonical serialization used for identification.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[tuple[Fraction, Fraction]], *, _normalized=False):
        comps = tuple(components)
        if not _normalized:
            comps = _normalize(comps)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *_):
        raise AttributeError("ArcSet is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet((), _normalized=True)

    @staticmethod
    def full_circle() -> "ArcSet":
        return ArcSet(((ZERO, ONE),), _normalized=True)

    @staticmethod
    def arc(start, end) -> "ArcSet":
        """The half-open arc [start, end) taken counterclockwise; start == end
        is empty (use full_circle for the whole circle)."""
        s = Fraction(start) % 1
        length = (Fraction(end) - Fraction(start)) % 1
        if length == 0:
            return ArcSet.empty()
        return ArcSet(((s, length),), _normalized=True)

    # -- basic queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def is_full(self) -> bool:
        return len(self.components) == 1 and self.components[0][1] == 1

    def length(self) -> Fraction:
        return sum((l for _, l in self.components), ZERO)

    def contains(self, a: Fraction) -> bool:
        a = a % 1
        return any((a - s) % 1 < l for s, l in self.components)

    def closure_contains(self, a: Fraction) -> bool:
        """Membership in the closed version of every component."""
        a = a % 1
        return any((a - s) % 1 <= l for s, l in self.components)

    # -- set operations ----------------------------------------------------

    def intersect_arc(self, start: Fraction, length: Fraction) -> "ArcSet":
        """Intersection with the single half-open arc [start, start+length)."""
        if length <= 0:
            return ArcSet.empty()
        if length >= 1:
            return self
        pieces = []
        for s, l in self.components:
            # work in coordinates where the probe arc is [0, length)
            off = (s - start) % 1
            lo, hi = off, off + l
            # the component occupies [lo, hi) on [0, 2); probe is [0, length)
            a, b = lo, min(hi, length)
            if a < b:
                pieces.append(((start + a) % 1, b - a))
            if hi > 1:  # wrapped part [0, hi-1)
                b2 = min(hi - 1, length)
                if b2 > 0:
                    pieces.append((start % 1, b2))
        return ArcSet(pieces)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        pieces = []
        for s, l in other.components:
            pieces.extend(self.intersect_arc(s, l).components)
        return ArcSet(pieces)

    def image_times_d(self, d: int) -> "ArcSet":
        """Forward image under angle multiplication by d.

        Each component of length l maps to an arc of length d*l; a component
        of length 1/d covers the whole circle.  Correct as a set image even
        when distinct components' images overlap.
        """
        if any(l * d >= 1 for _, l in self.components):
            return ArcSet.full_circle()
        return _union([((s * d) % 1, l * d) for s, l in self.components])

    def preimage_times_d(self, d: int) -> "ArcSet":
        """Full preimage under multiplication by d: d shrunken rotated copies."""
        pieces = []
        for s, l in self.components:
            for j in range(d):
                pieces.append((((s + j) / d) % 1, l / d))
        return ArcSet(pieces)

    def subtract_closed_margins(self, centers: Sequence[Fraction], margin: Fraction) -> "ArcSet":
        """Remove the closed arcs [c-margin, c+margin] around each center."""
        out = self
        for c in centers:
            out = out._subtract_closed_arc((c - margin) % 1, 2 * margin)
        return out

    def _subtract_closed_arc(self, start: Fraction, length: Fraction) -> "ArcSet":
        if length >= 1:
            return ArcSet.empty()
        pieces = []
        for s, l in self.components:
            off = (s - start) % 1
            lo, hi = off, off + l
            # cut [0, length] (closed) out of [lo, hi) living on [0, 2)
            for a, b in ((lo, hi),) if hi <= 1 else ((lo, 1), (1, hi)):
                # survivors inside [a, b): left of 0 (none: a >= 0), the open
                # gap (length, 1), and beyond 1 up to 1 + length excluded again
                cut = [(length, Fraction(1)), (1 + length, Fraction(2))]
                for ca, cb in cut:
                    x, y = max(a, ca), min(b, cb)
                    if x < y:
                        pieces.append(((start + x) % 1, y - x))
        return ArcSet(pieces)

    def largest_component(self) -> tuple[Fraction, Fraction]:
        if self.is_empty:
            raise ValueError("empty arc-set has no components")
        return max(self.components, key=lambda c: (c[1], -c[0]))

    def midpoint_of_largest(self) -> Fraction:
        s, l = self.largest_component()
        return (s + l / 2) % 1

    # -- serialization -----------------------------------------------------

    def to_pairs(self) -> list[list[str]]:
        """[["p/q", "r/s"], ...] start/end-exclusive pairs; end < start wraps,
        and the full circle is [["0/1", "1/1"]]."""
        out = []
        for s, l in self.components:
            end = s + l
            if end > 1:
                end -= 1
            out.append([format_angle(s), format_angle(end)])
        return out

    @staticmethod
    def from_pairs(pairs: Iterable[Sequence[str]]) -> "ArcSet":
        comps = []
        for lo, hi in pairs:
            a, b = Fraction(lo), Fraction(hi)
            if a == 0 and b == 1:
                return ArcSet.full_circle()
            comps.extend(ArcSet.arc(a, b).components)
        return ArcSet(comps)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ArcSet) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        if self.is_empty:
            return "ArcSet.empty()"
        body = " ".join(f"[{format_angle(s)},{format_angle((s + l) % 1 if l != 1 else ONE)})"
                        for s, l in self.components)
        return f"ArcSet({body})"


def _normalize(comps: Sequence[tuple[Fraction, Fraction]]) -> tuple:
    """Sort, check disjointness, merge touching components (wrap included)."""
    comps = [(s % 1, l) for s, l in comps if l > 0]
    if not comps:
        return ()
    total = sum(l for _, l in comps)
    if total > 1:
        raise ValueError(f"arc components overlap (total length {total} > 1)")
    if total == 1:
        # disjoint pieces of total length one are the whole circle exactly
        # when they tile it; verify by merging below, cheap for our sizes
        pass
    comps.sort()
    merged: list[list[Fraction]] = []
    for s, l in comps:
        if merged:
            ps, pl = merged[-1]
            if s < ps + pl:
                raise ValueError("arc components overlap")
            if s == ps + pl:
                merged[-1][1] = pl + l
                continue
        merged.append([s, l])
    # merge across the wrap: last component reaching 1 can absorb one at 0...
    if len(merged) > 1:
        ls, ll = merged[-1]
        fs, fl = merged[0]
        end = ls + ll
        if end > 1 + fs:
            raise ValueError("arc components overlap")
        if end - 1 == fs or (end == 1 and fs == 0):
            merged[0] = [ls, ll + fl]
            merged.pop()
            merged.sort()
    if len(merged) == 1 and merged[0][1] == 1:
        return ((ZERO, ONE),)
    return tuple((s, l) for s, l in merged)


def _union(comps: Sequence[tuple[Fraction, Fraction]]) -> ArcSet:
    """Union of possibly-overlapping components (used for forward images)."""
    comps = [(s % 1, l) for s, l in comps if l > 0]
    if not comps:
        return ArcSet.empty()
    # unfold to the line, sweep, refold
    events = []
    for s, l in comps:
        events.append((s, s + l))
    events.sort()
    merged = [list(events[0])]
    for a, b in events[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # wrap: anything past 1 folds onto the start
    out = []
    spill = []
    for a, b in merged:
        if b > 1:
            spill.append((ZERO, b - 1))
            b = ONE
        out.append((a, b - a))
    if spill:
        base = ArcSet(out)  # disjoint by the sweep
        for s, l in spill:
            extra = ArcSet.arc(s, s + l)
            base = _union_pair(base, extra)
        return base
    return ArcSet(out)


def _union_pair(a: ArcSet, b: ArcSet) -> ArcSet:
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    if a.is_full or b.is_full:
        return ArcSet.full_circle()
    # complement-intersect-complement would need complement machinery; a
    # simple sweep on cut points is enough at our sizes
    cuts = sorted({s for s, _ in a.components + b.components}
                  | {(s + l) % 1 for s, l in a.components + b.components})
    pieces = []
    n = len(cuts)
    for i, lo in enumerate(cuts):
        hi = cuts[(i + 1) % n]
        length = (hi - lo) % 1 if n > 1 else ONE
        if length == 0:
            length = ONE
        probe = lo + length / 2
        if a.contains(probe) or b.contains(probe):
            pieces.append((lo, length))
    return ArcSet(pieces)


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
    """

    __slots__ = ("ray_choice", "boundary", "arcs")

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
        from bisect import bisect_right
        i = bisect_right(self.boundary, a) - 1
        return i % self.size if i >= 0 else self.size - 1

    def arc_set(self, symbol: int) -> ArcSet:
        s, l = self.arcs[symbol]
        return ArcSet(((s, l),), _normalized=True)

    def angle_universe(self) -> frozenset[Fraction]:
        """All angles that can ever appear as arc endpoints or cutpoint marks:
        the boundary plus the full forward orbits of the chosen angles."""
        out = set(self.boundary)
        for t in self.ray_choice.angles:
            out.update(angle_orbit(t, self.degree)[2])
        return frozenset(out)

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


def cylinder_arcset(word: Sequence[int], partition: CirclePartition) -> ArcSet:
    """Exact arc-set of angles whose itinerary begins with the given word.

    Empty for non-admissible words.  Computed by backward refinement:
    cyl(s w) = arc(s) & preimage(cyl(w)).
    """
    d = partition.degree
    out = ArcSet.full_circle()
    for s in reversed(tuple(word)):
        out = partition.arc_set(s).intersect(out.preimage_times_d(d))
    return out


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
