"""Exact one-angle references that the tests hold the program against.

Each is the plain form of something the program does in bulk: Fraction
arithmetic where the program steps integer lattice cells, a scalar loop
where it runs a vectorized kernel.  Nothing in src/angletower calls them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from angletower.angles import (ArcSet, CirclePartition, angle_orbit,
                               format_angle, times_d)
from angletower.conformal import NODE_OFFSETS, NODE_SCALE
from angletower.lifting import SampleMeasure
from angletower.streams import Cells, common_numerators, symbol_matrix


def components(arcs: ArcSet) -> tuple[tuple[Fraction, Fraction], ...]:
    """(start, length) of each arc, sorted by start, an arc through 0 as
    one."""
    return tuple((Fraction(a, arcs.den), Fraction(b - a, arcs.den))
                 for a, b in arcs._circle_spans())


def contains(arcs: ArcSet, a: Fraction) -> bool:
    """Membership of the angle a in the half-open arcs of arcs."""
    k = a.numerator * arcs.den // a.denominator % arcs.den
    return bisect_right(arcs.cuts, k) % 2 == 1


def angle_at(ens, sample: int, k: int) -> Fraction:
    """Exact angle of one sample of a TraceEnsemble after k steps of
    multiplication by d."""
    d = ens.graph.partition.degree
    return Fraction(ens.nums[sample] * pow(d, k, ens.den) % ens.den, ens.den)


def orbit_hits_boundary(a: Fraction, partition: CirclePartition) -> bool:
    """Whether the angle orbit meets the partition boundary set, exactly:
    the boundary angles (preimages of strictly preperiodic ray angles) are
    strictly preperiodic, so only the preperiod, the at most log_d q steps
    whose denominator shares a factor with d, can meet one."""
    d = partition.degree
    x = Fraction(a) % 1
    p, q = x.numerator, x.denominator
    boundary = {(b.numerator, b.denominator) for b in partition.boundary}
    # d*p/q in lowest terms is (d/g)*p/(q/g), g = gcd(q, d)
    while (g := math.gcd(q, d)) > 1:
        if (p, q) in boundary:
            return True
        p, q = d // g * p % (q // g), q // g
    return False


def custom_measure(pairs, partition: CirclePartition,
                   provenance: str) -> SampleMeasure:
    """Measure from explicit (angle, weight) pairs, none of whose orbits
    meets the partition's boundary, over the lcm of their denominators."""
    pairs = tuple(pairs)
    angles = [Fraction(a) % 1 for a, _ in pairs]
    for a in angles:
        if orbit_hits_boundary(a, partition):
            raise ValueError(
                f"sample {format_angle(a)} has a boundary-riding orbit")
    return SampleMeasure(*common_numerators(angles),
                         [float(w) for _, w in pairs], provenance)


def quadrature_node(arcset: ArcSet,
                    partition: CirclePartition) -> tuple[Fraction, int]:
    """The node of a cylinder's arc-set in Fractions: in its longest
    component (s, length), on a tie the lowest, the first s + length * t
    for t = NODE_OFFSETS / NODE_SCALE whose orbit misses the boundary,
    and the index of that offset."""
    s, length = max(components(arcset), key=lambda c: (c[1], -c[0]))
    for k, t in enumerate(NODE_OFFSETS):
        cand = (s + length * Fraction(t, NODE_SCALE)) % 1
        if not orbit_hits_boundary(cand, partition):
            return cand, k
    raise ValueError(
        f"no interior node found in component at {format_angle(s)}")


def boundary_measure(pairs) -> SampleMeasure:
    """The custom measure of (angle, weight) pairs without custom_measure's
    refusal of orbits that meet the partition boundary: the canonical
    non-liftable examples."""
    pairs = tuple(pairs)
    return SampleMeasure(*common_numerators([Fraction(a) % 1
                                             for a, _ in pairs]),
                         [float(w) for _, w in pairs], "custom")


def preimage_times_d(arcs: ArcSet, d: int) -> ArcSet:
    """Full preimage under multiplication by d: d shifted copies of each
    arc, over the denominator d*den."""
    den = arcs.den
    return ArcSet((Fraction(a + j * den, d * den), Fraction(b - a, d * den))
                  for j in range(d)
                  for a, b in zip(arcs.cuts[::2], arcs.cuts[1::2]))


def cylinder_arcset(word, partition: CirclePartition) -> ArcSet:
    """Exact arc-set of angles whose itinerary begins with the given word.

    Empty for non-admissible words.  Computed by backward refinement:
    cyl(s w) = arc(s) & preimage(cyl(w)).
    """
    d = partition.degree
    out = ArcSet.full_circle()
    for s in reversed(tuple(word)):
        out = partition.arc_set(s).intersect(preimage_times_d(out, d))
    return out


def angle_universe(partition: CirclePartition) -> frozenset[Fraction]:
    """All angles that can ever appear as arc endpoints or cutpoint marks:
    the boundary plus the full forward orbits of the chosen angles."""
    out = set(partition.boundary)
    for t in partition.ray_choice.angles:
        out.update(angle_orbit(t, partition.degree)[2])
    return frozenset(out)


def strong_partition(table) -> set[frozenset[int]]:
    """Strong components, as node sets, of the graph in which node i has
    an edge to each table[i][t] >= 0.

    The reachability closure comes from repeated squaring of the boolean
    matrix of paths of length 0 or 1; two nodes share a component iff each
    reaches the other.
    """
    n = len(table)
    reach = np.eye(n, dtype=bool)
    for i, row in enumerate(table):
        reach[i, [j for j in row if j >= 0]] = True
    for _ in range(n.bit_length()):  # paths of up to 2^k >= n - 1 steps
        reach = reach @ reach
    return {frozenset(np.flatnonzero(m).tolist()) for m in reach & reach.T}


def f(model, z: complex) -> complex:
    """The map z^d + c of a PolynomialModel."""
    return z ** model.degree + model.c


def green(model, z: complex, n: int = 50) -> float:
    """Truncated Green function estimate max(0, log|f^n(z)|) / d^n.

    Escaping orbits are cut off early at |z| > 1e8, where log|f(z)| is
    log|z| * d to machine precision, so no overflow occurs.
    """
    d = model.degree
    w = complex(z)
    for k in range(n):
        if abs(w) > 1e8:
            return math.log(abs(w)) / d ** k
        w = f(model, w)
    return max(0.0, math.log(abs(w))) / d ** n if w != 0 else 0.0


@dataclass(frozen=True)
class TracePath:
    """Domain path of an angle lifted to the base: ids visited step by step.

    exit_step is the index of the first step that left the expanded graph
    (None when the whole trace stayed inside); exit_level is the level of the
    frontier domain it stood on when it left.
    """

    domain_ids: tuple[int, ...]
    exit_step: int | None
    exit_level: int | None


def trace(a: Fraction, g, n: int) -> TracePath:
    """Follow the lift of angle a in the TowerGraph g from the base for n
    steps, one Fraction symbol at a time.

    Angles sitting on a partition boundary follow the half-open convention,
    so the path is always single-valued.
    """
    part = g.partition
    x = a % 1
    ids = [0]
    cur = 0
    for k in range(n):
        if not g.is_expanded(cur):
            return TracePath(tuple(ids), k, g.domains[cur].level)
        sym = part.symbol_of(x)
        nxt = g.edges.get((cur, sym))
        if nxt is None:
            raise AssertionError(
                f"expanded domain {cur} with no edge for symbol {sym}; the "
                "traced angle left its domain's arc-set")
        ids.append(nxt)
        cur = nxt
        x = times_d(x, part.degree)
    return TracePath(tuple(ids), None, None)


def dense_first_return(ensemble, witness, horizon=None):
    """(sample_index, entry_step, return_time, censored_sample,
    censored_entry) of first_return from one samples x horizon visit
    matrix and one np.nonzero pair over it: the whole-ensemble form that
    the blocked fill must match."""
    h = ensemble.horizon if horizon is None else horizon
    arcs = witness.arcs
    parity = Cells(ensemble.graph.partition.degree, arcs.den, arcs.cuts,
                   tuple(i % 2 for i in range(len(arcs.cuts) + 1)))
    inside = symbol_matrix(ensemble.nums, ensemble.den, h, parity)
    visits = (inside.view(bool)
              & (ensemble.states[:, :h] == witness.domain_id))
    # np.nonzero walks the index in row-major order whatever the memory
    # layout, so visits come sorted by (sample, entry step)
    ss, kk = np.nonzero(visits)
    same = ss[1:] == ss[:-1]
    last = np.ones(len(ss), dtype=bool)
    last[:-1] = ~same
    return (ss[:-1][same], kk[:-1][same], (kk[1:] - kk[:-1])[same],
            ss[last], kk[last])
