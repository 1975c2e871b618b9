"""Markov extension of the angle dynamics, cut at the marked critical orbit.

Domains are subsets of the circle (arc-sets) decorated with cutpoints: marked
angles remembering which forward image of the critical point cut the domain
there and how long ago (the age).  The base domain is the full circle with no
cutpoints.  One step maps the part of a domain inside one partition arc
forward, ages the surviving cutpoints, and cuts at the critical point whenever
the arc boundary is touched.  Domains with identical arc-sets and identical
cutpoint decorations are identified, which keeps the graph finite per level.

Everything here is exact integer arithmetic: arc-sets are integer cuts, and
a cutpoint angle is a numerator k over the partition lattice N (see
``CirclePartition.lattice``), aged as d*k mod N, so the identification key is
an arc-set and a tuple of ints.  The build makes each move once per distinct
(arc-set, symbol) and a Domain only for a new key.  Fractions appear only as
the read-only ``CutPoint.angles`` view and in the "p/q" text of the JSON
export.  The graph is truncated at a configurable level, with unexpanded
domains kept as frontier markers so escape across the truncation stays
accounted for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property

from .angles import (
    ArcSet, CirclePartition, RayChoice, _parse_ratio, build_partition,
    format_angle, parse_angle,
)


@dataclass(frozen=True, slots=True)
class CutPoint:
    """A marked point of a domain: the critical orbit point of the given age.

    age a marks the a-th forward image of the one critical point of
    z^d + c; nums is the sorted tuple of this point's external angles
    present in the domain, as numerators k of k/lattice, the partition
    lattice.
    """

    age: int
    nums: tuple[int, ...]
    lattice: int

    @property
    def angles(self) -> tuple[Fraction, ...]:
        """The sorted angles as Fractions (a read-only view)."""
        return tuple(Fraction(k, self.lattice) for k in self.nums)


@dataclass(frozen=True)
class Domain:
    """One vertex of the tower: an arc-set plus its cutpoint decorations."""

    id: int
    arcset: ArcSet
    cutpoints: tuple[CutPoint, ...]
    level: int

    def cutpoint_angles(self) -> tuple[Fraction, ...]:
        return tuple(a for cp in self.cutpoints for a in cp.angles)

    def age_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for cp in self.cutpoints:
            out[cp.age] = out.get(cp.age, 0) + 1
        return out


class _Kernel:
    """The step on keys (arcset, cps), cps holding (age, nums) sorted by
    age, nums over the partition lattice.  Each move (the piece of an arc-set
    in one arc, its image and the cutpoint born there) is made once per
    distinct (arc-set, symbol), and each cutpoint's fate under a move once
    per distinct angle list, so the cost of a step follows the number of
    cuts and never the lattice.
    """

    def __init__(self, part: CirclePartition):
        self.part = part
        self.moves: dict = {}
        self.cutpoint = cache(lambda cp: CutPoint(*cp, part.lattice))

    def domain(self, did: int, key) -> Domain:
        """The domain of a key, with one CutPoint per distinct cutpoint."""
        arcset, cps = key
        return Domain(did, arcset, tuple(map(self.cutpoint, cps)),
                      cps[-1][0] if cps else 0)

    def step(self, arcset: ArcSet, cps, symbol: int):
        """Key of the image of the part of the domain in the arc, or None
        when they do not meet.  Cutpoint angles in the closure of the part
        survive with age+1 and angles times d (a numerator k steps to d*k
        mod the lattice); a touch of either arc end (the critical point)
        makes the age-1 cutpoint at their images."""
        part, d, n = self.part, self.part.degree, self.part.lattice
        move = self.moves.get((arcset, symbol))
        if move is None:
            b = part.boundary_nums
            piece = arcset.intersect(part.arc_set(symbol))
            born = {d * k % n for k in (b[symbol], b[(symbol + 1) % len(b)])
                    if piece.closure_contains(k, n)}
            move = self.moves[(arcset, symbol)] = piece.cuts and (
                piece, piece.image_times_d(d), tuple(sorted(born)), {})
        if not move:  # an empty piece, memoized as ()
            return None
        piece, image, born, fates = move
        # carried ages are all >= 2, so the born cutpoint sorts first
        out = [(1, born)] if born else []
        for age, nums in cps:
            hit = fates.get(nums)
            if hit is None:
                hit = fates[nums] = tuple(sorted(
                    {d * k % n for k in nums if piece.closure_contains(k, n)}))
            if hit:
                out.append((age + 1, hit))
        if not out:
            # images are cut either at the critical point (arc endpoints
            # touched) or at a surviving cutpoint; a bare one cannot occur
            raise AssertionError("successor domain with no cutpoints")
        return image, tuple(out)


class TowerTooShallow(Exception):
    """A walk needs out-edges the tower left unexpanded (CLI exit 3)."""


@dataclass
class TowerGraph:
    """Truncated tower: identified domains, labeled edges, frontier markers.

    Domains of level <= truncation + extra_levels are expanded (their
    out-edges recorded); deeper domains are materialized but not expanded and
    listed in `frontier`.  Domain ids are BFS discovery order, so rebuilding
    with the same configuration reproduces identical ids.
    """

    partition: CirclePartition
    truncation: int
    extra_levels: int
    domains: dict[int, Domain] = field(default_factory=dict)
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    frontier: set[int] = field(default_factory=set)

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel(self.partition)

    @property
    def expand_limit(self) -> int:
        return self.truncation + self.extra_levels

    def domain_count(self, *, within_truncation=False) -> int:
        if within_truncation:
            return sum(1 for d in self.domains.values()
                       if d.level <= self.truncation)
        return len(self.domains)

    def successors(self, domain_id: int) -> list[tuple[int, int]]:
        """(symbol, successor id) pairs for an expanded domain."""
        return [(s, self.edges[(domain_id, s)])
                for s in range(self.partition.size)
                if (domain_id, s) in self.edges]

    def is_expanded(self, domain_id: int) -> bool:
        return domain_id not in self.frontier

    def level_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.domains.values():
            out[d.level] = out.get(d.level, 0) + 1
        return dict(sorted(out.items()))

    # -- serialization -----------------------------------------------------

    def config_json(self) -> dict:
        rc = self.partition.ray_choice
        return {"degree": rc.degree,
                "critical_value_angles": [format_angle(a) for a in rc.angles],
                "kappa": rc.kappa,
                "truncation": self.truncation,
                "extra_levels": self.extra_levels}

    def to_dot(self) -> str:
        """Graphviz digraph with one rank per level."""
        lines = ["digraph tower {", "  rankdir=BT;",
                 '  node [shape=box, fontsize=10];']
        by_level: dict[int, list[int]] = {}
        for d in self.domains.values():
            by_level.setdefault(d.level, []).append(d.id)
        for lvl in sorted(by_level):
            ids = sorted(by_level[lvl])
            names = []
            for i in ids:
                d = self.domains[i]
                ages = ",".join(str(cp.age) for cp in d.cutpoints) or "-"
                style = ', style=dashed' if i in self.frontier else ''
                lines.append(f'  d{i} [label="D{i} L{lvl} ages:{ages}"{style}];')
                names.append(f"d{i}")
            lines.append(f'  {{ rank=same; {"; ".join(names)} }}')
        for (f, s), t in sorted(self.edges.items()):
            lines.append(f'  d{f} -> d{t} [label="{s}"];')
        lines.append("}")
        return "\n".join(lines)


def build_tower(ray_choice: RayChoice, truncation: int,
                extra_levels: int = 0) -> TowerGraph:
    """Breadth-first construction of the truncated tower.

    Expands every domain of level <= truncation + extra_levels; successors
    beyond that are materialized as frontier markers with no out-edges.
    Terminates because all arc endpoints and cutpoint angles live in the
    finite forward-orbit field of the chosen angles, so there are finitely
    many identified domains per level.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    if extra_levels < 0:
        raise ValueError("extra_levels must be >= 0")
    part = build_partition(ray_choice)
    g = TowerGraph(part, truncation, extra_levels)
    index: dict = {}

    def identify(key) -> int:
        did = index.get(key)
        if did is None:
            did = index[key] = len(g.domains)
            g.domains[did] = g._kernel.domain(did, key)
        return did

    base = (ArcSet.full_circle(), ())
    pending = [(identify(base), base)]
    while pending:
        nxt = []
        for did, (arcset, cps) in pending:
            if g.domains[did].level > g.expand_limit:
                g.frontier.add(did)
                continue
            for sym in range(part.size):
                cand = g._kernel.step(arcset, cps, sym)
                if cand is None:
                    continue
                known = len(g.domains)
                tid = identify(cand)
                g.edges[(did, sym)] = tid
                if tid >= known:
                    nxt.append((tid, cand))
        pending = nxt
    return g


# --------------------------------------------------------------------------
# structural checks


@dataclass
class StructuralReport:
    level_counts: dict[int, int]
    per_level_bound: int
    bound_violations: list[int]
    level_jump_violations: list[tuple[int, int, int]]
    markov_failures: list[tuple[int, int]]
    age_multiplicity_violations: list[int]
    base_in_edges: int
    sideways_edges: list[tuple[int, int, int]]

    @property
    def passed(self) -> bool:
        return not (self.bound_violations or self.level_jump_violations
                    or self.markov_failures or self.age_multiplicity_violations
                    or self.base_in_edges)


def structural_checks(g: TowerGraph) -> StructuralReport:
    """Verify the tower's combinatorial guarantees on the built graph.

    Checks, for every recorded edge (D, Z, D'): the image arc-set equality
    (the Markov property, exact, recomputed apart from the build's move
    memo, once per distinct (arc-set, symbol)), level(D') <= level(D) + 1,
    and collects sideways moves (level preserved or decreased) as a report,
    since they are allowed.  Per-level domain counts are compared against
    the bound #critical-points * product(kappa) = kappa for unicritical
    maps; per-age cutpoint multiplicity against #critical-points = 1.
    In-edges to the base are counted and must be zero.
    """
    part = g.partition
    bound = part.ray_choice.kappa
    counts = g.level_counts()
    bound_violations = [lvl for lvl, n in counts.items()
                        if lvl > 0 and n > bound]

    level_jumps = []
    markov_failures = []
    sideways = []
    base_in = 0
    image = cache(lambda arcset, sym: arcset.intersect(
        part.arc_set(sym)).image_times_d(part.degree))
    for (fid, sym), tid in g.edges.items():
        src, dst = g.domains[fid], g.domains[tid]
        if dst.level > src.level + 1:
            level_jumps.append((fid, sym, tid))
        if dst.level <= src.level:
            sideways.append((fid, sym, tid))
        if tid == 0:
            base_in += 1
        if image(src.arcset, sym) != dst.arcset:
            markov_failures.append((fid, sym))

    age_violations = []
    for d in g.domains.values():
        if any(n > 1 for n in d.age_counts().values()):
            age_violations.append(d.id)

    return StructuralReport(
        level_counts=counts,
        per_level_bound=bound,
        bound_violations=bound_violations,
        level_jump_violations=level_jumps,
        markov_failures=markov_failures,
        age_multiplicity_violations=age_violations,
        base_in_edges=base_in,
        sideways_edges=sorted(sideways),
    )


# --------------------------------------------------------------------------
# import/export


def _nested(obj, depth: int) -> str:
    """json.dumps(obj, indent=1, sort_keys=True) of a value depth deep."""
    return json.dumps(obj, indent=1, sort_keys=True).replace(
        "\n", "\n" + " " * depth)


def _json_list(items: list[str], depth: int) -> str:
    """Encoded items as a list depth deep, laid out as _nested does."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + pad[:-1] + "]"


def tower_to_json_str(g: TowerGraph) -> str:
    """json.dumps(indent=1, sort_keys=True) of {"config": config_json(),
    "domains": [{"id", "level", "arcs", "cutpoints": [{"age", "angles",
    "origin": 0}]}] by id, "edges": [{"from", "symbol", "to"}], "frontier"},
    written from the graph, each arc-set and angle list text made once."""
    arcs = cache(lambda arcset: _nested(arcset.to_pairs(), 3))
    angles = cache(lambda nums, n: _nested([format_angle(k, n)
                                            for k in nums], 5))
    doms = []
    for d in map(g.domains.get, sorted(g.domains)):
        cps = [f'{{\n     "age": {cp.age},\n     "angles": '
               f'{angles(cp.nums, cp.lattice)},\n     "origin": 0'
               f'\n    }}' for cp in d.cutpoints]
        doms.append(f'{{\n   "arcs": {arcs(d.arcset)},\n   "cutpoints": '
                    f'{_json_list(cps, 3)},\n   "id": {d.id},\n   '
                    f'"level": {d.level}\n  }}')
    edges = [f'{{\n   "from": {f},\n   "symbol": {s},\n   "to": {t}\n  }}'
             for (f, s), t in sorted(g.edges.items())]
    return (f'{{\n "config": {_nested(g.config_json(), 1)},\n "domains": '
            f'{_json_list(doms, 1)},\n "edges": {_json_list(edges, 1)},\n '
            f'"frontier": {_nested(sorted(g.frontier), 1)}\n}}')


def tower_from_json(payload: dict) -> TowerGraph:
    """Rebuild a TowerGraph from its JSON export (domains are trusted).

    Every arc endpoint must lie in [0, 1] and every cutpoint angle in
    [0, 1), both on the partition lattice of the config's angles, and
    every cutpoint's origin must be 0 (the one critical point); one that
    does not raises ValueError.  Each distinct arcs text and cutpoint angle
    list is parsed once, and the domains are made as the build makes them.
    """
    cfg = payload["config"]
    rc = RayChoice(cfg["degree"],
                   tuple(parse_angle(a) for a in cfg["critical_value_angles"]))
    g = TowerGraph(build_partition(rc), cfg["truncation"], cfg["extra_levels"])
    n = g.partition.lattice
    arcsets = cache(lambda arcs: ArcSet.from_pairs(arcs))

    @cache
    def nums(angles: tuple) -> tuple[int, ...]:
        if not all(0 <= p < q for p, q in map(_parse_ratio, angles)):
            raise ValueError(f"a cutpoint angle of {list(angles)} is not "
                             "in [0, 1)")
        return tuple(sorted(parse_angle(a, n) for a in angles))

    for dj in payload["domains"]:
        arcs = arcsets(tuple(map(tuple, dj["arcs"])))
        if n % arcs.den:
            raise ValueError(f"domain {dj['id']} has an arc endpoint off "
                             f"the lattice of 1/{n}")
        if any(c["origin"] != 0 for c in dj["cutpoints"]):
            raise ValueError(f"domain {dj['id']} has a cutpoint of a "
                             "critical point other than 0")
        cps = sorted((c["age"], nums(tuple(c["angles"])))
                     for c in dj["cutpoints"])
        g.domains[dj["id"]] = g._kernel.domain(dj["id"], (arcs, tuple(cps)))
    for e in payload["edges"]:
        g.edges[(e["from"], e["symbol"])] = e["to"]
    g.frontier = set(payload["frontier"])
    return g
