"""Exact counts of paths that stay above a level threshold.

A t-path survives (relative to threshold R) when it starts at a level-R
domain and never visits a domain of level <= R afterwards.  The census
tracks, in exact integer arithmetic, the number s(t) of surviving t-paths
and the table L(t, m) of age-m cutpoints summed over the terminal domains
of surviving t-paths (one contribution per path).  A verifier checks the
recursion rules and the closed-form bounds these counts obey, including
the geometric path bound with its explicitly derived constant.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .tower import TowerGraph, TowerTooShallow


def _frontier(g: TowerGraph, did: int, needed_extra: int) -> TowerTooShallow:
    """The walk reached a domain whose out-edges were never built."""
    return TowerTooShallow(
        f"domain {did} (level {g.domains[did].level}) is an unexpanded "
        f"frontier marker; rebuild the tower with extra_levels >= "
        f"{needed_extra}")


@dataclass(frozen=True)
class CensusTable:
    """Survival counts from one level-R start domain up to a horizon."""

    R: int
    origin: int
    horizon: int
    s: tuple[int, ...]                    # s[t], 0 <= t <= horizon
    L: dict[tuple[int, int], int]         # (t, m) -> count, 1 <= m <= t+R

    def l_entry(self, t: int, m: int) -> int:
        return self.L.get((t, m), 0)


def cutpoint_census(g: TowerGraph, R: int, domain_id: int,
                    horizon: int) -> CensusTable:
    """Full survival census (path and cutpoint counts) up to the horizon."""
    if g.domains[domain_id].level != R:
        raise ValueError(
            f"domain {domain_id} has level {g.domains[domain_id].level}, "
            f"expected {R}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    ages = {did: d.age_counts() for did, d in g.domains.items()}
    vec: dict[int, int] = {domain_id: 1}
    s = [1]
    L: dict[tuple[int, int], int] = {}
    for m in range(1, R + 1):
        L[(0, m)] = ages[domain_id].get(m, 0)
    for t in range(1, horizon + 1):
        new: dict[int, int] = {}
        for did, cnt in vec.items():
            if did in g.frontier:
                raise _frontier(g, did, R + horizon - 1 - g.truncation)
            for _, tid in g.successors(did):
                if g.domains[tid].level > R:
                    new[tid] = new.get(tid, 0) + cnt
        vec = new
        s.append(sum(vec.values()))
        for m in range(1, R + t + 1):
            L[(t, m)] = sum(cnt * ages[did].get(m, 0)
                            for did, cnt in vec.items())
        # ages beyond R+t are impossible for paths of length t
        assert all(a <= R + t for did in vec for a in ages[did])
    return CensusTable(R, domain_id, horizon, tuple(s), L)


def brute_force_paths(g: TowerGraph, domain_id: int,
                      t: int) -> list[tuple[int, ...]]:
    """All surviving t-paths as symbol words, by explicit DFS.

    Exponential; meant as an independent oracle for small t.
    """
    R = g.domains[domain_id].level
    out: list[tuple[int, ...]] = []

    def walk(did: int, word: tuple[int, ...]):
        if len(word) == t:
            out.append(word)
            return
        if did in g.frontier:
            raise _frontier(g, did, R + t - 1 - g.truncation)
        for sym, tid in g.successors(did):
            if g.domains[tid].level > R:
                walk(tid, word + (sym,))

    walk(domain_id, ())
    return sorted(out)


def brute_force_census(g: TowerGraph, domain_id: int,
                       horizon: int) -> CensusTable:
    """Census computed from the explicit path listing, not the recursion."""
    R = g.domains[domain_id].level
    s = []
    L: dict[tuple[int, int], int] = {}
    for t in range(horizon + 1):
        words = brute_force_paths(g, domain_id, t)
        s.append(len(words))
        totals: dict[int, int] = {}
        for w in words:
            did = domain_id
            for sym in w:
                did = g.edges[(did, sym)]
            for age, cnt in g.domains[did].age_counts().items():
                totals[age] = totals.get(age, 0) + cnt
        for m in range(1, R + t + 1):
            L[(t, m)] = totals.get(m, 0)
    return CensusTable(R, domain_id, horizon, tuple(s), L)


# --------------------------------------------------------------------------
# rule verification


@dataclass(frozen=True)
class Violation:
    rule: str
    indices: dict
    lhs: int
    rhs: object

    def __str__(self):
        where = ", ".join(f"{k}={v}" for k, v in self.indices.items())
        return f"{self.rule} at {where}: {self.lhs} > {self.rhs}"


@dataclass
class AppendixReport:
    R: int
    N: int
    horizon: int
    path_bound_constant: Fraction
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_violation(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def to_json(self) -> dict:
        return {"R": self.R, "N": self.N, "horizon": self.horizon,
                "path_bound_constant": str(self.path_bound_constant),
                "checked": self.checked, "ok": self.ok,
                "violations": [str(v) for v in self.violations]}


def path_bound_constant(R: int, N: int) -> Fraction:
    """Constant C in s(nR+j) <= C (2RN)^(n+1).

    The count is bounded by R N^2 + R sum_{d=1..n} (2RN)^(d+1).  With
    q = 2RN >= 4 the geometric sum is at most 2 q^(n+1) and
    R N^2 = (N/2) q <= (N/2) q^(n+1), so C = 2R + N/2 works for every n.
    """
    return Fraction(2 * R) + Fraction(N, 2)


def verify_appendix(tbl: CensusTable, N: int) -> AppendixReport:
    """Check every counting rule the survival census must satisfy.

    All comparisons are exact (integers against integers or rationals).
    Rules, with T the horizon and R the threshold:

    - lookback: L(t, m) <= L(t-l, m-l) for 1 <= l <= m-1, m <= t.  (The
      l = m instance would reference age-0 counts, which do not exist.)
    - newborn (path form):  L(t, 1) <= N * s(t-1) for t >= 1.
    - newborn (summed form): L(t, 1) <= N * sum_{l=R+1..R+t-1} L(t-1, l)
      for t >= 2; at t = 1 the sum is empty while L(1, 1) may be positive,
      so that instance is skipped.
    - window: L(t, j) <= 2^n R^n N^(n+1) for 0 < j <= t with n = ceil(t/R),
      L(t, j) <= N for t < j <= t+R, and L(t, j) = 0 for j > t+R.
    - path bound: s(nR+j) <= C (2RN)^(n+1) for n = t // R, j = t mod R.
    """
    R, T = tbl.R, tbl.horizon
    rep = AppendixReport(R, N, T, path_bound_constant(R, N))

    def check(rule, ok, lhs, rhs, **idx):
        rep.checked += 1
        if not ok:
            rep.violations.append(Violation(rule, idx, lhs, rhs))

    for t in range(T + 1):
        for m in range(2, t + 1):
            for l in range(1, m):
                lhs, rhs = tbl.l_entry(t, m), tbl.l_entry(t - l, m - l)
                check("lookback", lhs <= rhs, lhs, rhs, t=t, m=m, l=l)

    for t in range(1, T + 1):
        lhs = tbl.l_entry(t, 1)
        rhs = N * tbl.s[t - 1]
        check("newborn-paths", lhs <= rhs, lhs, rhs, t=t)
        if t >= 2:
            rhs = N * sum(tbl.l_entry(t - 1, l)
                          for l in range(R + 1, R + t))
            check("newborn-sum", lhs <= rhs, lhs, rhs, t=t)

    for t in range(T + 1):
        n = -(-t // R)  # ceil
        deep = 2 ** n * R ** n * N ** (n + 1)
        for j in range(1, t + 1):
            lhs = tbl.l_entry(t, j)
            check("window-deep", lhs <= deep, lhs, deep, t=t, j=j)
        for j in range(t + 1, t + R + 1):
            lhs = tbl.l_entry(t, j)
            check("window-carry", lhs <= N, lhs, N, t=t, j=j)
    for (t, m), v in tbl.L.items():
        if m > t + R:
            check("window-zero", v == 0, v, 0, t=t, m=m)

    q = 2 * R * N
    C = rep.path_bound_constant
    for t in range(T + 1):
        n = t // R
        bound = C * q ** (n + 1)
        check("path-bound", tbl.s[t] <= bound, tbl.s[t], bound, t=t)

    return rep


# --------------------------------------------------------------------------
# subset counting


@dataclass(frozen=True)
class SubsetBound:
    """Exact count of small subsets of {0..n-1} against its entropy bound."""

    eps: Fraction
    n: int
    count: int
    bound: float
    holds: bool


def subset_count_bound(eps, n: int) -> SubsetBound:
    """Count subsets of {0..n-1} of size <= eps*n, with the entropy bound.

    The bound e^(n(eps + l(eps))), l(x) = -x log x - (1-x) log(1-x), is
    stated for n large.  Pass eps as a string or Fraction to pin decimal
    thresholds exactly; floats go through their shortest decimal
    representation.
    """
    e = Fraction(str(eps)) if isinstance(eps, float) else Fraction(eps)
    if not 0 < e < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    kmax = math.floor(e * n)
    count = sum(math.comb(n, k) for k in range(kmax + 1))
    x = float(e)
    lx = -x * math.log(x) - (1 - x) * math.log(1 - x)
    exponent = n * (x + lx)
    holds = math.log(count) <= exponent
    return SubsetBound(e, n, count, math.exp(exponent), holds)


# --------------------------------------------------------------------------
# export


def s_table_csv(tbl: CensusTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "s"])
    for t, v in enumerate(tbl.s):
        w.writerow([t, v])
    return buf.getvalue()


def l_table_csv(tbl: CensusTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "m", "L"])
    for (t, m) in sorted(tbl.L):
        w.writerow([t, m, tbl.L[(t, m)]])
    return buf.getvalue()
