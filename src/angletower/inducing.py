"""First-return systems on notched tower domains.

A witness region is one domain's arc-set with closed notches removed
around every cutpoint angle.  Visits of traced samples to the witness
induce a return-time process; on top of it sit the Kac identity check,
branch expansion statistics, and the Abramov consistency checks for the
Lyapunov exponent and entropy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .angles import ArcSet, format_angle
from .geometry import LandingError, LandingSolver, log_deriv_rows
from .lifting import TowerMass, _count_sums, entropy_estimate
from .streams import (Cells, TraceEnsemble, _block_width, symbol_matrix,
                      walk_table)
from .tower import Domain, TowerGraph

DEFAULT_MARGIN = Fraction(1, 64)
CENSOR_THRESHOLD = 0.05
MIN_SAMPLE_RETURNS = 5
BRANCH_RUN_MAX = 10
ENTROPY_DEPTHS = (2, 4)


@dataclass(frozen=True)
class WitnessRegion:
    """A domain id together with its notched arc-set."""

    domain_id: int
    arcs: ArcSet
    margin: Fraction

    @property
    def length(self) -> Fraction:
        return self.arcs.length()

    def to_json(self) -> dict:
        return {"domain": self.domain_id,
                "margin": format_angle(self.margin),
                "arcs": self.arcs.to_pairs(),
                "length": format_angle(self.length)}


def choose_W(g: TowerGraph, domain, margin) -> WitnessRegion:
    """Notch the domain's arc-set by the given angular radius.

    A closed arc of radius margin is removed around every cutpoint angle
    of the domain.  Domains with cutpoints need margin > 0, and the
    remainder must be nonempty.
    """
    dom = g.domains[domain] if isinstance(domain, int) else domain
    margin = Fraction(margin)
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    centers = dom.cutpoint_angles()
    if centers and margin == 0:
        raise ValueError(
            f"domain {dom.id} has cutpoints, a positive margin is required")
    arcs = dom.arcset
    if centers:
        arcs = arcs.subtract_closed_margins(centers, margin)
    if arcs.is_empty:
        raise ValueError(
            f"margin {format_angle(margin)} leaves no witness region in "
            f"domain {dom.id}")
    return WitnessRegion(dom.id, arcs, margin)


def strong_components(table: np.ndarray) -> np.ndarray:
    """Strong-component labels, numbered as they complete, of the graph in
    which node i has an edge to each table[i, t] >= 0.

    Tarjan's pass from an added node n with an edge to every node, its
    recursion kept as a stack of (node, edges left) frames.  A node's place
    on the stack of open nodes stands for its visit order; a closed node's
    place is n + 1, above every open one.
    """
    succ = [[w for w in row if w >= 0] for row in table.tolist()]
    n = len(succ)
    succ.append(range(n))
    pos, low, labels = [-1] * n + [0], [0] * (n + 1), [-1] * (n + 1)
    stack, frames, count = [n], [(n, iter(succ[n]))], 0
    while frames:
        v, edges = frames[-1]
        for w in edges:
            if pos[w] < 0:  # a tree edge: open w and descend into it
                pos[w] = low[w] = len(stack)
                stack.append(w)
                frames.append((w, iter(succ[w])))
                break
            low[v] = min(low[v], pos[w])
        else:  # v is done: close its component, or pass its low up
            frames.pop()
            if low[v] == pos[v]:
                for w in stack[low[v]:]:
                    pos[w], labels[w] = n + 1, count
                del stack[low[v]:]
                count += 1
            else:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
    return np.array(labels[:n], dtype=np.intp)


def recurrent_witness_domain(g: TowerGraph) -> Domain:
    """Lowest-level domain lying in a strongly connected set of size >= 2.

    Self-loops alone do not qualify: a domain whose only recurrence is its
    own loop carries no mass under nonatomic measures here, so the witness
    is taken from a component that genuinely cycles through the tower.
    Frontier markers get no out-edges, so a cycle through one does not
    count.
    """
    table = walk_table(g)[0]
    table[sorted(g.frontier)] = -1
    labels = strong_components(table)
    candidates = np.flatnonzero(np.bincount(labels)[labels] >= 2).tolist()
    if not candidates:
        raise ValueError("no strongly connected component of size >= 2")
    best = min(candidates, key=lambda i: (g.domains[i].level, i))
    return g.domains[best]


@dataclass(frozen=True, eq=False)
class InducedSystem:
    """Return-time records of an ensemble against a witness region.

    Completed returns are stored as parallel arrays ordered by (sample,
    entry step); each visited sample additionally contributes one censored
    record for its final open interval.  Branch itinerary words are read
    back from the ensemble on demand rather than stored.
    """

    witness: WitnessRegion
    horizon: int
    sample_index: np.ndarray
    entry_step: np.ndarray
    return_time: np.ndarray
    censored_sample: np.ndarray
    censored_entry: np.ndarray
    ensemble: TraceEnsemble

    def __post_init__(self):
        if len(self.return_time) and self.return_time.min() < 1:
            raise ValueError("return times must be >= 1")

    @property
    def return_count(self) -> int:
        return len(self.return_time)

    @property
    def weights(self) -> np.ndarray:
        return self.ensemble.weights

    @cached_property
    def visits_per_sample(self) -> np.ndarray:
        n = self.ensemble.count
        visits = (np.bincount(self.sample_index, minlength=n)
                  + np.bincount(self.censored_sample, minlength=n))
        visits.flags.writeable = False
        return visits

    @property
    def witness_frequency(self) -> float:
        """Weighted fraction of traced steps spent in the witness."""
        w = self.weights
        return float((w * self.visits_per_sample).sum() / self.horizon)

    @property
    def visiting_weight(self) -> float:
        return float(self.weights[self.visits_per_sample > 0].sum())

    @property
    def mean_tau(self) -> float:
        if not self.return_count:
            return math.nan
        w = self.weights[self.sample_index]
        return float((w * self.return_time).sum() / w.sum())

    @property
    def censor_fraction(self) -> float:
        wr = float(self.weights[self.sample_index].sum())
        wc = float(self.weights[self.censored_sample].sum())
        return wc / (wr + wc) if wr + wc else math.nan

    def branch_word(self, i: int) -> tuple:
        s = int(self.sample_index[i])
        t = int(self.entry_step[i])
        tau = int(self.return_time[i])
        return tuple(int(x) for x in self.ensemble.symbols[s, t:t + tau])

    def tau_histogram(self) -> list:
        """(tau, count, weight) rows sorted by tau; a weight is summed as
        w[return_time == tau].sum() adds it, pairwise in return order."""
        w = self.weights
        if _count_sums(w, 0) is not None:
            runs = np.bincount(self.return_time)
            return [(t, int(runs[t]), float(np.full(runs[t], w[0]).sum()))
                    for t in np.flatnonzero(runs).tolist()]
        order = np.argsort(self.return_time, kind="stable")
        taus, starts = np.unique(self.return_time[order], return_index=True)
        parts = np.split(w[self.sample_index[order]], starts[1:])
        return [(int(t), len(x), float(x.sum())) for t, x in zip(taus, parts)]


def first_return(ensemble: TraceEnsemble, witness: WitnessRegion,
                 horizon: int | None = None) -> InducedSystem:
    """Visits of every trace to the witness, split into return intervals.

    A visit at step k means the trace occupies the witness domain with an
    angle inside the notched arc-set.  The arc-set's cuts are integers over
    its denominator, so membership is a cell -> inside lookup along the
    streams' exact router, for any ensemble it takes: a cell is inside
    when an odd number of cuts lies at or below it.
    Consecutive visits of one sample give completed returns; the stretch
    from a sample's last visit to the horizon is its censored record.
    Samples go in blocks of _block_width(h): one pass counts and packs
    each block's visits, one fills the preallocated int32 records.
    """
    if witness.arcs.is_empty:
        raise ValueError("witness region is empty")
    h = ensemble.horizon if horizon is None else int(horizon)
    if h < 1 or h > ensemble.horizon:
        raise ValueError(
            f"horizon must lie in [1, {ensemble.horizon}], got {h}")
    arcs = witness.arcs
    parity = Cells(ensemble.graph.partition.degree, arcs.den, arcs.cuts,
                   tuple(i % 2 for i in range(len(arcs.cuts) + 1)))
    width = _block_width(h)
    blocks = range(0, ensemble.count, width)
    counts = np.empty(ensemble.count, dtype=np.intp)
    packed = []
    for s0 in blocks:
        visits = symbol_matrix(ensemble.nums[s0:s0 + width], ensemble.den,
                               h, parity)
        visits &= ensemble.states[s0:s0 + width, :h] == witness.domain_id
        counts[s0:s0 + len(visits)] = np.count_nonzero(visits, axis=1)
        packed.append(np.packbits(visits, axis=1))
    # a visited sample has one censored record, and a return per visit more
    c_s = np.flatnonzero(counts).astype(np.int32)
    r_s = np.repeat(np.arange(len(counts), dtype=np.int32),
                    np.maximum(counts - 1, 0))
    r_t, r_tau, c_t = (np.empty_like(x) for x in (r_s, r_s, c_s))
    for s0, bits in zip(blocks, packed):
        # np.nonzero walks the index in row-major order, so visits come
        # sorted by (sample, entry step)
        ss, kk = np.nonzero(np.unpackbits(bits, axis=1, count=h))
        last = np.append(ss[1:] != ss[:-1], True)[:len(ss)]
        same = ~last[:-1]
        r, r1 = np.searchsorted(r_s, np.int32([s0, s0 + width]))
        c, c1 = np.searchsorted(c_s, np.int32([s0, s0 + width]))
        c_t[c:c1], r_t[r:r1] = kk[last], kk[:-1][same]
        r_tau[r:r1] = (kk[1:] - kk[:-1])[same]
    return InducedSystem(witness, h, r_s, r_t, r_tau, c_s, c_t, ensemble)


@dataclass(frozen=True)
class KacReport:
    mean_tau: float
    witness_mass: float
    expected_tau: float
    relative_error: float
    per_sample_error: float
    never_visit_weight: float
    censor_fraction: float
    domain_mass_lift: float
    return_count: int
    verdict: str

    def to_json(self) -> dict:
        return asdict(self)


def kac_check(ind: InducedSystem, tower_mass: TowerMass) -> KacReport:
    """Mean return time against the reciprocal witness mass.

    witness mass is the ensemble's own weighted visit frequency, so the
    identity couples the return bookkeeping to the occupation statistics.
    The pooled error is the contract quantity; the per-sample error
    averages |mean_tau_s * frequency_s - 1| over samples with at least
    MIN_SAMPLE_RETURNS returns, which stays tight even when per-sample
    witness frequencies are heterogeneous.  A censored fraction above
    CENSOR_THRESHOLD makes the verdict inconclusive rather than a number
    to trust.
    """
    if not ind.return_count:
        return KacReport(math.nan, ind.witness_frequency, math.nan,
                         math.nan, math.nan,
                         1.0 - ind.visiting_weight, ind.censor_fraction,
                         tower_mass.mass.get(ind.witness.domain_id, 0.0),
                         0, "degenerate")
    mean_tau = ind.mean_tau
    mass = ind.witness_frequency
    expected = 1.0 / mass
    rel = abs(mean_tau - expected) / expected
    w = ind.weights
    counts = np.bincount(ind.sample_index, minlength=ind.ensemble.count)
    spans = np.bincount(ind.sample_index, weights=ind.return_time,
                        minlength=ind.ensemble.count)
    visits = ind.visits_per_sample
    enough = counts >= MIN_SAMPLE_RETURNS
    if enough.any():
        prods = (spans[enough] / counts[enough]) * (visits[enough]
                                                    / ind.horizon)
        per_sample = float((w[enough] * np.abs(prods - 1.0)).sum()
                           / w[enough].sum())
    else:
        per_sample = math.nan
    censor = ind.censor_fraction
    verdict = "ok" if censor <= CENSOR_THRESHOLD else "inconclusive"
    return KacReport(mean_tau, mass, expected, rel, per_sample,
                     1.0 - ind.visiting_weight, censor,
                     tower_mass.mass.get(ind.witness.domain_id, 0.0),
                     ind.return_count, verdict)


@dataclass(frozen=True)
class ExpansionReport:
    """Branch derivative statistics and the Abramov consistency checks."""

    degenerate: bool
    branch_count: int
    excluded_samples: tuple
    min_branch: float | None
    min_by_n: dict
    n_two: int | None
    witness_frequency: float
    lambda_f: float | None
    lambda_induced: float | None
    lambda_error: float | None
    entropy_rate: float | None
    entropy_induced_block: float | None
    entropy_induced_rate: float | None
    entropy_error: float | None
    distinct_words: int

    def to_json(self) -> dict:
        # str keys: a sorted dump would order int keys as numbers
        min_by_n = {str(k): v for k, v in self.min_by_n.items()}
        return {**asdict(self), "min_by_n": min_by_n}


def _branch_codes(ind, r_s, r_t, r_tau):
    """Prefix-free integer codes for branch words (a length tau word w of
    b-bit symbols maps to 2^(b tau) + w); branches too long to encode
    become unique negatives.  Each tau's returns, off one argsort, go in
    chunks of _block_width(8), whose words take _BLOCK_CELLS bytes."""
    syms = ind.ensemble.symbols
    bits_per = max(1, (ind.ensemble.graph.partition.size - 1).bit_length())
    order, runs = np.argsort(r_tau), np.bincount(r_tau)
    ends = np.cumsum(runs)
    codes = np.empty(len(r_s), dtype=np.int64)
    step = _block_width(8)
    for tau in np.flatnonzero(runs).tolist():
        for c0 in range(ends[tau] - runs[tau], ends[tau], step):
            sel = order[c0:min(c0 + step, ends[tau])]
            if tau * bits_per > 60:
                codes[sel] = -(sel + 1)
                continue
            # shifted in one symbol column at a time after the leading 1,
            # so no returns x tau index matrix is built
            s, t = r_s[sel], r_t[sel]
            word = np.ones(len(sel), dtype=np.int64)
            for j in range(tau):
                word <<= bits_per
                word |= syms[s, t + j]
            codes[sel] = word
    return codes


def _branch_logs(landings, model, h, r_s, r_t, r_tau):
    """log|DF| of every return's branch, each sample's log-derivative sum
    over the horizon, and min_by_n: per n up to BRANCH_RUN_MAX, the least
    product of n consecutive branch derivatives of one sample, up to the
    first n no sample reaches.

    Samples are folded in blocks of about _BLOCK_CELLS cells, whose rows
    of log_deriv_rows are prefix-summed in place, in step order, so each
    value has its bits in the samples x horizon matrix that is never held;
    a block's returns (a slice, as returns are sorted by sample) read their
    branch sums there, and so do its runs of n returns of one sample, off
    the running sum of the branch logs, carried from block to block.
    Excluded samples' rows are 0 and no return reads them.
    """
    width = _block_width(h)
    blog = np.empty(len(r_s))
    totals = np.empty(len(landings))
    least = np.full(BRANCH_RUN_MAX + 1, np.inf)
    carry = 0.0
    for s0 in range(0, len(landings), width):
        # prefix sums in step order: column k + 1 sums steps 0..k, column 0 0
        cum, _ = log_deriv_rows(model, landings[s0:s0 + width], h + 1)
        np.cumsum(cum[:, :h], axis=1, out=cum[:, 1:])
        cum[:, 0] = 0.0
        lo, hi = np.searchsorted(r_s, np.int32([s0, s0 + len(cum)]))
        # the flat (intp) places of the entry steps in the block
        at = (r_s[lo:hi] - np.intp(s0)) * (h + 1) + r_t[lo:hi]
        cum.take(at + r_tau[lo:hi], out=blog[lo:hi])
        blog[lo:hi] -= cum.take(at)
        totals[s0:s0 + len(cum)] = cum[:, h]
        del cum, at
        # cb[i] sums the branch logs of the returns before return lo + i
        cb = np.cumsum(np.concatenate(([carry], blog[lo:hi])))
        carry = cb[-1]
        for N in range(1, min(BRANCH_RUN_MAX, hi - lo) + 1):
            run = (cb[N:] - cb[:-N])[r_s[lo + N - 1:hi] == r_s[lo:hi - N + 1]]
            least[N] = np.minimum(least[N], run.min(initial=np.inf))
        del cb
    # n is reached while least[n] is not inf
    stop = np.append(least, np.inf).tolist().index(np.inf, 1)
    return blog, totals, {N: float(np.exp(least[N])) for N in range(1, stop)}


def _entropy(keys, w, places):
    """The distinct keys, ascending, and the entropy of their masses, summed
    as np.bincount adds w[places[i]] for the key at i: with equal weights,
    T[c] of _count_sums for a key met c times, off keys sorted in place."""
    if _count_sums(w, 0) is None:
        keys, inv = np.unique(keys, return_inverse=True)
        p = np.bincount(inv, weights=w[places])
    else:
        keys.sort()
        starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
        runs = np.diff(starts, append=len(keys))
        keys, p = keys[starts], _count_sums(w, int(runs.max()))[runs]
    p = p / p.sum()
    return keys, float(-(p * np.log(p)).sum())


def expansion_and_abramov(ind: InducedSystem,
                          solver: LandingSolver) -> ExpansionReport:
    """Branch |DF| statistics plus the two Abramov scaling checks.

    Branch derivatives are log-derivative sums of landed orbits along
    return blocks.  min_by_n tracks the worst product over n consecutive
    branches; n_two is the first n at which it clears 2, or None if the
    search up to BRANCH_RUN_MAX fails (reported, not asserted).  The
    Lyapunov check compares the plain Birkhoff exponent with
    witness_frequency times the mean branch sum; the entropy check
    compares the tower-side cylinder estimate at ENTROPY_DEPTHS with
    witness_frequency times the induced process entropy rate, estimated
    as the conditional block entropy H(pair) - H(single).
    """
    if not ind.return_count:
        return ExpansionReport(True, 0, (), None, {}, None,
                               ind.witness_frequency, None, None, None,
                               None, None, None, None, 0)
    ens = ind.ensemble
    h = ind.horizon
    landings = solver.land_many(ens.angles)
    excluded = [(i, str(land)) for i, land in enumerate(landings)
                if isinstance(land, LandingError)]
    keep = np.array([not isinstance(x, LandingError) for x in landings])
    r_s, r_t, r_tau = ind.sample_index, ind.entry_step, ind.return_time
    if excluded:
        sel = keep[r_s]
        r_s, r_t, r_tau = r_s[sel], r_t[sel], r_tau[sel]
    if not len(r_s):
        return ExpansionReport(True, 0, tuple(excluded), None, {}, None,
                               ind.witness_frequency, None, None, None,
                               None, None, None, None, 0)
    w = ind.weights
    blog, totals, min_by_n = _branch_logs(landings, solver.model, h, r_s,
                                          r_t, r_tau)
    n_two = next((N for N in sorted(min_by_n)
                  if min_by_n[N] >= 2.0), None)
    # frequency restricted to samples the geometry could land
    visits = ind.visits_per_sample * keep
    wfreq = float((w * visits).sum() / (h * w[keep].sum()))
    wr = w[r_s]
    blog *= wr
    lam_induced = float(blog.sum() / wr.sum())
    lam_f = float((w[keep] * totals[keep]).sum() / (w[keep].sum() * h))
    lam_err = abs(lam_f - wfreq * lam_induced) / abs(lam_f) \
        if lam_f else None
    # each array is dropped once read, before the next one is made
    del blog, totals, wr
    codes = _branch_codes(ind, r_s, r_t, r_tau)
    words, h_block = _entropy(codes.copy(), w, r_s)
    pair = r_s[1:] == r_s[:-1]
    if pair.any():
        # a pair's key is its two words' places among the distinct words
        keys = np.searchsorted(words, codes)
        del codes
        keys[:-1] = keys[:-1] * len(words) + keys[1:]
        keys = keys[:-1][pair]
        h_rate = _entropy(keys, w, r_s[:-1][pair])[1] - h_block
    else:
        h_rate = h_block
    h = entropy_estimate(ens, ENTROPY_DEPTHS)
    h_err = abs(h - wfreq * h_rate) / abs(h) if h else None
    return ExpansionReport(False, len(r_s), tuple(excluded),
                           min_by_n.get(1), min_by_n, n_two, wfreq,
                           lam_f, lam_induced, lam_err,
                           h, h_block, h_rate, h_err,
                           len(words))


def tau_histogram_csv(ind: InducedSystem) -> str:
    lines = ["kind,tau,count,weight"]
    for tau, count, weight in ind.tau_histogram():
        lines.append(f"return,{tau},{count},{weight:.17g}")
    wc = float(ind.weights[ind.censored_sample].sum())
    lines.append(f"censored,,{len(ind.censored_sample)},{wc:.17g}")
    return "\n".join(lines) + "\n"


def branch_words_csv(ind: InducedSystem, limit: int | None = None) -> str:
    lines = ["sample,entry,tau,word"]
    top = ind.return_count if limit is None else min(limit,
                                                     ind.return_count)
    for i in range(top):
        word = "".join(str(x) for x in ind.branch_word(i))
        lines.append(f"{ind.sample_index[i]},{ind.entry_step[i]},"
                     f"{ind.return_time[i]},{word}")
    return "\n".join(lines) + "\n"
