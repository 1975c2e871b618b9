"""First-return systems: witness choice, Kac, expansion, Abramov."""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angletower import inducing, streams
from angletower.angles import ArcSet, RayChoice, build_partition, itinerary
from angletower.geometry import (LandingError, LandingSolver, PolynomialModel,
                                 log_deriv_rows)
from angletower.inducing import (BRANCH_RUN_MAX, ENTROPY_DEPTHS,
                                 ExpansionReport, WitnessRegion,
                                 branch_words_csv, choose_W,
                                 expansion_and_abramov, first_return,
                                 kac_check, recurrent_witness_domain,
                                 strong_components, tau_histogram_csv)
from angletower.lifting import (brolin_period_samples, brolin_samples,
                                custom_measure, entropy_estimate,
                                lift_cesaro, make_ensemble)
from angletower.streams import fits_int64
from angletower.tower import build_tower

from oracles import (angle_at, boundary_measure, contains, dense_first_return,
                     strong_partition)

CHEB = RayChoice(2, (F(1, 2),))
DEND = RayChoice(2, (F(1, 6),))
CUBIC = RayChoice(3, (F(1, 6),))

PROP_GRAPH = build_tower(CHEB, 4, extra_levels=48)


def tau_additive(ind) -> bool:
    """Entry steps accumulate return times exactly within samples."""
    same = ind.sample_index[1:] == ind.sample_index[:-1]
    lhs = ind.entry_step[1:][same]
    rhs = (ind.entry_step[:-1] + ind.return_time[:-1])[same]
    return bool(np.array_equal(lhs, rhs))


def dense_branch_codes(ind, r_s, r_t, r_tau):
    """The branch codes of _branch_codes, one boolean mask per tau."""
    syms = ind.ensemble.symbols
    bits_per = max(1, (ind.ensemble.graph.partition.size - 1).bit_length())
    codes = np.empty(len(r_s), dtype=np.int64)
    for tau in np.unique(r_tau):
        sel = np.flatnonzero(r_tau == tau)
        if tau * bits_per > 60:
            codes[sel] = -(sel + 1)
            continue
        s, t = r_s[sel], r_t[sel]
        word = np.ones(len(sel), dtype=np.int64)
        for j in range(tau):
            word <<= bits_per
            word |= syms[s, t + j]
        codes[sel] = word
    return codes


def dense_tau_histogram(ind) -> list:
    """tau_histogram, one boolean mask per tau."""
    w = ind.weights[ind.sample_index]
    rows = []
    for t in np.unique(ind.return_time):
        sel = ind.return_time == t
        rows.append((int(t), int(sel.sum()), float(w[sel].sum())))
    return rows


def dense_expansion_and_abramov(ind, solver) -> ExpansionReport:
    """expansion_and_abramov over one samples x horizon matrix of prefix
    sums: the oracle that the sample-block folds must match bit for bit."""
    if not ind.return_count:
        return ExpansionReport(True, 0, (), None, {}, None,
                               ind.witness_frequency, None, None, None,
                               None, None, None, None, 0)
    ens = ind.ensemble
    h = ind.horizon
    vals = np.zeros((ens.count, h))
    excluded = []
    for i, land in enumerate(solver.land_many(ens.angles)):
        if isinstance(land, LandingError):
            excluded.append((i, str(land)))
            continue
        vals[i] = log_deriv_rows(solver.model, [land], h)[0][0]
    bad = {i for i, _ in excluded}
    keep = np.array([i not in bad for i in range(ens.count)])
    sel = keep[ind.sample_index]
    r_s = ind.sample_index[sel]
    r_t = ind.entry_step[sel]
    r_tau = ind.return_time[sel]
    if not len(r_s):
        return ExpansionReport(True, 0, tuple(excluded), None, {}, None,
                               ind.witness_frequency, None, None, None,
                               None, None, None, None, 0)
    w = ind.weights
    cums = np.concatenate([np.zeros((ens.count, 1)),
                           np.cumsum(vals, axis=1)], axis=1)
    blog = cums[r_s, r_t + r_tau] - cums[r_s, r_t]
    min_by_n = {}
    cb = np.concatenate([[0.0], np.cumsum(blog)])
    for N in range(1, BRANCH_RUN_MAX + 1):
        if N > len(r_s):
            break
        valid = r_s[N - 1:] == r_s[:len(r_s) - N + 1]
        if not valid.any():
            break
        roll = cb[N:] - cb[:-N]
        min_by_n[N] = float(np.exp(roll[valid].min()))
    n_two = next((N for N in sorted(min_by_n)
                  if min_by_n[N] >= 2.0), None)
    visits = (np.bincount(ind.sample_index, minlength=ens.count)
              + np.bincount(ind.censored_sample, minlength=ens.count))
    visits = visits.astype(float)
    visits[~keep] = 0.0
    wfreq = float((w * visits).sum() / (h * w[keep].sum()))
    wr = w[r_s]
    lam_induced = float((wr * blog).sum() / wr.sum())
    lam_f = float((w[keep] * cums[keep, h]).sum() / (w[keep].sum() * h))
    lam_err = abs(lam_f - wfreq * lam_induced) / abs(lam_f) \
        if lam_f else None
    uniq, inv = np.unique(dense_branch_codes(ind, r_s, r_t, r_tau),
                          return_inverse=True)
    p1 = np.bincount(inv, weights=wr)
    p1 = p1 / p1.sum()
    h_block = float(-(p1 * np.log(p1)).sum())
    pair = r_s[1:] == r_s[:-1]
    if pair.any():
        pk = inv[:-1][pair] * np.int64(len(uniq)) + inv[1:][pair]
        _, i2 = np.unique(pk, return_inverse=True)
        p2 = np.bincount(i2, weights=wr[:-1][pair])
        p2 = p2 / p2.sum()
        h_rate = float(-(p2 * np.log(p2)).sum()) - h_block
    else:
        h_rate = h_block
    h = entropy_estimate(ens, *ENTROPY_DEPTHS)
    h_err = abs(h - wfreq * h_rate) / abs(h) if h else None
    return ExpansionReport(False, len(r_s), tuple(excluded),
                           min_by_n.get(1), min_by_n, n_two, wfreq,
                           lam_f, lam_induced, lam_err,
                           h, h_block, h_rate, h_err,
                           len(uniq))


@pytest.fixture(scope="module")
def cheb_part():
    return build_partition(CHEB)


@pytest.fixture(scope="module")
def cheb_graph():
    return build_tower(CHEB, 8, extra_levels=64)


@pytest.fixture(scope="module")
def cheb_mu(cheb_part):
    return brolin_period_samples(cheb_part, 768, seed=21, bits=16)


@pytest.fixture(scope="module")
def cheb_ens(cheb_mu, cheb_graph):
    return make_ensemble(cheb_mu, cheb_graph, 1600)


@pytest.fixture(scope="module")
def cheb_witness(cheb_graph):
    return choose_W(cheb_graph, 2, F(1, 64))


@pytest.fixture(scope="module")
def cheb_system(cheb_ens, cheb_witness):
    return first_return(cheb_ens, cheb_witness)


@pytest.fixture(scope="module")
def cheb_mass(cheb_ens):
    return lift_cesaro(cheb_ens, 1600, 8)


@pytest.fixture(scope="module")
def cheb_solver():
    return LandingSolver(PolynomialModel(2, -2.0))


@pytest.fixture(scope="module")
def cheb_expansion(cheb_system, cheb_solver):
    return expansion_and_abramov(cheb_system, cheb_solver)


@pytest.fixture(scope="module")
def dirac_system(cheb_graph):
    mu = custom_measure([(F(0), 1.0)], cheb_graph.partition,
                        provenance="dirac-periodic")
    ens = make_ensemble(mu, cheb_graph, 200)
    return mu, ens, first_return(ens, choose_W(cheb_graph, 1, F(1, 64)))


# -- witness choice ----------------------------------------------------


def test_recurrent_witness_is_level_two_here(cheb_graph):
    dom = recurrent_witness_domain(cheb_graph)
    assert dom.id == 2 and dom.level == 2


def test_recurrent_witness_level_one_for_dendrite():
    g = build_tower(DEND, 6)
    dom = recurrent_witness_domain(g)
    assert dom.id == 1 and dom.level == 1


def test_recurrent_witness_skips_self_loop_only_domain():
    # rewire the dendrite witness D1 so it loops only to itself; a lone
    # self-loop does not qualify, and the next recurrent level is 3
    g = build_tower(DEND, 6)
    for sym in range(g.partition.size):
        if (1, sym) in g.edges:
            g.edges[(1, sym)] = 1
    dom = recurrent_witness_domain(g)
    assert dom.id == 3 and dom.level == 3


def test_recurrent_witness_ignores_cycle_through_frontier():
    # at truncation 0 domain 1 is a frontier marker; giving it an edge
    # back to the base makes 0 -> 1 -> 0 the only cycle
    g = build_tower(CHEB, 0)
    assert g.frontier == {1}
    g.edges[(1, 0)] = 0
    with pytest.raises(ValueError):
        recurrent_witness_domain(g)


# nodes x symbols successor tables, -1 (drawn often) for an absent edge
SUCCESSOR_TABLES = st.tuples(st.integers(1, 24), st.integers(1, 3)).flatmap(
    lambda nk: st.lists(st.lists(st.just(-1) | st.integers(0, nk[0] - 1),
                                 min_size=nk[1], max_size=nk[1]),
                        min_size=nk[0], max_size=nk[0]))


@settings(max_examples=300, deadline=None)
@given(SUCCESSOR_TABLES)
def test_strong_components_match_reachability_oracle(table):
    labels = strong_components(np.array(table))
    assert sorted(set(labels.tolist())) == list(range(labels.max() + 1))
    assert {frozenset(np.flatnonzero(labels == k).tolist())
            for k in set(labels.tolist())} == strong_partition(table)


def test_strong_components_of_a_long_cycle_and_path():
    # no recursion: 200,000 nodes deep is one pass of the work stack
    n = 200_000
    cycle = (np.arange(1, n + 1) % n)[:, None]
    assert np.all(strong_components(cycle) == 0)
    path = np.append(np.arange(1, n), -1)[:, None]
    assert len(np.unique(strong_components(path))) == n


def test_choose_w_base_margin_zero_is_whole_base(cheb_graph):
    w = choose_W(cheb_graph, 0, F(0))
    assert w.arcs == ArcSet.full_circle() and w.length == 1


def test_choose_w_cuts_two_notches(cheb_graph):
    w = choose_W(cheb_graph, 2, F(1, 32))
    assert len(w.arcs.components) == 2
    assert w.length == F(7, 8)
    assert w.arcs.to_pairs() == [["1/32", "15/32"], ["17/32", "31/32"]]


def test_choose_w_tiny_margin_notches_exactly():
    # a margin far below the lattice spacing removes 2 * margin around
    # each cutpoint angle, with no notch clipped or merged
    g = build_tower(DEND, 6)
    margin = F(1, 10**12)
    for dom in g.domains.values():
        if dom.cutpoints:
            w = choose_W(g, dom, margin)
            centers = dom.cutpoint_angles()
            assert w.length == (dom.arcset.length()
                                - 2 * margin * len(centers))


def test_choose_w_rejects_huge_margin(cheb_graph):
    with pytest.raises(ValueError, match="no witness region"):
        choose_W(cheb_graph, 2, F(1, 2))


def test_choose_w_rejects_zero_margin_with_cutpoints(cheb_graph):
    with pytest.raises(ValueError, match="positive margin"):
        choose_W(cheb_graph, 2, F(0))


def test_choose_w_rejects_negative_margin(cheb_graph):
    with pytest.raises(ValueError, match="nonnegative"):
        choose_W(cheb_graph, 0, F(-1, 64))


# -- first return bookkeeping ------------------------------------------


def test_first_return_frozen_counts(cheb_system):
    assert cheb_system.return_count == 575878
    assert len(cheb_system.censored_sample) == 766
    assert cheb_system.return_time.min() >= 1
    assert tau_additive(cheb_system)


def test_return_locations_inside_witness(cheb_system, cheb_ens,
                                          cheb_witness):
    arcs = cheb_witness.arcs
    for i in range(0, cheb_system.return_count, 50_000):
        s = int(cheb_system.sample_index[i])
        t = int(cheb_system.entry_step[i])
        tau = int(cheb_system.return_time[i])
        for step in (t, t + tau):
            assert cheb_ens.states[s, step] == cheb_witness.domain_id
            assert contains(arcs, angle_at(cheb_ens, s, step))


def test_single_trace_returns_match_manual_scan(cheb_system, cheb_ens,
                                                cheb_witness):
    s = 0
    visits = [k for k in range(cheb_ens.horizon)
              if cheb_ens.states[s, k] == cheb_witness.domain_id
              and contains(cheb_witness.arcs, angle_at(cheb_ens, s, k))]
    mine = cheb_system.sample_index == s
    assert cheb_system.entry_step[mine].tolist() == visits[:-1]
    assert cheb_system.return_time[mine].tolist() == list(
        np.diff(visits))
    assert int(cheb_system.censored_entry[
        cheb_system.censored_sample == s][0]) == visits[-1]


def test_branch_word_matches_itinerary(cheb_system, cheb_ens, cheb_part):
    for i in (0, 1234, 500_000):
        s = int(cheb_system.sample_index[i])
        t = int(cheb_system.entry_step[i])
        tau = int(cheb_system.return_time[i])
        word = cheb_system.branch_word(i)
        assert word == itinerary(angle_at(cheb_ens, s, t), cheb_part, tau)


def test_first_return_rejects_empty_witness(cheb_ens):
    empty = WitnessRegion(2, ArcSet.empty(), F(1, 64))
    with pytest.raises(ValueError, match="empty"):
        first_return(cheb_ens, empty)


def route_recorder(monkeypatch):
    """Each kernel call of the streams router as it runs: the route,
    "backward", "int64" or "python", and the denominator it steps over."""
    seen = []
    scan, forward = streams.dyadic_symbol_streams, streams.cell_streams

    def backward(nums, K, n, cells):
        seen.append(("backward", cells.d ** K))
        return scan(nums, K, n, cells)

    def stepped(nums, den, n, cells):
        seen.append(("int64" if streams.fits_int64(den, cells.lattice,
                                                   cells.d) else "python",
                     den))
        return forward(nums, den, n, cells)

    monkeypatch.setattr(streams, "dyadic_symbol_streams", backward)
    monkeypatch.setattr(streams, "cell_streams", stepped)
    return seen


ROUTE_CASES = {
    # (ray choice, witness margin, ensemble, route of the witness test)
    "brolin-cheb": (CHEB, F(1, 64), "brolin", "backward"),
    "brolin-cubic": (CUBIC, F(1, 64), "brolin", "backward"),
    # the backward table takes 2 * 3 * 2^15 rows at one digit a block,
    # but not 2 * 3 * 2^19 (more than 2^20)
    "fine-witness": (DEND, F(1, 2 ** 15), "brolin", "backward"),
    "finer-witness": (DEND, F(1, 2 ** 19), "brolin", "python"),
    # the lcm of 2^K and 2^10 - 1 is neither d-adic nor int64-sized, so
    # the whole ensemble steps over it on Python ints
    "mixed": (CHEB, F(1, 64), "mixed", "python"),
}


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_first_return_visits_match_oracle_on_every_route(monkeypatch, case):
    rc, margin, kind, route = ROUTE_CASES[case]
    n = 160
    g = build_tower(rc, 4, extra_levels=n)
    w = choose_W(g, recurrent_witness_domain(g), margin)
    angles = brolin_samples(g.partition, 24, n, seed=3).angles
    if kind == "mixed":
        angles += brolin_period_samples(g.partition, 24, 5, bits=10).angles
    mu = boundary_measure([(a, 1 / len(angles)) for a in angles])
    ens = make_ensemble(mu, g, n)
    seen = route_recorder(monkeypatch)
    ind = first_return(ens, w)
    assert seen == [(route, ens.den)]
    got = sorted(zip(ind.sample_index.tolist(), ind.entry_step.tolist()))
    got += sorted(zip(ind.censored_sample.tolist(),
                      ind.censored_entry.tolist()))
    want = [(s, k) for s in range(ens.count) for k in range(n)
            if ens.states[s, k] == w.domain_id
            and contains(w.arcs, angle_at(ens, s, k))]
    # a sample's returns start at each visit but its last, which opens
    # its censored record
    last = {s: k for s, k in want}
    assert got == ([(s, k) for s, k in want if last[s] != k]
                   + sorted(last.items()))
    assert ind.return_count > ens.count


def test_first_return_reads_wide_common_denominator(cheb_graph,
                                                    cheb_witness):
    # each denominator fits the int64 membership kernel, their lcm does
    # not: the pair steps over the lcm on Python ints, and each sample
    # reads as if measured alone
    angles = (F(5, 2 ** 31 - 1), F(7, 2 ** 31 - 3))
    part = cheb_graph.partition
    mu = custom_measure([(a, 0.5) for a in angles], part, provenance="custom")
    assert not fits_int64(mu.den, cheb_witness.arcs.den, 2)
    ind = first_return(make_ensemble(mu, cheb_graph, 300), cheb_witness)
    for s, a in enumerate(angles):
        alone = custom_measure([(a, 1.0)], part, provenance="custom")
        alone = first_return(make_ensemble(alone, cheb_graph, 300),
                             cheb_witness)
        mine = ind.sample_index == s
        assert ind.entry_step[mine].tolist() == alone.entry_step.tolist()
        assert ind.return_time[mine].tolist() == alone.return_time.tolist()
    assert ind.return_count > 0


def test_shorter_horizon_is_prefix(cheb_mu, cheb_graph, cheb_witness,
                                   cheb_system):
    short = first_return(make_ensemble(cheb_mu, cheb_graph, 400),
                         cheb_witness)
    assert tau_additive(short)
    assert short.return_count < cheb_system.return_count
    full = cheb_system.entry_step[(cheb_system.sample_index == 0)]
    part = short.entry_step[(short.sample_index == 0)]
    assert part.tolist() == full[:len(part)].tolist()


RECORDS = ("sample_index", "entry_step", "return_time", "censored_sample",
           "censored_entry")


def test_first_return_blocks_match_the_dense_fill(monkeypatch, cheb_graph):
    # 100 samples traced to three horizons, read in one block, in blocks
    # of 7 samples (the last holds 2) and of 1 sample, against the dense
    # fill of the first h steps of a 300-step ensemble; at horizon 5 some
    # samples visit the witness never and some once
    mu = brolin_period_samples(cheb_graph.partition, 100, seed=5, bits=12)
    ens = make_ensemble(mu, cheb_graph, 300)
    w = choose_W(cheb_graph, 2, F(1, 64))
    for h in (300, 37, 5):
        want = dense_first_return(ens, w, h)
        short = make_ensemble(mu, cheb_graph, h)
        for cells, width in ((streams._BLOCK_CELLS, 100), (7 * h, 7), (h, 1)):
            monkeypatch.setattr(streams, "_BLOCK_CELLS", cells)
            assert min(streams._block_width(h), 100) == width
            ind = first_return(short, w)
            for name, arr in zip(RECORDS, want):
                got = getattr(ind, name)
                assert got.dtype == np.int32, name
                assert np.array_equal(got, arr), (h, cells, name)
        monkeypatch.undo()
    counts = np.bincount(ind.visits_per_sample)
    assert counts[0] > 0 and counts[1] > 0 and len(counts) > 2


def test_first_return_holds_its_records_and_one_block(cheb_ens, cheb_witness,
                                                      cheb_system):
    # the dense fill held the whole visit matrix, its np.nonzero pair and
    # int64 records (31 MB here); the blocked one its int32 records and,
    # per cell of one block, at most np.nonzero's two intp indices and one
    # intp temporary
    tracemalloc.start()
    try:
        ind = first_return(cheb_ens, cheb_witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    records = sum(getattr(ind, name).nbytes for name in RECORDS)
    assert records == 4 * (3 * ind.return_count + 2 * len(ind.censored_sample))
    cells = streams._block_width(ind.horizon) * ind.horizon
    assert cells < cheb_ens.count * ind.horizon / 2
    assert peak <= records + 3 * 8 * cells
    for name in RECORDS:
        assert np.array_equal(getattr(ind, name), getattr(cheb_system, name))


# -- Kac ----------------------------------------------------------------


def test_kac_identity_on_recurrent_witness(cheb_system, cheb_mass):
    kr = kac_check(cheb_system, 8)
    assert kr.verdict == "ok"
    assert kr.censor_fraction < 0.005
    assert kr.relative_error <= 0.05
    assert kr.relative_error < 0.01
    assert kr.per_sample_error < 0.005
    assert kr.mean_tau == pytest.approx(2.1207, abs=0.002)
    assert kr.witness_mass == pytest.approx(0.5 * 15 / 16, abs=0.01)
    assert kr.domain_mass_lift == pytest.approx(0.5, abs=0.01)
    # the first return's own walk gives the Cesaro lift to the bit
    witness = cheb_system.witness.domain_id
    assert kr.domain_mass_lift == cheb_mass.mass[witness]


def test_kac_dendrite_level_one_witness():
    part = build_partition(DEND)
    g = build_tower(DEND, 8, extra_levels=64)
    mu = brolin_period_samples(part, 768, seed=22, bits=16)
    ens = make_ensemble(mu, g, 1600)
    w = choose_W(g, recurrent_witness_domain(g).id, F(1, 64))
    assert w.domain_id == 1
    sys = first_return(ens, w)
    kr = kac_check(sys, 8)
    assert kr.verdict == "ok"
    # per-cycle witness frequencies are strongly heterogeneous on the
    # dendrite tower, so the pooled identity carries a real bias of a
    # few percent; the per-sample renewal version stays tight
    assert 0.03 < kr.relative_error < 0.08
    assert kr.per_sample_error < 0.01
    assert kr.witness_mass == pytest.approx(0.32, abs=0.02)


def test_kac_dirac_loop_mean_tau_is_reciprocal_mass(dirac_system,
                                                    cheb_graph):
    _, ens, sys = dirac_system
    assert np.all(sys.return_time == 1)
    kr = kac_check(sys, 8)
    assert kr.mean_tau == 1.0
    assert kr.witness_mass == pytest.approx(199 / 200, abs=1e-12)
    assert kr.relative_error < 0.01
    assert kr.domain_mass_lift == pytest.approx(199 / 200, abs=1e-12)
    assert kr.domain_mass_lift == lift_cesaro(ens, 200, 8).mass[1]


def test_kac_domain_mass_is_the_cesaro_lift_with_unequal_weights(
        cheb_graph):
    # unequal weights over samples of several denominators: the marked
    # weights summed in sample order, as np.bincount adds them, then the
    # steps in order; a witness domain above R reads 0.0
    mu = custom_measure([(F(k, 97), k / 820) for k in range(1, 41)],
                        cheb_graph.partition, provenance="custom")
    ens = make_ensemble(mu, cheb_graph, 300)
    for domain in (1, 2):
        sys = first_return(ens, choose_W(cheb_graph, domain, F(1, 64)))
        level = cheb_graph.domains[domain].level
        for R in (level, 8):
            assert kac_check(sys, R).domain_mass_lift == \
                lift_cesaro(ens, 300, R).mass.get(domain, 0.0), (domain, R)
        assert kac_check(sys, level - 1).domain_mass_lift == 0.0


def test_kac_inconclusive_under_heavy_censoring(cheb_mu, cheb_graph,
                                               cheb_witness):
    sys = first_return(make_ensemble(cheb_mu, cheb_graph, 8), cheb_witness)
    kr = kac_check(sys, 8)
    assert kr.censor_fraction > 0.05
    assert kr.verdict == "inconclusive"


def test_kac_degenerate_without_returns(dirac_system, cheb_graph):
    mu, ens, _ = dirac_system
    base_w = choose_W(cheb_graph, 0, F(0))
    sys = first_return(ens, base_w)
    assert sys.return_count == 0
    assert len(sys.censored_sample) == 1
    kr = kac_check(sys, 8)
    assert kr.verdict == "degenerate"
    assert math.isnan(kr.mean_tau)


# -- expansion and Abramov ----------------------------------------------


def test_expansion_minima_frozen(cheb_expansion):
    er = cheb_expansion
    assert not er.degenerate
    assert er.branch_count == 575878
    assert er.excluded_samples == ()
    # single-step branches crossing the critical angle contract, so the
    # N=1 minimum sits well below 1; expansion past 2 arrives at N=4
    assert 0.15 < er.min_branch < 0.25
    assert er.min_branch < 1.0
    assert er.n_two == 4
    assert er.min_by_n[3] < 1.0
    assert er.min_by_n[4] >= 2.0
    assert er.min_by_n[5] > 3.0


def test_expansion_telescoping_floor(cheb_expansion):
    # along any block the product 2^tau sin(2 pi a_end)/sin(2 pi a_start)
    # is bounded below via the notch margin: endpoints keep angular
    # distance >= 1/64 from {0, 1/2}
    floor = math.sin(2 * math.pi / 64) * 0.999
    for N, value in cheb_expansion.min_by_n.items():
        assert value >= 2.0 ** N * floor


def test_abramov_lyapunov_scaling(cheb_expansion):
    er = cheb_expansion
    assert er.lambda_f == pytest.approx(math.log(2), rel=1e-6)
    assert er.lambda_error < 0.05
    assert er.lambda_error < 0.01
    assert er.witness_frequency == pytest.approx(0.469, abs=0.005)
    assert er.lambda_induced == pytest.approx(
        er.witness_frequency ** -1 * math.log(2), rel=0.02)


def test_abramov_entropy_scaling(cheb_expansion):
    er = cheb_expansion
    assert er.entropy_error < 0.05
    assert er.entropy_rate == pytest.approx(math.log(2), abs=0.02)
    assert er.distinct_words == 53
    # the one-block plugin upper-bounds the induced entropy rate
    assert er.entropy_induced_block > er.entropy_induced_rate
    assert er.entropy_induced_rate * er.witness_frequency == pytest.approx(
        math.log(2), rel=0.05)


def test_expansion_matches_dense_formula(cheb_system, cheb_solver,
                                         cheb_expansion):
    # 768 samples in blocks of 163: four full blocks and one of 116
    width = streams._block_width(cheb_system.horizon)
    assert cheb_system.ensemble.count > 3 * width
    assert cheb_system.ensemble.count % width
    assert cheb_expansion == dense_expansion_and_abramov(cheb_system,
                                                         cheb_solver)


def test_expansion_blocks_skip_an_unlandable_sample(monkeypatch, cheb_graph,
                                                    cheb_solver):
    # 100 samples in blocks of 7 (the last holds 2), sample 40 unlandable:
    # its returns and its row drop out as in the dense formula
    mu = brolin_period_samples(cheb_graph.partition, 100, seed=5, bits=12)
    ind = first_return(make_ensemble(mu, cheb_graph, 300),
                       choose_W(cheb_graph, 2, F(1, 64)))
    land_many = LandingSolver.land_many

    def one_fails(self, angles):
        slots = land_many(self, angles)
        slots[40] = LandingError("forced")
        return slots

    monkeypatch.setattr(LandingSolver, "land_many", one_fails)
    want = dense_expansion_and_abramov(ind, cheb_solver)
    assert want.excluded_samples == ((40, "forced"),)
    assert want.branch_count < ind.return_count
    for cells in (streams._BLOCK_CELLS, 7 * 300):
        monkeypatch.setattr(streams, "_BLOCK_CELLS", cells)
        assert expansion_and_abramov(ind, cheb_solver) == want, cells
    assert streams._block_width(300) == 7


def test_unequal_weights_match_the_dense_forms(cheb_graph, cheb_solver):
    # unequal weights sum by np.bincount of the keys' places, not by T[c]
    mu = brolin_period_samples(cheb_graph.partition, 100, seed=5, bits=12)
    w = np.random.default_rng(1).uniform(0.5, 1.5, 100)
    mu = custom_measure(list(zip(mu.angles, w / w.sum())),
                        cheb_graph.partition, provenance="custom")
    ind = first_return(make_ensemble(mu, cheb_graph, 300),
                       choose_W(cheb_graph, 2, F(1, 64)))
    assert inducing._count_sums(ind.weights, 0) is None
    assert expansion_and_abramov(ind, cheb_solver) == \
        dense_expansion_and_abramov(ind, cheb_solver)
    assert ind.tau_histogram() == dense_tau_histogram(ind)


def test_count_sums_read_the_weighted_sums_to_the_bit(monkeypatch,
                                                      cheb_system,
                                                      cheb_solver,
                                                      cheb_expansion):
    # equal weights read word and pair masses as T[c] off sorted runs, and
    # tau weights as pairwise sums of c copies: the same bits as the
    # weighted paths, forced here on the same returns
    rows = cheb_system.tau_histogram()
    assert rows == dense_tau_histogram(cheb_system)
    monkeypatch.setattr(inducing, "_count_sums", lambda w, size=None: None)
    assert expansion_and_abramov(cheb_system, cheb_solver) == cheb_expansion
    assert cheb_system.tau_histogram() == rows


def test_expansion_holds_no_samples_by_horizon_matrix(cheb_ens, cheb_graph,
                                                      cheb_solver):
    # a level-5 witness on the 768 x 1600 fixture: few enough returns that
    # the report fits below one samples x horizon float matrix, which the
    # dense formula held three times over
    ind = first_return(cheb_ens, choose_W(cheb_graph, 5, F(1, 64)))
    assert ind.return_count > 50_000
    tracemalloc.start()
    try:
        er = expansion_and_abramov(ind, cheb_solver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not er.degenerate
    assert peak < cheb_ens.count * ind.horizon * 8


def test_expansion_peak_stays_below_five_return_arrays(cheb_system,
                                                      cheb_solver):
    # each array of one value per return is dropped before the next is
    # made; the word codes and their sorted copy, with the branch-sum
    # blocks, are the most alive at once (2.7 such arrays here)
    tracemalloc.start()
    try:
        expansion_and_abramov(cheb_system, cheb_solver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cheb_system.return_count > 500_000
    assert peak < 3 * cheb_system.return_count * 8


def test_lift_cesaro_holds_less_than_the_state_matrix(cheb_ens, cheb_mass):
    tracemalloc.start()
    try:
        mass = lift_cesaro(cheb_ens, 1600, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mass == cheb_mass
    assert peak < cheb_ens.states.nbytes


def test_make_ensemble_holds_less_than_the_state_matrix(cheb_mu, cheb_graph,
                                                        cheb_witness):
    # the 768 x 1600 ensemble is its symbol streams and walk table; the
    # readers fold the walk, and none of them makes the state matrix
    h = 1600
    tracemalloc.start()
    try:
        ens = make_ensemble(cheb_mu, cheb_graph, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ens.count * (h + 1) * 4
    first_return(ens, cheb_witness)
    lift_cesaro(ens, h, 8)
    assert "states" not in vars(ens)


def test_expansion_degenerate_report(dirac_system, cheb_graph,
                                     cheb_solver):
    mu, ens, _ = dirac_system
    sys = first_return(ens, choose_W(cheb_graph, 0, F(0)))
    er = expansion_and_abramov(sys, cheb_solver)
    assert er.degenerate
    assert er.branch_count == 0
    assert er.min_branch is None and er.n_two is None


# -- invariants and exports ----------------------------------------------


def test_tau_histogram_csv_exact(dirac_system):
    _, _, sys = dirac_system
    assert tau_histogram_csv(sys) == (
        "kind,tau,count,weight\n"
        "return,1,198,198\n"
        "censored,,1,1\n")


def test_tau_histogram_weights_sum(cheb_system):
    rows = cheb_system.tau_histogram()
    assert sum(c for _, c, _ in rows) == cheb_system.return_count
    total = sum(w for _, _, w in rows)
    exp = float(cheb_system.weights[cheb_system.sample_index].sum())
    assert total == pytest.approx(exp, rel=1e-9)


def test_branch_words_csv_frozen_head(cheb_system):
    assert branch_words_csv(cheb_system, limit=3) == (
        "sample,entry,tau,word\n"
        "0,2,2,10\n"
        "0,4,2,10\n"
        "0,6,1,0\n")


def test_to_json_round_trips(cheb_system, cheb_expansion):
    import json
    blob = json.dumps([kac_check(cheb_system, 8).to_json(),
                       cheb_expansion.to_json()])
    assert json.loads(blob)[0]["verdict"] == "ok"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(0, 1, max_denominator=61),
                min_size=1, max_size=6, unique=True),
       st.integers(5, 40))
def test_bookkeeping_properties(angles, n):
    uniq = sorted({a % 1 for a in angles})
    pairs = [(a, 1.0 / len(uniq)) for a in uniq]
    mu = boundary_measure(pairs)
    ens = make_ensemble(mu, PROP_GRAPH, n)
    sys = first_return(ens, choose_W(PROP_GRAPH, 2, F(1, 64)))
    assert tau_additive(sys)
    if sys.return_count:
        assert sys.return_time.min() >= 1
    visits = sys.visits_per_sample
    assert sys.visits_per_sample is visits
    returns = np.bincount(sys.sample_index, minlength=ens.count)
    censored = np.bincount(sys.censored_sample, minlength=ens.count)
    assert np.all(censored == (visits > 0).astype(int))
    assert np.all(visits == returns + censored)
    for i in range(sys.return_count):
        s = int(sys.sample_index[i])
        t = int(sys.entry_step[i])
        assert ens.states[s, t] == 2
        assert contains(sys.witness.arcs, angle_at(ens, s, t))


@pytest.mark.parametrize("margin", [F(1, 64), F(1, 2 ** 22)],
                         ids=["dense", "bisected"])
def test_first_return_visits_match_exact_membership(margin):
    # at margin 2^-22 the witness denominator, 3 * 2^22, is too fine for a
    # dense cell table; either way a visit is exactly a step in the domain
    # with the angle in the notched arc-set, also at the notch edges
    g = build_tower(DEND, 4, extra_levels=40)
    dom = recurrent_witness_domain(g)
    w = choose_W(g, dom, margin)
    angles = [(c + margin * t) % 1 for c in dom.cutpoint_angles()
              for t in (F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2))]
    angles += brolin_period_samples(g.partition, 40, 3, bits=10).angles
    n = 30
    ens = make_ensemble(boundary_measure([(a, 1 / len(angles))
                                          for a in angles]), g, n)
    ind = first_return(ens, w)
    got = (set(zip(ind.sample_index.tolist(), ind.entry_step.tolist()))
           | set(zip(ind.censored_sample.tolist(),
                     ind.censored_entry.tolist())))
    want = {(s, k) for s in range(ens.count) for k in range(n)
            if ens.states[s, k] == dom.id
            and contains(w.arcs, angle_at(ens, s, k))}
    assert w.arcs.den > 1 << 20 or margin == F(1, 64)
    assert got == want
    assert any(k > 0 for _, k in want)
