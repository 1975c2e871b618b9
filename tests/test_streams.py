"""Vectorized symbol streams and tower walks against the exact oracles."""

import math
import re
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from angletower import streams as streams_module
from angletower.angles import (CirclePartition, RayChoice, build_partition,
                               itinerary, is_strictly_preperiodic)
from angletower.inducing import (choose_W, first_return,
                                 recurrent_witness_domain)
from angletower.lifting import (brolin_period_samples, brolin_samples,
                                make_ensemble)
from angletower.streams import (cell_streams, common_numerators,
                                dyadic_symbol_streams, is_dyadic,
                                symbol_cells, symbol_matrix, trace_ensemble,
                                walk_table, window_digits)
from angletower.tower import TowerTooShallow, build_tower

from oracles import angle_at, trace

CHEB = RayChoice(2, (F(1, 2),))
DEND = RayChoice(2, (F(1, 6),))
PAIR = RayChoice(2, (F(5, 12), F(7, 12)))
CUBIC = RayChoice(3, (F(1, 6),))

PARTITIONS = [build_partition(rc) for rc in (CHEB, DEND, PAIR)]

# d = 4 on the lattice of 1/160: a base-4 digit times the lattice, up to
# 3 * 160, does not fit the uint8 digits it is scaled from
QUARTIC_FINE = build_partition(RayChoice(4, (F(1, 40),)))

# 7^25 > 2^62 is not a divisor of any power of 2, 3 or 4, so angles over
# it take the exact Python-int route for every degree tested here
WIDE = 7 ** 25


def test_is_dyadic():
    assert is_dyadic(F(0), 2)
    assert is_dyadic(F(3, 8), 2)
    assert is_dyadic(F(1, 1 << 40), 2)
    assert not is_dyadic(F(1, 3), 2)
    assert not is_dyadic(F(5, 24), 2)
    # base d: the denominator divides a power of d
    assert is_dyadic(F(5, 3 ** 30), 3)
    assert not is_dyadic(F(1, 32), 3)
    assert is_dyadic(F(1, 2 ** 7), 4)
    assert is_dyadic(F(7, 36), 6)
    assert not is_dyadic(F(1, 18), 2)


def test_window_digits_fill_64_bits():
    for d in (2, 3, 4, 5, 10):
        w = window_digits(d)
        assert d ** w <= 1 << 64 < d ** (w + 1)
    assert window_digits(2) == 64


@pytest.mark.parametrize("part", PARTITIONS,
                         ids=["cheb", "dend", "pair"])
def test_dyadic_streams_match_itinerary(part):
    n = 40
    K = n + 64
    rng = np.random.default_rng(99)
    numerators = [(int.from_bytes(rng.bytes((K + 7) // 8), "big")
                   % (1 << K)) | 1 for _ in range(25)]
    streams = dyadic_symbol_streams(numerators, K, n, symbol_cells(part))
    for j, row in zip(numerators, streams):
        assert list(row) == list(itinerary(F(j, 1 << K), part, n))


@pytest.mark.parametrize("rc", [CHEB, DEND, PAIR],
                         ids=["cheb", "dend", "pair"])
def test_trace_rationals_match_itinerary(rc):
    g = build_tower(rc, 4, extra_levels=30)
    angles = (F(1, 3), F(2, 7), F(13, 17), F(9, 31), F(5, 96), F(0))
    ens = trace_ensemble(angles, [1 / 6] * 6, g, 30)
    for row, a in zip(ens.symbols, angles):
        assert list(row) == list(itinerary(a, g.partition, 30))


def test_boundary_prefix_tie_uses_exact_fallback():
    # an odd dyadic numerator whose top 64 bits coincide with those of
    # the non-dyadic boundary angle 5/24: no prefix of its digits decides
    # its arc, the exact backward cell scan does
    part = build_partition(PAIR)
    n = 20
    K = n + 64
    j = ((5 << K) // 24) | 1
    assert j >> (K - 64) == (5 << 64) // 24
    streams = dyadic_symbol_streams([j], K, n, symbol_cells(part))
    assert list(streams[0]) == list(itinerary(F(j, 1 << K), part, n))


def test_cubic_boundary_prefix_tie_uses_exact_fallback(monkeypatch):
    # d = 3 cuts the circle at 1/18, 7/18 and 13/18, none of them 3-adic.
    # j = floor(3^K / 18) is 1 mod 3, and its top 40 ternary digits are
    # those of 1/18, which tied a 40-digit window in an earlier kernel.
    # The backward cell scan is exact on every sample, so it never falls
    # back to per-angle Fraction arithmetic.
    part = build_partition(CUBIC)
    assert [str(b) for b in part.boundary] == ["1/18", "7/18", "13/18"]
    n = 30
    W = window_digits(3)
    K = n + W
    j = 3 ** K // 18
    assert j % 3 and j // 3 ** (K - W) == 3 ** W // 18
    rng = np.random.default_rng(5)
    numerators = [int.from_bytes(rng.bytes(16), "big") % 3 ** K // 3 * 3 + 1
                  for _ in range(6)]
    numerators.insert(2, j)
    fallback = []
    symbol_of = CirclePartition.symbol_of

    def counted(self, a):
        fallback.append(a)
        return symbol_of(self, a)

    monkeypatch.setattr(CirclePartition, "symbol_of", counted)
    streams = dyadic_symbol_streams(numerators, K, n, symbol_cells(part))
    assert fallback == []
    monkeypatch.undo()
    for num, row in zip(numerators, streams):
        assert list(row) == list(itinerary(F(num, 3 ** K), part, n))


def test_dyadic_boundary_tie_is_exact_without_fallback():
    # hitting a pure-dyadic boundary angle exactly must pick the arc that
    # starts there (half-open arcs)
    part = build_partition(CHEB)
    K = 84
    j = 1 << (K - 2)
    streams = dyadic_symbol_streams([j], K, 20, symbol_cells(part))
    assert list(streams[0]) == list(itinerary(F(1, 4), part, 20))


def test_walk_table_matches_edges():
    g = build_tower(CHEB, 6, extra_levels=4)
    table, levels = walk_table(g)
    assert table.shape == (len(g.domains), g.partition.size)
    for (src, sym), dst in g.edges.items():
        assert table[src, sym] == dst
    for i, dom in g.domains.items():
        assert levels[i] == dom.level
    # frontier rows carry no successors
    for i in g.frontier:
        assert (table[i] == -1).all()


@pytest.fixture(scope="module")
def cheb_graph():
    return build_tower(CHEB, 8, extra_levels=60)


def test_trace_ensemble_shapes_and_base(cheb_graph):
    angles = (F(0), F(1, 3), F(3, 1 << 30))
    ens = trace_ensemble(angles, [0.25, 0.25, 0.5], cheb_graph, 50)
    assert ens.count == 3
    assert ens.horizon == 50
    assert ens.states.shape == (3, 51)
    assert (ens.states[:, 0] == 0).all()
    assert ens.symbols.shape == (3, 50)


def test_trace_states_follow_edges(cheb_graph):
    g = cheb_graph
    ens = trace_ensemble((F(1, 3), F(1, 5)), [0.5, 0.5], g, 40)
    for s in range(2):
        for k in range(40):
            key = (int(ens.states[s, k]), int(ens.symbols[s, k]))
            assert g.edges[key] == ens.states[s, k + 1]


def test_trace_symbols_match_itinerary_mixed(cheb_graph):
    part = cheb_graph.partition
    angles = (F(5, 7), F(9, 1 << 20), F(1, 3), F(11, 1 << 33))
    ens = trace_ensemble(angles, [0.25] * 4, cheb_graph, 30)
    for s, a in enumerate(angles):
        assert list(ens.symbols[s]) == list(itinerary(a, part, 30))


def test_angle_at_and_level_gather(cheb_graph):
    ens = trace_ensemble((F(1, 7),), [1.0], cheb_graph, 12)
    assert angle_at(ens, 0, 0) == F(1, 7)
    assert angle_at(ens, 0, 3) == F(8, 7) % 1
    lv = ens.levels[ens.states]
    assert lv.shape == ens.states.shape
    assert lv[0, 0] == 0


def test_wide_mixed_denominators_step_once_over_the_lcm(monkeypatch,
                                                        cheb_graph):
    # the lcm of many small primes is far too wide for int64, while each
    # sample alone fits: the ensemble takes one route, a single call that
    # steps every sample over the lcm on Python ints
    primes = [p for p in range(3, 300) if all(p % q for q in range(2, p))]
    angles = tuple(F(1 + p // 2, p) for p in primes)
    seen = []
    kernel = streams_module.cell_streams

    def recording(nums, den, *args):
        seen.append(den)
        return kernel(nums, den, *args)

    monkeypatch.setattr(streams_module, "cell_streams", recording)
    ens = trace_ensemble(angles, np.full(len(angles), 1 / len(angles)),
                         cheb_graph, 30)
    assert ens.den == math.prod(primes)
    assert ens.angles == angles
    assert seen == [ens.den]
    assert not streams_module.fits_int64(ens.den,
                                         cheb_graph.partition.lattice, 2)
    for s, a in enumerate(angles):
        assert list(ens.symbols[s]) == list(itinerary(a, cheb_graph.partition,
                                                      30))


# ensembles of each kind, over n = 60 steps of the Chebyshev partition,
# and the one kernel their den picks: 2^124 is d-adic and too wide for
# int64; the lcm of 2^124 and 2^6 - 1 is neither d-adic nor int64-sized
ONE_ROUTE_CASES = {
    "brolin": (lambda p: brolin_samples(p, 40, 60, seed=1).angles,
               "dyadic_symbol_streams"),
    "periodic": (lambda p: brolin_period_samples(p, 40, 1, bits=6).angles,
                 "cell_streams"),
    "wide-prime": (lambda p: (F(3, 2 ** 61 - 1), F(5, 2 ** 31 - 1)),
                   "cell_streams"),
    "mixed": (lambda p: (brolin_samples(p, 20, 60, seed=1).angles
                         + brolin_period_samples(p, 20, 1, bits=6).angles),
              "cell_streams"),
}


@pytest.mark.parametrize("case", ONE_ROUTE_CASES)
def test_symbol_matrix_makes_one_kernel_call(monkeypatch, cheb_graph, case):
    draw, kernel = ONE_ROUTE_CASES[case]
    calls = []
    for name in ("cell_streams", "dyadic_symbol_streams"):
        def counted(*args, name=name, run=getattr(streams_module, name)):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(streams_module, name, counted)
    angles = draw(cheb_graph.partition)
    ens = trace_ensemble(angles, np.full(len(angles), 1 / len(angles)),
                         cheb_graph, 60)
    assert calls == [kernel]
    for s, a in enumerate(angles):
        assert list(ens.symbols[s]) == list(itinerary(a, cheb_graph.partition,
                                                      60))


def test_trace_rejects_bad_inputs(cheb_graph):
    with pytest.raises(ValueError):
        trace_ensemble((F(1, 3),), [0.5, 0.5], cheb_graph, 10)
    with pytest.raises(ValueError):
        trace_ensemble((F(1, 3),), [1.0], cheb_graph, 0)


def test_frontier_reached_reports_deficit():
    g = build_tower(CHEB, 3)
    # 1/8 climbs one level per step and exits the expanded region; the
    # ensemble holds its symbols, and its first walk raises
    ens = trace_ensemble((F(1, 8),), [1.0], g, 12)
    with pytest.raises(TowerTooShallow) as exc:
        ens.states
    step, extra = map(int, re.fullmatch(
        r"trace needs an out-edge of a frontier domain at step (\d+); "
        r"rebuild the tower with extra_levels at least (\d+) larger",
        str(exc.value)).groups())
    assert extra >= 12 - 1 - g.expand_limit
    assert 1 <= step <= 12


@pytest.mark.parametrize("cells", [50, 100, 150, streams_module._BLOCK_CELLS])
def test_frontier_in_a_later_block(monkeypatch, cells):
    # 50 Brolin samples first stand on a frontier domain after 4 steps:
    # in blocks of 1, 2 and 3 steps the walk meets it in a later block, at
    # its first, second and third column, and in one block otherwise
    g = build_tower(CHEB, 3)
    n = 300
    mu = brolin_samples(g.partition, 50, n, seed=2)
    exits = [trace(a, g, n).exit_step for a in mu.angles]
    step = min(k for k in exits if k is not None) + 1
    assert step == 5
    monkeypatch.setattr(streams_module, "_BLOCK_CELLS", cells)
    ens = make_ensemble(mu, g, n)
    walked = []
    with pytest.raises(TowerTooShallow) as exc:
        ens.fold(n, SimpleNamespace(add=lambda k0, block: walked.append(k0)))
    # every block before the one holding the step came out of the walk
    width = streams_module._block_width(50)
    assert walked == list(range(0, step - step % width, width))
    extra = n - 1 - g.expand_limit
    assert str(exc.value) == (
        f"trace needs an out-edge of a frontier domain at step {step}; "
        f"rebuild the tower with extra_levels at least {extra} larger")


def test_trace_is_deterministic(cheb_graph):
    angles = (F(3, 1 << 24), F(2, 5))
    a = trace_ensemble(angles, [0.5, 0.5], cheb_graph, 25)
    b = trace_ensemble(angles, [0.5, 0.5], cheb_graph, 25)
    assert (a.symbols == b.symbols).all()
    assert (a.states == b.states).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 30) - 1),
       st.sampled_from([0, 1, 2]))
def test_dyadic_stream_property(num, which):
    part = PARTITIONS[which]
    j = (num << 34) | 1
    K = 30 + 64
    streams = dyadic_symbol_streams([j], K, 30, symbol_cells(part))
    assert list(streams[0]) == list(itinerary(F(j, 1 << K), part, 30))


@pytest.fixture(scope="module")
def dend_graph():
    return build_tower(DEND, 4, extra_levels=30)


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=997))
def test_trace_rational_stream_property(dend_graph, a):
    ens = trace_ensemble((a,), [1.0], dend_graph, 25)
    assert list(ens.symbols[0]) == list(itinerary(a % 1,
                                                  dend_graph.partition, 25))


@st.composite
def ray_choices(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    kappa = draw(st.sampled_from([1, 2]))
    angle = st.fractions(min_value=0, max_value=1, max_denominator=40).map(
        lambda a: a % 1).filter(lambda a: is_strictly_preperiodic(a, d))
    angles = draw(st.lists(angle, min_size=kappa, max_size=kappa,
                           unique=True))
    return RayChoice(d, tuple(angles))


@settings(max_examples=25, deadline=None)
@given(ray_choices(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_trace_matches_exact_oracles(rc, seed):
    # every route: d-adic Brolin samples (backward), periodic samples and
    # a small dyadic angle (forward on int64), and a wide non-d-adic angle
    # (forward on Python ints); each group is traced alone, on the route
    # of its common denominator, and in one mixed ensemble, whose wide
    # lcm sends every sample down the route of its own denominator
    n = 24
    g = build_tower(rc, 2, extra_levels=n)
    part = g.partition
    groups = (brolin_samples(part, 6, n, seed).angles,
              brolin_period_samples(part, 6, seed, bits=6).angles,
              (F(1 + 2 * (seed % 16), 32),), (F(1 + seed, WIDE),))
    for angles in groups + (sum(groups, ()),):
        ens = trace_ensemble(angles, np.full(len(angles), 1 / len(angles)),
                             g, n)
        for s, a in enumerate(angles):
            assert list(ens.symbols[s]) == list(itinerary(a, part, n))
            assert list(ens.states[s]) == list(trace(a, g, n).domain_ids)


@st.composite
def partitions(draw):
    d = draw(st.sampled_from([2, 3, 4, 6]))
    angle = st.fractions(min_value=0, max_value=1, max_denominator=60).map(
        lambda a: a % 1).filter(lambda a: is_strictly_preperiodic(a, d))
    return build_partition(RayChoice(d, (draw(angle),)))


def assert_cell_kernel_matches_itinerary(part, seed):
    d, M = part.degree, part.lattice
    n = 40
    rng = np.random.default_rng(seed)
    cells = symbol_cells(part)
    # forward: lattice points (the boundary among them), points between
    # them, and one wide angle whose steps run on Python ints
    ks = set(rng.integers(0, M, 24).tolist()) | set(part.boundary_nums)
    angles = ([F(k, M) for k in sorted(ks)]
              + [F(int(j), 7 * M) for j in rng.integers(0, 7 * M, 8)])
    for group in (angles, [F(1 + seed, WIDE)]):
        rows = cell_streams(*common_numerators(group), n, cells)
        for a, row in zip(group, rows):
            assert list(row) == list(itinerary(a, part, n))
    # backward: d-adic angles j / d^K with K below and above the horizon,
    # with the d-adic boundary angles among them; the router takes them
    # on whichever route their denominator gets
    for K in (1 + seed % (n - 1), n + 9):
        nums = [int.from_bytes(rng.bytes(K), "big") % d ** K
                for _ in range(6)]
        nums += [b * d ** K // M for b in part.boundary_nums
                 if b * d ** K % M == 0]
        rows = dyadic_symbol_streams(nums, K, n, cells)
        routed = symbol_matrix(nums, d ** K, n, cells)
        for j, row, other in zip(nums, rows, routed):
            assert list(row) == list(other) == list(
                itinerary(F(j, d ** K), part, n))


@settings(max_examples=40, deadline=None)
@example(QUARTIC_FINE, 0)
@given(partitions(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cell_kernel_matches_itinerary(part, seed):
    assert_cell_kernel_matches_itinerary(part, seed)


def test_quartic_fine_lattice_overflows_a_byte():
    assert QUARTIC_FINE.lattice == 160
    assert 3 * QUARTIC_FINE.lattice > 255


def word_peel(numerators, rows, D):
    """Base-D digits by peeling one 64-bit word off every numerator at a
    time, the split the halving in _digit_blocks replaced."""
    per = window_digits(D)
    rest = np.array([int(j) for j in numerators], dtype=object)
    out = np.empty((-(-rows // per) * per, len(rest)), dtype=np.uint8)
    for w in range(0, len(out), per):
        word = (rest % D ** per).astype(np.uint64)
        rest //= D ** per
        for t in range(w, w + per):
            out[t] = word % np.uint64(D)
            word //= np.uint64(D)
    return out[:rows]


@pytest.mark.parametrize("d, B", [(3, 5), (5, 3), (6, 3), (2, 6), (2, 7)])
@pytest.mark.parametrize("K", [1, 41, 640, 2500])
def test_digit_split_matches_word_peel(d, B, K):
    D, rows = d ** B, -(-K // B)
    rng = np.random.default_rng(K + d)
    nbytes = (d ** K).bit_length() // 8 + 2
    nums = [int.from_bytes(rng.bytes(nbytes), "big") % d ** K
            for _ in range(12)] + [0, 1, d ** K - 1]
    got = streams_module._digit_blocks(nums, rows, D)
    assert got.shape == (rows, len(nums))
    assert (got == word_peel(nums, rows, D)).all()


# d = 2 on the lattice of 1/510 scans backward 7 binary digits a block,
# not 8, so its d-adic streams take the halving split instead of bytes
BINARY_FINE = build_partition(RayChoice(2, (F(1, 510),)))


@pytest.mark.parametrize("part", [BINARY_FINE,
                                  build_partition(CUBIC)],
                         ids=["binary-fine", "cubic"])
def test_deep_d_adic_streams_match_itinerary(part):
    d, n, K = part.degree, 40, 2000
    assert part.lattice * d ** 8 > streams_module._SCAN_ROWS
    rng = np.random.default_rng(K)
    nums = [int.from_bytes(rng.bytes(K // 2), "big") % d ** K
            for _ in range(5)]
    rows = dyadic_symbol_streams(nums, K, n, symbol_cells(part))
    for j, row in zip(nums, rows):
        assert list(row) == list(itinerary(F(j, d ** K), part, n))


@pytest.mark.parametrize("part", PARTITIONS + [QUARTIC_FINE],
                         ids=["cheb", "dend", "pair", "quartic-fine"])
def test_fine_lattice_fallbacks_match_itinerary(monkeypatch, part):
    # a lattice too fine for a dense cell table counts its cuts by
    # bisection, and one too fine for the backward block table is
    # stepped forward by the router; shrink both limits below every
    # lattice here
    monkeypatch.setattr(streams_module, "_DENSE_CELLS", 2)
    monkeypatch.setattr(streams_module, "_SCAN_ROWS", 2)

    def no_scan(*args):
        raise AssertionError("routed to the backward scan")

    monkeypatch.setattr(streams_module, "dyadic_symbol_streams", no_scan)
    for seed in range(3):
        assert_cell_kernel_matches_itinerary(part, seed)


def test_fine_witness_block_table_memory():
    # at margin 2^-17 the dendrite witness takes d * M = 786,432 rows of
    # the backward table at one digit a block (6 MiB); building it holds
    # no index array as long as the table
    n = 400
    g = build_tower(DEND, 8, extra_levels=n)
    w = choose_W(g, recurrent_witness_domain(g), F(1, 2 ** 17))
    assert 2 * w.arcs.den == 786_432
    ens = make_ensemble(brolin_samples(g.partition, 64, n, seed=7), g, n)
    tracemalloc.start()
    try:
        ind = first_return(ens, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ind.return_count == 8526
    assert peak < 2 * 8 * 786_432
