"""Vectorized tracing of sample ensembles through the Markov extension.

Exact streams come from one router, `symbol_matrix`.  A map of the circle
into small integers that is constant between sorted integer cuts over a
lattice M (`Cells`: the partition's symbols, or a witness arc-set's
inside/outside parity) depends only on the cell floor(M*x) of x, lattice
points included, so each step is one cell -> value lookup.  The router
sends each sample to one of two exact scans of its cells:

* forward: p <- d*p mod q with cell M*p // q, on int64 when
  q * max(d, M) < 2^62 and on Python ints otherwise;
* backward, for d-adic j / d^K (the Brolin samples) when d*M fits the
  scan's block table: over the base-d digits from the last,
  c_k = (digit_k * M + c_{k+1}) // d from c_K = 0, exact since
  floor((A + f) / d) = A // d for integer A and 0 <= f < 1.

The tower walk is an integer table iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .angles import CirclePartition
from .tower import TowerGraph, TowerTooShallow

# products of int64 operands stay below this bound in the exact kernel
_INT64_LIMIT = 1 << 62

# a finer lattice (a tiny witness margin) bisects its cuts per step
_DENSE_CELLS = 1 << 20

# rows of the backward scan's block table: more than one digit a block
# only while d^B * M rows fit, else one (d * M rows, which the router
# keeps within _DENSE_CELLS, 8 MB)
_SCAN_ROWS = 1 << 16

# elementwise divmod of object arrays of Python ints
_divmod = np.frompyfunc(divmod, 2, 2)

# samples x steps cells per block of the tower walk (1 MB of int32
# states), which a caller folds as it comes out of the walk
_BLOCK_CELLS = 1 << 18


def _d_adic_exponent(den: int, d: int) -> int | None:
    """Smallest K with den | d^K, or None when no power of d is a multiple."""
    k = 0
    while den > 1:
        g = math.gcd(den, d)
        if g == 1:
            return None
        den //= g
        k += 1
    return k


def is_dyadic(a: Fraction, d: int = 2) -> bool:
    """Whether a is d-adic: its denominator divides a power of d."""
    return _d_adic_exponent(a.denominator, d) is not None


def window_digits(d: int) -> int:
    """Base-d digits in one 64-bit word: the most whose value fits."""
    w = 1
    while d ** (w + 1) <= 1 << 64:
        w += 1
    return w


def fits_int64(q: int, lattice: int, d: int) -> bool:
    """Whether p/q steps and finds its lattice cells in int64."""
    return q * max(d, lattice) < _INT64_LIMIT


class Cells(NamedTuple):
    """Small integers constant on the cells of the lattice of 1/lattice,
    stepped by x -> d*x mod 1: the value at x is values[i], i the count
    of the sorted integer cuts at or below lattice*x."""

    d: int
    lattice: int
    cuts: tuple
    values: tuple


def symbol_cells(partition: CirclePartition) -> Cells:
    """The partition's symbols as cells: a cell below the first boundary
    angle lies in the last arc."""
    N = partition.size
    if N > 255:
        raise ValueError("more than 255 symbols does not fit uint8 streams")
    return Cells(partition.degree, partition.lattice,
                 partition.boundary_nums,
                 tuple((i - 1) % N for i in range(N + 1)))


def _cell_table(cells: Cells) -> np.ndarray:
    """The value of each cell k < lattice."""
    return np.asarray(cells.values, dtype=np.uint8)[
        np.searchsorted(cells.cuts, np.arange(cells.lattice), side="right")]


def cell_streams(nums, dens, n: int, cells: Cells) -> np.ndarray:
    """Cell values of the angles p/q along n steps of p <- d*p mod q.

    Entry [s, k] is for the k-th image of sample s, in a column-major
    uint8 matrix like the TraceEnsemble's.
    """
    d, lattice = cells.d, cells.lattice
    cuts = np.asarray(cells.cuts, dtype=np.int64)
    dense = lattice <= _DENSE_CELLS
    values = (_cell_table(cells) if dense
              else np.asarray(cells.values, dtype=np.uint8))
    wide = not fits_int64(int(max(dens, default=1)), lattice, d)
    p = np.array(nums, dtype=object if wide else np.int64)
    q = np.array(dens, dtype=p.dtype)
    out = np.empty((len(p), n), dtype=np.uint8, order="F")
    cell = np.empty_like(p)
    for k in range(n):
        np.multiply(p, lattice, out=cell)
        cell //= q
        index = cell.astype(np.int64) if wide else cell
        if not dense:
            index = np.searchsorted(cuts, index, side="right")
        np.take(values, index, out=out[:, k], mode="clip")
        p *= d
        p %= q
    return out


def word_codes(words: np.ndarray, base: int) -> np.ndarray:
    """Big-endian base-`base` int64 code of each row of a symbol matrix."""
    codes = np.zeros(len(words), dtype=np.int64)
    for j in range(words.shape[1]):
        codes = codes * base + words[:, j]
    return codes


def _digit_blocks(numerators, rows: int, D: int) -> np.ndarray:
    """The lowest `rows` base-D digits (D <= 256) of each numerator j as
    uint8, least significant first: row r holds j // D^r mod D."""
    if D == 256:
        raw = np.frombuffer(b"".join(int(j).to_bytes(rows, "big")
                                     for j in numerators), dtype=np.uint8)
        return np.ascontiguousarray(
            raw.reshape(len(numerators), rows)[:, ::-1].T)
    # cut each j into 64-bit words W = D^per by halving: a chunk below
    # W^(2h) splits into (lo, hi) = divmod by W^h, not one word at a time
    per = window_digits(D)
    words = -(-rows // per)
    h = 1 << max(words - 1, 0).bit_length()      # the least 2^k >= words
    W = D ** per
    chunks = (np.array([int(j) for j in numerators], dtype=object)
              % W ** h)[:, None]
    while h > 1:
        h //= 2
        hi, lo = _divmod(chunks, W ** h)
        chunks = np.stack((lo, hi), axis=2).reshape(len(chunks), -1)
    word = np.ascontiguousarray(chunks[:, :words].astype(np.uint64).T)
    out = np.empty((words, per, len(chunks)), dtype=np.uint8)
    for t in range(per):
        out[:, t] = word % np.uint64(D)
        word //= np.uint64(D)
    return out.reshape(words * per, len(chunks))[:rows]


def dyadic_symbol_streams(numerators, K: int, n: int,
                          cells: Cells) -> np.ndarray:
    """Cell values (samples x n) of the d-adic angles j / d^K, any K.

    Scanned backward B digits at a time: a block of value g entered at
    cell c leaves at cell (g*M + c) // d^B, its i-th digit at
    ((g mod d^(B-i))*M + c) // d^(B-i), so one 8-byte table row at
    g*M + c holds the block's values.
    """
    d, table = cells.d, _cell_table(cells)
    M = len(table)
    B = 1
    while B < 8 and d ** (B + 1) <= min(256, _SCAN_ROWS // M):
        B += 1
    D = d ** B
    block = np.zeros((D * M, 8), dtype=np.uint8)
    for i in range(B):
        # ((g mod q)*M + c) // q runs through the table, each entry q times
        q = d ** (B - i)
        block[:, i] = np.tile(np.repeat(table, q), D // q)
    packed = block.view(np.uint64).ravel()
    count = len(numerators)
    out = np.empty((count, n), dtype=np.uint8, order="F")
    out[:, K:] = table[0]               # the iterates from step K on are 0
    row = np.zeros(count, dtype=np.intp)
    scaled = np.empty(count, dtype=np.intp)
    for r, digits in enumerate(_digit_blocks(numerators, -(-K // B), D)):
        k0 = K - (r + 1) * B            # the step of the block's first digit
        row //= D
        # an intp M widens the uint8 digits first: (D - 1) * M may not fit
        np.multiply(digits, np.intp(M), out=scaled)
        row += scaled
        if k0 < n:
            lo, hi = max(k0, 0), min(k0 + B, n)
            vals = packed.take(row).view(np.uint8).reshape(count, 8)
            out[:, lo:hi] = vals[:, lo - k0:hi - k0]
    return out


# --------------------------------------------------------------------------
# tower walk


class FrontierReached(TowerTooShallow):
    """A trace stepped into an unexpanded frontier domain.

    The tower is too shallow for the requested horizon; rebuild with
    extra_levels increased by at least `needed_extra`.
    """

    def __init__(self, step: int, needed_extra: int):
        self.step = step
        self.needed_extra = needed_extra
        super().__init__(
            f"trace needs an out-edge of a frontier domain at step {step}; "
            f"rebuild the tower with extra_levels at least {needed_extra} "
            f"larger")


def _block_width(count: int) -> int:
    """Width of a block of about _BLOCK_CELLS cells whose other side is
    count: steps per block of count samples, or samples per block of count
    steps."""
    return max(1, _BLOCK_CELLS // max(1, count))


def walk_table(g: TowerGraph) -> tuple[np.ndarray, np.ndarray]:
    """Dense transition table (domains x symbols, -1 absent) and level array.

    Domain ids are BFS discovery order, hence contiguous from 0, so ids
    index the table rows directly.
    """
    n_dom = len(g.domains)
    if sorted(g.domains) != list(range(n_dom)):
        raise ValueError("domain ids are not contiguous")
    N = g.partition.size
    table = np.full((n_dom, N), -1, dtype=np.int32)
    for (src, sym), dst in g.edges.items():
        table[src, sym] = dst
    levels = np.array([g.domains[i].level for i in range(n_dom)],
                      dtype=np.int32)
    return table, levels


@dataclass
class TraceEnsemble:
    """Traced lifts of a weighted angle ensemble.

    Sample s is nums[s] / den, den not necessarily reduced (d^K for the
    Brolin samples); angles is a lazy, cached, read-only Fraction view
    that the walk, count and lift diagnostics never build.

    states[s, k] is the domain id of sample s after k steps (column 0 is
    the base for every sample); symbols[s, k] the partition symbol of the
    angle at step k.  states has horizon + 1 columns so one-step
    comparisons at the final time are available.

    Both matrices are stored column-major (step-major): the column [:, k]
    of one step is contiguous, because every kernel that walks, counts or
    sums the ensemble does so one step at a time across all samples.
    Indexing is unaffected; states[s] is still the trace of sample s.
    """

    graph: TowerGraph
    nums: tuple[int, ...]
    den: int
    weights: np.ndarray
    symbols: np.ndarray
    states: np.ndarray
    levels: np.ndarray

    @cached_property
    def angles(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.den) for j in self.nums)

    @property
    def count(self) -> int:
        return len(self.nums)

    @property
    def horizon(self) -> int:
        return self.symbols.shape[1]

    def state_blocks(self, n: int):
        """Views (k0, states[:, k0:k1]) over steps 0..n, in the blocks
        walk_blocks yields."""
        width = _block_width(self.count)
        for k0 in range(0, n + 1, width):
            yield k0, self.states[:, k0:min(k0 + width, n + 1)]


def common_numerators(angles) -> tuple[tuple[int, ...], int]:
    """Angles (anything Fraction takes) as integer numerators in [0, den)
    over den, the lcm of their reduced denominators."""
    angles = [a if isinstance(a, Fraction) and 0 <= a < 1
              else Fraction(a) % 1 for a in angles]
    den = math.lcm(*{a.denominator for a in angles})
    return tuple(a.numerator * (den // a.denominator) for a in angles), den


def symbol_matrix(nums, den: int, n: int, cells: Cells) -> np.ndarray:
    """Cell values (samples x n, column-major uint8) of nums[s] / den.

    The one router of the exact streams: a sample over q steps forward on
    int64 when q fits_int64, backward when q is d-adic and d*M is at most
    _DENSE_CELLS (the scan's table at one digit a block), and forward on
    Python ints otherwise.  A den that fits_int64 or is d-adic, reduced or
    not, is every sample's q; any other den is often the lcm of many small
    ones (a mixed measure), so samples route by their denominators in
    lowest terms.
    """
    d, M = cells.d, cells.lattice
    dens = [den] * len(nums)
    if not (fits_int64(den, M, d) or _d_adic_exponent(den, d)):
        gcds = [math.gcd(j, den) for j in nums]
        nums = [j // c for j, c in zip(nums, gcds)]
        dens = [den // c for c in gcds]
    scan = d * M <= _DENSE_CELLS
    exps = {q: _d_adic_exponent(q, d) if scan else None for q in set(dens)
            if not fits_int64(q, M, d)}
    # route 0: forward on int64, -1: on Python ints, 1: backward at K
    route = {q: 0 if q not in exps else -1 if exps[q] is None else 1
             for q in set(dens)}
    K = max(filter(None, exps.values()), default=0)
    scale = {q: d ** K // q for q, k in exps.items() if k}
    parts = []
    for r in set(route.values()):
        rows = [i for i, q in enumerate(dens) if route[q] == r]
        parts.append((rows, dyadic_symbol_streams(
            [nums[i] * scale[dens[i]] for i in rows], K, n, cells)
            if r > 0 else cell_streams(
                [nums[i] for i in rows], [dens[i] for i in rows], n, cells)))
    # one route for all hands its matrix over
    if len(parts) == 1:
        return parts[0][1]
    syms = np.empty((len(nums), n), dtype=np.uint8, order="F")
    for rows, part in parts:
        syms[rows] = part
    return syms


def walk_blocks(g: TowerGraph, table: np.ndarray, syms: np.ndarray,
                n: int):
    """The tower walk of the symbol rows syms over steps 0..n, in blocks.

    Yields (k0, block): block[:, j] holds each sample's domain id after
    k0 + j steps (column 0 of the first block is the base), from the
    walk_table `table`.  The blocks hold about _BLOCK_CELLS cells of one
    reused column-major buffer, so a caller reads each block before it
    asks for the next, and no samples x horizon matrix is ever held.
    """
    flat = table.ravel()
    N = g.partition.size
    count = len(syms)
    width = min(_block_width(count), n + 1)
    buf = np.zeros((count, width), dtype=np.int32, order="F")
    for k0 in range(0, n + 1, width):
        block = buf[:, :min(width, n + 1 - k0)]
        # step 0 is the base, the zeros buf starts with; at j = 0 of a
        # later block the previous step is the last column of the
        # previous block, which was full
        for j in range(int(k0 == 0), block.shape[1]):
            k = k0 + j
            nxt = block[:, j]
            # every index is in range: states so far are domain ids
            np.take(flat, buf[:, j - 1] * N + syms[:, k - 1], out=nxt,
                    mode="clip")
            if (nxt < 0).any():
                raise FrontierReached(k, max(1, n - 1 - g.expand_limit))
        yield k0, block


def trace_ensemble(angles, weights, g: TowerGraph, n: int) -> TraceEnsemble:
    """Trace every sample n steps from the base through the tower.

    angles are Fractions, put over the lcm of their denominators, or a
    measure with integer nums over one den (lifting.SampleMeasure), read
    with no Fraction built; symbol_matrix routes them.  states is filled
    from walk_blocks.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if hasattr(angles, "den"):
        nums, den = tuple(angles.nums), angles.den
    else:
        nums, den = common_numerators(angles)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(nums),):
        raise ValueError("one weight per angle required")
    syms = symbol_matrix(nums, den, n, symbol_cells(g.partition))
    table, levels = walk_table(g)
    states = np.empty((len(nums), n + 1), dtype=np.int32, order="F")
    for k0, block in walk_blocks(g, table, syms, n):
        states[:, k0:k0 + block.shape[1]] = block
    return TraceEnsemble(g, nums, den, weights, syms, states, levels)
