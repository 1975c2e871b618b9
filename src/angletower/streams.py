"""Vectorized tracing of sample ensembles through the Markov extension.

Exact streams come from one router, `symbol_matrix`.  A map of the circle
into small integers that is constant between sorted integer cuts over a
lattice M (`Cells`: the partition's symbols, or a witness arc-set's
inside/outside parity) depends only on the cell floor(M*x) of x, lattice
points included, so each step is one cell -> value lookup.  The router
sends a whole ensemble, by its one denominator q, down one of two exact
scans of its cells:

* forward: p <- d*p mod q with cell M*p // q, on int64 when
  q * max(d, M) < 2^62 and on Python ints otherwise;
* backward, for d-adic q (the Brolin samples j / d^K) when d*M fits the
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


def is_dyadic(a: Fraction, d: int) -> bool:
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


def cell_streams(nums, den: int, n: int, cells: Cells) -> np.ndarray:
    """Cell values of the angles p/den along n steps of p <- d*p mod den.

    Entry [s, k] is for the k-th image of sample s, in a column-major
    uint8 matrix like the TraceEnsemble's.  Every sample steps on int64
    when den fits_int64, else every sample on Python ints.
    """
    d, lattice = cells.d, cells.lattice
    cuts = np.asarray(cells.cuts, dtype=np.int64)
    dense = lattice <= _DENSE_CELLS
    values = (_cell_table(cells) if dense
              else np.asarray(cells.values, dtype=np.uint8))
    wide = not fits_int64(den, lattice, d)
    p = np.array(nums, dtype=object if wide else np.int64)
    q = den if wide else np.int64(den)
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


def _block_width(count: int) -> int:
    """Width of a block of about _BLOCK_CELLS cells whose other side is
    count: steps per block of count samples, or samples per block of count
    steps."""
    return max(1, _BLOCK_CELLS // max(1, count))


def walk_table(g: TowerGraph) -> tuple[np.ndarray, np.ndarray]:
    """Dense transition table (domains x symbols, -1 absent) and level array.

    Domain ids are 0..n-1 (BFS discovery order, checked on load by
    tower_from_json), so ids index the table rows directly.
    """
    n_dom = len(g.domains)
    N = g.partition.size
    table = np.full((n_dom, N), -1, dtype=np.int32)
    for (src, sym), dst in g.edges.items():
        table[src, sym] = dst
    levels = np.array([g.domains[i].level for i in range(n_dom)],
                      dtype=np.int32)
    return table, levels


@dataclass
class TraceEnsemble:
    """A weighted angle ensemble's exact symbol streams and its tower walk.

    Sample s is nums[s] / den, den not necessarily reduced (d^K for the
    Brolin samples); angles is a lazy, cached, read-only Fraction view
    that the walk, count and lift diagnostics never build.  The symbols
    of all samples take the one route of symbol_matrix that den picks, so
    a mixed-denominator measure steps on Python ints.

    symbols[s, k] is the partition symbol of the angle of sample s at step
    k, stored column-major (step-major): the column [:, k] of one step is
    contiguous, because every kernel that walks, counts or sums the
    ensemble does so one step at a time across all samples.  The walk
    over the transition table `table` is never held: fold hands its
    blocks to every reader of one stage, and a stage never builds the
    samples x horizon state matrix.
    """

    graph: TowerGraph
    nums: tuple[int, ...]
    den: int
    weights: np.ndarray
    symbols: np.ndarray
    levels: np.ndarray
    table: np.ndarray

    @cached_property
    def angles(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(j, self.den) for j in self.nums)

    @cached_property
    def states(self) -> np.ndarray:
        """states[s, k], the domain id of sample s after k steps for k up
        to the horizon (column 0 is the base), column-major: a lazily
        walked, cached matrix that no stage reads."""
        ids = Gather(self, np.arange(len(self.levels), dtype=np.int32),
                     self.horizon + 1)
        self.fold(self.horizon, ids)
        return ids.out

    @property
    def count(self) -> int:
        return len(self.nums)

    @property
    def horizon(self) -> int:
        return self.symbols.shape[1]

    def fold(self, n: int, *readers) -> None:
        """Walk the ensemble over steps 0..n once, handing every (k0,
        block) of walk_blocks to each reader's add, in step order."""
        if n > self.horizon:
            raise ValueError(
                f"ensemble traced to {self.horizon}, requested {n}")
        for k0, block in walk_blocks(self.graph, self.table, self.symbols, n):
            for reader in readers:
                reader.add(k0, block)


class Gather:
    """out = at[states[:, :n]], a per-domain array read at steps 0..n-1 of
    the walk, column-major like the symbols, filled a block at a time."""

    def __init__(self, ens: TraceEnsemble, at: np.ndarray, n: int):
        self.at = at
        self.out = np.empty((ens.count, n), dtype=at.dtype, order="F")

    def add(self, k0: int, states: np.ndarray) -> None:
        part = states[:, :max(0, self.out.shape[1] - k0)]
        self.out[:, k0:k0 + part.shape[1]] = _gather(self.at, part)


def common_numerators(angles) -> tuple[tuple[int, ...], int]:
    """Angles (anything Fraction takes) as integer numerators in [0, den)
    over den, the lcm of their reduced denominators."""
    angles = [a if isinstance(a, Fraction) and 0 <= a < 1
              else Fraction(a) % 1 for a in angles]
    den = math.lcm(*{a.denominator for a in angles})
    return tuple(a.numerator * (den // a.denominator) for a in angles), den


def symbol_matrix(nums, den: int, n: int, cells: Cells) -> np.ndarray:
    """Cell values (samples x n, column-major uint8) of nums[s] / den.

    The one router of the exact streams, which sends every sample down the
    one route den picks: forward on int64 when den fits_int64, backward
    when den is d-adic, reduced or not, and d*M is at most _DENSE_CELLS
    (the scan's table at one digit a block), and forward on Python ints
    otherwise.  So a mixed-denominator measure, over the lcm of d-adic
    and other denominators, steps on Python ints.
    """
    d, M = cells.d, cells.lattice
    K = (None if fits_int64(den, M, d) or d * M > _DENSE_CELLS
         else _d_adic_exponent(den, d))
    if K is None:
        return cell_streams(nums, den, n, cells)
    return dyadic_symbol_streams([j * (d ** K // den) for j in nums], K, n,
                                 cells)


def _gather(at: np.ndarray, states: np.ndarray) -> np.ndarray:
    """at[states], step-major like states: take on the transpose is about
    twice as fast as indexing by the int32 domain ids."""
    return at.take(states.T).T


def walk_blocks(g: TowerGraph, table: np.ndarray, syms: np.ndarray,
                n: int):
    """The tower walk of the symbol rows syms over steps 0..n, in blocks.

    Yields (k0, block): block[:, j] holds each sample's domain id after
    k0 + j steps (column 0 of the first block is the base), from the
    walk_table `table`.  The blocks hold about _BLOCK_CELLS cells of one
    reused column-major buffer, so a caller reads each block before it
    asks for the next, and no samples x horizon matrix is ever held.
    """
    # the successor of (state, symbol) sits at symbol * rows + state, so a
    # block's symbols are scaled in one pass and each step is one add
    flat = table.T.ravel()
    rows = np.int32(len(table))
    count = len(syms)
    width = min(_block_width(count), n + 1)
    buf = np.zeros((count, width), dtype=np.int32, order="F")
    index = np.empty(count, dtype=np.int32)
    for k0 in range(0, n + 1, width):
        block = buf[:, :min(width, n + 1 - k0)]
        # step 0 is the base, the zeros buf starts with; a later block
        # starts from the last column of the previous one, which was full
        lo = int(k0 == 0)
        if not lo:
            np.copyto(index, buf[:, -1])
        np.multiply(syms[:, k0 + lo - 1:k0 + block.shape[1] - 1], rows,
                    out=block[:, lo:])
        for j in range(lo, block.shape[1]):
            np.add(block[:, j], block[:, j - 1] if j else index, out=index)
            # a frontier's -1 makes an index that clips or lands elsewhere
            # in the table, and the walk goes on to the block end
            np.take(flat, index, out=block[:, j], mode="clip")
        if block.min() < 0:
            step = k0 + int(np.flatnonzero(block.min(axis=0) < 0)[0])
            raise TowerTooShallow(
                f"trace needs an out-edge of a frontier domain at step "
                f"{step}; rebuild the tower with extra_levels at least "
                f"{max(1, n - 1 - g.expand_limit)} larger")
        yield k0, block


def trace_ensemble(angles, weights, g: TowerGraph, n: int) -> TraceEnsemble:
    """The symbols of every sample over n steps from the base, and the
    table its tower walk runs on.

    angles are Fractions, put over the lcm of their denominators, or a
    measure with integer nums over one den (lifting.SampleMeasure), read
    with no Fraction built; symbol_matrix routes them.  The walk is run
    by each fold, so a trace into a frontier domain raises
    TowerTooShallow there.
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
    return TraceEnsemble(g, nums, den, weights, syms, levels, table)
