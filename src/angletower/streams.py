"""Vectorized tracing of sample ensembles through the Markov extension.

Symbol streams are exact, and every sample is routed by its reduced
denominator q alone:

* int64 path: when q * max(d, largest boundary denominator) < 2^62, the
  sample is stepped as p <- d*p mod q in int64 arrays, and its symbol is
  read off the cross-multiplied comparisons p*v >= u*q against the
  boundary angles u/v.  This covers the periodic samples j / (d^bits - 1)
  and the conformal quadrature nodes.
* window path: other d-adic angles j / d^K (the Brolin samples) go
  through a sliding window of base-d digits compared against integer
  boundary prefixes, with an exact fallback on the (never observed, but
  handled) event that a window ties a non-d-adic boundary prefix.
* exact path: anything else runs the int64 kernel on Python ints.

The tower walk itself is an integer table iteration, so tracing scales to
tens of thousands of samples by horizons in the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angles import CirclePartition
from .tower import TowerGraph

# products of int64 operands stay below this bound in the exact kernel
_INT64_LIMIT = 1 << 62


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
    """Whether a is d-adic: its denominator divides a power of d.

    No prime divides den more than bit_length(den) times, so that power
    of d is high enough.
    """
    den = a.denominator
    return pow(d, den.bit_length(), den) == 0


def window_digits(d: int) -> int:
    """Base-d digits in one window: the most whose value fits 64 bits."""
    w = 1
    while d ** (w + 1) <= 1 << 64:
        w += 1
    return w


def fits_int64(q: int, cuts, d: int) -> bool:
    """Whether angles p/q can be stepped by d and compared with the cut
    angles inside int64: q * max(d, largest cut denominator) < 2^62."""
    return q * max([d] + [c.denominator for c in cuts]) < _INT64_LIMIT


def arc_index_streams(nums, dens, cuts, d: int, n: int) -> np.ndarray:
    """Arc of each angle p/q along n steps of p <- d*p mod q, exactly.

    cuts is a sorted tuple of angles; entry [s, k] is the index i of the
    half-open arc [cuts[i], cuts[i+1]) holding the k-th image, that is the
    count of cuts at or below p/q, minus one, wrapping to len(cuts) - 1.
    The matrix is column-major, like the TraceEnsemble it is compared with.
    The kernel runs on int64 arrays when the largest denominator
    fits_int64, and otherwise on object arrays of Python ints with the
    same code.
    """
    dtype = np.int64 if fits_int64(int(max(dens)), cuts, d) else object
    p = np.array(nums, dtype=dtype)
    q = np.array(dens, dtype=dtype)
    u = np.array([c.numerator for c in cuts], dtype=dtype)
    v = np.array([c.denominator for c in cuts], dtype=dtype)
    N = len(cuts)
    out = np.empty((len(p), n), dtype=np.min_scalar_type(N - 1), order="F")
    for k in range(n):
        out[:, k] = ((p[:, None] * v >= u * q[:, None]).sum(axis=1) - 1) % N
        p = d * p % q
    return out


def word_codes(words: np.ndarray, base: int) -> np.ndarray:
    """Big-endian base-`base` int64 code of each row of a symbol matrix."""
    codes = np.zeros(len(words), dtype=np.int64)
    for j in range(words.shape[1]):
        codes = codes * base + words[:, j]
    return codes


def _digit_matrix(numerators, K: int, d: int) -> np.ndarray:
    """K-digit big-endian base-d expansions, one uint8 row per numerator.

    Column k holds the digit of weight d^(K-1-k), i.e. the k-th base-d
    digit of the angle j / d^K.  The matrix is column-major, so the
    window reads each digit position as one contiguous column.
    """
    count = len(numerators)
    if d == 2:
        nbytes = (K + 7) // 8
        rows = np.frombuffer(b"".join(int(j).to_bytes(nbytes, "big")
                                      for j in numerators),
                             dtype=np.uint8).reshape(count, nbytes)
        bits = np.unpackbits(np.ascontiguousarray(rows.T), axis=0)
        return bits[8 * nbytes - K:].T
    # split each numerator into W-digit chunks that fit uint64, then
    # peel the digits of all chunks of one column at once
    W = window_digits(d)
    chunk = d ** W
    nchunks = -(-K // W)
    vals = np.empty((nchunks, count), dtype=np.uint64)
    for i, j in enumerate(numerators):
        j = int(j)
        for c in range(nchunks - 1, -1, -1):
            j, vals[c, i] = divmod(j, chunk)
    digits = np.empty((nchunks * W, count), dtype=np.uint8)
    base = np.uint64(d)
    for c in range(nchunks):
        v = vals[c]
        for t in range((c + 1) * W - 1, c * W - 1, -1):
            digits[t] = v % base
            v = v // base
    return digits[nchunks * W - K:].T


def dyadic_symbol_streams(numerators, K: int, n: int,
                          partition: CirclePartition) -> np.ndarray:
    """Symbol matrix (samples x n) for the d-adic angles j / d^K.

    d is partition.degree.  The symbol at step k is decided from base-d
    digits k..k+W-1 of j (W = window_digits(d), 64 for d = 2) compared
    against the W-digit prefixes of the boundary angles.  A tie against a
    d-adic boundary is already exact (the boundary's tail is all zeros); a
    tie against any other boundary is resolved with Fraction arithmetic.
    Requires K >= n + W so every compared window is fully inside j.
    """
    d = partition.degree
    W = window_digits(d)
    if n + W > K:
        raise ValueError(
            f"need K >= n + {W} guard digits, got K={K} for n={n}")
    if partition.size > 255:
        raise ValueError("more than 255 symbols does not fit uint8 streams")
    count = len(numerators)
    syms = np.empty((count, n), dtype=np.uint8, order="F")
    if count == 0 or n == 0:
        return syms
    digits = _digit_matrix(numerators, K, d)
    boundary = partition.boundary
    scale = d ** W
    t64 = np.array([int(b * scale) for b in boundary], dtype=np.uint64)
    # a window equal to t64[i] ties every boundary with that prefix; the
    # tie needs exact arithmetic when any of them is not d-adic
    inexact = np.array([(b * scale).denominator != 1 for b in boundary])
    ambiguous = np.isin(t64, t64[inexact])
    any_ambiguous = ambiguous.any()
    N = partition.size
    top = np.uint64(d ** (W - 1))
    base = np.uint64(d)
    den = d ** K

    val = np.zeros(count, dtype=np.uint64)
    for i in range(W):
        val = val * base + digits[:, i]
    for k in range(n):
        # the symbol is the count of thresholds at or below val, minus
        # one, wrapping to N - 1 below the first threshold
        sym = syms[:, k]
        sym.fill(N - 1)
        for t in t64:
            sym += val >= t
        sym %= N
        if any_ambiguous:
            tie = t64[sym] == val
            if tie.any():
                for s in np.nonzero(tie & ambiguous[sym])[0]:
                    num = int(numerators[s]) * d ** k % den
                    sym[s] = partition.symbol_of(Fraction(num, den))
        if k + 1 < n:
            val %= top
            val *= base
            val += digits[:, k + W]
    return syms


# --------------------------------------------------------------------------
# tower walk


class FrontierReached(Exception):
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
    angles: tuple[Fraction, ...]
    weights: np.ndarray
    symbols: np.ndarray
    states: np.ndarray
    levels: np.ndarray

    @property
    def count(self) -> int:
        return len(self.angles)

    @property
    def horizon(self) -> int:
        return self.symbols.shape[1]

    def angle_at(self, sample: int, k: int) -> Fraction:
        """Exact angle of one sample after k doubling steps."""
        d = self.graph.partition.degree
        return self.angles[sample] * d ** k % 1

    def level_matrix(self) -> np.ndarray:
        return self.levels[self.states]


def trace_ensemble(angles, weights, g: TowerGraph, n: int) -> TraceEnsemble:
    """Trace every angle n steps from the base through the tower.

    Symbols come from the route each reduced denominator selects (see the
    module docstring); the window path shares one exponent K across its
    samples, the largest present raised to n + window_digits(d).
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    angles = tuple(a if isinstance(a, Fraction) and 0 <= a < 1
                   else Fraction(a) % 1 for a in angles)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(angles),):
        raise ValueError("one weight per angle required")
    count = len(angles)
    partition = g.partition
    d = partition.degree
    boundary = partition.boundary

    by_den: dict[int, list[int]] = {}
    for i, a in enumerate(angles):
        by_den.setdefault(a.denominator, []).append(i)
    small, exact, window, exponents = [], [], [], {}
    for q, idx in by_den.items():
        if fits_int64(q, boundary, d):
            small += idx
        elif (exponent := _d_adic_exponent(q, d)) is not None:
            window += idx
            exponents[q] = exponent
        else:
            exact += idx
    # each route streams its samples in sample order, so a route that
    # takes every sample hands its matrix over without a row scatter
    parts = []
    for rows in (sorted(small), sorted(exact)):
        if rows:
            parts.append((rows, arc_index_streams(
                [angles[i].numerator for i in rows],
                [angles[i].denominator for i in rows], boundary, d, n)))
    if window:
        K = max([n + window_digits(d)] + list(exponents.values()))
        scale = {q: d ** K // q for q in exponents}
        rows = sorted(window)
        parts.append((rows, dyadic_symbol_streams(
            [angles[i].numerator * scale[angles[i].denominator]
             for i in rows], K, n, partition)))
    if len(parts) == 1:
        syms = parts[0][1]
    else:
        syms = np.empty((count, n), dtype=np.uint8, order="F")
        for rows, part in parts:
            syms[rows] = part

    table, levels = walk_table(g)
    flat = table.ravel()
    N = partition.size
    states = np.empty((count, n + 1), dtype=np.int32, order="F")
    states[:, 0] = 0
    for k in range(n):
        nxt = states[:, k + 1]
        # every index is in range: states so far are domain ids
        np.take(flat, states[:, k] * N + syms[:, k], out=nxt, mode="clip")
        if (nxt < 0).any():
            raise FrontierReached(k + 1, max(1, n - 1 - g.expand_limit))
    return TraceEnsemble(g, angles, weights, syms, states, levels)
