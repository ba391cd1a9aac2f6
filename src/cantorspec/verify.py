"""The three verification pillars: orthogonality, partition identity, completeness.

Orthogonality of the exponentials at a frequency set is equivalent to the
product transform vanishing at every pairwise difference; that is decided in
exact integer arithmetic.  The level-L partition identity
sum_delta |prod_{n<=L} G_n((xi + lambda)/(d_n rho_n))|^2 = 1 holds for every
real xi and every valid tree mapping, so its numerical defect must sit at
roundoff scale.  Completeness is certified only as a trend: the partial sums
Q_L(xi) = sum_{lambda in Lambda_L} |muhat(xi + lambda)|^2 increase with L and
stay below 1 plus the accumulated certified evaluation slack.

Both floating-point pillars run on one digit tree (:class:`_Tree`), built
once per check; its docstring states the node order, the reduced label sums
through which alone xi enters a level, and the sub-levels of a composite
d_n.  xi + lambda is never rounded and no large integer reaches numpy.  The
products of many xi walk the tree depth first in tiles of at most ``_SLICE``
entries (:meth:`_Tree.tiles`), whose row totals at the end of a level are
the partition sums.  Completeness multiplies each level-L product into a
tail tabulated once per check (:func:`_tail_tables`) and bounds the
evaluation error by a certified slack from two sums per block;
:func:`completeness_Q` derives that slack and its soundness.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import ScalePair, _Scales, _to_float, check_growth
from .fourier import (LOG_SERIES_THETA, TWO_PI, FilterFamily, H_sq_tables, HSqTables,
                      eval_H_sq_tables, eval_log_series_taylor, log_H_sq_array, log_series_taylor,
                      truncation_target, uniform_family)
from .spectra import (TreeMapping, _elements_of, _table_nodes, check_word_budget,
                      validate_tree_mapping)

# perfbench/tracing.py wraps these names in this module as well as where they
# are defined, so they stay bound here although nothing below calls them.
from .fourier import eval_H, eval_H_array, mu_hat, mu_hat_array  # noqa: E402,F401
from .spectra import enumerate_level  # noqa: E402,F401


@dataclass(frozen=True)
class OrthogonalityReport:
    passed: bool
    element_count: int
    pair_count: int
    violations: tuple[tuple[int, int], ...]  # the smallest _VIOLATION_CAP, sorted
    violation_count: int


def _grouped_orthogonality(elements: list[int], pair: ScalePair, cap: int):
    """Level-synchronous equivalent of the all-pairs divisibility scan.

    The transform vanishes at x - y iff some level n has x = y mod rho_n but
    not mod d_n rho_n (:func:`mu_hat_exact_zero`).  So a pair no lower level
    witnesses violates at level n iff x = y mod d_n rho_n but not mod
    rho_{n+1}, and stays undecided iff x = y mod both.  Each level splits the
    live elements into classes mod the lcm of these and the last level's
    moduli (rho_{n+1} for admissible pairs); classes equal mod the lcm of
    d_n rho_n and the last modulus violate pairwise, and classes of two or
    more stay live.  Exact integers.  Returns the ``cap`` smallest violating
    pairs, sorted, and the count of all of them.
    """
    violating = []  # (xs, ys): each x in xs and y in ys violate
    live, rho, step, n = elements, 1, 1, 1
    while len(live) > 1:
        b_n = pair.b(n)
        check_growth(pair, n, b_n)  # else no level separates the frequencies
        coarse = math.lcm(step, pair.d(n) * rho)  # d_n rho_n for every admissible pair
        rho *= b_n
        step = math.lcm(coarse, rho)
        classes: dict[int, list[int]] = {}
        for x in live:
            classes.setdefault(x % step, []).append(x)
        if len({r % coarse for r in classes}) < len(classes):
            buckets: dict[int, list[list[int]]] = {}
            for r, members in classes.items():
                buckets.setdefault(r % coarse, []).append(members)
            violating += [(xs, ys) for bucket in buckets.values()
                          for i, xs in enumerate(bucket) for ys in bucket[i + 1:]]
        live = [x for members in classes.values() if len(members) > 1 for x in members]
        n += 1
    pairs = ((x, y) if x < y else (y, x) for xs, ys in violating for x in xs for y in ys)
    return heapq.nsmallest(cap, pairs), sum(len(xs) * len(ys) for xs, ys in violating)


_VIOLATION_CAP = 256


def orthogonality_check(level_or_elements, pair: ScalePair) -> OrthogonalityReport:
    """Exact pairwise orthogonality of a frequency set.

    Every unordered pair of distinct frequencies must have its difference
    annihilated by the transform (see :func:`mu_hat_exact_zero`).  The pairs
    are classified level by level by :func:`_grouped_orthogonality`, which is
    linear in the set size per level; no floating point.
    """
    elements = _elements_of(level_or_elements)
    m = len(elements)
    if len(set(elements)) != m:
        raise ValueError("frequency set contains duplicates; deduplicate and "
                         "treat duplicates as orthogonality violations upstream")
    violations, count = _grouped_orthogonality(elements, pair, _VIOLATION_CAP)
    return OrthogonalityReport(passed=count == 0, element_count=m,
                               pair_count=m * (m - 1) // 2, violations=tuple(violations),
                               violation_count=count)


# ---------------------------------------------------------------------------
# Level expansion
# ---------------------------------------------------------------------------

def _table_labels(tm: TreeMapping, scales: _Scales, level: int):
    """Table (node indices, labels) arrays by word length k: among the level-k nodes
    for k <= ``level``, and for a word delta 0^(k-level) the index of delta
    (:func:`~.spectra._table_nodes`)."""
    table: dict[int, list[tuple[int, int]]] = {}
    for word, index, value in _table_nodes(tm, scales, level):
        table.setdefault(len(word), []).append((index, value))
    return {k: tuple(np.array(v) for v in zip(*entries)) for k, entries in table.items()}


def _digits(d: int, count: int) -> np.ndarray:
    # the last digit 0..d-1 of each of d count nodes in digit-major order, as floats
    return np.repeat(np.arange(d, dtype=float), count)


def _labels(tm: TreeMapping, scales: _Scales, level: int):
    """Per level n = 1..``level``, tau over the level-n nodes in the order of
    :func:`~.spectra._node_index`: the last digit, or the table value."""
    table = _table_labels(tm, scales.upto(level), level)
    count = 1
    for n in range(1, level + 1):
        label = _digits(scales.d[n], count)
        count *= scales.d[n]
        if n in table:
            label[table[n][0]] = table[n][1]
        yield label


def _row_pieces(start: int, stop: int, width: int) -> list[tuple[int, int, int, int]]:
    """The nodes [start, stop) of a level whose parents' level has ``width`` nodes,
    as pieces (a, b, lo, hi): the nodes start + [a, b) are whole rows of children
    of the parents [lo, hi), or one part of a row.  A slice that straddles a row
    boundary is split there, and whole rows between form one piece."""
    pieces, k = [], start
    while k < stop:
        lo = k % width
        if lo or stop - k < width:  # one part of a row
            end = min(stop, k - lo + width)
            pieces.append((k - start, end - start, lo, lo + end - k))
        else:  # whole rows
            end = k + (stop - k) // width * width
            pieces.append((k - start, end - start, 0, width))
        k = end
    return pieces


def _prime_factors(d: int) -> list[int]:
    """The prime factors of d >= 1 in ascending order, with multiplicity; [1] for d = 1."""
    factors, p = [], 2
    while p * p <= d:
        while d % p == 0:
            factors.append(p)
            d //= p
        p += 1
    if d > 1 or not factors:
        factors.append(d)
    return factors


class _Tree:
    """The xi-independent digit tree of a tree mapping to ``level``, built once per check.

    The level-n nodes are in digit-major order (:func:`~.spectra._node_index`): node
    delta sits at sum_k delta_k P_{k-1}, P_k = d_1 ... d_k, so the children
    of the level-(n-1) nodes with last digit j fill the contiguous row
    [j P_{n-1}, (j + 1) P_{n-1}), and the nodes whose last nonzero digit is
    n (the words new at level n) fill [P_{n-1}, P_n).  The level-n factor is
    |H_{d_n}(s)|^2 at s = xi / (d_n rho_n) + u_n, u_n = sigma_n / (d_n rho_n),
    sigma_n = sum_{k<=n} tau(delta_1..delta_k) rho_k, reduced level by level
    as u_n = (u_{n-1} / q_{n-1} + tau) / d_n.

    A uniform level runs as one tree sub-level per prime factor of
    d_n = f_1 ... f_r, ascending, D_j = f_1 ... f_j.  H_{ab}(s) = H_a(s) H_b(a s)
    gives |H_{d_n}(s)|^2 = prod_j |H_{f_j}(s_j)|^2 with s_j = (d_n / D_j) s
    mod 1, and d_n s = xi / rho_n + u_{n-1} / q_{n-1} + tau with tau
    congruent to delta_n mod d_n, so s_j = (xi / rho_n + u_{n-1} / q_{n-1}
    + (delta_n mod D_j)) / D_j: sub-level j has D_j P_{n-1} nodes, the new
    sub-digit in contiguous rows, and argument xi / (D_j rho_n).  Its last
    sub-level, D_r = d_n, is the whole level with the full label tau.  A power
    of two thus runs only H_2, and a power of three only H_3, each a cosine
    form without division or integer guard
    (:func:`~.fourier.eval_H_sq_tables`), and a prime d_n is one sub-level,
    the level itself.  An explicit level of ``filters``, or a level whose table
    labels are not all congruent to their last digit mod d_n (a mapping that
    fails :func:`validate_tree_mapping`), stays one level.

    Per tree level t, ``radix[t]`` is its digit count, ``scale[t]`` the
    float of D_j rho_n that xi is divided by, ``size[t]`` its node count and
    ``kernels[t - 1]`` its :class:`HSqTables`, or (n, u_n) on an explicit
    level of ``filters``; ``ends[n]`` is the tree level that ends level n,
    where size is P_n.  ``u`` keeps u_level unreduced mod 1 for the
    completeness tail tables, which free it.
    """

    def __init__(self, tm: TreeMapping, scales: _Scales, level: int, filters: FilterFamily):
        self.scales = scales.upto(level)
        self.filters = filters
        self.kernels = []
        self.radix, self.scale, self.size, self.ends = [1], [1.0], [1], [0]
        u = np.zeros(1)
        for n, label in enumerate(_labels(tm, scales, level), start=1):
            d, parents = scales.d[n], len(u)
            w, uniform = u / _to_float(scales.q[n - 1]), filters.is_uniform(n)
            primes = _prime_factors(d) if uniform else [d]
            if len(primes) > 1 and not np.array_equal(np.mod(label, d), _digits(d, parents)):
                primes = [d]  # a label off its digit's class mod d_n: the split would not hold
            sub = 1
            for f in primes:
                sub *= f
                u = (np.tile(w, sub) + (label if sub == d else _digits(sub, parents))) / sub
                self.kernels.append(H_sq_tables(f, u) if uniform else (n, u))
                self.radix.append(f)
                self.scale.append(_to_float(sub * scales.rho[n]))
                self.size.append(len(u))
            self.ends.append(len(self.size) - 1)
        self.u = u

    def factors(self, t: int, xis, nodes: slice = slice(None)) -> np.ndarray:
        """The tree-level-t factors over its nodes ``nodes``, one row per xi of
        ``xis``, a float array or a sequence of floats.

        On a sub-level with D_j = ``scale[t]`` / rho_n these are
        |H_{f_j}(xi / (D_j rho_n) + u)|^2 over its tabulated u; over all the
        sub-levels of level n they multiply to the squared level-n factors at
        xi + lambda(delta), because lambda(delta) - sigma_n is a multiple of
        rho_{n+1} = q_n d_n rho_n and G_n is 1-periodic: xi enters only through
        the scalar xi / ``scale[t]``, and ``nodes`` slices the tables as
        views.  The scalars xi / ``scale[t]`` are one array division, each
        entry the rounding of the scalar one.  An explicit filter level takes
        :meth:`~.fourier.FilterFamily.factor`, one row per call, since the
        bits of :func:`~.fourier.eval_filter` depend on the shape of its call."""
        a = np.asarray(xis, dtype=float) / self.scale[t]
        kernel = self.kernels[t - 1]
        if isinstance(kernel, HSqTables):
            return eval_H_sq_tables(kernel, a, nodes)
        n, u = kernel[0], kernel[1][nodes]
        values = np.empty((len(a), len(u)))
        for row, x in zip(values, a):
            f = self.filters.factor(n, x + u)
            np.add(f.real ** 2, f.imag ** 2, out=row)
        return values

    def tiles(self, xis, upto: int):
        """Yield (t, rows, w) for the tree levels t = 0..``upto``, depth first.

        ``rows`` is a range of indices into ``xis`` and w[i] holds the product
        of the :meth:`factors` of tree levels 1..t over the tree-level-t nodes
        at xi = xis[rows[i]]: the parent's product times :meth:`factors`, one
        broadcast over the ``radix[t]`` contiguous rows of children.  At
        t = ``ends[n]`` that is prod_{k<=n} |G_k(xi / (d_k rho_k) + u_k)|^2
        over the level-n nodes.  A tile has at most ``_SLICE`` entries, or one
        row when ``size[t]`` exceeds ``_SLICE``, so that it stays in cache with
        its tables while a shallow level still takes many xi per numpy call; a
        tile's rows are split into tiles of the next tree level as the size
        grows, and the tiles of one tree level come in the order of ``xis``, a
        float array or a sequence of floats."""
        xis = np.asarray(xis, dtype=float)
        stack = [(0, 0, len(xis), None)] if len(xis) else []  # (tree level, rows [lo, hi), parent tile)
        while stack:
            t, lo, hi, parent = stack.pop()
            step = self.rows_per_tile(t)
            if hi - lo > step:  # split the rows, first rows on top
                for i in reversed(range(lo, hi, step)):
                    j = min(i + step, hi)
                    stack.append((t, i, j, None if t == 0 else parent[i - lo:j - lo]))
                continue
            if t == 0:
                w = np.ones((hi - lo, 1))
            else:
                w = self.factors(t, xis[lo:hi])
                children = w.reshape(hi - lo, self.radix[t], -1)
                children *= parent[:, None, :]  # row j: the children with digit j
            yield t, range(lo, hi), w
            if t < upto:
                stack.append((t + 1, lo, hi, w))

    def rows_per_tile(self, t: int) -> int:
        """The xi rows of a tree-level-t tile: as many as fit ``_SLICE`` entries, at least one."""
        return max(1, _SLICE // self.size[t])

    def slice_products(self, t: int, xis, parents: np.ndarray,
                       start: int, stop: int) -> np.ndarray:
        """The tree-level-t products over the nodes [start, stop), one row per
        xi of ``xis``, from the tree-level-(t-1) products ``parents``, one row
        per xi: :meth:`factors` on those nodes times their parents' entries,
        split where the nodes cross a row of children (:func:`_row_pieces`).
        The entries of :meth:`tiles`, bit for bit, with no tree-level-t array
        beyond the block."""
        part = self.factors(t, xis, slice(start, stop))
        for a, b, lo, hi in _row_pieces(start, stop, self.size[t - 1]):
            children = part[:, a:b].reshape(len(part), -1, hi - lo)  # a view: splits the last axis
            children *= parents[:, None, lo:hi]
        return part


# ---------------------------------------------------------------------------
# Partition identity
# ---------------------------------------------------------------------------

class PartitionResult(NamedTuple):
    total: float
    defect: float
    level: int
    xi: float
    terms: int


def partition_levels(tm: TreeMapping, xis: Sequence[float], level: int,
                     filters: FilterFamily | None = None,
                     budget: int = 10**6) -> tuple[tuple[PartitionResult, ...], ...]:
    """Partition sums for every level 1..``level`` at each xi of ``xis``.

    The digit tree is built once (:class:`_Tree`) and all of ``xis`` walk it
    in tiles (:meth:`_Tree.tiles`); the level-n sum at xi is the total of
    the squared products over the level-n words, see
    :func:`partition_identity`, taken at the tree level that ends level n as
    one ``sum(axis=1)`` per tile, which sums each row as a 1-D array, so it
    does not depend on the other xi.
    Returns one tuple of levels 1..``level`` per xi, in the order of ``xis``.
    """
    pair = tm.pair
    check_word_budget(pair, level, budget, least=1)
    if filters is None:
        filters = uniform_family(pair)
    tree = _Tree(tm, _Scales(pair), level, filters)
    xis = np.array(xis, dtype=float)
    totals = np.zeros((len(xis), level))
    column = {t: n - 1 for n, t in enumerate(tree.ends) if n}
    for t, rows, w in tree.tiles(xis, tree.ends[level]):
        if t in column:
            totals[rows.start:rows.stop, column[t]] = w.sum(axis=1)  # per row a 1-D sum, as per xi
    terms = [tree.size[t] for t in tree.ends[1:]]
    return tuple(tuple(PartitionResult(total, abs(total - 1.0), n, xi, count)
                       for n, total, count in zip(range(1, level + 1), per_xi, terms))
                 for xi, per_xi in zip(xis.tolist(), totals.tolist()))


def partition_identity(tm: TreeMapping, xi: float, level: int,
                       filters: FilterFamily | None = None, budget: int = 10**6) -> PartitionResult:
    """Defect of sum over level-L words of |prod_{n<=L} G_n(...)|^2 = 1.

    The identity telescopes through the QMF channel sums, holds exactly for
    every xi and every valid mapping, and is evaluated here by direct
    summation over the word tree.
    """
    return partition_levels(tm, [xi], level, filters=filters, budget=budget)[0][-1]


# ---------------------------------------------------------------------------
# Completeness trend
# ---------------------------------------------------------------------------

class QRow(NamedTuple):
    xi: float
    level: int
    q: float
    certified_slack: float
    monotone_ok: bool


@dataclass(frozen=True)
class CompletenessReport:
    rows: tuple[QRow, ...]
    l_max: int
    monotone: bool          # Q_{L+1} >= Q_L - 1e-12 at every grid point
    bounded: bool           # the direct sum of the terms <= 1 + certified slack
    worst_gap: float        # max over the grid of the gap 1 - Q_{L_max}
    worst_gap_xi: float


_MONOTONE_SLACK = 1e-12
_SLICE = 1 << 14


def _frequencies(tm: TreeMapping, scales: _Scales, level: int):
    """Per level-``level`` node, lambda of its zero-extension; and the labels past it.
    First a ValueError where the slack's sums of lambda^2 could overflow: with
    |lambda| <= B = sum_n max|tau_n| rho_n (the levels and deep labels, exact),
    a block of at most P nodes sums to below P B^2, which must stay below 2^1022."""
    table = _table_labels(tm, scales, level)
    top = {n: scales.d[n] - 1 for n in range(1, level + 1)}
    for k, (_, labels) in table.items():
        top[k] = max(top.get(k, 0), int(np.max(np.abs(labels))))
    bound = sum(t * scales.upto(k).rho[k] for k, t in top.items())
    count = math.prod(scales.d[1:level + 1])
    if count * bound * bound >= 1 << 1022:
        raise ValueError(f"level {level}: |lambda| <= sum_n max|tau_n| rho_n < 2^{bound.bit_length()}, "
                         f"and the slack sums lambda^2 over {count} frequencies, which needs "
                         f"|lambda| below 2^511 / sqrt({count}) to stay in the double range")
    lam = np.zeros(1)
    for n, label in enumerate(_labels(tm, scales, level), start=1):
        lam = np.tile(lam, scales.d[n]) + label * _to_float(scales.rho[n])
    deep = {k: v for k, v in table.items() if k > level}
    for k, (index, labels) in deep.items():
        if top[k]:  # all-zero labels move nothing, however large rho_k
            lam[index] += labels * _to_float(scales.rho[k])
    return lam, deep


def _blocks(scales: _Scales, level: int) -> list[tuple[int, int]]:
    """Per level n = 1..``level``, the nodes [P_{n-1}, P_n) of the level-``level``
    nodes whose last nonzero digit is n ([0, P_1) for n = 1, the root included)."""
    ends = list(itertools.accumulate(scales.d[1:level + 1], operator.mul))
    return [(0, ends[0])] + list(zip(ends, ends[1:]))


def _tail_tables(scales: _Scales, u, level: int, depth: int, xmax: float, deep):
    """The xi-independent tables of the tail log prod_{level<k<=depth} |H_{d_k}(s_k)|^2,
    s_k = xi / (d_k rho_k) + u_k, on the zero-extensions of the level nodes with
    reduced sums ``u``, for every xi in [0, ``xmax``], one entry per slice of
    ``_SLICE`` nodes.  An entry lists (k, u_k) for the explicit levels, those while
    table labels remain or d_k (max |u_k| + xmax / (d_k rho_k)) > LOG_SERIES_THETA,
    and then (k0, A) for the rest: A tabulates the Taylor coefficients in
    eps = xi / rho_k0 of their series at y0 = d_k0 u_k0 (:func:`log_series_taylor`),
    or None when the explicit levels reach ``depth``."""
    tables = []
    last_label = max(deep, default=0)
    for start in range(0, len(u), _SLICE):
        v, explicit, series = u[start:start + _SLICE], [], None
        for k in range(level + 1, depth + 1):
            d = scales.d[k]
            v = v / _to_float(scales.q[k - 1])
            if k in deep:
                index = deep[k][0] - start
                inside = (index >= 0) & (index < len(v))
                v[index[inside]] += deep[k][1][inside]
            v /= d
            bound = d * (float(np.max(np.abs(v))) + xmax / _to_float(d * scales.rho[k]))
            if k > last_label and bound <= LOG_SERIES_THETA:
                ks = range(k, depth + 1)
                series = k, log_series_taylor([scales.d[j] for j in ks],
                                              [scales.rho[k] / scales.rho[j] for j in ks],
                                              d * v, xmax / _to_float(scales.rho[k]))
                break
            explicit.append((k, v))
        tables.append((explicit, series))
    return tables


def _log_tail(scales: _Scales, table, xis: np.ndarray, size: int):
    """The tail log T of one slice of ``size`` nodes from its entry of
    :func:`_tail_tables`, one row per xi of ``xis``: one Horner pass in the
    column of eps, plus the explicit levels."""
    explicit, series = table
    if series is None:
        log_t = np.zeros((len(xis), size))
    else:
        k0, coefficients = series
        # coefficient rows of shape (1, size): a one-row block then adds arrays of its own shape
        log_t = eval_log_series_taylor(coefficients[:, None], _column(xis, scales.rho[k0]))
    for k, v in explicit:
        d = scales.d[k]
        log_t += log_H_sq_array(d, _column(xis, d * scales.rho[k]) + v)
    return log_t


def _column(xis, big: int) -> np.ndarray:
    # xi / big per xi, as a column against a row of nodes
    return (np.asarray(xis, dtype=float) / _to_float(big))[:, None]


def _reach_floats(scales: _Scales, targets: np.ndarray) -> np.ndarray:
    """rho_{N+1} of :meth:`~.core._Scales.reach` at each entry of the float array
    ``targets``, capped at 1e308, from one ``np.searchsorted`` over the cached rho,
    which must already reach every target.  float(rho) < target implies rho < target
    and float(rho) > target implies rho > target, so only where float(rho) equals a
    target does the exact integer comparison decide."""
    floats = np.array([_to_float(r) for r in scales.rho[2:]])  # rho_2, ...: N >= 1
    index = np.searchsorted(floats, targets)
    for k in np.flatnonzero(floats[index] == targets):
        index.flat[k] = scales.reach(float(targets.flat[k]))[0] - 1
    return np.minimum(floats, 1e308)[index]


def completeness_Q(tm: TreeMapping, xi_grid: Sequence[float], l_max: int,
                   tol: float = 1e-10, budget: int = 10**6) -> CompletenessReport:
    """Partial completeness sums Q_L(xi) for L = 1..l_max on a grid in [0, 1/2].

    Lambda_{l_max} holds the frequencies of the zero-extensions of the
    level-l_max nodes, so each term is w T: the node's product w and its tail
    T.  In the digit-major order of :class:`_Tree` the terms new at level n
    are the contiguous block [P_{n-1}, P_n) of the level-l_max nodes ([0, P_1)
    for n = 1), so each block's extreme frequencies, truncation depth and
    sums are scalars.  Everything that does not depend on xi is built once,
    before the grid loop: the digit tree, the frequencies and the moments
    sum lambda and sum lambda^2 of each block, and the tail tables
    (:func:`_tail_tables`) to the deepest truncation depth of
    :func:`~.fourier._truncated_product` for a block at any xi in [0, 1/2]
    (|xi + lambda| is convex in xi, so at xi = 0 or 1/2), with the series
    start fixed for xi up to 1/2.  A
    deeper tail only shrinks the truncation error each radius bounds.  The
    depth of every (grid point, block) is one ``np.searchsorted`` over the
    cached rho (:func:`_reach_floats`).  The grid walks the tree in tiles
    (:meth:`_Tree.tiles`) to the tree level before the last sub-level of
    level l_max, level l_max - 1 where d_{l_max} is prime; the level-l_max
    nodes then run in blocks of max(1, ``_SLICE`` // P_{l_max}) grid rows
    (:meth:`_Tree.rows_per_tile`) by one slice of ``_SLICE`` nodes.  A block
    gets its products w from its parents' entries
    (:meth:`_Tree.slice_products`), the explicit tail levels if any, and one
    Horner pass in the column of xi / rho_k0 (:func:`_log_tail`), and is
    summed before the next block is formed: the gap is one ``sum(axis=1)``,
    and the block sums S and the two slack sums sum |lambda| sqrt(t) and
    sum sigma sqrt(t), sigma the sign of lambda, are each one
    ``np.add.reduceat`` along the rows, accumulated in (grid x level)
    arrays.  With g = w expm1(log T), the gap G_{l_max} = -sum g is exact as
    sum w = 1, the terms are t = w + g, G_L = G_{L+1} + S_{L+1} with S_n the
    sum of block n, and Q_L = 1 - G_L is rounded once, so Q is monotone by
    construction; Q, the slack and the verdicts are formed once, after the
    walk.  ``bounded`` checks the direct sum sum_{n<=L} S_n <= 1 + slack.
    The certified slack bounds the sum of 2 r sqrt(t) + r^2 over the terms,
    r = expm1(z) the radius of :func:`mu_hat_array` at the depth of each
    block for that grid point, z = c |xi + lambda| and c = 2 pi / rho_{N+1}.
    That depth keeps z <= c a_max <= min(tol, 1) / 2, a_max the block's
    largest |xi + lambda|, and expm1(z) <= z (1 + z) for z <= 1, so with
    k = 1 + c a_max the radius is applied once per (row, block) as
    k c (2 A + k c B): at least the per-term sum, and at most k^2, about
    1 + tol, times it.  A = sum |xi + lambda| sqrt(t) and
    B = sum (xi + lambda)^2 come from the sums above: lambda is an integer and
    0 <= xi <= 1/2, so |xi + lambda| = |lambda| + sigma xi exactly (sigma = +1
    at lambda = 0), A = sum |lambda| sqrt(t) + xi sum sigma sqrt(t) and
    B = N xi^2 + 2 xi sum lambda + sum lambda^2 over the block's N terms,
    equal to the direct sums but for rounding.  A mapping failing
    :func:`validate_tree_mapping`, or frequencies too large for B
    (:func:`_frequencies`), raise a ValueError.  Grid
    points and slices run in a fixed order, and a row's values depend neither
    on the rows that share its block nor on the rest of the grid: a one-point
    call gives that xi's rows bit for bit.  An empty grid gives no rows, both
    verdicts true and a worst gap of -inf at xi = 0; of tied worst gaps the
    first grid point is reported.
    """
    pair = tm.pair
    xis = [float(x) for x in xi_grid]
    for x in xis:
        if not 0.0 <= x <= 0.5:
            raise ValueError(f"grid point {x} outside [0, 1/2]")
    check_word_budget(pair, l_max, budget, least=1)
    validation = validate_tree_mapping(tm)
    if not validation.ok:
        issue = validation.issues[0]
        raise ValueError(f"tree mapping fails condition {issue.condition} at {issue.location}: "
                         f"{issue.message}; its frequencies need not be distinct")
    scales = _Scales(pair).upto(l_max)
    if 1 in scales.d[2:l_max + 1]:  # no words new at that level: an empty block
        raise ValueError(f"d_{scales.d.index(1, 2)} = 1: completeness needs d_n >= 2")
    lam, deep = _frequencies(tm, scales, l_max)
    tree = _Tree(tm, scales, l_max, uniform_family(pair))
    blocks = _blocks(scales, l_max)
    starts = [a for a, _ in blocks]
    lo, hi = np.minimum.reduceat(lam, starts), np.maximum.reduceat(lam, starts)
    # the deepest truncation any xi in [0, 1/2] needs: |xi + lambda| is convex in xi
    depth = max(scales.reach(truncation_target(max(abs(l), abs(h), abs(0.5 + l), abs(0.5 + h)),
                                               tol))[0]
                for l, h in zip(lo.tolist(), hi.tolist()))
    tails = _tail_tables(scales, tree.u, l_max, depth, 0.5, deep)
    tree.u = None
    # per (grid point, block): a_max, and k c with c = 2 pi / rho_{N+1} and k = 1 + c a_max;
    # every target is within the depth above, so the rho list reaches it
    x = np.array(xis)
    column = x[:, None]
    reach = np.maximum(np.abs(column + hi), np.abs(column + lo))
    c = TWO_PI / _reach_floats(scales, truncation_target(reach, tol))
    kc = c * (1.0 + c * reach)
    # the xi-free moments of B = sum (xi + lambda)^2 = N xi^2 + 2 xi sum lambda + sum lambda^2
    count = np.diff([*starts, len(lam)])
    sum_lam, sum_sq = np.add.reduceat(lam, starts), np.add.reduceat(lam * lam, starts)
    slices = []  # per slice: its bounds, the range of blocks it meets and their starts in it
    for start in range(0, len(lam), _SLICE):
        stop = min(start + _SLICE, len(lam))
        segments = [(n, max(a, start) - start)
                    for n, (a, b) in enumerate(blocks) if a < stop and b > start]
        slices.append((start, stop, slice(segments[0][0], segments[-1][0] + 1),
                       [a for _, a in segments]))
    # per grid point: the gap G_{l_max}, and per block the sums S of t, of
    # sigma sqrt(t) and of |lambda| sqrt(t), sigma the sign of lambda
    gaps = np.zeros(len(x))
    sums, signed, lin = (np.zeros((len(x), l_max)) for _ in range(3))
    end = tree.ends[l_max]  # the last sub-level of level l_max, formed in slices below
    step = tree.rows_per_tile(end)
    for t, tile_rows, tile in tree.tiles(x, end - 1):
        if t < end - 1:
            continue
        for j in range(0, len(tile_rows), step):
            span = slice(tile_rows.start + j, min(tile_rows.start + j + step, tile_rows.stop))
            parents, block_x = tile[j:j + step], x[span]
            for (start, stop, levels, offsets), table in zip(slices, tails):
                # in place, in the operation order of w + w expm1(log T)
                terms = tree.slice_products(end, block_x, parents, start, stop)
                g = _log_tail(scales, table, block_x, stop - start)
                np.expm1(g, out=g)
                g *= terms
                gaps[span] -= g.sum(axis=1)
                terms += g
                sums[span, levels] += np.add.reduceat(terms, offsets, axis=1)
                np.sqrt(terms, out=terms)
                # lambda = 0 is +0.0 (sums from +0.0 never give -0.0), so sigma = +1 there
                np.copysign(terms, lam[start:stop], out=terms)
                signed[span, levels] += np.add.reduceat(terms, offsets, axis=1)
                terms *= lam[start:stop]
                lin[span, levels] += np.add.reduceat(terms, offsets, axis=1)
    # Q_L = 1 - G_L, G_L = G_{l_max} + sum_{n>L} S_n
    later = np.zeros((len(x), l_max))
    later[:, :-1] = np.cumsum(sums[:, :0:-1], axis=1)[:, ::-1]
    q = 1.0 - (gaps[:, None] + later)
    # sum 2 r sqrt(t) + r^2 <= k c (2 A + k c B), A = sum |xi + lambda| sqrt(t)
    # = sum |lambda| sqrt(t) + xi sum sigma sqrt(t) and B from the moments
    lin += column * signed
    slack = np.cumsum(kc * (2.0 * lin + kc * (column * (count * column + 2.0 * sum_lam) + sum_sq)),
                      axis=1)
    prev = np.zeros_like(q)
    prev[:, 1:] = q[:, :-1]
    ok = q >= prev - _MONOTONE_SLACK
    rows = tuple(map(QRow, np.repeat(x, l_max).tolist(), list(range(1, l_max + 1)) * len(x),
                     q.ravel().tolist(), slack.ravel().tolist(), ok.ravel().tolist()))
    worst = int(np.argmax(gaps)) if len(x) else None  # the first xi of the largest gap
    return CompletenessReport(rows=rows, l_max=l_max, monotone=bool(ok.all()),
                              bounded=bool(np.all(np.cumsum(sums, axis=1) <= 1.0 + slack)),
                              worst_gap=-math.inf if worst is None else float(gaps[worst]),
                              worst_gap_xi=0.0 if worst is None else xis[worst])
