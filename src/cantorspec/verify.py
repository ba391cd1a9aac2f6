"""The three verification pillars: orthogonality, partition identity, completeness.

Orthogonality of the exponentials at a frequency set is equivalent to the
product transform vanishing at every pairwise difference; that is decided in
exact integer arithmetic.  The level-L partition identity
sum_delta |prod_{n<=L} G_n((xi + lambda)/(d_n rho_n))|^2 = 1 holds for every
real xi and every valid tree mapping, so its numerical defect must sit at
roundoff scale.  Completeness is certified only as a trend: the partial sums
Q_L(xi) = sum_{lambda in Lambda_L} |muhat(xi + lambda)|^2 increase with L and
stay below 1 plus the accumulated certified evaluation slack.

Both floating-point pillars run on one digit tree (:class:`_Tree`), the check's
one plan of its levels: it reads the bounds of each word length's labels once, as
exact integers, which the completeness range check (:func:`_check_frequency_range`)
and the tail plan (:func:`_tail_plan`) read, and forms each level's sub-levels
once; its docstring states the node order, the reduced label sums through which
alone xi enters a level, and the sub-levels of a composite d_n, one per prime
factor by the rule of :func:`_sub_levels`, which the completeness tail follows
too.  xi + lambda is never rounded and no large integer reaches numpy.  Each check
tabulates the tree by its own label walk (:meth:`_Tree.descend`), which reads the
value of each label of the tree's levels once; the completeness tail walks on past
the tree (:func:`_tail_inputs`) and reads each label past it once.  The products of
many xi walk the tables depth first in tiles of at most ``_SLICE`` entries
(:meth:`_Tree.tiles`).  The partition check tabulates the whole tree, and its sums
are the row totals at the end of each level.  Completeness walks the grid only to
a tree level s: past it every level factor, and the tail planned once per check
(:func:`_tail_plan`), is a polynomial in xi, and the terms of the nodes below each
level-s node are summed as polynomials per block.  No array spans a whole level
deeper than about half a slice of nodes: in digit-major order the descendants of a
run of level-s nodes are columns of every deeper level (:class:`_Group`), and one
walk (:func:`_group_levels`) tabulates the root group through a group level, and
then each group of columns past it alone, so the peak memory stays flat in the
level.  A factor vanishes only at integer xi, so each deep product keeps one sign
on (0, 1/2], read at xi = 1/4.  :func:`completeness_Q` states the split, the
aggregation and the certified slack from two sums per block.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import BudgetExceededError, ScalePair, _Scales, _to_float, check_growth
from .fourier import (_TAYLOR_TOL, SERIES_THETA, TWO_PI, FilterFamily, H_sq_tables, HSqTables,
                      _powers, _root_angles, eval_H_sq_tables, eval_taylor, root_complement,
                      root_series, root_series_taylor, signed_root_taylor, truncation_target,
                      uniform_family)
from .spectra import (TreeMapping, _elements_of, _table_nodes, check_word_budget,
                      validate_tree_mapping, word_count)

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

    The transform vanishes at x - y iff some factor does, that is iff some
    level n has x = y mod rho_n but not mod d_n rho_n: no factor vanishes once
    rho_n > |x - y|, and the tail product stays nonzero, as
    sum_n |1 - H_{d_n}| is geometrically dominated.  So a pair no lower level
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
    annihilated by the transform, a condition of integer divisibility alone
    that :func:`_grouped_orthogonality` states.  It classifies the pairs level
    by level, linear in the set size per level; no floating point.
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
    (:func:`~.spectra._table_nodes`); the labels are the table's Python integers.  A label of a word of length k <= ``level``
    past the double range, which the label walk could not form, raises a ValueError
    naming level k and the word; the labels past ``level`` are left to the checks
    that read them."""
    table: dict[int, list[tuple[int, int]]] = {}
    for word, index, value in _table_nodes(tm, scales, level):
        if len(word) <= level and math.isinf(_to_float(value)):
            raise ValueError(f"level {len(word)}: the label of word {list(word)} is past the double range")
        table.setdefault(len(word), []).append((index, value))
    # the labels exact, of any size: numpy would make floats of [2^63, -1]
    return {k: (np.array([i for i, _ in e]), np.array([v for _, v in e], dtype=object))
            for k, e in table.items()}


def _digits(d: int, count: int) -> np.ndarray:
    # the last digit 0..d-1 of each of d count nodes in digit-major order, as floats
    return np.repeat(np.arange(d, dtype=float), count)


def _prime_factors(d: int, limit: float = math.inf) -> list[int]:
    """The prime factors of d >= 1 in ascending order, with multiplicity; [1] for d = 1.
    Trial division stops past ``limit``, and at a cofactor past ``limit``^2 that passes
    Fermat's test 2^(d-1) = 1 mod d, a probable prime (tested at the start and after
    each factor divides out, never per candidate): the last entry is then the
    cofactor, whose prime factors all exceed ``limit``.  With no limit the factors are
    all prime."""
    factors, p, prime = [], 2, d > limit * limit and pow(2, d - 1, d) == 1
    while not prime and p * p <= d and p <= limit:
        while d % p == 0:
            factors.append(p)
            d //= p
            prime = d > limit * limit and pow(2, d - 1, d) == 1
        p += 1
    if d > 1 or not factors:
        factors.append(d)
    return factors


def _sub_levels(scales: _Scales, k: int, limit: float = math.inf) -> list[tuple[int, int, float]]:
    """The factors of level k, one rule for the digit tree and the completeness tail:
    (f_j, D_j, the float of D_j rho_k) per sub-level j of d_k = f_1 ... f_r, D_j =
    f_1 ... f_j, the f_j the factors of d_k by :func:`_prime_factors` to ``limit``: the
    primes, ascending, with no limit; [d_k], the level whole, at ``limit`` 1.
    H_{ab}(s) = H_a(s) H_b(a s) gives |H_{d_k}(s)|^2 = prod_j |H_{f_j}((d_k / D_j) s)|^2 at
    every s, for any factors, so at s = xi / (d_k rho_k) + u sub-level j is |H_{f_j}|^2 at
    xi / (D_j rho_k) + (d_k / D_j) u: a power of two runs only H_2."""
    primes = _prime_factors(scales.d[k], limit)
    subs = itertools.accumulate(primes, operator.mul)
    return [(f, sub, _to_float(sub * scales.rho[k])) for f, sub in zip(primes, subs)]


def _check_divides(scales: _Scales, n: int):
    """A ValueError naming level n - 1 unless d_{n-1} divides b_{n-1}, where a walk reduces
    u_{n-1} by q_{n-1} into level n: only then is u_n = sigma_n / (d_n rho_n)."""
    if n > 1 and scales.rho[n] % (scales.d[n - 1] * scales.rho[n - 1]):
        raise ValueError(f"level {n - 1}: d_{n - 1} = {scales.d[n - 1]} does not divide b_{n - 1} = "
                         f"{scales.rho[n] // scales.rho[n - 1]}, so the digit tree cannot reduce past it")


def _rate(f: int, scale: float) -> float:
    # the rate c_f / (2 scale), c_f = pi (f - 1), at which the Taylor coefficients in xi of
    # the signed root of H_f at xi / scale + u fall for xi in [0, 1/2] (signed_root_taylor)
    return math.pi * (f - 1) * 0.5 / scale


class _Group(NamedTuple):
    """The columns [lo, hi) of the digit tree below a level of ``base`` nodes.

    In digit-major order the descendants of the level nodes lo..hi-1 at every deeper
    level are the columns [lo, hi) of that level's (size / base, base) view: node
    q base + j for every row q and lo <= j < hi.  A group holds them row by row, so
    its arrays are whole-level arrays over the (size / base) (hi - lo) nodes of a
    smaller tree with the same digits, and the children of its level-(n-1) nodes with
    last digit j fill its contiguous row j, as in the whole tree."""

    base: int
    lo: int
    hi: int

    def part(self, index: np.ndarray, labels: np.ndarray):
        """(at, labels): the table labels of the level nodes ``index`` that lie in the
        group, and their positions in its arrays."""
        q, j = np.divmod(index, self.base)
        keep = (self.lo <= j) & (j < self.hi)
        return q[keep] * (self.hi - self.lo) + (j[keep] - self.lo), labels[keep]

    def view(self, values: np.ndarray) -> np.ndarray:
        """The group's entries of a whole-level array (its last axis), a copy unless the
        group spans the level."""
        head = values.shape[:-1]
        return values.reshape(*head, -1, self.base)[..., self.lo:self.hi].reshape(*head, -1)


_ROOT = _Group(1, 0, 1)  # the whole tree, below its one level-0 node


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

    A uniform level runs as one tree sub-level per factor f_j of
    :func:`_sub_levels`, the rule the completeness tail follows too.  Here
    d_n s = xi / rho_n + u_{n-1} / q_{n-1} + tau with tau congruent to delta_n
    mod d_n, so (d_n / D_j) s = (xi / rho_n + u_{n-1} / q_{n-1} + (delta_n mod
    D_j)) / D_j mod 1: sub-level j has D_j P_{n-1} nodes, the new sub-digit in
    contiguous rows, and argument xi / (D_j rho_n).  Its last sub-level,
    D_r = d_n, is the whole level with the full label tau.  A power of two
    thus runs only H_2, and a power of three only H_3, each a cosine form
    without division or integer guard (:func:`~.fourier.eval_H_sq_tables`),
    and a prime d_n is one sub-level, the level itself.  An explicit level of
    ``filters``, or a level whose table labels are not all congruent to their
    last digit mod d_n in exact integers (a mapping that fails
    :func:`validate_tree_mapping`), stays one level.

    The tree is its check's one plan of the levels: ``subs[n]`` lists the
    sub-levels of level n (:func:`_sub_levels`), formed once here.  Per tree
    level t, ``radix[t]`` is its digit count, ``scale[t]`` the float of
    D_j rho_n that xi is divided by and ``size[t]`` its node count; ``ends[n]``
    is the tree level that ends level n, where size is P_n.  These come from
    the table labels alone (read once, :func:`_table_labels`), for every level
    to ``level``; ``table`` keeps the labels by word length, exact, those past
    ``level`` included, which the tail walk reads (:func:`_tail_inputs`).
    ``extremes[k]`` is (least, largest) of the labels of word length k, exact: of
    the digits 0..d_k - 1 and the table labels to ``level``, of 0 and the table
    labels past it, for every k to ``level`` and every k of ``table``; the range check
    and the tail plan read these bounds, and no other reader forms them.  A level
    below ``level`` whose d_n does not divide b_n raises a ValueError
    (:func:`_check_divides`).

    The tree keeps only this shape.  Each check takes the tables from its own label
    walk, :meth:`descend`, whose ``kernels[t - 1]`` is the :class:`HSqTables` of tree
    level t, or (n, u_n) on an explicit level of ``filters``, and passes them to
    :meth:`tiles`: the partition check tabulates the whole tree, the completeness
    check each group of columns past a group level alone (:func:`_group_levels`).
    """

    def __init__(self, tm: TreeMapping, scales: _Scales, level: int, filters: FilterFamily):
        self.scales = scales.upto(level)
        self.filters, self.level = filters, level
        self.table = _table_labels(tm, self.scales, level)
        self.extremes = {n: (0, scales.d[n] - 1) for n in range(1, level + 1)}  # the digits
        for k, (_, labels) in self.table.items():
            values = [*self.extremes.get(k, (0, 0)), *labels.tolist()]
            self.extremes[k] = min(values), max(values)
        self.radix, self.scale, self.size, self.ends, self.subs = [1], [1.0], [1], [0], [None]
        for n in range(1, level + 1):
            _check_divides(scales, n)
            whole, parents = not filters.is_uniform(n), self.size[-1]
            if not whole and n in self.table:
                index, labels = self.table[n]
                # a label off its digit's class mod d_n: the split would not hold
                whole = not np.array_equal(labels % scales.d[n], index // parents)
            self.subs.append(_sub_levels(scales, n, 1 if whole else math.inf))
            for f, sub, scale in self.subs[n]:
                self.radix.append(f)
                self.scale.append(scale)
                self.size.append(sub * parents)
            self.ends.append(len(self.size) - 1)

    def descend(self, first: int, last: int, group: _Group, u: np.ndarray, lam: np.ndarray | None):
        """(kernels, u, lam): the one label walk over the levels ``first``..``last`` of the
        nodes of ``group``, from u and lambda over its level-(``first`` - 1) nodes.

        Each level's tau forms both u_n and, beside it, lambda_n = lambda_{n-1} +
        tau rho_n; ``kernels`` holds the tables of each of its tree levels in turn, and
        u and lambda are returned at level ``last``, u unreduced mod 1.  lambda holds
        the labels of the levels walked only: the table labels past ``level`` are the
        tail walk's (:func:`_tail_inputs`), which completes each node's zero-extension.
        Each entry is the one the walk over the whole tree gives that node, bit for bit:
        the same operations on the same operands.  Each level runs its planned
        sub-levels ``subs[n]``.  Given lambda None, as from the
        partition check, which reads none, the walk forms u alone and returns None for
        lambda; a check that reads lambda refuses its frequencies past the double range
        before any walk (:func:`_check_frequency_range`)."""
        scales, kernels = self.scales, []
        for n in range(first, last + 1):
            d, parents = scales.d[n], len(u)
            label = _digits(d, parents)  # tau: the last digit, or the table value
            if n in self.table:
                at, labels = group.part(*self.table[n])
                label[at] = labels
            if lam is not None:
                lam = np.tile(lam, d)
                lam += label * _to_float(scales.rho[n])
            w, uniform = u / _to_float(scales.q[n - 1]), self.filters.is_uniform(n)
            for f, sub, _ in self.subs[n]:
                u = (np.tile(w, sub) + (label if sub == d else _digits(sub, parents))) / sub
                kernels.append(H_sq_tables(f, u) if uniform else (n, u))
        return kernels, u, lam

    def factors(self, t: int, kernel, xis) -> np.ndarray:
        """The tree-level-t factors over its nodes from its tables ``kernel`` of
        :meth:`descend`, one row per xi of ``xis``, a float array or a sequence of floats.

        On a sub-level with D_j = ``scale[t]`` / rho_n these are
        |H_{f_j}(xi / (D_j rho_n) + u)|^2 over its tabulated u; over all the
        sub-levels of level n they multiply to the squared level-n factors at
        xi + lambda(delta), because lambda(delta) - sigma_n is a multiple of
        rho_{n+1} = q_n d_n rho_n and G_n is 1-periodic: xi enters only through
        the scalar xi / ``scale[t]``.  The scalars xi / ``scale[t]`` are one
        array division, each entry the rounding of the scalar one.  An explicit
        filter level takes one :meth:`~.fourier.FilterFamily.factor` call over
        the tile's (xi, node) arguments; :func:`~.fourier.eval_filter` gives
        each entry the bits of its own argument, so a row is the row of that xi
        alone."""
        a = np.asarray(xis, dtype=float) / self.scale[t]
        if isinstance(kernel, HSqTables):
            return eval_H_sq_tables(kernel, a)
        n, u = kernel
        f = self.filters.factor(n, a[:, None] + u)
        return f.real ** 2 + f.imag ** 2

    def tiles(self, xis, kernels):
        """Yield (t, rows, w) for the tree levels t = 0..len(``kernels``), depth first,
        ``kernels[t - 1]`` the tables of tree level t of :meth:`descend`.

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
            step = max(1, _SLICE // self.size[t])
            if hi - lo > step:  # split the rows, first rows on top
                for i in reversed(range(lo, hi, step)):
                    j = min(i + step, hi)
                    stack.append((t, i, j, None if t == 0 else parent[i - lo:j - lo]))
                continue
            if t == 0:
                w = np.ones((hi - lo, 1))
            else:
                w = self.factors(t, kernels[t - 1], xis[lo:hi])
                children = w.reshape(hi - lo, self.radix[t], -1)
                children *= parent[:, None, :]  # row j: the children with digit j
            yield t, range(lo, hi), w
            if t < len(kernels):
                stack.append((t + 1, lo, hi, w))


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
                     filters: FilterFamily | None = None, budget: int = 10**6) -> np.ndarray:
    """Partition sums for every level 1..``level`` at each xi of ``xis``.

    The digit tree is built once (:class:`_Tree`) and all of ``xis`` walk it
    in tiles (:meth:`_Tree.tiles`); the level-n sum at xi is the total of
    the squared products over the level-n words, see
    :func:`partition_identity`, taken at the tree level that ends level n as
    one ``sum(axis=1)`` per tile, which sums each row as a 1-D array, so it
    does not depend on the other xi.
    Returns the sums as a float array of shape (len(``xis``), ``level``): row i for
    xis[i], column n - 1 for level n.
    """
    pair = tm.pair
    check_word_budget(pair, level, budget, least=1)
    if filters is None:
        filters = uniform_family(pair)
    tree = _Tree(tm, _Scales(pair), level, filters)
    xis = np.array(xis, dtype=float)
    totals = np.zeros((len(xis), level))
    column = {t: n - 1 for n, t in enumerate(tree.ends) if n}
    for t, rows, w in tree.tiles(xis, tree.descend(1, level, _ROOT, np.zeros(1), None)[0]):
        if t in column:
            totals[rows.start:rows.stop, column[t]] = w.sum(axis=1)  # per row a 1-D sum, as per xi
    return totals


def partition_identity(tm: TreeMapping, xi: float, level: int,
                       filters: FilterFamily | None = None, budget: int = 10**6) -> PartitionResult:
    """Defect of sum over level-L words of |prod_{n<=L} G_n(...)|^2 = 1.

    The identity telescopes through the QMF channel sums, holds exactly for
    every xi and every valid mapping, and is evaluated here by direct
    summation over the word tree.
    """
    total = float(partition_levels(tm, [xi], level, filters=filters, budget=budget)[0, -1])
    return PartitionResult(total, abs(total - 1.0), level, float(xi), word_count(tm.pair, level))


# ---------------------------------------------------------------------------
# Completeness trend
# ---------------------------------------------------------------------------

class QRow(NamedTuple):
    xi: float
    level: int
    q: float
    certified_slack: float


@dataclass(frozen=True)
class CompletenessReport:
    grid: np.ndarray        # the grid points, in order
    q: np.ndarray           # Q_L(xi) of grid point k and level L at [k, L - 1]
    slack: np.ndarray       # the certified slack of each Q, in the same layout
    l_max: int
    bounded: bool           # the direct sum of the terms <= 1 + certified slack
    worst_gap: float        # max over the grid of the gap 1 - Q_{L_max}
    worst_gap_xi: float

    @property
    def rows(self) -> tuple[QRow, ...]:
        """The (xi, L, Q, slack) rows: levels 1..l_max of each grid point, in the order
        of the grid."""
        return tuple(map(QRow, np.repeat(self.grid, self.l_max).tolist(),
                         list(range(1, self.l_max + 1)) * len(self.grid),
                         self.q.ravel().tolist(), self.slack.ravel().tolist()))

    def __eq__(self, other) -> bool:
        # every value, the arrays' entry by entry
        return isinstance(other, CompletenessReport) and all(
            map(np.array_equal, vars(self).values(), vars(other).values()))


_SLICE = 1 << 14
_GRID_ROWS = 33  # the default grid of the completeness subcommand, K = 32


def _check_frequency_range(tree: _Tree) -> int:
    """B = sum_n max|tau_n| rho_n >= |lambda| (the levels and the table labels past
    them, exact), or a ValueError where the slack's sums of lambda^2 could overflow:
    a block of at most P_L nodes sums to below P_L B^2, which must stay below 2^1022.
    It reads the tree's exact label bounds by word length, ``extremes``, and P_L from
    its size, before any label walk, so every |lambda| a walk forms stays below 2^511."""
    scales, level = tree.scales, tree.level
    bound = sum(max(-lo, hi) * scales.upto(k).rho[k] for k, (lo, hi) in tree.extremes.items())
    count = tree.size[-1]
    if count * bound * bound >= 1 << 1022:
        raise ValueError(f"level {level}: |lambda| <= sum_n max|tau_n| rho_n < 2^{bound.bit_length()}, "
                         f"and the slack sums lambda^2 over {count} frequencies, which needs "
                         f"|lambda| below 2^511 / sqrt({count}) to stay in the double range")
    return bound


class _Series(NamedTuple):
    """The series tail of :func:`_tail_plan` from level k0 on: the ``coefficients`` in y^2
    of its sqrt(T) and their bound ``low`` (:func:`~.fourier.root_series`), formed once per
    check, e = xmax / rho_k0, and ``top``, a bound of |y0| = d_k0 |u_k0| over the nodes."""

    k0: int
    coefficients: np.ndarray
    low: float
    e: float
    top: float

    def table(self, y0: np.ndarray) -> np.ndarray:
        """The Taylor coefficients in eps = xi / rho_k0 of 1 - sqrt(T) at the entries of
        ``y0``, for every |eps| <= e (:func:`~.fourier.root_series_taylor`)."""
        return root_series_taylor(self.coefficients, self.low, y0, self.e)


def _tail_plan(tree: _Tree, depth: int, xmax: float, budget: int):
    """(explicit, series): the xi-independent plan of the tail
    prod_{level<k<=depth} |H_{d_k}(s_k)|^2, s_k = xi / (d_k rho_k) + u_k, on the
    zero-extensions of the tree's nodes, for every xi in [0, ``xmax``].  ``explicit``
    lists (k, the degree of its signed root, :func:`_sub_levels` of k) for the levels
    while table labels remain or d_k (max |u_k| + xmax / (d_k rho_k)) >
    SERIES_THETA; ``series`` is the :class:`_Series` of the rest, or None when the
    explicit levels reach ``depth``.

    A sub-level H_f, f >= 5, of an explicit level takes f // 2 rows of angles over
    every node, so where those rows times the nodes exceed ``budget`` the plan raises
    BudgetExceededError.  No factor f > max(3, 2 budget / nodes + 1) is then usable (H_2
    and H_3 cost no rows), and d_k is factored only that far (:func:`_sub_levels` to that
    limit): a cofactor with no factor below it stays one sub-level, which the budget
    refuses, and H_ab(s) = H_a(s) H_b(a s) holds for any factors.  So trial division on
    d_k stops at that bound, not at sqrt(d_k), and at once where the cofactor passes the
    bound's square and Fermat's test (:func:`_prime_factors`): any factor still found would
    leave a cofactor past the bound.

    max |u_k| is bounded without a node: u_k = (u_{k-1} / q_{k-1} + tau) / d_k is
    monotone in u_{k-1} and tau, in floating point too, so the recursion on the least
    and largest label of each level, the tree's exact ``extremes`` (a digit or a table
    label; 0 or a table label past the tree) each rounded once, monotone too, encloses
    every node's u_k.  With canonical labels the all-zero and
    all-(d_n - 1) words attain both ends, so the bound is each level's max |u_k|.
    Where u_k is reduced by q_{k-1}, d_{k-1} must divide b_{k-1} (:func:`_check_divides`);
    the tree has checked its own levels, so the plan checks those past it."""
    scales, level, nodes = tree.scales.upto(depth), tree.level, tree.size[-1]
    explicit, last_label, lo, hi = [], max(tree.table, default=0), 0.0, 0.0
    for k in range(1, depth + 1):
        d, q = scales.d[k], _to_float(scales.q[k - 1])
        if _to_float(d) == math.inf:
            raise ValueError(f"level {k}: d_{k} = {d} is past the double range of the tail's factors")
        least, largest = tree.extremes.get(k, (0, 0))
        lo, hi = (lo / q + _to_float(least)) / d, (hi / q + _to_float(largest)) / d
        if k <= level:
            continue
        _check_divides(scales, k)  # the tree checked its own levels
        top = max(abs(lo), abs(hi))
        if k > last_label and d * (top + xmax / _to_float(d * scales.rho[k])) <= SERIES_THETA:
            ks = range(k, depth + 1)
            ms, ts = [scales.d[j] for j in ks], [scales.rho[k] / scales.rho[j] for j in ks]
            return explicit, _Series(k, *root_series(ms, ts), xmax / _to_float(scales.rho[k]), d * top)
        subs = _sub_levels(scales, k, max(3, 2 * budget // nodes + 1))
        rows = sum(f // 2 for f, _, _ in subs if f >= 5)
        if rows * nodes > budget:
            raise BudgetExceededError(f"tail level {k} needs {rows} rows of angles over {nodes} "
                                      f"nodes, over the budget of {budget}", required=rows * nodes)
        explicit.append((k, _taylor_degree(sum(_rate(f, scale) for f, _, scale in subs)), subs))
    return explicit, None


def _tail_inputs(tree: _Tree, group: _Group, last: int, u: np.ndarray, lam: np.ndarray):
    """(us, lambda): the walk past the tree over the nodes of ``group``, from their u and
    lambda at the tree's ``level`` (:meth:`_Tree.descend`) to level ``last``.  ``us``
    holds u_k of each level walked by the tree's rule, for the explicit tail levels of
    :func:`_tail_plan` and then the series' first level k0, if any, ``last`` = k0 or
    ``level`` + len(explicit); lambda is that of each node's zero-extension.  A table
    label past the tree moves u and lambda together, read once, as a float.  Every
    nonzero one lies within ``last``: B >= |tau| rho_k and rho_{depth+1} > B put k at
    most the tail's depth, and the plan starts the series only past the last labelled
    word length.  The walk writes a copy of lambda, as the caller's may be a view of
    the root group's."""
    scales, us, lam = tree.scales.upto(last), [], lam.copy()
    for k in range(tree.level + 1, last + 1):
        u = u / _to_float(scales.q[k - 1])
        if k in tree.table:
            at, labels = group.part(*tree.table[k])
            labels = labels.astype(float)
            u[at] += labels
            lam[at] += labels * _to_float(scales.rho[k])
        u /= scales.d[k]
        us.append(u)
    return us, lam


def _poly_mul(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    # the coefficient rows of the product of two polynomials given by coefficient
    # rows, entry by entry, through ``degree`` (all of them by default)
    top = len(a) + len(b) - 2 if degree is None else degree
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out, part = np.empty((top + 1, *shape)), np.empty(shape)
    for k in range(top + 1):
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        # of a square each cross term once, doubled
        terms = [(i, k - i) for i in range(lo, hi + 1) if a is not b or i <= k - i]
        for n, (i, j) in enumerate(terms):
            target = out[k] if n == 0 else part
            np.multiply(a[i], b[j], out=target)
            if a is b and i < j:
                target *= 2.0
            if n:
                out[k] += part
    return out


def _taylor_degree(h: float) -> int:
    # the least degree D with h^(D+1) e^h / (D+1)! <= 2^-60: the remainder of the
    # majorant exp(2 h xi) of a product of factors whose n-th Taylor coefficient in xi
    # is at most (c / S)^n / n!, with h = sum c / (2 S), at every xi in [0, 1/2]
    degree, term = 0, h
    while term * math.exp(h) > _TAYLOR_TOL:
        degree += 1
        term *= h / (degree + 1)
    return degree


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


def _trim(table: np.ndarray) -> np.ndarray:
    # the coefficient rows of ``table`` through the least degree past which every
    # entry's remaining terms sum to at most 2^-60 at every xi in [0, 1/2]
    top = np.max(np.abs(table.reshape(len(table), -1)), axis=1) * _powers(0.5, len(table))
    tail = np.cumsum(top[::-1])[::-1]
    return table[:1 + next((k for k in range(len(table) - 1) if tail[k + 1] <= _TAYLOR_TOL), len(table) - 1)]


def _walk_depth(tree: _Tree, l_max: int, ends: list[int], tail_degree: int,
                root_degree: int) -> tuple[int, int]:
    """(s, dv): the tree level s the grid walks to, and the degree dv of the deep
    products past it: :func:`_taylor_degree` of the sum of their :func:`_rate`.  s is the
    level of least count of element passes: per grid row about six per node walked and
    one per coefficient of the (1 + blocks past s) P_s cells, and per node of level
    ``l_max`` about two per term of the products that form and sum its polynomials,
    over the rows of the completeness subcommand's default grid, so that no choice
    depends on the grid (the constants were fitted to timings of mu42 at L = 12 and 16,
    mu93 at L = 8 and alpha_half at L = 4)."""
    end = tree.ends[l_max]
    rate = [0.0] * (end + 1)  # rate[t]: the rate of the levels past t
    for t in range(end, 0, -1):
        rate[t - 1] = rate[t] + _rate(tree.radix[t], tree.scale[t])
    walked = list(itertools.accumulate(tree.size))

    def work(t):
        dv = _taylor_degree(rate[t])
        cells = (len(ends) - bisect.bisect_right(ends, tree.size[t]) + 1) * tree.size[t]
        per_cell = 6 * dv + tail_degree + 2 * root_degree + 4
        per_node = (2 * (dv + 1) ** 2 + (2 * dv + 1) * (tail_degree + 1) + (dv + 1) * (root_degree + 1)
                    + 2 * (dv + root_degree + 1) + per_cell)
        return _GRID_ROWS * (6 * walked[t] + cells * per_cell) + 2 * ends[-1] * per_node

    walk = min(range(end + 1), key=lambda t: (work(t), t))
    return walk, _taylor_degree(rate[walk])


def _times_roots(tree: _Tree, t: int, kernel: HSqTables, v: np.ndarray, dv: int) -> np.ndarray:
    """V times the signed roots R_t of tree level t over the nodes of the tables
    ``kernel``, each row of children times its parents, as Taylor polynomials in xi of
    degree ``dv``.  R_t is the signed root of the level-t factor
    (:func:`~.fourier.signed_root_taylor`), so the square of a product of them past the
    walk is the product of those factors, within 2^-60 by :func:`_taylor_degree` of the
    rate."""
    roots = signed_root_taylor(_root_angles(kernel), 1.0 / tree.scale[t], dv)
    return _poly_mul(v[:, None, :], roots.reshape(dv + 1, tree.radix[t], -1), dv).reshape(dv + 1, -1)


def _group_levels(tree: _Tree, group: _Group, first: int, last: int, start, walk: int, dv: int):
    """(kernels, V, u, lambda) over the level-``last`` nodes of ``group``, walked on from
    its columns of ``start``: the tables and the u and lambda of :meth:`_Tree.descend` from
    level ``first``, and V times the signed roots R_t of :func:`_times_roots` of its tree
    levels t past ``walk``.  The whole tree through a group level is the root group
    :data:`_ROOT` from level 1, with V = 1 over the level-``walk`` nodes and u = lambda = 0
    over the root; each group below it is walked on alone from there.  So no array spans
    a whole level past the group level, and each node of each level is formed once."""
    v, u, lam = (group.view(values) for values in start)
    kernels, u, lam = tree.descend(first, last, group, u, lam)
    for t, kernel in enumerate(kernels, start=tree.ends[first - 1] + 1):
        if t > walk:
            v = _times_roots(tree, t, kernel, v, dv)
    return kernels, v, u, lam


def _root_product(root: np.ndarray, rest: np.ndarray, r: np.ndarray, minus: np.ndarray,
                degree: int | None = None):
    """(R r, 1 - R r) from (R, 1 - R) = (``root``, ``rest``) and (r, 1 - r) = (``r``,
    ``minus``), as coefficient rows of polynomials in xi through ``degree`` (all of them by
    default), ``rest`` no longer than ``root``: 1 - R r = (1 - R) + (1 - r) R, so that where
    both complements keep their constant terms without cancellation, so does theirs.  The
    one product rule of the completeness tail."""
    out = _poly_mul(minus, root, degree)
    out[:len(rest)] += rest
    return _poly_mul(r, root, degree), out


def _tail_roots(d: int, degree: int, subs, u: np.ndarray):
    """(R, 1 - R) of an explicit tail level of d digits, sub-levels ``subs``
    (:func:`_sub_levels`) and signed-root degree ``degree`` (:func:`_tail_plan`) over
    the nodes of reduced sums ``u``, as Taylor polynomials in xi: R = prod_j R_j, R_j
    the signed root of H_{f_j} (:func:`~.fourier.signed_root_taylor`), multiplied in by
    :func:`_root_product`, each 1 - R_j with its constant term from
    :func:`~.fourier.root_complement`.  Both read one :func:`~.fourier._root_angles` pass
    per sub-level table.  No node branches in the tail, so the split holds whatever the
    labels."""
    # -0.0 + x is x for every x, a signed zero too: a prime d gives its one R and 1 - R
    root, rest = np.ones((1, len(u))), np.full((1, len(u)), -0.0)
    for f, sub, scale in subs:
        angles = _root_angles(H_sq_tables(f, (d // sub) * u))
        r = signed_root_taylor(angles, 1.0 / scale, degree)
        minus = -r
        minus[0] = root_complement(angles)
        root, rest = _root_product(root, rest, r, minus, degree)
    return root, rest


def _tail_polynomials(scales: _Scales, explicit, series: _Series | None, us, count: int):
    """(T - 1, sqrt(T)) over ``count`` nodes by the plan of :func:`_tail_plan`, from
    their reduced sums ``us`` of :func:`_tail_inputs`, as coefficient rows of
    polynomials in xi.  sqrt(T) is a product of signed roots: the series gives its
    1 - sqrt(T) as the table of :meth:`_Series.table` in eps = xi / rho_k0, and each
    explicit level multiplies in its R and 1 - R of :func:`_tail_roots` by the rule of
    :func:`_root_product`.  So 1 - sqrt(T) keeps its constant term without cancellation, and
    so does T - 1 = -(1 - sqrt(T)) (1 + sqrt(T))."""
    if series is None:
        root, rest = np.ones((1, count)), np.full((1, count), -0.0)
    else:
        rest = series.table(scales.d[series.k0] * us[-1])
        rest *= _powers(1.0 / _to_float(scales.rho[series.k0]), len(rest))[:, None]
        root = -rest
        root[0] += 1.0
    for (k, degree, subs), v in zip(explicit, us):
        root, rest = _root_product(root, rest, *_tail_roots(scales.d[k], degree, subs, v))
    plus = root.copy()
    plus[0] += 1.0
    return -_poly_mul(rest, plus), root


def _cell_polynomials(deep_v: np.ndarray, tail_m1: np.ndarray, root_tail: np.ndarray, lam: np.ndarray):
    """Per node, the polynomials in xi that the cells sum, one at a time: V^2,
    g = V^2 (T - 1), and sigma r and |lambda| r, r = |V| sqrt(T) with the sign of
    V sqrt(T) at xi = 1/4.  The constant term of r is |r(0)|: where it disagrees with
    that sign it is the rounding of a zero at xi = 0, such as cos(pi / 2) = 6e-17, and
    keeps its size."""
    sign = np.where(eval_taylor(deep_v, 0.25) * eval_taylor(root_tail, 0.25) < 0.0,
                    -1.0, 1.0)
    square = _poly_mul(deep_v, deep_v)
    yield square
    yield _poly_mul(square, tail_m1)
    root = _poly_mul(sign * deep_v, root_tail)
    np.abs(root[0], out=root[0])
    # lambda = 0 is +0.0 (sums from +0.0 never give -0.0), so sigma = +1 there
    yield root * np.copysign(1.0, lam)
    root *= np.abs(lam)
    yield root


def _cell_sums(scales: _Scales, explicit, series: _Series | None, us, deep_v: np.ndarray, lam: np.ndarray,
               runs, columns: int) -> list[np.ndarray]:
    """Per kind of :func:`_cell_polynomials` ("vgsl") the sums of its polynomials over
    the cells of nodes held as rows of ``columns`` columns: per column, over each run of
    rows from ``runs[k]`` to ``runs[k + 1]`` (the last to the last row).  ``us`` are the
    nodes' reduced sums of :func:`_tail_inputs`."""
    polys = _cell_polynomials(deep_v, *_tail_polynomials(scales, explicit, series, us, len(lam)), lam)
    return [np.add.reduceat(poly.reshape(len(poly), -1, columns), runs, axis=1) for poly in polys]


def _by_block(reduce: np.ufunc, cells: np.ndarray, heads: list[int], past: list[int], blocks: int,
              start: float) -> np.ndarray:
    """Per block the ``reduce`` of the per-cell values ``cells``: row 0 split by the
    blocks of j at ``heads``, each later row over j into the block ``past[row - 1]``;
    ``start`` is the reduction's identity, for the block the walk splits, which takes
    both."""
    out = np.full(blocks, start)
    out[:len(heads)] = reduce.reduceat(cells[0], heads)
    out[past] = reduce(out[past], reduce.reduce(cells[1:], axis=1))
    return out


def completeness_Q(tm: TreeMapping, xi_grid: Sequence[float], l_max: int,
                   tol: float = 1e-10, budget: int = 10**6) -> CompletenessReport:
    """Partial completeness sums Q_L(xi) for L = 1..l_max on a grid in [0, 1/2].

    Lambda_{l_max} holds the frequencies of the zero-extensions of the
    level-l_max nodes, so each term is t = w T: the node's product w and its tail
    T.  In the digit-major order of :class:`_Tree` the terms new at level n are
    the contiguous block [P_{n-1}, P_n) of the level-l_max nodes ([0, P_1) for
    n = 1), so each block's extreme frequencies, truncation depth and sums are
    scalars.  The tail runs to the truncation depth of
    :func:`~.fourier._truncated_product` at B + 1/2, B = sum_n max|tau_n| rho_n >=
    |lambda| (:func:`_check_frequency_range`; the largest |lambda| itself with
    canonical labels): the depth is monotone in |xi + lambda|, so no block at any xi
    in [0, 1/2] needs more, and a deeper tail only shrinks the truncation error each
    radius bounds.  Each input is formed once per check: lambda and the reduced sums
    u by the tree's one label walk (:meth:`_Tree.descend`), and on past the tree by
    the tail's (:func:`_tail_inputs`), the tail's levels, degrees and sub-levels, and
    the series' coefficients, from bounds of u (:func:`_tail_plan`), and the
    angles of each sub-level table of an explicit tail level by one pass, which the
    signed root and its complement share (:func:`_tail_roots`).  A sub-level H_f,
    f >= 5, of an explicit tail level takes f // 2 rows of angles over every
    level-l_max node; where those rows times the nodes exceed ``budget`` the check
    raises BudgetExceededError before it tabulates any, as the plan factors d_k only as
    far as the budget admits (:func:`_tail_plan`).

    *The split.*  The grid walks the tree in tiles (:meth:`_Tree.tiles`) to a
    tree level s (:func:`_walk_depth`), whose products W_j over its P_s nodes j
    are the only per-xi work of the levels up to s.  Past s each level factor is
    R(u + xi / scale)^2, R its signed root, and R is its Taylor polynomial in xi
    (:func:`~.fourier.signed_root_taylor`) of the degree dv at which the majorant
    remainder of the product of the factors past s is at most 2^-60
    (:func:`_taylor_degree`).  Their product V_i, parent by child
    (:func:`_times_roots`), is a polynomial per level-l_max node i, and so is the
    tail's signed root sqrt(T) (:func:`_tail_polynomials`), a product of signed roots
    too: of the sub-levels of each explicit tail level, by the rule of the tree
    (:func:`_sub_levels`), and of the series levels, one power series in y^2 formed
    once per check (:func:`~.fourier.root_series`) whose 1 - sqrt(T) is tabulated per
    node (:meth:`_Series.table`), each to 2^-60.  They multiply by one rule
    (:func:`_root_product`), which keeps 1 - sqrt(T) free of cancellation, and
    T - 1 = -(1 - sqrt(T)) (1 + sqrt(T)).
    *The sign.*  Every frequency is an integer, so a factor vanishes only where
    xi + lambda is a multiple of D_{j-1} rho_n, at integer xi: on (0, 1/2] each
    V_i sqrt(T_i) keeps one sign, read from the polynomials at xi = 1/4 (at
    xi = 0 a table's rounding of a zero, cos(pi / 2) = 6e-17, may carry either
    sign), so |V_i| sqrt(T_i) is a polynomial too.  *The aggregation.*  In
    digit-major order the descendants of the level-s node j are the nodes
    i = j + q P_s; q = 0 is j's own block and for q >= 1 the blocks are runs of
    whole q.  So the polynomials V^2, g = V^2 (T - 1), sigma |V| sqrt(T) and
    |lambda| |V| sqrt(T), sigma the sign of lambda, are summed once per check
    into cells (row, j), row 0 for q = 0 and one row per later block.  The nodes of
    the columns j in [lo, hi) of every level past s are the descendants of those
    level-s nodes (:class:`_Group`), so a group of columns holds all the nodes of its
    cells: the tree is tabulated whole, as the root group, only through the deepest
    level of at most half a slice of nodes, and at least through s, and each group
    walks the levels past it alone by the same walk (:func:`_group_levels`), forms its
    polynomials and sums its cells, its last block apart from the rest
    (:func:`_cell_sums`).  No array spans a whole
    level past the group level, each node of each level is formed once, and the
    extremes and moments of lambda per block are summed by the cells too
    (:func:`_by_block`).  Per grid row the cells are evaluated at xi and weighted
    by W_j, or sqrt(W_j): row 0 split by the blocks of j, each later row as one
    ``np.einsum`` over j.  All of it is elementwise in xi or a reduction along
    one row, so a row's values depend neither on the rows that share its tile
    nor on the rest of the grid: a one-point call gives that xi's rows bit for
    bit, and s, chosen for the subcommand's default grid, never depends on it.

    *The sums.*  With g = W V^2 (T - 1) per term, the gap G_{l_max} = -sum g is
    exact as sum w = 1, the terms are t = W V^2 + g, G_L = G_{L+1} + S_{L+1}
    with S_n the sum of block n, and Q_L = 1 - G_L is rounded once, so Q is
    monotone in L by construction, which no verdict can test; Q, the slack and
    the verdict are formed once, after the walk.  ``bounded`` checks the direct
    sum sum_{n<=L} S_n <= 1 + slack.
    The certified slack bounds the sum of 2 r sqrt(t) + r^2 over the terms,
    r = expm1(z) the radius of :func:`mu_hat_array` at the depth of each block
    for that grid point, z = c |xi + lambda| and c = 2 pi / rho_{N+1}.  That
    depth keeps z <= c a_max <= min(tol, 1) / 2, a_max the block's largest
    |xi + lambda|, and expm1(z) <= z (1 + z) for z <= 1, so with k = 1 + c a_max
    the radius is applied once per (row, block) as k c (2 A + k c B): at least
    the per-term sum, and at most k^2, about 1 + tol, times it.
    A = sum |xi + lambda| sqrt(t) and B = sum (xi + lambda)^2 come from the sums
    above: lambda is an integer and 0 <= xi <= 1/2, so |xi + lambda| =
    |lambda| + sigma xi exactly (sigma = +1 at lambda = 0),
    A = sum |lambda| sqrt(t) + xi sum sigma sqrt(t) and
    B = N xi^2 + 2 xi sum lambda + sum lambda^2 over the block's N terms, equal
    to the direct sums but for rounding.  A mapping failing
    :func:`validate_tree_mapping`, or frequencies too large for B
    (:func:`_check_frequency_range`), raise a ValueError.  An empty grid gives no rows,
    ``bounded`` true and a worst gap of -inf at xi = 0; of tied worst gaps the
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
    tree = _Tree(tm, scales, l_max, uniform_family(pair))
    bound = _check_frequency_range(tree)
    # the deepest truncation any xi in [0, 1/2] needs: |xi + lambda| <= B + 1/2, and
    # reach and truncation_target are monotone, so one search at B + 1/2
    depth, _ = scales.reach(truncation_target(_to_float(bound) + 0.5, tol))
    explicit, series = _tail_plan(tree, depth, 0.5, budget)
    # the degree of the tail polynomial sqrt(T), for the walk depth: the series table's at
    # the largest |y0| and the explicit levels'; T - 1 has twice it
    degree = sum(degree for _, degree, _ in explicit)
    if series is not None:
        degree += len(series.table(np.array([series.top]))) - 1
    # block n: the level-l_max nodes [P_{n-1}, P_n) whose last nonzero digit is n, the
    # root in block 1
    ends = [tree.size[t] for t in tree.ends[1:]]
    starts = [0, *ends[:-1]]
    walk, dv = _walk_depth(tree, l_max, ends, 2 * degree, degree)
    last = series.k0 if series else l_max + len(explicit)  # the tail walk's last level
    width = tree.size[walk]
    height = ends[-1] // width
    # node i = j + q width sums into cell (row, j): row 0 for q = 0, else the row of the
    # block of i, as the blocks past the walk are runs of whole q starting at runs[row]
    heads = [a for a in starts if a < width]  # the blocks of the nodes j < width
    runs, past = [0], []
    for k in range(1, height):
        block = bisect.bisect_right(ends, k * width)
        if not past or block != past[-1]:
            runs.append(k)
            past.append(block)
    # the tree is whole through the deepest level of at most half a slice of nodes, and at
    # least through the walk; past it each group of columns is walked alone.  The last
    # block, the nodes whose last digit is nonzero, sums apart from the rest of its group,
    # as the small y0 of the other blocks would raise the degree of its tail
    # (:func:`~.fourier.root_series_taylor`).  Each part holds about half a slice of nodes
    # or fewer, so that its polynomials, up to about twenty coefficient rows, keep the
    # peak memory near the tiles'
    chunk = max(1, _SLICE // 2)
    first = 1 + max(next(n for n, t in enumerate(tree.ends) if t >= walk),
                    max(n for n, t in enumerate(tree.ends) if tree.size[t] <= chunk))
    # the root group from level 1: V = 1 over the level-walk nodes, u = lambda = 0 at the root
    kernels, *whole = _group_levels(tree, _ROOT, 1, first - 1,
                                    (np.ones((1, width)), np.zeros(1), np.zeros(1)), walk, dv)
    parts = [(0, len(runs) - 1), (len(runs) - 1, len(runs))] if len(runs) > 1 else [(0, 1)]
    bounds = runs + [height]
    columns = max(1, chunk // (height - bounds[parts[-1][0]]))
    # per kind "vgsl", per coefficient the cells, each kind with rows to its own degree
    tables = [np.zeros((0, len(runs), width)) for _ in "vgsl"]
    stats = np.zeros((4, len(runs), width))  # per cell the least, largest and sum of lambda, and of lambda^2
    reducers = (np.minimum, np.maximum, np.add, np.add)
    for j in range(0, width, columns):
        group = _Group(width, j, min(j + columns, width))
        cells, size = slice(group.lo, group.hi), group.hi - group.lo
        deep_v, u, lam = _group_levels(tree, group, first, l_max, whole, walk, dv)[1:]
        us, lam = _tail_inputs(tree, group, last, u, lam)
        for a, b in parts:
            nodes = slice(bounds[a] * size, bounds[b] * size)
            sums = _cell_sums(scales, explicit, series, [v[nodes] for v in us], deep_v[:, nodes], lam[nodes],
                              np.subtract(runs[a:b], runs[a]), size)
            for kind, cell in enumerate(sums):
                if len(cell) > len(tables[kind]):
                    tables[kind] = np.pad(tables[kind], ((0, len(cell) - len(tables[kind])), (0, 0), (0, 0)))
                tables[kind][:len(cell), a:b, cells] = cell
        lam = lam.reshape(height, -1)
        for moment, reduce, values in zip(stats, reducers, (lam, lam, lam, lam * lam)):
            moment[:, cells] = reduce.reduceat(values, runs, axis=0)
    tables = {kind: table if kind == "g" else _trim(table) for kind, table in zip("vgsl", tables)}
    # per block: row 0 of the cells by the blocks of j, each later row over j
    lo, hi, sum_lam, sum_sq = (_by_block(reduce, moment, heads, past, l_max, start)
                               for moment, reduce, start in zip(stats, reducers, (np.inf, -np.inf, 0.0, 0.0)))
    # per (grid point, block): a_max, and k c with c = 2 pi / rho_{N+1} and k = 1 + c a_max;
    # every target is within the depth above, so the rho list reaches it
    column = np.array(xis)[:, None]
    reach = np.maximum(np.abs(column + hi), np.abs(column + lo))
    c = TWO_PI / _reach_floats(scales, truncation_target(reach, tol))
    kc = c * (1.0 + c * reach)
    count = np.diff([*starts, ends[-1]])
    # per grid point and block: the sums of V^2, of the gap terms g, of sigma sqrt(t) and of
    # |lambda| sqrt(t)
    out = {kind: np.zeros((len(xis), l_max)) for kind in "vgsl"}
    for t, rows, w in tree.tiles(xis, kernels[:walk]):
        if t < walk:
            continue
        span, root_w = slice(rows.start, rows.stop), np.sqrt(w)
        for kind, table in tables.items():
            weight = w if kind in "vg" else root_w
            # row 0 splits by the blocks of j; each later row is one block, weighted
            # over j first: sum_k xi^k sum_j w_j c_kj, one row at a time in einsum
            head = eval_taylor(table[:, 0], column[span])
            head *= weight
            out[kind][span, :len(heads)] = np.add.reduceat(head, heads, axis=1)
            moments = np.einsum("kbj,rj->krb", table[:, 1:], weight)
            out[kind][span, past] += eval_taylor(moments, column[span])
    sums, signed, lin = out["v"] + out["g"], out["s"], out["l"]
    gaps = -out["g"].sum(axis=1)
    # Q_L = 1 - G_L, G_L = G_{l_max} + sum_{n>L} S_n
    later = np.zeros((len(xis), l_max))
    later[:, :-1] = np.cumsum(sums[:, :0:-1], axis=1)[:, ::-1]
    q = 1.0 - (gaps[:, None] + later)
    # sum 2 r sqrt(t) + r^2 <= k c (2 A + k c B), A = sum |xi + lambda| sqrt(t)
    # = sum |lambda| sqrt(t) + xi sum sigma sqrt(t) and B from the moments
    lin += column * signed
    slack = np.cumsum(kc * (2.0 * lin + kc * (column * (count * column + 2.0 * sum_lam) + sum_sq)),
                      axis=1)
    worst = int(np.argmax(gaps)) if len(xis) else None  # the first xi of the largest gap
    return CompletenessReport(grid=column[:, 0], q=q, slack=slack, l_max=l_max,
                              bounded=bool(np.all(np.cumsum(sums, axis=1) <= 1.0 + slack)),
                              worst_gap=-math.inf if worst is None else float(gaps[worst]),
                              worst_gap_xi=0.0 if worst is None else xis[worst])
