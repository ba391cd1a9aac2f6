"""The three verification pillars: orthogonality, partition identity, completeness.

Orthogonality of the exponentials at a frequency set is equivalent to the
product transform vanishing at every pairwise difference; that is decided in
exact integer arithmetic.  The level-L partition identity
sum_delta |prod_{n<=L} G_n((xi + lambda)/(d_n rho_n))|^2 = 1 holds for every
real xi and every valid tree mapping, so its numerical defect must sit at
roundoff scale.  Completeness is certified only as a trend: the partial sums
Q_L(xi) = sum_{lambda in Lambda_L} |muhat(xi + lambda)|^2 increase with L and
stay below 1 plus the accumulated certified evaluation slack.

Both floating-point pillars run on one level-expansion kernel.  It expands
the digit tree one level at a time and keeps, per node, the product of the
squared factors so far and the partial label sum divided by d_n rho_n,
reduced level by level in floating point.  Each G_n is 1-periodic, so the
level-n factor at xi + lambda needs only that reduced sum: xi + lambda is
never rounded and no large integer reaches numpy.  The per-level totals of
the products are the partition sums for every level at once.  The
completeness sum takes the prefix products of the words whose frequency is
new at a level and continues each one along its zero-extension to the
truncation depth of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import BudgetExceededError, ScalePair
from .fourier import (TWO_PI, FilterFamily, _cap_float, _float_div, eval_filter,
                      eval_H_sq_array, mu_hat_exact_zero, truncation_level,
                      uniform_family)
from .spectra import (SpectrumLevel, TreeMapping, Word, validate_tree_mapping,
                      word_count)

# perfbench/tracing.py wraps these names in this module as well as where they
# are defined, so they stay bound here although nothing below calls them.
from .fourier import eval_H, eval_H_array, mu_hat, mu_hat_array  # noqa: E402,F401
from .spectra import enumerate_level  # noqa: E402,F401

_PAIRWISE_CUTOFF = 600  # above this, all-pairs scanning switches to the residue tree


@dataclass(frozen=True)
class OrthogonalityReport:
    passed: bool
    element_count: int
    pair_count: int
    violations: tuple[tuple[int, int], ...]  # capped; sorted
    violation_count: int
    method: str


def _elements_of(level_or_elements) -> list[int]:
    if isinstance(level_or_elements, SpectrumLevel):
        return list(level_or_elements.elements)
    return sorted(int(x) for x in level_or_elements)


def _pairwise_orthogonality(elements: list[int], pair: ScalePair, cap: int):
    violations = []
    count = 0
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if not mu_hat_exact_zero(pair, elements[j] - elements[i]).is_zero:
                count += 1
                if len(violations) < cap:
                    violations.append((elements[i], elements[j]))
    return violations, count


def _grouped_orthogonality(elements: list[int], pair: ScalePair, cap: int):
    """Residue-tree equivalent of the all-pairs divisibility scan.

    For two frequencies with difference nu and first undecided level n (all
    earlier levels gave d_k | nu/rho_k and b_k | nu/rho_k), write u =
    (x - y)/rho_n.  The transform vanishes at nu iff d_n does not divide u
    (witness at level n) or b_n | u and a later level witnesses.  If d_n | u
    but b_n does not divide u, no level at all can witness and the pair
    violates orthogonality.  Grouping by residues mod b_n classifies every
    pair at once, and same-residue groups recurse on u // b_n; differences
    shrink by a factor b_n >= 4 per level, so the recursion terminates.
    Exact integer arithmetic throughout, same verdict and violation set as
    the literal per-pair scan.
    """
    violations = []
    count = 0

    def recurse(values: list[tuple[int, int]], n: int):
        # values: (current residue-reduced value, original frequency)
        nonlocal count
        if len(values) < 2:
            return
        b_n, d_n = pair.b(n), pair.d(n)
        groups: dict[int, list[tuple[int, int]]] = {}
        for v, orig in values:
            groups.setdefault(v % b_n, []).append((v, orig))
        residues = sorted(groups)
        for i, r in enumerate(residues):
            for r2 in residues[i + 1:]:
                if (r2 - r) % d_n == 0:
                    # d_n | u but b_n does not divide u: no vanishing level exists
                    for _, x in groups[r]:
                        for _, y in groups[r2]:
                            count += 1
                            if len(violations) < cap:
                                violations.append((min(x, y), max(x, y)))
        for r in residues:
            grp = groups[r]
            if len(grp) > 1:
                recurse([(v // b_n, orig) for v, orig in grp], n + 1)

    recurse([(x, x) for x in elements], 1)
    return violations, count


def orthogonality_check(level_or_elements, pair: ScalePair, max_elements: int = 4096,
                        method: str = "auto", violation_cap: int = 256) -> OrthogonalityReport:
    """Exact pairwise orthogonality of a frequency set.

    Every unordered pair of distinct frequencies must have its difference
    annihilated by the transform (decided by :func:`mu_hat_exact_zero`).
    ``method='pairwise'`` runs that scan literally; ``method='grouped'`` runs
    the equivalent residue-tree classification, which is linear in the set
    size per level and is required for large sets; ``'auto'`` picks by size.
    No floating point either way.
    """
    elements = _elements_of(level_or_elements)
    m = len(elements)
    if m > max_elements:
        raise BudgetExceededError(
            f"{m} elements need {m * (m - 1) // 2} pairwise checks, over the "
            f"budget implied by max_elements={max_elements}",
            required=m * (m - 1) // 2)
    if len(set(elements)) != m:
        raise ValueError("frequency set contains duplicates; deduplicate and "
                         "treat duplicates as orthogonality violations upstream")
    if method == "auto":
        method = "pairwise" if m <= _PAIRWISE_CUTOFF else "grouped"
    if method == "pairwise":
        violations, count = _pairwise_orthogonality(elements, pair, violation_cap)
    elif method == "grouped":
        violations, count = _grouped_orthogonality(elements, pair, violation_cap)
    else:
        raise ValueError(f"unknown method {method!r}")
    return OrthogonalityReport(passed=count == 0, element_count=m,
                               pair_count=m * (m - 1) // 2,
                               violations=tuple(sorted(violations)),
                               violation_count=count, method=method)


# ---------------------------------------------------------------------------
# Level expansion
# ---------------------------------------------------------------------------

class _Scales:
    """d_n, q_n = b_n / d_n and rho_n of a pair, 1-indexed, extended on demand."""

    def __init__(self, pair: ScalePair):
        self.pair = pair
        self.d = [0]
        self.q = [1]  # q_0 divides u_0 = 0
        self.rho = [0, 1]

    def upto(self, n: int) -> "_Scales":
        while len(self.d) <= n:
            k = len(self.d)
            d, b = self.pair.d(k), self.pair.b(k)
            self.d.append(d)
            self.q.append(b // d)
            self.rho.append(self.rho[k] * b)
        return self


def _node_index(scales: _Scales, word: Word) -> int | None:
    # position of word among the nodes of its level, the children of node i
    # being i*d_n + digit; None when a digit is out of range (no such node)
    scales.upto(len(word))
    index = 0
    for n, digit in enumerate(word, start=1):
        if not 0 <= digit < scales.d[n]:
            return None
        index = index * scales.d[n] + digit
    return index


def _expand(tm: TreeMapping, scales: _Scales, xi: float, level: int, filters: FilterFamily):
    """Expand the digit tree to ``level``, yielding (w, u, label) per level n.

    Arrays run over the level-n nodes delta, in the order of
    :func:`_node_index`.  ``label`` is tau(delta): the last digit, or the table
    value for words in the mapping's table.  ``u`` is sigma_n / (d_n rho_n),
    sigma_n = sum_{k<=n} tau(delta_1..delta_k) rho_k, reduced as
    u_n = (u_{n-1} / q_{n-1} + tau) / d_n.  ``w`` is
    prod_{k<=n} |G_k(xi / (d_k rho_k) + u_k)|^2, which equals the squared
    level-k factors at xi + lambda(delta) because lambda(delta) - sigma_k is a
    multiple of rho_{k+1} = q_k d_k rho_k and every G_k is 1-periodic.
    """
    scales.upto(level)
    table: dict[int, tuple[list[int], list[int]]] = {}
    for word, value in tm.table.items():
        index = _node_index(scales, word) if 0 < len(word) <= level else None
        if index is not None:
            table.setdefault(len(word), ([], []))
            table[len(word)][0].append(index)
            table[len(word)][1].append(value)
    w = np.ones(1)
    u = np.zeros(1)
    for n in range(1, level + 1):
        d = scales.d[n]
        label = np.tile(np.arange(d, dtype=float), len(w))
        if n in table:
            label[table[n][0]] = table[n][1]
        u = (np.repeat(u / scales.q[n - 1], d) + label) / d
        args = _float_div(xi, d * scales.rho[n]) + u
        if filters.is_uniform(n):
            factors = eval_H_sq_array(d, args)
        else:
            g = eval_filter(np.asarray(filters.coefficients(n)), args)
            factors = g.real ** 2 + g.imag ** 2
        w = np.repeat(w, d) * factors
        yield w, u, label


# ---------------------------------------------------------------------------
# Partition identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionResult:
    total: float
    defect: float
    level: int
    xi: float
    terms: int


def _check_level(pair: ScalePair, level: int, budget: int):
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    count = word_count(pair, level)
    if count > budget:
        raise BudgetExceededError(
            f"level {level} needs {count} words, over the budget of {budget}", required=count)


def partition_levels(tm: TreeMapping, xi: float, level: int,
                     filters: FilterFamily | None = None,
                     budget: int = 10**6) -> tuple[PartitionResult, ...]:
    """Partition sums for every level 1..``level`` from one tree expansion.

    The level-n sum is the total of the squared products over the level-n
    words; see :func:`partition_identity`.
    """
    pair = tm.pair
    _check_level(pair, level, budget)
    if filters is None:
        filters = uniform_family(pair)
    xi = float(xi)
    results = []
    for n, (w, _, _) in enumerate(_expand(tm, _Scales(pair), xi, level, filters), start=1):
        total = float(np.sum(w))
        results.append(PartitionResult(total=total, defect=abs(total - 1.0), level=n,
                                       xi=xi, terms=len(w)))
    return tuple(results)


def partition_identity(tm: TreeMapping, xi: float, level: int,
                       filters: FilterFamily | None = None, budget: int = 10**6) -> PartitionResult:
    """Defect of sum over level-L words of |prod_{n<=L} G_n(...)|^2 = 1.

    The identity telescopes through the QMF channel sums, holds exactly for
    every xi and every valid mapping, and is evaluated here by direct
    summation over the word tree.
    """
    return partition_levels(tm, xi, level, filters=filters, budget=budget)[-1]


# ---------------------------------------------------------------------------
# Completeness trend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QRow:
    xi: float
    level: int
    q: float
    certified_slack: float
    monotone_ok: bool


@dataclass(frozen=True)
class CompletenessReport:
    rows: tuple[QRow, ...]
    l_max: int
    tol: float
    monotone: bool          # Q_{L+1} >= Q_L - 1e-12 at every grid point
    bounded: bool           # Q_L <= 1 + certified slack everywhere
    worst_gap: float        # max over the grid of 1 - Q_{L_max}
    worst_gap_xi: float

    def gaps(self) -> dict[float, float]:
        return {r.xi: 1.0 - r.q for r in self.rows if r.level == self.l_max}


_MONOTONE_SLACK = 1e-12


def _fresh_nodes(tm: TreeMapping, scales: _Scales, n: int):
    """Level-n nodes whose frequency is new at level n, and their tails.

    lambda(delta 0) = lambda(delta), so the new frequencies at level n >= 2
    are those of the words with delta_n != 0 (every word at n = 1).  Returns
    the node indices and, per level k > n, the positions among them and the
    labels of the table words delta 0^(k-n) on their zero-extensions.
    """
    d = scales.upto(n).d[n]
    nodes = np.arange(word_count(tm.pair, n))
    if n > 1:
        nodes = nodes[nodes % d != 0]
    tails: dict[int, tuple[list[int], list[int]]] = {}
    for word, value in tm.table.items():
        if len(word) <= n or value == 0 or any(word[n:]) or (n > 1 and word[n - 1] == 0):
            continue
        index = _node_index(scales, word[:n])
        if index is not None:
            tails.setdefault(len(word), ([], []))
            tails[len(word)][0].append(int(np.searchsorted(nodes, index)))
            tails[len(word)][1].append(value)
    return nodes, tails


def _fresh_terms(scales: _Scales, xi: float, tol: float, n: int, w, u, sigma, tails):
    """|muhat(xi + lambda)|^2 and radii for the new frequencies of level n.

    Each term continues from its level-n prefix product w along its
    zero-extension to the depth N that :func:`truncation_level` picks for the
    largest |xi + lambda| of the batch, the depth and radii of
    :func:`mu_hat_array` on the same frequencies.
    """
    lam = sigma.copy()
    for k, (positions, labels) in tails.items():
        lam[positions] += np.asarray(labels, dtype=float) * float(scales.upto(k).rho[k])
    x = xi + lam
    depth, rho_next = truncation_level(scales.pair, float(np.max(np.abs(x))), tol)
    scales.upto(depth)
    terms = w.copy()
    for k in range(n + 1, depth + 1):
        d = scales.d[k]
        u = u / scales.q[k - 1]
        if k in tails:
            u[tails[k][0]] += tails[k][1]
        u /= d
        terms *= eval_H_sq_array(d, _float_div(xi, d * scales.rho[k]) + u)
    radii = np.expm1(TWO_PI * np.abs(x) / _cap_float(rho_next))
    return terms, radii


def completeness_Q(tm: TreeMapping, xi_grid: Sequence[float], l_max: int,
                   tol: float = 1e-10, budget: int = 10**6) -> CompletenessReport:
    """Partial completeness sums Q_L(xi) for L = 1..l_max on a grid in [0, 1/2].

    Each new frequency's |muhat(xi + lambda)|^2 is evaluated once with a
    certified truncation radius; Q_L accumulates those nonnegative terms, so
    the reported values are monotone in L by construction.  The certified
    slack per row is sum over terms of 2 r |v| + r^2, an upper bound for how
    far the reported Q may exceed the true partial sum.  The frequencies of a
    mapping are distinct exactly when it passes
    :func:`~cantorspec.spectra.validate_tree_mapping`; any other mapping is
    rejected with a ValueError naming the offending word.  The tree is
    expanded in a fixed order, one grid point at a time, so reports are
    reproducible.
    """
    pair = tm.pair
    xis = [float(x) for x in xi_grid]
    for x in xis:
        if not 0.0 <= x <= 0.5:
            raise ValueError(f"grid point {x} outside [0, 1/2]")
    _check_level(pair, l_max, budget)
    validation = validate_tree_mapping(tm, max(l_max, tm.table_depth))
    if not validation.ok:
        issue = validation.issues[0]
        raise ValueError(f"tree mapping fails condition {issue.condition} at {issue.location}: "
                         f"{issue.message}; its frequencies need not be distinct")
    scales = _Scales(pair)
    fresh = [_fresh_nodes(tm, scales, n) for n in range(1, l_max + 1)]
    uniform = uniform_family(pair)

    rows = []
    monotone = True
    bounded = True
    worst_gap = -math.inf
    worst_xi = xis[0] if xis else 0.0
    for x in xis:
        q = 0.0
        slack = 0.0
        prev = 0.0
        sigma = np.zeros(1)
        for level, (w, u, label) in enumerate(_expand(tm, scales, x, l_max, uniform), start=1):
            sigma = np.repeat(sigma, scales.d[level]) + label * float(scales.rho[level])
            nodes, tails = fresh[level - 1]
            terms, radii = _fresh_terms(scales, x, tol, level, w[nodes], u[nodes],
                                        sigma[nodes], tails)
            mods = np.sqrt(terms)
            q += float(np.sum(terms))
            slack += float(np.sum(2.0 * radii * mods + radii**2))
            ok = q >= prev - _MONOTONE_SLACK
            monotone = monotone and ok
            if q > 1.0 + slack:
                bounded = False
            rows.append(QRow(xi=x, level=level, q=q, certified_slack=slack, monotone_ok=ok))
            prev = q
        gap = 1.0 - q
        if gap > worst_gap:
            worst_gap, worst_xi = gap, x
    return CompletenessReport(rows=tuple(rows), l_max=l_max, tol=tol,
                              monotone=monotone, bounded=bounded,
                              worst_gap=worst_gap, worst_gap_xi=worst_xi)
