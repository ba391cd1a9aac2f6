"""Words on the digit tree, tree mappings, and level-wise frequency sets.

A tree mapping labels every finite word delta_1...delta_n with an integer
tau(delta_1...delta_n) congruent to delta_n mod d_n and confined to the
centered digit range of width b_n.  Mappings are represented as a finite
deviation table over the canonical default tau(word) = last digit, which
makes the root/zero-branch condition and the eventual-zero condition
structural and leaves only the congruence/range condition to check.

The level-L frequency set collects lambda(delta) = sum_n tau(.)*rho_n over
all words delta of length L, as exact integers.  The words of a level are
kept in digit-major order: word delta is node sum_k delta_k P_{k-1},
P_k = d_1 ... d_k (:func:`_node_index`), so the nodes below a prefix of
length k form one strided set of step P_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .core import BudgetExceededError, Issue, ScalePair, ValidationReport, _Scales, exact_int

Word = tuple[int, ...]


@dataclass(frozen=True)
class TreeMapping:
    """Finite deviation table over the canonical rule tau(w) = w[-1].

    ``table`` maps words to integer labels; words absent from the table get
    the canonical default.  tau of the empty word is 0, and zero-extensions
    beyond the table default to 0, so every branch is eventually zero.
    """

    pair: ScalePair
    table: Mapping[Word, int] = field(default_factory=dict)

    @property
    def table_depth(self) -> int:
        return max((len(w) for w in self.table), default=0)


def canonical_tau(pair: ScalePair) -> TreeMapping:
    """The canonical mapping: tau(delta_1...delta_n) = delta_n, empty table."""
    return TreeMapping(pair=pair, table={})


def tree_mapping_from_config(pair: ScalePair, entries: Iterable[dict]) -> TreeMapping:
    """Table from its JSON form [{"word": [d1,...,dn], "value": v}, ...]."""
    table, index = {}, {}
    for i, e in enumerate(entries):
        word = tuple(exact_int(x, f"entry {i} word[{j}]") for j, x in enumerate(e["word"]))
        if word in index:
            raise ValueError(f"entries {index[word]} and {i} both list the word {list(word)}")
        index[word] = i
        table[word] = exact_int(e["value"], f"entry {i} value")
    return TreeMapping(pair=pair, table=table)


def _digit_range(pair: ScalePair, n: int) -> tuple[int, int]:
    # inclusive label range {-floor(b/2), ..., b - 1 - floor(b/2)} at level n
    half = pair.b(n) // 2
    return -half, pair.b(n) - 1 - half


def validate_tree_mapping(tm: TreeMapping) -> ValidationReport:
    """Check the three mapping conditions on every entry of the finite table.

    (i) the root and the all-zero words map to 0: a root entry of the table
    must be 0, as :func:`enumerate_level` ignores it; (ii) every label is
    congruent to its last digit mod d_n and lies in the centered range of
    width b_n.  (iii), that every zero-extension leaves the finite table and
    then defaults to 0, is structural and needs no check.
    """
    pair = tm.pair
    issues = []
    if tm.table.get((), 0) != 0:
        issues.append(Issue("i", "word=()", "root must map to 0"))
    for word, value in sorted(tm.table.items()):
        n = len(word)
        if n == 0:
            continue  # root handled above
        bad_digit = next((k for k, dig in enumerate(word, start=1)
                          if not 0 <= dig < pair.d(k)), None)
        if bad_digit is not None:
            issues.append(Issue("word", f"word={word}",
                                f"digit at position {bad_digit} outside 0..{pair.d(bad_digit) - 1}"))
            continue
        if all(dig == 0 for dig in word) and value != 0:
            issues.append(Issue("i", f"word={word}", "all-zero word must map to 0"))
            continue
        lo, hi = _digit_range(pair, n)
        if (value - word[-1]) % pair.d(n) != 0:
            issues.append(Issue("ii", f"word={word}",
                                f"value {value} not congruent to {word[-1]} mod d_{n}={pair.d(n)}"))
        elif not lo <= value <= hi:
            issues.append(Issue("ii", f"word={word}",
                                f"value {value} outside {{{lo},...,{hi}}}"))
    return ValidationReport(ok=not issues, issues=tuple(issues))


@dataclass(frozen=True)
class SpectrumLevel:
    """Deduplicated frequencies at one tree depth, with any collisions."""

    level: int
    elements: tuple[int, ...]                    # sorted, exact integers
    collisions: tuple[tuple[int, int], ...] = () # (value, multiplicity > 1)

    def __len__(self) -> int:
        return len(self.elements)


def word_count(pair: ScalePair, level: int) -> int:
    return math.prod(pair.d(n) for n in range(1, level + 1))


def check_word_budget(pair: ScalePair, level: int, budget: int, least: int):
    """ValueError for a level below ``least``; BudgetExceededError when its
    words number more than ``budget``."""
    if level < least:
        raise ValueError(f"level must be >= {least}, got {level}")
    count = word_count(pair, level)
    if count > budget:  # the count is left to required: at alpha = 0, level 591 has 52,661 digits
        raise BudgetExceededError(f"the words of level {level} pass the budget of {budget}",
                                  required=count)


def _elements_of(level_or_elements) -> list[int]:
    """The sorted integers of a :class:`SpectrumLevel` or of an iterable."""
    if isinstance(level_or_elements, SpectrumLevel):
        return list(level_or_elements.elements)
    return sorted(int(x) for x in level_or_elements)


def _node_index(scales: _Scales, word: Word) -> int | None:
    """Position of ``word`` among the nodes of its level in digit-major order,
    sum_k delta_k P_{k-1} with P_k = d_1 ... d_k; None when a digit is out of
    range (no such node)."""
    scales.upto(len(word))
    index, size = 0, 1
    for n, digit in enumerate(word, start=1):
        if not 0 <= digit < scales.d[n]:
            return None
        index += digit * size
        size *= scales.d[n]
    return index


def _table_nodes(tm: TreeMapping, scales: _Scales, level: int):
    """Yield (word, node, value) per table word that labels a restriction of
    a level-``level`` word's zero-extension: node is the index of the word's
    first min(k, ``level``) digits, k its length, among the nodes of that
    level.  Words with a digit out of range, and longer words not zero past
    ``level``, label nothing and are skipped."""
    for word, value in tm.table.items():
        n = min(len(word), level)
        index = _node_index(scales, word[:n]) if word and not any(word[n:]) else None
        if index is not None:
            yield word, index, value


def enumerate_level(tm: TreeMapping, level: int, budget: int = 10**6) -> SpectrumLevel:
    """All frequencies lambda(delta) for words delta of length ``level``.

    The canonical sums sum_n delta_n rho_n are built digit-major, and a table
    word of length k then moves every node below its first min(k, ``level``)
    digits, a strided set, by (tau - last digit) rho_k.  Distinct words
    mapping to the same frequency are deduplicated but reported as
    collisions: a repeated frequency witnesses non-orthogonality and must
    surface rather than vanish silently.
    """
    check_word_budget(tm.pair, level, budget, least=0)
    scales = _Scales(tm.pair).upto(max(level, tm.table_depth))
    values = [0]
    for n in range(1, level + 1):
        values = [v + digit * scales.rho[n] for digit in range(scales.d[n]) for v in values]
    for word, start, value in _table_nodes(tm, scales, level):
        step = math.prod(scales.d[1:min(len(word), level) + 1])
        shift = (value - word[-1]) * scales.rho[len(word)]
        values[start::step] = [v + shift for v in values[start::step]]
    seen: dict[int, int] = {}
    for v in values:
        seen[v] = seen.get(v, 0) + 1
    collisions = tuple(sorted((v, c) for v, c in seen.items() if c > 1))
    return SpectrumLevel(level=level, elements=tuple(sorted(seen)), collisions=collisions)


@dataclass(frozen=True)
class GrowthReport:
    """Tail-sum statistics behind the sufficient spectrum conditions.

    ``sup_sum`` is the supremum over reachable words delta (length n) of
    sum_j (|tau(delta 0^j)| / b_{n+j})^2, and ``max_nonzero_count`` the
    largest number of nonzero labels along a zero-extension.  Both are
    exactly computable for finite tables: only table entries of the form
    delta 0^j can contribute, and tails beyond the table vanish.
    """

    sup_sum: float
    max_nonzero_count: int
    sup_sum_exact: Fraction
    witness: Word | None


def check_growth_conditions(tm: TreeMapping, depth: int) -> GrowthReport:
    pair = tm.pair
    sums: dict[Word, Fraction] = {}
    counts: dict[Word, int] = {}
    for word, value in tm.table.items():
        if value == 0 or len(word) < 2:
            continue
        m = len(word)
        b_m = pair.b(m)
        # word equals prefix + zeros exactly for splits at or past the last
        # nonzero digit, so those are the prefixes whose tail this entry feeds
        last_nonzero = max((k for k in range(1, m + 1) if word[k - 1] != 0), default=0)
        for n in range(max(1, last_nonzero), m):
            if n > depth:
                break
            prefix = word[:n]
            sums[prefix] = sums.get(prefix, Fraction(0)) + Fraction(value, b_m) ** 2
            counts[prefix] = counts.get(prefix, 0) + 1
    if not sums:
        return GrowthReport(0.0, 0, Fraction(0), None)
    witness = max(sums, key=lambda w: sums[w])
    return GrowthReport(sup_sum=float(sums[witness]),
                        max_nonzero_count=max(counts.values()),
                        sup_sum_exact=sums[witness],
                        witness=witness)
