"""The exact checks held to their definitions (``reference``) on random configurations.

hypothesis draws explicit pairs with d_n in {2, ..., 6}, b_n / d_n in {2, 3, 4}
and 1-4 explicit levels, a level L <= 4 of at most ``WORDS`` words, and a
deviation table of words up to one past L, kept only if
:func:`validate_tree_mapping` accepts it.  The draws are derandomized, and the
three properties together take a few seconds.
"""
from collections import Counter

import numpy as np

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from cantorspec import (TreeMapping, enumerate_level, explicit_pair, orthogonality_check,
                        partition_levels, validate_tree_mapping, word_count)

WORDS = 72       # the most words of a drawn level: brute force reads every pair
DEPTH = 16       # entries of b and d past every drawn frequency: rho_17 >= 4^16
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def configurations(draw):
    """(b, d, tree mapping, level): b and d extended to ``DEPTH`` entries."""
    d = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    b = [dk * draw(st.sampled_from((2, 3, 4))) for dk in d]
    pair = explicit_pair(b, d)
    level = draw(st.sampled_from([n for n in range(1, 5) if word_count(pair, n) <= WORDS]))
    table = {}
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, level + 1))  # one past the level: labels a zero-extension or nothing
        word = tuple(draw(st.integers(0, pair.d(k) - 1)) for k in range(1, n + 1))
        half = pair.b(n) // 2  # a label in the centred range, congruent to the last digit
        table[word] = draw(st.sampled_from([v for v in range(-half, pair.b(n) - half)
                                            if (v - word[-1]) % pair.d(n) == 0]))
    tm = TreeMapping(pair, table)
    assume(validate_tree_mapping(tm).ok)
    return ref.extend(b, DEPTH), ref.extend(d, DEPTH), tm, level


@given(configurations())
@SETTINGS
def test_enumerate_level_is_the_frequencies_of_the_words(case):
    b, d, tm, level = case
    counts = Counter(ref.frequency(b, tm.table, word) for word in ref.words(d, level))
    got = enumerate_level(tm, level)
    assert got.elements == tuple(sorted(counts))
    assert got.collisions == tuple(sorted((v, c) for v, c in counts.items() if c > 1))


@given(configurations(), st.lists(st.integers(-4096, 4096), max_size=4))
@SETTINGS
def test_orthogonality_is_the_brute_force_over_pairs(case, extra):
    # the level's frequencies and a few drawn integers, so that some sets violate
    b, d, tm, level = case
    elements = sorted({ref.frequency(b, tm.table, word) for word in ref.words(d, level)} | set(extra))
    count = ref.violations(b, d, elements)
    got = orthogonality_check(elements, tm.pair)
    assert (got.passed, got.violation_count) == (count == 0, count)


@given(configurations(), st.floats(0.0, 1.0))
@SETTINGS
def test_partition_defect_stays_within_1e_9(case, xi):
    _, _, tm, level = case
    defects = abs(partition_levels(tm, [0.0, 0.5, xi], level) - 1.0)
    for (i, n), defect in np.ndenumerate(defects):
        assert defect <= 1e-9, (n + 1, [0.0, 0.5, xi][i])
