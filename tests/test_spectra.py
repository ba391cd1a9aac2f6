import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from cantorspec import (BudgetExceededError, TreeMapping, canonical_tau,
                        check_growth_conditions, constant_pair,
                        dimension_targeting_pair, enumerate_level,
                        explicit_pair, rho, tree_mapping_from_config,
                        validate_tree_mapping, word_count)

MU42 = constant_pair(4, 2)
MU82 = constant_pair(8, 2)
MU93 = constant_pair(9, 3)


def frequency(tm, word):
    """The reference lambda(word) of ``tm`` (:func:`reference.frequency`), with the
    pair's b_n to the word's length or the table's depth, whichever is more."""
    depth = max(len(word), tm.table_depth)
    return ref.frequency([tm.pair.b(k) for k in range(1, depth + 1)], tm.table, word)


def test_validate_examples():
    assert validate_tree_mapping(canonical_tau(MU42)).ok
    bad = validate_tree_mapping(TreeMapping(MU42, {(1,): 3}))
    assert not bad.ok
    assert bad.issues[0].condition == "ii"        # 3 outside {-2,...,1}
    good = validate_tree_mapping(TreeMapping(MU42, {(1,): -1}))
    assert good.ok                                # -1 in (1+2Z) and in range


def test_validate_condition_ii_congruence():
    bad = validate_tree_mapping(TreeMapping(MU42, {(1,): 0}))
    assert not bad.ok and bad.issues[0].condition == "ii"
    assert "congruent" in bad.issues[0].message


def test_validate_condition_i_and_words():
    bad_root = validate_tree_mapping(TreeMapping(MU42, {(0, 0): 2}))
    assert not bad_root.ok and bad_root.issues[0].condition == "i"
    # tau ignores a root entry, so only the table shows it
    root_entry = validate_tree_mapping(TreeMapping(MU42, {(): 5}))
    assert not root_entry.ok and root_entry.issues[0].condition == "i"
    assert validate_tree_mapping(TreeMapping(MU42, {(): 0})).ok
    bad_word = validate_tree_mapping(TreeMapping(MU42, {(2,): 0}))
    assert not bad_word.ok and bad_word.issues[0].condition == "word"


def test_lambda_examples():
    canonical = canonical_tau(MU42)
    assert frequency(canonical, (1, 1)) == 5     # 1*1 + 1*4
    assert frequency(canonical, (0, 1)) == 4
    assert enumerate_level(canonical, 2).elements == (0, 1, 4, 5)
    deviated = TreeMapping(MU42, {(1,): -1})
    assert frequency(deviated, (1,)) == -1
    assert enumerate_level(deviated, 1).elements == (-1, 0)


def test_lambda_includes_zero_extension_table_entries():
    # a table entry on the zero-extension contributes past the word's length
    tm = TreeMapping(MU82, {(1, 0): 2})
    assert validate_tree_mapping(tm).ok
    assert frequency(tm, (1,)) == 1 + 2 * 8
    assert enumerate_level(tm, 1).elements == (0, 1 + 2 * 8)


def test_enumerate_examples():
    canonical = canonical_tau(MU42)
    assert enumerate_level(canonical, 2).elements == (0, 1, 4, 5)
    assert enumerate_level(canonical, 3).elements == (0, 1, 4, 5, 16, 17, 20, 21)
    deviated = TreeMapping(MU42, {(1,): -1})
    assert enumerate_level(deviated, 1).elements == (-1, 0)


def direct_expansion(pair, level):
    """Independent oracle for canonical levels: the digit-sum set expanded
    with itertools over all digit tuples."""
    digit_ranges = [range(pair.d(n)) for n in range(1, level + 1)]
    rhos = [rho(pair, n) for n in range(1, level + 1)]
    return sorted({sum(d * r for d, r in zip(digits, rhos))
                   for digits in itertools.product(*digit_ranges)})


@pytest.mark.parametrize("pair", [MU42, MU93, dimension_targeting_pair(0.5)])
def test_canonical_matches_direct_expansion(pair):
    canonical = canonical_tau(pair)
    for level in range(1, 7):
        if word_count(pair, level) > 4096:
            break
        assert list(enumerate_level(canonical, level).elements) == direct_expansion(pair, level)


@pytest.mark.parametrize("tm", [canonical_tau(MU42),
                                TreeMapping(MU42, {(1,): -1, (1, 1): -3 + 4}),
                                TreeMapping(MU93, {(2,): -1})])
def test_nesting(tm):
    prev = set()
    for level in range(1, 7):
        cur = set(enumerate_level(tm, level).elements)
        assert prev <= cur
        prev = cur


def test_cardinality_and_range():
    for pair in (MU42, MU93, dimension_targeting_pair(0.5)):
        canonical = canonical_tau(pair)
        for level in range(1, 6):
            if word_count(pair, level) > 40000:
                break
            lev = enumerate_level(canonical, level, budget=40000)
            assert len(lev.elements) == word_count(pair, level)
            assert not lev.collisions
            rho_next = rho(pair, level + 1)
            for lam in (lev.elements[0], lev.elements[-1]):
                assert 3 * lam >= -2 * rho_next            # lam >= -(2/3) rho_{L+1}
                assert 2 * lam <= rho_next - 1             # lam <= rho_{L+1}/2 - 1/2
        assert 0 in enumerate_level(canonical, 1).elements


def test_range_with_negative_table():
    tm = TreeMapping(MU42, {(1,): -1, (0, 1): -1, (1, 1): 1})
    assert validate_tree_mapping(tm).ok
    for level in range(1, 6):
        lev = enumerate_level(tm, level)
        rho_next = rho(MU42, level + 1)
        for lam in lev.elements:
            assert 3 * lam >= -2 * rho_next
            assert 2 * lam <= rho_next - 1


def test_collision_reporting_for_invalid_table():
    # tau((1,)) = 0 breaks the congruence condition and collides with the
    # zero branch; enumeration must surface the duplicate, not merge it away
    tm = TreeMapping(MU42, {(1,): 0})
    assert not validate_tree_mapping(tm).ok
    lev = enumerate_level(tm, 1)
    assert lev.collisions == ((0, 2),)
    assert lev.elements == (0,)


def test_budget_refusal_names_required_count():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_level(canonical_tau(MU42), 21, budget=10**6)
    assert err.value.required == 2**21


def growth_oracle(tm, depth):
    """Independent tail oracle: enumerate all words to ``depth``, walk each
    word's zero-extension literally, and take the worst tail sum/count."""
    pair = tm.pair
    sup_sum = Fraction(0)
    max_count = 0
    tail_depth = tm.table_depth

    def words(level):
        if level == 0:
            yield ()
            return
        for w in words(level - 1):
            for dig in range(pair.d(level)):
                yield w + (dig,)

    for n in range(1, depth + 1):
        for w in words(n):
            total = Fraction(0)
            count = 0
            probe = w
            for k in range(n + 1, max(tail_depth, n) + 1):
                probe = probe + (0,)
                val = tm.table.get(probe, 0)  # probe ends in 0, the default label
                if val:
                    total += Fraction(val, pair.b(k)) ** 2
                    count += 1
            sup_sum = max(sup_sum, total)
            max_count = max(max_count, count)
    return sup_sum, max_count


def test_growth_canonical_is_zero():
    rep = check_growth_conditions(canonical_tau(MU42), 6)
    assert rep.sup_sum == 0.0 and rep.max_nonzero_count == 0


def test_growth_single_tail_entry():
    tm = TreeMapping(MU82, {(1, 0): 2})
    rep = check_growth_conditions(tm, 4)
    assert rep.sup_sum_exact == Fraction(1, 16)        # (2/8)^2
    assert rep.max_nonzero_count == 1
    assert rep.witness == (1,)
    assert (rep.sup_sum_exact, rep.max_nonzero_count) == growth_oracle(tm, 4)


def test_growth_stacked_tail_entries():
    tm = TreeMapping(MU82, {(1, 0): 2, (1, 0, 0): 2})
    assert validate_tree_mapping(tm).ok
    rep = check_growth_conditions(tm, 4)
    assert rep.sup_sum_exact == Fraction(1, 16) + Fraction(1, 16)
    assert rep.max_nonzero_count == 2
    assert (rep.sup_sum_exact, rep.max_nonzero_count) == growth_oracle(tm, 4)
    # a zero label feeds no tail, and at depth 1 the entry (1, 0, 0) feeds the prefix
    # (1) alone, not (1, 0)
    tm = TreeMapping(MU82, {(1, 0): 0, (1, 0, 0): 2})
    assert validate_tree_mapping(tm).ok
    rep = check_growth_conditions(tm, 1)
    assert (rep.sup_sum_exact, rep.max_nonzero_count, rep.witness) == (Fraction(1, 16), 1, (1,))
    assert (rep.sup_sum_exact, rep.max_nonzero_count) == growth_oracle(tm, 1)


def test_growth_empty_table():
    rep = check_growth_conditions(canonical_tau(MU93), 5)
    assert rep.sup_sum == 0.0


@st.composite
def valid_tables(draw):
    """Random deviation tables satisfying the congruence/range condition."""
    table = {}
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 3))
        word = tuple(draw(st.integers(0, MU42.d(k) - 1)) for k in range(1, n + 1))
        if word and not any(word):
            continue  # all-zero words must stay at 0
        half = MU42.b(n) // 2
        candidates = [v for v in range(-half, MU42.b(n) - half)
                      if (v - word[-1]) % MU42.d(n) == 0]
        table[word] = draw(st.sampled_from(candidates))
    return table


@given(valid_tables())
@settings(deadline=None, max_examples=60)
def test_random_valid_tables_validate_and_nest(table):
    tm = TreeMapping(MU42, table)
    assert validate_tree_mapping(tm).ok
    prev = set()
    for level in range(1, 5):
        lev = enumerate_level(tm, level)
        assert not lev.collisions          # valid mappings are injective
        cur = set(lev.elements)
        assert prev <= cur
        prev = cur
        for delta in [(0,) * level, (1,) + (0,) * (level - 1)]:
            assert frequency(tm, delta) in cur


@pytest.mark.parametrize("entries, field", [
    ([{"word": [1.5], "value": -1}], "entry 0 word[0]"),
    ([{"word": [1], "value": -1}, {"word": [1, 1], "value": -1.2}], "entry 1 value"),
    # JSON true and false are no integers: [true] ran as the word (1,) with label 1
    ([{"word": [True], "value": 1}], "entry 0 word[0]"),
    ([{"word": [1], "value": True}], "entry 0 value"),
])
def test_tree_config_rejects_non_integral_values(entries, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer"):
        tree_mapping_from_config(MU42, entries)


def test_tree_config_rejects_a_repeated_word():
    entries = [{"word": [1], "value": -1}, {"word": [0, 1], "value": 1},
               {"word": [1.0], "value": 1}]  # [1.0] is the word [1]
    with pytest.raises(ValueError, match=r"^entries 0 and 2 both list the word \[1\]$"):
        tree_mapping_from_config(MU42, entries)


ORACLE_PAIRS = (MU42, MU93, dimension_targeting_pair(0.5), explicit_pair([4, 9, 8], [2, 3, 2]))


@st.composite
def arbitrary_tables(draw):
    """A mapping over one of ``ORACLE_PAIRS`` and a level 0..3: table words of
    length up to two past the level, often zero past it, digits up to d_k
    (one out of range), labels congruent to the last digit or not at all."""
    pair = draw(st.sampled_from(ORACLE_PAIRS))
    level = draw(st.integers(0, 3))
    table = {}
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.integers(0, level + 2))
        word = [draw(st.integers(0, pair.d(k))) for k in range(1, n + 1)]
        if draw(st.booleans()):
            word[level:] = [0] * len(word[level:])  # a zero-extension of a level word
        last = word[-1] if word else 0
        congruent = last + pair.d(max(n, 1)) * draw(st.integers(-2, 2))
        table[tuple(word)] = draw(st.sampled_from([congruent, draw(st.integers(-9, 9))]))
    return TreeMapping(pair, table), level


@given(arbitrary_tables())
@settings(deadline=None, max_examples=300)
def test_enumerate_level_matches_per_word_oracle(case):
    # the multiset of the reference frequencies over every word of the level:
    # elements and collisions
    tm, level = case
    words = itertools.product(*(range(tm.pair.d(k)) for k in range(1, level + 1)))
    counts = Counter(frequency(tm, word) for word in words)
    got = enumerate_level(tm, level)
    assert got.elements == tuple(sorted(counts))
    assert got.collisions == tuple(sorted((v, c) for v, c in counts.items() if c > 1))
