#!/usr/bin/env python3
"""Digit-tree labelings and the frequency sets they generate.

A tree mapping assigns every word an integer label congruent to its last
digit; summing label * scale along a branch produces a frequency.  The
canonical mapping (label = last digit) generates the textbook spectrum;
finite deviation tables bend selected branches to negative representatives
while keeping every orthogonality property intact.
"""

from cantorspec import (TreeMapping, canonical_tau, check_growth_conditions,
                        constant_pair, enumerate_level, validate_tree_mapping)

pair = constant_pair(4, 2)
canonical = canonical_tau(pair)

# --- canonical levels --------------------------------------------------------
for level in (1, 2, 3):
    print(f"canonical level {level}:", enumerate_level(canonical, level).elements)

print("lambda(1,1) = 1*1 + 1*4 = 5 is in level 2:", 5 in enumerate_level(canonical, 2).elements)

# --- a deviation table -------------------------------------------------------
# send the 1-branch to its negative congruence representative
tm = TreeMapping(pair, {(1,): -1, (1, 1): -1})
print("\ndeviated mapping valid?", validate_tree_mapping(tm).ok)
for level in (1, 2, 3):
    print(f"deviated level {level}: ", enumerate_level(tm, level).elements)

# --- invalid labels are reported with the violated condition ----------------
bad = TreeMapping(pair, {(1,): 3})
report = validate_tree_mapping(bad)
print("\nlabel 3 on word (1):", report.issues[0].condition, "—", report.issues[0].message)

# --- growth statistics behind the sufficient spectrum conditions ------------
wide = constant_pair(8, 2)
stacked = TreeMapping(wide, {(1, 0): 2, (1, 0, 0): 2})
growth = check_growth_conditions(stacked, depth=4)
print("\nzero-extension tail stats for the stacked table on (8,2):")
print("  sup of tail sums:", growth.sup_sum_exact, "=", growth.sup_sum)
print("  max nonzero labels along one tail:", growth.max_nonzero_count)
print("  attained above word:", growth.witness)
print("canonical mappings have vanishing tails:",
      check_growth_conditions(canonical, 6).sup_sum)
