"""The definition-level reference of the exact checks, for the tests.

Built from the paper's definitions alone, with no code of the library: the
level-L words from ``itertools.product``, the frequency of a word
lambda(w) = sum_k tau(w_1..w_k) rho_k over its zero-extension, and the zero
set of the transform, prod_n H_{d_n}(x / (d_n rho_n)), from the zero condition
of one kernel on exact fractions: H_d(s) = (1/d) sum_{j<d} e^{-2 pi i j s}
vanishes iff d s is an integer and s is not.
"""
import itertools
import operator
from fractions import Fraction


def scales(b: list[int], depth: int) -> list[int]:
    """rho_1..rho_depth: rho_1 = 1, rho_{k+1} = b_1 ... b_k."""
    return list(itertools.accumulate(b[:depth - 1], operator.mul, initial=1))


def words(d: list[int], level: int):
    """Every word w_1..w_level with 0 <= w_k < d_k."""
    return itertools.product(*(range(d[k]) for k in range(level)))


def frequency(b: list[int], table: dict, word: tuple[int, ...]) -> int:
    """lambda(w) = sum_k tau(R_k) rho_k over the zero-extension of w, tau the table label
    of the restriction R_k = w_1..w_k, or its last digit off the table."""
    depth = max([len(word)] + [len(w) for w in table])
    extended = word + (0,) * (depth - len(word))
    restrictions = (extended[:k] for k in range(1, depth + 1))
    return sum(table.get(r, r[-1]) * rho for r, rho in zip(restrictions, scales(b, depth)))


def kernel_vanishes(d: int, s: Fraction) -> bool:
    return (d * s).denominator == 1 and s.denominator != 1


def transform_vanishes(b: list[int], d: list[int], nu: int) -> bool:
    """Whether some factor H_{d_n}(nu / (d_n rho_n)) is zero at the integer nu != 0;
    past rho_n > |nu| no d_n s = nu / rho_n is an integer, so ``b`` and ``d`` need
    entries only up to there."""
    rho, n = 1, 0
    while rho <= abs(nu):
        if kernel_vanishes(d[n], Fraction(nu, d[n] * rho)):
            return True
        rho, n = rho * b[n], n + 1
    return False


def violations(b: list[int], d: list[int], elements: list[int]) -> int:
    """The count of unordered pairs x != y whose difference the transform does not annihilate."""
    return sum(not transform_vanishes(b, d, y - x) for x, y in itertools.combinations(elements, 2))


def extend(prefix: list[int], depth: int) -> list[int]:
    """An explicit prefix with its last entry repeated to ``depth`` entries."""
    return prefix + prefix[-1:] * max(0, depth - len(prefix))
