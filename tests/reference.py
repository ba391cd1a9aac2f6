"""The definition-level reference of the exact checks, for the tests.

Built from the paper's definitions alone, with no code of the library: the
level-L words from ``itertools.product``, the frequency of a word
lambda(w) = sum_k tau(w_1..w_k) rho_k over its zero-extension, and the zero
set of the transform, prod_n H_{d_n}(x / (d_n rho_n)), from the zero condition
of one kernel on exact fractions: H_d(s) = (1/d) sum_{j<d} e^{-2 pi i j s}
vanishes iff d s is an integer and s is not.  :func:`completeness_gap` sums the
completeness gaps from the same definitions, in mpmath.
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


def completeness_gap(b, d, xi: Fraction, level: int, digits: int = 30):
    """The gaps 1 - Q_L(xi) for L = 1..``level`` of the canonical labels at a non-integer xi,
    as mpmath numbers, from the definition: Q_L = sum over the level-L words of
    |muhat(xi + lambda)|^2, |muhat(x)|^2 the product over the levels n of
    |H_{d_n}(s)|^2 = sin^2(pi d_n s) / (d_n sin(pi s))^2 at s = x / (d_n rho_n).  The working precision is sized to the gap: ``digits`` more than the decimal
    digits of rho_{level+1}^2, each gap at least about (xi / rho_{level+1})^2 when it is not 0,
    and the product runs until rho_n^2 passes |x|^2 10^dps.  ``b`` and ``d`` are functions of
    the level n >= 1, each giving an int."""
    import mpmath

    rho = scales([b(n) for n in range(1, level + 1)], level + 1)  # rho_1..rho_{level+1}
    dps = digits + 2 * len(str(rho[-1]))
    with mpmath.workdps(dps):
        x0 = mpmath.mpf(xi.numerator) / xi.denominator
        lams = [sum(w * r for w, r in zip(word, rho)) for word in words([d(n) for n in range(1, level + 1)], level)]
        top = (x0 + max(lams) + 1) ** 2 * mpmath.mpf(10) ** dps
        scale = [1]  # rho_1, ..., past the last level n of the product, rho_n^2 <= top
        while scale[-1] ** 2 <= top:
            scale.append(scale[-1] * b(len(scale)))
        gaps, q, seen = [], mpmath.mpf(0), set()
        for n in range(1, level + 1):
            for word in words([d(k) for k in range(1, n + 1)], n):
                lam = sum(w * r for w, r in zip(word, rho))
                if lam in seen:
                    continue
                seen.add(lam)
                x, term = x0 + lam, mpmath.mpf(1)
                for k, r in enumerate(scale[:-1], start=1):
                    s = x / (d(k) * r)
                    term *= (mpmath.sin(mpmath.pi * d(k) * s) / (d(k) * mpmath.sin(mpmath.pi * s))) ** 2
                q += term
            gaps.append(1 - q)
        return gaps
