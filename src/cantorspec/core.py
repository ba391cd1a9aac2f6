"""Scale-sequence pairs (b_n, d_n) and the exact integer scales rho_n.

A pair of integer sequences B = {b_n}, D = {d_n} is admissible when
1 < d_n < b_n and b_n/d_n is an integer >= 2 for every level n.  The scales
rho_1 = 1, rho_{n+1} = rho_n * b_n then grow at least geometrically with
ratio 4 and are kept as exact Python integers throughout: rho_n overflows
64-bit arithmetic around n = 11 already for constant b = 64.  Every float
read of an exact scale goes through :func:`_to_float`, which gives +-inf past
the double range instead of raising.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction


class PairConstraintError(ValueError):
    """A (b, d) sequence pair violates an admissibility constraint."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget.

    Carries the count the caller would have to allow in ``required``.
    """

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class Issue:
    """One violation found by a validator."""

    condition: str  # short tag: "1<d", "d<b", "divisibility", "i", "ii", "word"
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[Issue, ...]


@dataclass(frozen=True)
class ScalePair:
    """Sequences b_n, d_n given as an explicit prefix plus an extension rule.

    Past the prefix the last prefix entry repeats indefinitely, unless
    ``alpha`` is set: then the prefix is empty and every level follows the
    dyadic powers targeting Hausdorff dimension ``alpha``
    (see :func:`dimension_targeting_pair`).  So a constant pair is the explicit
    pair of its one level.

    Levels are 1-indexed everywhere.
    """

    b_prefix: tuple[int, ...] = ()
    d_prefix: tuple[int, ...] = ()
    alpha: Fraction | None = None

    def b(self, n: int) -> int:
        return self._level(n)[0]

    def d(self, n: int) -> int:
        return self._level(n)[1]

    def _level(self, n: int) -> tuple[int, int]:
        # (b_n, d_n): the prefix entry, else the alpha rule, else the last prefix entry
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        if n <= len(self.b_prefix):
            return self.b_prefix[n - 1], self.d_prefix[n - 1]
        if self.alpha is not None:
            return _dyadic_rule(self.alpha.numerator, self.alpha.denominator, n)
        return self.b_prefix[-1], self.d_prefix[-1]


# the most bits of one alpha-rule b_n, at every alpha: rho_n multiplies the b_j before it, so
# b_n of 10^7 bits (alpha = 1e-7) run out of memory or time; the alpha = 0 rule forms 89,787
# bits at level 173 and passes the cap from level 592
_MAX_BITS = 1 << 20


def _dyadic_rule(p: int, q: int, n: int) -> tuple[int, int]:
    """Dyadic (b_n, d_n) for alpha = p/q, with d_n -> infinity and ln d_n / ln b_n -> alpha.

    All values are powers of two, so b_n/d_n is automatically a power of two
    >= 2.  The exponent slopes at the endpoints alpha = 0 and alpha = 1 are
    chosen steep enough that the cumulative ratio
    sum_{j<=N} ln d_j / sum_{j<=N} ln b_j is within 0.02 of alpha by N = 40.
    """
    # (the name of b_n's exponent, log2 b_n, log2 d_n) of alpha's profile; for 0 < alpha < 1,
    # b_n = 2^max(n + 1, ceil(n / alpha))
    name, b, d = (("3 n^2", 3 * n * n, n) if p == 0 else ("3 n", 3 * n, 3 * n - 1) if p == q
                  else ("ceil(n / alpha)", max(n + 1, -(-n * q // p)), n))
    if b > _MAX_BITS:  # refused before the shift forms it
        raise PairConstraintError(f"alpha = {p / q!r}: the exponent {name} of b_n passes 2^20 bits "
                                  f"at level {n}")
    return 1 << b, 1 << d


def rho(pair: ScalePair, n: int) -> int:
    """The exact scale rho_n = prod_{j<n} b_j; rho(pair, 1) == 1."""
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    return _Scales(pair).upto(n - 1).rho[n]


def check_growth(pair: ScalePair, n: int, b_n: int):
    """ValueError when b_n = 1 is the entry that repeats from level n on,
    where the scales rho_n stop growing."""
    if b_n == 1 and n >= len(pair.b_prefix):
        raise ValueError(f"b_n = 1 from level {n} on: the scales rho_n stop growing")


def _to_float(big: int) -> float:
    """``big`` as a float: ``float(big)``, or +-inf past the double range, never
    an OverflowError; the one float form of the exact scales.  So x / rho has no
    bit-length cut-off: for rho in [2^1020, 2^1024) it is tiny or subnormal, not
    0, as is ``sampling.truncation_radius``, and past the range both are 0.  An
    error radius caps the scale it divides by at 1e308 with ``min``, so that it
    stays an upper bound."""
    try:
        return float(big)
    except OverflowError:
        return math.inf if big > 0 else -math.inf


class _Scales:
    """d_n, q_n = b_n // d_n (b_n / d_n on admissible pairs) and rho_n of a pair,
    1-indexed, extended on demand: the one forward walk of the scales, which
    :func:`rho`, the truncated products, the sampler and the frequency walks read."""

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

    def reach(self, target: float, levels: int = 1) -> tuple[int, int]:
        """(N, rho_{N+1}) for the least N >= max(levels, 1) with rho_{N+1} >= target,
        by bisecting the cached rho list; a ValueError of :func:`check_growth`
        where the list must grow past a repeating b_n = 1."""
        levels = max(levels, 1)
        self.upto(levels)
        while self.rho[-1] < target:
            n = len(self.d)
            self.upto(n)
            check_growth(self.pair, n, self.rho[n + 1] // self.rho[n])
        n = bisect.bisect_left(self.rho, target, lo=levels + 1) - 1
        return n, self.rho[n + 1]


def _check_level(b: int, d: int, n: int) -> Issue | None:
    if not d > 1:
        return Issue("1<d", f"n={n}", f"d_{n}={d} must exceed 1")
    if not d < b:
        return Issue("d<b", f"n={n}", f"d_{n}={d} must be smaller than b_{n}={b}")
    if b % d != 0:
        return Issue("divisibility", f"n={n}", f"b_{n}={b} is not a multiple of d_{n}={d}")
    return None


def constant_pair(b: int, d: int) -> ScalePair:
    """Pair with b_n = b and d_n = d for all n.

    Rejects inadmissible (b, d), naming the violated inequality.
    """
    issue = _check_level(b, d, 1)
    if issue is not None:
        raise PairConstraintError(f"{issue.message} [{issue.condition}]")
    return ScalePair(b_prefix=(b,), d_prefix=(d,))


def exact_int(value, field: str) -> int:
    """``value`` as an int; a ValueError naming ``field`` unless it is integral
    and not a bool (JSON true and false are not numbers)."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def finite_number(value, field: str):
    """``value`` when it is a finite number other than a bool; a ValueError
    naming ``field`` for a bool, a string or any other value."""
    try:
        if not isinstance(value, (bool, str)) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{field} must be a finite number, got {value!r}")


def explicit_pair(b: list[int] | tuple[int, ...], d: list[int] | tuple[int, ...]) -> ScalePair:
    """Pair from explicit prefixes, extended by repeating the last entry.

    Admissibility is *not* enforced here; run :func:`validate_pair` to get a
    per-level report (invalid explicit pairs are useful as negative controls).
    """
    b = tuple(exact_int(x, f"b[{i}]") for i, x in enumerate(b))
    d = tuple(exact_int(x, f"d[{i}]") for i, x in enumerate(d))
    if not b or not d or len(b) != len(d):
        raise PairConstraintError("explicit pair needs equal-length nonempty b and d prefixes")
    if any(x < 1 for x in b + d):
        raise PairConstraintError("explicit pair entries must be positive integers")
    return ScalePair(b_prefix=b, d_prefix=d)


def dimension_targeting_pair(alpha: float | Fraction) -> ScalePair:
    """Pair whose Cantor set has Hausdorff dimension ``alpha`` in [0, 1].

    Uses the dyadic profile of :func:`_dyadic_rule`; for alpha in (0, 1) this
    is d_n = 2^n, b_n = 2^max(n+1, ceil(n/alpha)), so the level ratios
    ln d_n / ln b_n sit within 1/n of alpha.
    """
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise PairConstraintError(f"alpha must lie in [0, 1], got {alpha}")
    return ScalePair(alpha=a)


def validate_pair(pair: ScalePair, depth: int) -> ValidationReport:
    """Check the admissibility constraints for every level n <= depth."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    issues = []
    for n in range(1, depth + 1):
        issue = _check_level(pair.b(n), pair.d(n), n)
        if issue is not None:
            issues.append(issue)
    return ValidationReport(ok=not issues, issues=tuple(issues))


def pair_from_config(cfg: dict) -> ScalePair:
    """Build a pair from its JSON configuration document.

    Schema: {"kind": "constant"|"explicit"|"alpha", "b": ..., "d": ...,
    "alpha": ..., "profile": "dyadic"}; the dyadic profile of
    :func:`_dyadic_rule` is the only one, and any other is rejected.
    """
    if not isinstance(cfg, dict):
        raise TypeError(f"a pair config is a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "constant":
        return constant_pair(exact_int(cfg["b"], "b"), exact_int(cfg["d"], "d"))
    if kind == "explicit":
        return explicit_pair(cfg["b"], cfg["d"])
    if kind == "alpha":
        profile = cfg.get("profile", "dyadic")
        if profile != "dyadic":
            raise PairConstraintError(f"unknown growth profile {profile!r}; known: 'dyadic'")
        return dimension_targeting_pair(finite_number(cfg["alpha"], "alpha"))
    raise PairConstraintError(f"unknown pair kind {kind!r}; expected constant/explicit/alpha")

