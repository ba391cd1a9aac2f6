"""Scale-sequence pairs (b_n, d_n) and the exact integer scales rho_n.

A pair of integer sequences B = {b_n}, D = {d_n} is admissible when
1 < d_n < b_n and b_n/d_n is an integer >= 2 for every level n.  The scales
rho_1 = 1, rho_{n+1} = rho_n * b_n then grow at least geometrically with
ratio 4 and are kept as exact Python integers throughout: rho_n overflows
64-bit arithmetic around n = 11 already for constant b = 64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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

    condition: str  # short tag: "1<d", "d<b", "divisibility", "quotient>=2", "i", "ii", "iii", "word"
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[Issue, ...]
    checked_depth: int


KNOWN_PROFILES = ("dyadic",)


@dataclass(frozen=True)
class ScalePair:
    """Sequences b_n, d_n given as an explicit prefix plus a named extension rule.

    ``kind`` selects the rule used past the prefix:

    * ``constant``  -- b_n = b_1, d_n = d_1 for all n;
    * ``explicit``  -- the last prefix entry repeats indefinitely;
    * ``alpha``     -- dyadic powers targeting Hausdorff dimension ``alpha``
      (see :func:`dimension_targeting_pair`); the prefix is empty.

    Levels are 1-indexed everywhere.
    """

    kind: str
    b_prefix: tuple[int, ...] = ()
    d_prefix: tuple[int, ...] = ()
    alpha: Fraction | None = None
    profile: str = "dyadic"
    label: str = field(default="", compare=False)

    def b(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        if n <= len(self.b_prefix):
            return self.b_prefix[n - 1]
        if self.kind == "alpha":
            return _alpha_rule(self.alpha, n)[0]
        return self.b_prefix[-1]  # constant / explicit: repeat last entry

    def d(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        if n <= len(self.d_prefix):
            return self.d_prefix[n - 1]
        if self.kind == "alpha":
            return _alpha_rule(self.alpha, n)[1]
        return self.d_prefix[-1]

    def rho(self, n: int) -> int:
        return rho(self, n)

    def rho_list(self, depth: int) -> list[int]:
        """[rho_1, ..., rho_{depth+1}] as exact integers."""
        out = [1]
        for n in range(1, depth + 1):
            out.append(out[-1] * self.b(n))
        return out

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.kind == "constant":
            return f"constant(b={self.b_prefix[0]}, d={self.d_prefix[0]})"
        if self.kind == "alpha":
            return f"alpha({float(self.alpha)}, profile={self.profile})"
        return f"explicit(depth={len(self.b_prefix)})"


def _alpha_rule(alpha: Fraction, n: int) -> tuple[int, int]:
    """Dyadic (b_n, d_n) with d_n -> infinity and ln d_n / ln b_n -> alpha.

    All values are powers of two, so b_n/d_n is automatically a power of two
    >= 2.  The exponent slopes at the endpoints alpha = 0 and alpha = 1 are
    chosen steep enough that the cumulative ratio
    sum_{j<=N} ln d_j / sum_{j<=N} ln b_j is within 0.02 of alpha by N = 40.
    """
    return _dyadic_rule(alpha.numerator, alpha.denominator, n)


@functools.lru_cache(maxsize=4096)
def _dyadic_rule(p: int, q: int, n: int) -> tuple[int, int]:
    # cached on alpha = p/q as integers: hashing a Fraction costs more than the rule
    if p == 0:
        return 1 << (3 * n * n), 1 << n
    if p == q:
        return 1 << (3 * n), 1 << (3 * n - 1)
    return 1 << max(n + 1, -(-n * q // p)), 1 << n  # b_n = 2^max(n + 1, ceil(n / alpha))


def rho(pair: ScalePair, n: int) -> int:
    """The exact scale rho_n = prod_{j<n} b_j; rho(pair, 1) == 1."""
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    return pair.rho_list(n - 1)[-1]


def _check_level(b: int, d: int, n: int) -> Issue | None:
    if not d > 1:
        return Issue("1<d", f"n={n}", f"d_{n}={d} must exceed 1")
    if not d < b:
        return Issue("d<b", f"n={n}", f"d_{n}={d} must be smaller than b_{n}={b}")
    if b % d != 0:
        return Issue("divisibility", f"n={n}", f"b_{n}={b} is not a multiple of d_{n}={d}")
    if b // d < 2:
        return Issue("quotient>=2", f"n={n}", f"b_{n}/d_{n}={b // d} must be at least 2")
    return None


def constant_pair(b: int, d: int) -> ScalePair:
    """Pair with b_n = b and d_n = d for all n.

    Rejects inadmissible (b, d), naming the violated inequality.
    """
    issue = _check_level(b, d, 1)
    if issue is not None:
        raise PairConstraintError(f"{issue.message} [{issue.condition}]")
    return ScalePair(kind="constant", b_prefix=(b,), d_prefix=(d,))


def exact_int(value, field: str) -> int:
    """``value`` as an int; a ValueError naming ``field`` unless it is integral."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


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
    return ScalePair(kind="explicit", b_prefix=b, d_prefix=d)


def dimension_targeting_pair(alpha: float | Fraction, profile: str = "dyadic") -> ScalePair:
    """Pair whose Cantor set has Hausdorff dimension ``alpha`` in [0, 1].

    Uses the dyadic profile of :func:`_alpha_rule`; for alpha in (0, 1) this
    is d_n = 2^n, b_n = 2^max(n+1, ceil(n/alpha)), so the level ratios
    ln d_n / ln b_n sit within 1/n of alpha.
    """
    if profile not in KNOWN_PROFILES:
        raise PairConstraintError(f"unknown growth profile {profile!r}; known: {KNOWN_PROFILES}")
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise PairConstraintError(f"alpha must lie in [0, 1], got {alpha}")
    return ScalePair(kind="alpha", alpha=a, profile=profile)


def validate_pair(pair: ScalePair, depth: int) -> ValidationReport:
    """Check the admissibility constraints for every level n <= depth."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    issues = []
    for n in range(1, depth + 1):
        issue = _check_level(pair.b(n), pair.d(n), n)
        if issue is not None:
            issues.append(issue)
    return ValidationReport(ok=not issues, issues=tuple(issues), checked_depth=depth)


def pair_from_config(cfg: dict) -> ScalePair:
    """Build a pair from its JSON configuration document.

    Schema: {"kind": "constant"|"explicit"|"alpha", "b": ..., "d": ...,
    "alpha": ..., "profile": ...}.
    """
    kind = cfg.get("kind")
    if kind == "constant":
        return constant_pair(exact_int(cfg["b"], "b"), exact_int(cfg["d"], "d"))
    if kind == "explicit":
        return explicit_pair(cfg["b"], cfg["d"])
    if kind == "alpha":
        return dimension_targeting_pair(cfg["alpha"], cfg.get("profile", "dyadic"))
    raise PairConstraintError(f"unknown pair kind {kind!r}; expected constant/explicit/alpha")


def pair_to_config(pair: ScalePair) -> dict:
    if pair.kind == "constant":
        return {"kind": "constant", "b": pair.b_prefix[0], "d": pair.d_prefix[0]}
    if pair.kind == "alpha":
        return {"kind": "alpha", "alpha": float(pair.alpha), "profile": pair.profile}
    return {"kind": "explicit", "b": list(pair.b_prefix), "d": list(pair.d_prefix)}
