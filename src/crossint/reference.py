"""The per-point reference API of the inequality engine: a second,
independent route to every value the sweep computes.

SectionParams validates a grid point, naming the first violated constraint.
eval_core, check_key_inequality, check_ratio_identity, the lemma_* functions,
chain_checks and appendix_case each take one and return one result object per
check, from the formulas of the inequalities module docstring.  key_ratio and
basefact are the exact ratio of (*) and the elementary fact behind the
product-versus-ratio equivalence.  The tests hold this route and
inequalities.evaluate_point, which calls none of it, to the same values.

No command imports this module; evaluate_point and iter_grid import
SectionParams from it only where they use it.  Fractions appear only in
reported ratios, and fractions is imported only where one is built.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, IntegrityError, UsageError
from .inequalities import (
    _SPECIAL_FORMS,
    EXCLUDED_TRIPLE,
    F_LEMMA_EXCLUSIONS,
    G_LEMMA_EXCLUSIONS,
)
from .records import Frozen

if TYPE_CHECKING:
    from fractions import Fraction


class SectionParams(Frozen):
    """A grid point; construction validates the full domain, naming the first
    violated constraint.  t <= 2 is rejected at the type level: the margin
    lemmas are false there and no claim is made."""

    _fields = __slots__ = ("n", "k", "s", "i", "t")

    def __init__(self, n: int, k: int, s: int, i: int, t: int) -> None:
        for name, value in (("n", n), ("k", k), ("s", s), ("i", i), ("t", t)):
            if value < 1:
                raise DomainError(f"{name} must be a positive integer, got {value}")
        if t < 3:
            raise DomainError(f"t = {t} < 3: engine restricted to t >= 3")
        if n < (t + 1) * (k - t + 1):
            raise DomainError(
                f"n = {n} < (t+1)(k-t+1) = {(t + 1) * (k - t + 1)}"
            )
        if not t + 3 <= s <= 2 * k - t:
            raise DomainError(f"s = {s} outside [t+3, 2k-t] = [{t + 3}, {2 * k - t}]")
        lo, hi = max(t + 1, s + t - k), min(k, (s + t) // 2)
        if not lo <= i <= hi:
            raise DomainError(f"i = {i} outside [max(t+1, s+t-k), min(k, (s+t)/2)] = [{lo}, {hi}]")
        # consequences of the domain, kept as cheap sanity checks
        assert k >= t + 2 and 2 * i - t <= s <= k + i - t
        self._init(n, k, s, i, t)

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.s, self.i, self.t)


class CoreQuantities(NamedTuple):
    s1: int
    s2: int
    t1: int
    t2: int


def eval_core(p: SectionParams) -> CoreQuantities:
    """Both algebraic forms of S1, S2 evaluated and compared; positivity of all
    four quantities is asserted before they feed any comparison."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    s1_sum = i * (n - k - s + i + 1) + (s - i) * (n - s + 1)
    s1_prod = s * (n - s + 1) - i * (k - i)
    s2_sum = (s + t - i) * (n - k - i + t + 1) + (i - t) * (n - s + 1)
    s2_prod = s * (n - s + 1) - (s + t - i) * (k + i - s - t)
    if s1_sum != s1_prod or s2_sum != s2_prod:
        raise IntegrityError(
            f"algebraic forms disagree at {p}: S1 {s1_sum}/{s1_prod}, S2 {s2_sum}/{s2_prod}"
        )
    t1 = i * (n - k - s + i + 1) + (s - i) * (k - i + 1)
    t2 = (s + t - i) * (n - k - i + t + 1) + (i - t) * (k - s - t + i + 1)
    q = CoreQuantities(s1_sum, s2_sum, t1, t2)
    if min(q.s1, q.s2, q.t1, q.t2) <= 0:
        raise IntegrityError(f"core quantity not positive at {p}: {q}")
    return q


class KeyIneqResult(NamedTuple):
    status: str  # holds | violated | excluded
    num: int
    den: int

    @property
    def ratio(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, self.den)

    @property
    def strict(self) -> bool:
        return self.num > self.den


def check_key_inequality(p: SectionParams, q: CoreQuantities | None = None) -> KeyIneqResult:
    """The reduced form (*) at a grid point.  At the excluded triple (6,4,3)
    the exact ratio is still computed but the status is 'excluded'."""
    if q is None:
        q = eval_core(p)
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    num = (n + i - k - s) * (n + t - k - i) * q.s1 * q.s2
    den = (n - s + 1) ** 2 * q.t1 * q.t2
    if p.triple == EXCLUDED_TRIPLE:
        return KeyIneqResult("excluded", num, den)
    return KeyIneqResult("holds" if num > den else "violated", num, den)


def check_ratio_identity(p: SectionParams) -> bool:
    """The binomial reduction behind (*):

        C(n-s,k-i) C(n-s,k+i-s-t) (n+i-k-s)(n+t-k-i)
          == C(n-s,k-i+1) C(n-s,k+i+1-s-t) (k-i+1)(k+i+1-s-t),

    checked by cross-multiplied integers."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    m = n - s
    lhs = comb(m, k - i) * comb(m, k + i - s - t) * (n + i - k - s) * (n + t - k - i)
    rhs = comb(m, k - i + 1) * comb(m, k + i + 1 - s - t) * (k - i + 1) * (k + i + 1 - s - t)
    return lhs == rhs


class LemmaResult(NamedTuple):
    name: str
    slack: int
    status: str  # holds | violated | excluded


def _dual(p: SectionParams, name: str, primary: int, reduced: int) -> int:
    if primary != reduced:
        raise IntegrityError(
            f"{name} forms disagree at {p}: {primary} vs {reduced}"
        )
    return primary


def lemma_f(p: SectionParams, q: CoreQuantities) -> LemmaResult:
    """S1 + S2 - T1 - T2 >= s(2k-s-t+2) off the seven excluded triples."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    slack = _dual(
        p,
        "lemma_f",
        q.s1 + q.s2 - q.t1 - q.t2 - s * (2 * k - s - t + 2),
        (s - i) * (n + i - k - s) + (i - t) * (n + t - k - i) - s * (2 * k - s - t + 2),
    )
    if p.triple in F_LEMMA_EXCLUSIONS:
        return LemmaResult("lemma_f", slack, "excluded")
    return LemmaResult("lemma_f", slack, "holds" if slack >= 0 else "violated")


def lemma_g(p: SectionParams, q: CoreQuantities) -> LemmaResult:
    """S1 > T1 + s(k-i+1) off the three excluded triples."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    slack = _dual(
        p,
        "lemma_g",
        q.s1 - q.t1 - s * (k - i + 1),
        (s - i) * (n + i - k - s) - s * (k - i + 1),
    )
    if p.triple in G_LEMMA_EXCLUSIONS:
        return LemmaResult("lemma_g", slack, "excluded")
    return LemmaResult("lemma_g", slack, "holds" if slack > 0 else "violated")


def lemma_h(p: SectionParams, q: CoreQuantities) -> LemmaResult:
    """S2 > T1 + s(k+i-s-t+1) - (S2 - T2), no exclusions."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    slack = _dual(
        p,
        "lemma_h",
        2 * q.s2 - q.t1 - q.t2 - s * (k + i - s - t + 1),
        s * s + s * (n + 3 * t - 3 * k - i - 1) + i * (2 * k - 2 * i) - t * n,
    )
    return LemmaResult("lemma_h", slack, "holds" if slack > 0 else "violated")


def lemma_phi(p: SectionParams, q: CoreQuantities) -> LemmaResult:
    """T2 + s(k+i-s-t+1) <= s(n-s+1), no exclusions."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    slack = _dual(
        p,
        "lemma_phi",
        s * (n - s + 1) - q.t2 - s * (k + i - s - t + 1),
        (i - t) * (n - 2 * k + s + 2 * t - 2 * i) - s,
    )
    return LemmaResult("lemma_phi", slack, "holds" if slack >= 0 else "violated")


def chain_checks(p: SectionParams, q: CoreQuantities) -> tuple[bool, dict[str, str]]:
    """The intermediate strict/weak inequalities of the reduction chain.

    The chain only runs when its entry condition S2 - T2 < s(k+i-s-t+1) holds
    and the triple is outside the seven-exclusion list (otherwise the direct
    two-factor route, or a specialized form, is used); off that gate every
    check is reported 'skipped'.  Returns (entry condition, statuses)."""
    n, k, s, i, t = p.n, p.k, p.s, p.i, p.t
    x = s * (k + i - s - t + 1)
    y = s * (k - i + 1)
    entry = q.s2 - q.t2 < x
    names = ("equa1", "equac2", "st", "equac1", "equac3")
    if not entry or p.triple in F_LEMMA_EXCLUSIONS:
        return entry, {name: "skipped" for name in names}
    mid = q.t1 + x - (q.s2 - q.t2)
    results = {
        "equa1": (n - k - s + i) * q.s1 > (n - s + 1) * (q.s1 - y),
        "equac2": q.s1 - y >= mid,
        "st": mid < q.s2 < q.t2 + x,
        "equac1": mid * q.s2 > q.t1 * (q.t2 + x),
        "equac3": (n - k - i + t) * (q.t2 + x) >= (n - s + 1) * q.t2,
    }
    return entry, {name: "holds" if ok else "violated" for name, ok in results.items()}




class AppendixResult(NamedTuple):
    params: SectionParams
    num: int
    den: int
    status: str  # holds | violated

    @property
    def ratio(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, self.den)


def appendix_case(n: int, k: int, s: int, i: int, t: int) -> AppendixResult:
    """Specialized per-triple polynomial form of the key ratio.

    Valid only for the six listed triples with k >= s+t-i (which puts the
    point on the grid); the product of the specialized factors is checked
    against the generic ratio on every call."""
    triple = (s, i, t)
    if triple not in _SPECIAL_FORMS:
        raise DomainError(f"no specialized form for (s,i,t) = {triple}")
    k_floor, num_fn, den_fn = _SPECIAL_FORMS[triple]
    if k < k_floor:
        raise DomainError(f"specialized form needs k >= s+t-i = {k_floor}, got {k}")
    p = SectionParams(n, k, s, i, t)
    num = 1
    for factor in num_fn(n, k):
        num *= factor
    den = 1
    for factor in den_fn(n, k):
        den *= factor
    generic = check_key_inequality(p)
    if num * generic.den != generic.num * den:
        raise IntegrityError(
            f"specialized form for {triple} at (n,k)=({n},{k}) gives {num}/{den}, "
            f"generic gives {generic.num}/{generic.den}"
        )
    return AppendixResult(p, num, den, "holds" if num > den else "violated")


def key_ratio(n: int, k: int, s: int, i: int, t: int) -> Fraction:
    """The exact reduced ratio of (*) at a grid point."""
    p = SectionParams(n, k, s, i, t)
    res = check_key_inequality(p)
    return res.ratio


def basefact(a_val, b_val, a_inc, b_dec) -> tuple[bool, bool]:
    """Both sides of: (A+a)(B-b) < AB  iff  B/(A+a) < b/a, for positive
    rationals, each evaluated independently and exactly."""
    from fractions import Fraction
    from numbers import Rational

    values = (a_val, b_val, a_inc, b_dec)
    for v in values:
        if not isinstance(v, (int, Rational)):
            raise UsageError(f"basefact needs exact numbers, got {type(v).__name__}")
        if v <= 0:
            raise DomainError(f"basefact needs positive values, got {v}")
    lhs = (a_val + a_inc) * (b_val - b_dec) < a_val * b_val
    rhs = Fraction(b_val, a_val + a_inc) < Fraction(b_dec, a_inc)
    return lhs, rhs
