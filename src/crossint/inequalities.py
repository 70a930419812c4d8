"""Exact big-integer engine for the product-bound inequality apparatus.

Everything here happens on the five-parameter grid

    (t+1)(k-t+1) <= n,   t+3 <= s <= 2k-t,
    max(t+1, s+t-k) <= i <= min(k, floor((s+t)/2)),   t >= 3,

with four core quantities

    S1 = i(n-k-s+i+1) + (s-i)(n-s+1)        = s(n-s+1) - i(k-i)
    S2 = (s+t-i)(n-k-i+t+1) + (i-t)(n-s+1)  = s(n-s+1) - (s+t-i)(k+i-s-t)
    T1 = i(n-k-s+i+1) + (s-i)(k-i+1)
    T2 = (s+t-i)(n-k-i+t+1) + (i-t)(k-s-t+i+1)

The key claim is the strict ratio bound

    (n+i-k-s)(n+t-k-i) S1 S2  >  (n-s+1)^2 T1 T2        (*)

for every grid point with (s,i,t) != (6,4,3), equivalent via a binomial
reduction identity to the comparison of C(n-s, .) ratio products that drives
the product-maximality argument.  Supporting margin lemmas (f, g, h, phi), a
chain of intermediate inequalities, and per-triple specialized polynomial
forms for the small (s,i,t) cases are all checked by pure integer arithmetic:
comparisons are cross-multiplied, never divided, and both algebraic forms of
every displayed quantity are computed and must agree.  Fractions appear only
in reported ratios.  Nothing here is floating point.

Each point can be checked along two routes.  The per-point API (eval_core,
check_key_inequality, check_ratio_identity, the lemma_* functions,
chain_checks, appendix_case) takes a validated SectionParams and returns one
result object per check.  evaluate_point, which evaluate_points calls once
per grid point for the sweep-inequalities command and for sweep(), is a
single flat pass over the five integers: an inline domain test, then every
quantity, both of its algebraic forms and every status, written straight
into the VerificationRecord.  It calls nothing of the per-point API; the
tests hold the two routes to the same values.

The record schema (Checks, Values, VerificationRecord) lives in records, so
that only the sweep command imports this engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from numbers import Rational
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import DomainError, IntegrityError, UsageError
from .records import CHECK_ORDER, Checks, Frozen, Values, VerificationRecord

EXCLUDED_TRIPLE = (6, 4, 3)

# margin lemma f fails (or is unproven) exactly on these triples
F_LEMMA_EXCLUSIONS = frozenset(
    {(8, 6, 5), (7, 5, 4), (8, 5, 3), (8, 4, 3), (7, 5, 3), (7, 4, 3), (6, 4, 3)}
)
# margin lemma g fails (or is unproven) exactly on these
G_LEMMA_EXCLUSIONS = frozenset({(7, 5, 3), (7, 4, 3), (6, 4, 3)})


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


# ---------------------------------------------------------------------------
# Specialized polynomial forms for the small (s,i,t) triples.  Each entry maps
# the triple to (k floor, numerator factors, denominator factors); the factors
# must reproduce the generic ratio exactly, which is enforced on every call.
# ---------------------------------------------------------------------------

_SPECIAL_FORMS: dict[
    tuple[int, int, int],
    tuple[int, Callable[[int, int], list[int]], Callable[[int, int], list[int]]],
] = {
    (8, 5, 3): (
        6,
        lambda n, k: [n - k - 3, n - k - 2, 8 * n - 5 * k - 31, 8 * n - 6 * k - 20],
        lambda n, k: [(n - 7) ** 2, 5 * n - 2 * k - 22, 6 * n - 4 * k - 16],
    ),
    (8, 4, 3): (
        7,
        lambda n, k: [n - k - 4, n - k - 1, 8 * n - 4 * k - 40, 8 * n - 7 * k - 7],
        lambda n, k: [(n - 7) ** 2, 4 * n - 24, 7 * n - 6 * k - 6],
    ),
    (7, 5, 4): (
        6,
        lambda n, k: [n - k - 2, n - k - 1, 7 * n - 5 * k - 17, 7 * n - 6 * k - 6],
        lambda n, k: [(n - 6) ** 2, 5 * n - 3 * k - 13, 6 * n - 5 * k - 5],
    ),
    (7, 5, 3): (
        5,
        lambda n, k: [(n - k - 2) ** 2, (7 * n - 5 * k - 17) ** 2],
        lambda n, k: [(n - 6) ** 2, (5 * n - 3 * k - 13) ** 2],
    ),
    (7, 4, 3): (
        6,
        lambda n, k: [n - k - 3, n - k - 1, 7 * n - 4 * k - 26, 7 * n - 6 * k - 6],
        lambda n, k: [(n - 6) ** 2, 4 * n - k - 17, 6 * n - 5 * k - 5],
    ),
    (8, 6, 5): (
        7,
        lambda n, k: [n - k - 2, n - k - 1, 8 * n - 6 * k - 20, 8 * n - 7 * k - 7],
        lambda n, k: [(n - 7) ** 2, 6 * n - 4 * k - 16, 7 * n - 6 * k - 6],
    ),
}

SPECIAL_TRIPLES = frozenset(_SPECIAL_FORMS)


class AppendixResult(NamedTuple):
    params: SectionParams
    num: int
    den: int
    status: str  # holds | violated

    @property
    def ratio(self) -> Fraction:
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
    values = (a_val, b_val, a_inc, b_dec)
    for v in values:
        if not isinstance(v, (int, Rational)):
            raise UsageError(f"basefact needs exact numbers, got {type(v).__name__}")
        if v <= 0:
            raise DomainError(f"basefact needs positive values, got {v}")
    lhs = (a_val + a_inc) * (b_val - b_dec) < a_val * b_val
    rhs = Fraction(b_val, a_val + a_inc) < Fraction(b_dec, a_inc)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Per-point records and grid sweeps
# ---------------------------------------------------------------------------


def evaluate_point(n: int, k: int, s: int, i: int, t: int) -> VerificationRecord:
    """Every applicable check at one grid point, statuses plus exact values.

    One flat pass over the integers: the core quantities, the key ratio (*),
    the binomial ratio identity, the four lemma slacks, the reduction chain
    and the specialized form, the same values as the per-point API above
    (eval_core, check_key_inequality, ..., appendix_case) gives, which this
    function does not call.  Both algebraic forms of S1, S2 and of every
    lemma slack are computed and compared, S1, S2, T1, T2 must be positive
    and the specialized form must reproduce the generic ratio; any
    disagreement is an IntegrityError.  A point off the grid is a
    DomainError, worded by SectionParams."""
    if not (
        t >= 3
        and n >= (t + 1) * (k - t + 1)
        and t + 3 <= s <= 2 * k - t
        and t + 1 <= i <= k
        and s + t - k <= i
        and 2 * i <= s + t
    ):
        SectionParams(n, k, s, i, t)  # raises the DomainError naming the constraint
    triple = (s, i, t)
    # shorthands for the factors of the module docstring's formulas
    m = n - s + 1
    a = n + i - k - s
    b = n + t - k - i
    u = s + t - i
    v = k + i - s - t
    x = s * (v + 1)
    y = s * (k - i + 1)

    # core quantities, both forms of S1 and S2
    S1 = i * (a + 1) + (s - i) * m
    S2 = u * (b + 1) + (i - t) * m
    if S1 != s * m - i * (k - i) or S2 != s * m - u * v:
        raise IntegrityError(
            f"algebraic forms disagree at (n,k,s,i,t) = {(n, k, s, i, t)}: "
            f"S1 {S1}/{s * m - i * (k - i)}, S2 {S2}/{s * m - u * v}"
        )
    T1 = i * (a + 1) + (s - i) * (k - i + 1)
    T2 = u * (b + 1) + (i - t) * (v + 1)
    if S1 <= 0 or S2 <= 0 or T1 <= 0 or T2 <= 0:
        raise IntegrityError(
            f"core quantity not positive at (n,k,s,i,t) = {(n, k, s, i, t)}: "
            f"S1={S1}, S2={S2}, T1={T1}, T2={T2}"
        )

    # the key ratio (*) and the binomial identity behind it
    num = a * b * S1 * S2
    den = m * m * T1 * T2
    if triple == EXCLUDED_TRIPLE:
        thm32 = "excluded"
    else:
        thm32 = "holds" if num > den else "violated"
    r = n - s
    identity = (
        comb(r, k - i) * comb(r, v) * a * b
        == comb(r, k - i + 1) * comb(r, v + 1) * (k - i + 1) * (v + 1)
    )
    ratio_identity = "holds" if identity else "violated"

    # the four margin lemmas, each slack by both forms
    slacks = (
        S1 + S2 - T1 - T2 - s * (2 * k - s - t + 2),
        S1 - T1 - y,
        2 * S2 - T1 - T2 - x,
        s * m - T2 - x,
    )
    reduced = (
        (s - i) * a + (i - t) * b - s * (2 * k - s - t + 2),
        (s - i) * a - y,
        s * s + s * (n + 3 * t - 3 * k - i - 1) + i * (2 * k - 2 * i) - t * n,
        (i - t) * (n - 2 * k + s + 2 * t - 2 * i) - s,
    )
    if slacks != reduced:
        raise IntegrityError(
            f"lemma slack forms disagree at (n,k,s,i,t) = {(n, k, s, i, t)}: "
            f"f, g, h, phi {slacks} vs {reduced}"
        )
    lemma_f_slack, lemma_g_slack, lemma_h_slack, lemma_phi_slack = slacks
    f_excluded = triple in F_LEMMA_EXCLUSIONS
    if f_excluded:
        lemma_f = "excluded"
    else:
        lemma_f = "holds" if lemma_f_slack >= 0 else "violated"
    if triple in G_LEMMA_EXCLUSIONS:
        lemma_g = "excluded"
    else:
        lemma_g = "holds" if lemma_g_slack > 0 else "violated"
    lemma_h = "holds" if lemma_h_slack > 0 else "violated"
    lemma_phi = "holds" if lemma_phi_slack >= 0 else "violated"

    # the reduction chain, behind its entry gate
    entry = S2 - T2 < x
    equa3 = int(entry)
    if not entry or f_excluded:
        equa1 = equac2 = st = equac1 = equac3 = "skipped"
    else:
        mid = T1 + x - (S2 - T2)
        equa1 = "holds" if a * S1 > m * (S1 - y) else "violated"
        equac2 = "holds" if S1 - y >= mid else "violated"
        st = "holds" if mid < S2 < T2 + x else "violated"
        equac1 = "holds" if mid * S2 > T1 * (T2 + x) else "violated"
        equac3 = "holds" if b * (T2 + x) >= m * T2 else "violated"

    # the specialized form of the small triples, against the generic ratio
    appendix = "skipped"
    form = _SPECIAL_FORMS.get(triple)
    if form is not None and k >= form[0]:
        form_num = 1
        for factor in form[1](n, k):
            form_num *= factor
        form_den = 1
        for factor in form[2](n, k):
            form_den *= factor
        if form_num * den != num * form_den:
            raise IntegrityError(
                f"specialized form for {triple} at (n,k)=({n},{k}) gives "
                f"{form_num}/{form_den}, generic gives {num}/{den}"
            )
        appendix = "holds" if form_num > form_den else "violated"

    g = gcd(num, den)
    # positional, from locals named after the fields: a keyword build costs
    # more than twice as much, and a test holds each name to its field
    return VerificationRecord(
        n, k, s, i, t, num // g, den // g,
        Checks(
            thm32, ratio_identity, lemma_f, lemma_g, lemma_h, lemma_phi,
            equa1, equac2, st, equac1, equac3, appendix,
        ),
        Values(
            S1, S2, T1, T2,
            lemma_f_slack, lemma_g_slack, lemma_h_slack, lemma_phi_slack, equa3,
        ),
    )


def _grid_points(
    t_lo: int, t_hi: int, k_span: int, n_span: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """The canonical (t, k, n, s, i) tuples of the grid, in order."""
    if t_lo < 3:
        raise DomainError(f"t = {t_lo} < 3: engine restricted to t >= 3")
    if t_hi < t_lo or k_span < 0 or n_span < 0:
        raise UsageError("empty sweep ranges")
    for t in range(t_lo, t_hi + 1):
        for k in range(t, t + k_span + 1):
            n_base = (t + 1) * (k - t + 1)
            for n in range(n_base, n_base + n_span + 1):
                for s in range(t + 3, 2 * k - t + 1):
                    lo, hi = max(t + 1, s + t - k), min(k, (s + t) // 2)
                    for i in range(lo, hi + 1):
                        yield (t, k, n, s, i)


def iter_grid(
    t_lo: int, t_hi: int, k_span: int, n_span: int
) -> Iterator[SectionParams]:
    """Grid points in canonical (t, k, n, s, i) order: k in [t, t+k_span],
    n in [(t+1)(k-t+1), (t+1)(k-t+1)+n_span], then all valid (s, i)."""
    for t, k, n, s, i in _grid_points(t_lo, t_hi, k_span, n_span):
        yield SectionParams(n, k, s, i, t)


class SweepSummary:
    """Running totals over sweep records: status counts per check, the
    lemma slack minima and the violated points."""

    VIOLATION_CAP = 1000

    def __init__(self) -> None:
        self.checked = 0
        self.clean = 0  # every evaluated check holds
        self.with_exclusion = 0  # at least one excluded status, none violated
        self.with_violation = 0
        self.violations: list[tuple[int, int, int, int, int, str]] = []
        self.status_counts: dict[str, dict[str, int]] = {}
        self.min_slack: dict[str, int] = {}
        self.last_point: tuple[int, int, int, int, int] | None = None

    def absorb(self, record: VerificationRecord) -> None:
        self.checked += 1
        self.last_point = record.point
        violated_here = []
        excluded_here = False
        for name, status in zip(CHECK_ORDER, record.checks):
            bucket = self.status_counts.setdefault(name, {})
            bucket[status] = bucket.get(status, 0) + 1
            if status == "violated":
                violated_here.append(name)
            elif status == "excluded":
                excluded_here = True
        for name in ("lemma_f", "lemma_g", "lemma_h", "lemma_phi"):
            slack = getattr(record.values, name + "_slack")
            if getattr(record.checks, name) != "excluded":
                if name not in self.min_slack or slack < self.min_slack[name]:
                    self.min_slack[name] = slack
        if violated_here:
            self.with_violation += 1
            if len(self.violations) < self.VIOLATION_CAP:
                self.violations.append(
                    (record.n, record.k, record.s, record.i, record.t, ",".join(violated_here))
                )
        elif excluded_here:
            self.with_exclusion += 1
        else:
            self.clean += 1

    def to_json_obj(self) -> dict:
        return {
            "checked": self.checked,
            "clean": self.clean,
            "with_exclusion": self.with_exclusion,
            "with_violation": self.with_violation,
            "violations": [list(v) for v in self.violations],
            "status_counts": self.status_counts,
            "min_slack": self.min_slack,
            "last_point": list(self.last_point) if self.last_point else None,
        }


def sweep(
    t_lo: int = 3,
    t_hi: int = 8,
    k_span: int = 12,
    n_span: int = 40,
) -> Iterator[VerificationRecord]:
    """Evaluate every grid point in canonical order, yielding its record."""
    return evaluate_points(_grid_points(t_lo, t_hi, k_span, n_span))


def evaluate_points(
    points: Iterable[tuple[int, int, int, int, int]]
) -> Iterator[VerificationRecord]:
    """The record of each canonical (t, k, n, s, i) point, in order.  A
    resumed sweep passes the grid's iterator after the checkpoint's records
    and compares the records after them with the stream's lines, so each
    point is walked once and evaluated at most once."""
    for t, k, n, s, i in points:
        yield evaluate_point(n, k, s, i, t)
