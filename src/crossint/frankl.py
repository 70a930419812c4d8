"""The canonical extremal candidates F(n, k, t, r) and their size regimes.

F(n, k, t, r) is the family of k-subsets meeting the window [t + 2r] in at
least t + r elements.  r = 0 is the star through [t].  Along the scale of n,
exactly one r maximizes |F(n, k, t, r)| except at rational thresholds
n = (k - t + 1) (2 + (t - 1) / (r + 1)), where r and r + 1 tie.  Sizes are
computed exactly for unbounded n; expansion is offered at word scale.
"""

# No postponed annotations here: NamedTuple would compile each field's
# annotation string into a ForwardRef at import.
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapacityError, OutOfScopeError, UsageError
from .families import WORD_CAP, UniformFamily, mask_of
from .records import Frozen

if TYPE_CHECKING:
    from fractions import Fraction


class FranklParams(Frozen):
    """The parameters of F(n, k, t, r): 1 <= t <= k <= n, r >= 0, and the
    window [t + 2r] inside [n]."""

    _fields = __slots__ = ("n", "k", "t", "r")

    def __init__(self, n: int, k: int, t: int, r: int) -> None:
        if not 1 <= t <= k <= n:
            raise UsageError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
        if r < 0:
            raise UsageError(f"r must be nonnegative, got {r}")
        if t + 2 * r > n:
            raise UsageError(f"window t + 2r = {t + 2 * r} exceeds the ground set [{n}]")
        self._init(n, k, t, r)

    @property
    def window(self) -> int:
        return self.t + 2 * self.r


def frankl_size(params: FranklParams) -> int:
    """|F(n,k,t,r)| = Sum_j C(t+2r, j) C(n-t-2r, k-j) over j >= t+r."""
    w = params.window
    return sum(
        comb(w, j) * comb(params.n - w, params.k - j)
        for j in range(params.t + params.r, min(params.k, w) + 1)
    )


def frankl_family(params: FranklParams) -> UniformFamily:
    """Explicit members of F(n,k,t,r); word-scale only."""
    n, k, w = params.n, params.k, params.window
    if n > WORD_CAP:
        raise CapacityError(f"cannot expand on a ground set of size {n}")
    rest = list(range(w + 1, n + 1))
    members = []
    for j in range(params.t + params.r, min(k, w) + 1):
        if k - j > len(rest):
            continue
        for inside in combinations(range(1, w + 1), j):
            base = mask_of(inside)
            for outside in combinations(rest, k - j):
                members.append(base | mask_of(outside))
    return UniformFamily.from_masks(n, k, members)


class FranklMax(NamedTuple):
    """argmax of r -> |F(n,k,t,r)|, with all ties."""

    n: int
    k: int
    t: int
    best_r: tuple[int, ...]
    size: int


def valid_r_range(n: int, k: int, t: int) -> range:
    """All r with a nonempty window inside [n]; sizes vanish once t + r > k."""
    return range(0, (n - t) // 2 + 1)


def frankl_max(n: int, k: int, t: int) -> FranklMax:
    if not 1 <= t <= k <= n:
        raise UsageError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    best: list[int] = []
    best_size = -1
    for r in valid_r_range(n, k, t):
        size = frankl_size(FranklParams(n, k, t, r))
        if size > best_size:
            best, best_size = [r], size
        elif size == best_size:
            best.append(r)
    return FranklMax(n, k, t, tuple(best), best_size)


class AKRegime(NamedTuple):
    """Position of n on the r-threshold scale.

    kind "strict": a unique r maximizes; kind "boundary": n sits exactly on a
    threshold and r, r+1 tie.  threshold values are exact rationals.
    """

    n: int
    k: int
    t: int
    kind: str
    r: int
    tied: tuple[int, ...]
    threshold_num: int
    threshold_den: int


def ak_threshold(k: int, t: int, r: int) -> "Fraction":
    """The n at which F(...,r) and F(...,r+1) have equal size."""
    # imported here: of the commands, only frankl classifies a regime
    from fractions import Fraction

    return (k - t + 1) * (2 + Fraction(t - 1, r + 1))


def ak_regime(n: int, k: int, t: int) -> AKRegime:
    """Classify n into its regime; needs the nontrivial range n >= 2k - t + 1."""
    if not 1 <= t <= k <= n:
        raise UsageError(f"need 1 <= t <= k <= n, got t={t}, k={k}, n={n}")
    if n < 2 * k - t + 1:
        raise OutOfScopeError(
            f"n = {n} < 2k - t + 1 = {2 * k - t + 1}: every pair of k-sets already "
            "meets in >= t points, no regime structure"
        )
    r = 0
    while True:
        thr = ak_threshold(k, t, r)
        if n > thr:
            return AKRegime(n, k, t, "strict", r, (r,), thr.numerator, thr.denominator)
        if n == thr:
            if t + 2 * (r + 1) <= n:
                return AKRegime(
                    n, k, t, "boundary", r, (r, r + 1), thr.numerator, thr.denominator
                )
            # the nominal tie partner r+1 has no window inside [n]
            return AKRegime(n, k, t, "strict", r, (r,), thr.numerator, thr.denominator)
        r += 1
        # thresholds decrease to 2(k - t + 1) < n, so the loop terminates
