"""Explicit construction checks at one (n, k): ``verify-case4``.

``verify_section4_constructions`` instantiates the explicit generating-set
pairs used in the extremal analysis (layer-vs-block, star-with-fringe,
window twins, and the six-point window splits) and evaluates every printed
comparison with exact integers.  Each construction registers its pair in one
``generators`` call, which checks that both generating sets are antichains,
every printed size formula four ways (closed form, disjoint cells, profile
count, and full enumeration at expansion scale) and the pair cross-t, and
expands each generating set at most once.  Comparisons proved under a
hypothesis are guarded by it.  Every such hypothesis is a bound on n,
declared once as a ``Guard``: its printed text and the least n it holds for,
so ``guard_met`` is n >= that bound; a guard that holds by construction (a
case split on n, or on the window size) is its text alone.  An
in-hypothesis failure is an integrity defect, an out-of-hypothesis row is
recorded informationally.  Each check registers its construction, or a skip
with its reason, on a ``_ReportBuilder``, which raises IntegrityError on a
failed row whose hypothesis holds and assembles the report once from what
was registered.
Only the ``verify-case4`` command imports this module.
"""

from __future__ import annotations

from math import comb
from typing import Mapping, NamedTuple

from .errors import DomainError, IntegrityError
from .families import WORD_CAP, UniformFamily, is_cross_t_intersecting
from .frankl import FranklParams, frankl_size
from .gensets import (
    GenSet,
    compact,
    full_layer_genset,
    genset_cross_t,
    minimal_genset,
    perturb_pair,
    size_from_genset,
    upset_k,
    upset_size,
)
from .search import brute_force_best

#: The constructions are enumerated, and their expansions checked pair by
#: pair for cross-t-intersection, only up to C(n, k) sets: a cap below
#: gensets.EXPAND_CAP, because the pairs of two expansions number up to
#: C(n, k)^2.
PAIRWISE_EXPAND_CAP = 100_000


# ---------------------------------------------------------------------------
# Rows, sizes and reports of the explicit construction checks


class ComparisonRow(NamedTuple):
    """One printed comparison, evaluated with exact integers.

    ``guard`` names the hypothesis the comparison was proved under (empty for
    unconditional identities); ``guard_met`` says whether the hypothesis holds
    at this (n, k); ``holds`` is the exact truth of lhs <relation> rhs.
    """

    label: str
    relation: str
    lhs: int
    rhs: int
    guard: str
    guard_met: bool
    holds: bool


class ConstructionCheck(NamedTuple):
    """All checks for one explicit construction at a given (n, k)."""

    name: str
    params: Mapping[str, int]
    skipped: bool
    skip_reason: str
    sizes: Mapping[str, int]
    rows: tuple[ComparisonRow, ...]
    expanded: bool


class Section4Report(NamedTuple):
    """Report of every explicit-construction check at one (n, k)."""

    n: int
    k: int
    t: int
    checks: tuple[ConstructionCheck, ...]


class Guard(NamedTuple):
    """A hypothesis on n that holds exactly for n >= least_n, as printed."""

    text: str
    least_n: int


def _at_least(hypothesis: str, least_n: int) -> Guard:
    """The guard n >= least_n, printed as the hypothesis followed by least_n."""
    return Guard(f"{hypothesis} {least_n}", least_n)


_RELATIONS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
}


class _ConstructionBuilder:
    """Accumulates rows/sizes for one construction; enforces integrity."""

    def __init__(self, report: "_ReportBuilder", name: str, params: Mapping[str, int]):
        self.report = report
        self.name = name
        self.params = dict(params)
        self.skip_reason = ""
        self.rows: list[ComparisonRow] = []
        self.sizes: dict[str, int] = {}
        self.expanded = False

    def row(
        self, label: str, lhs: int, relation: str, rhs: int, guard: Guard | str = ""
    ) -> bool:
        """Record lhs <relation> rhs under guard: a Guard, which holds for n
        from its bound on, or the text of a hypothesis that holds here by
        construction (empty for an unconditional identity)."""
        if isinstance(guard, Guard):
            guard, guard_met = guard.text, self.report.n >= guard.least_n
        else:
            guard_met = True
        holds = _RELATIONS[relation](lhs, rhs)
        self.rows.append(ComparisonRow(label, relation, lhs, rhs, guard, guard_met, holds))
        if guard_met and not holds:
            raise IntegrityError(
                f"{self.name}: {label}: {lhs} {relation} {rhs} fails"
                + (f" under {guard}" if guard else "")
            )
        return holds

    def generators(
        self, gen_a: GenSet, size_a: int, gen_b: GenSet | None = None, size_b: int = 0
    ) -> tuple[UniformFamily, ...]:
        """Register the construction's generating sets A and B, each with
        its printed family size; with B omitted, A is paired with itself.

        Each generating set must be an antichain, and its size is checked
        four independent ways: the closed form, disjoint cells, profile
        count and, at expansion scale, full enumeration.  The pair must be
        cross-t at the report's t, on the generators and, at expansion
        scale, on the families.  Returns the expanded families, one per
        generating set, or () below expansion scale.
        """
        sides = [("A", gen_a, size_a)]
        if gen_b is not None:
            sides.append(("B", gen_b, size_b))
        expansions = tuple(self._family(*side) for side in sides)
        pair, t = f"({sides[0][0]}, {sides[-1][0]})", self.report.t
        if not genset_cross_t(sides[0][1], sides[-1][1], t):
            raise IntegrityError(f"{self.name}: {pair} generators are not cross-{t}")
        if not self.report.expandable:
            return ()
        if not is_cross_t_intersecting(expansions[0], expansions[-1], t):
            raise IntegrityError(f"{self.name}: {pair} expansions are not cross-{t}")
        return expansions

    def _family(self, label: str, genset: GenSet, printed: int) -> UniformFamily | None:
        if any(a != b and a & b == a for a in genset for b in genset):
            raise IntegrityError(
                f"{self.name}: generators of {label} are not an antichain"
            )
        by_cells = size_from_genset(genset)
        by_profile = upset_size(genset)
        if by_cells != printed or by_profile != printed:
            raise IntegrityError(
                f"{self.name}: |{label}| printed {printed}, cells {by_cells}, "
                f"profile {by_profile}"
            )
        self.sizes[label] = printed
        if not self.report.expandable:
            return None
        expansion = upset_k(genset)
        if len(expansion) != printed:
            raise IntegrityError(
                f"{self.name}: |{label}| printed {printed}, enumerated "
                f"{len(expansion)}"
            )
        if self.report.check_minimality and minimal_genset(expansion) != genset:
            raise IntegrityError(
                f"{self.name}: printed generators of {label} are not the "
                f"minimal generating set of the family they generate"
            )
        self.expanded = True
        return expansion


class _ReportBuilder:
    """The constructions registered at one (n, k, t), in order, and the two
    hypotheses on n that several of them are proved under."""

    def __init__(self, n: int, k: int, t: int):
        self.n = n
        self.k = k
        self.t = t
        self.constructions: list[_ConstructionBuilder] = []
        self.expandable = n <= WORD_CAP and comb(n, k) <= PAIRWISE_EXPAND_CAP
        # re-extracting the minimal generating set of each expansion stops at
        # n = 16 for its cost: turned on at every expandable n, it took
        # verify_section4_constructions from 0.10 s to 0.36 s at (20,6,3) and
        # from 1.64 s to 3.13 s at (20,7,3) (best of 3, in process, on a
        # 2-vCPU Xeon under CPython 3.11)
        self.check_minimality = n <= 16
        # the paper's threshold, and the bound the six-point window splits need
        self.regime = _at_least("n >= (t+1)(k-t+1) =", (t + 1) * (k - t + 1))
        self.six_window = _at_least("n >= 4(k-2) =", 4 * (k - 2))

    def construction(self, name: str, **params: int) -> _ConstructionBuilder:
        """Register a construction to check."""
        builder = _ConstructionBuilder(self, name, params)
        self.constructions.append(builder)
        return builder

    def skip(self, name: str, reason: str, **params: int) -> None:
        """Register a construction that is not checked, and why."""
        self.construction(name, **params).skip_reason = reason

    def report(self) -> Section4Report:
        return Section4Report(
            self.n,
            self.k,
            self.t,
            tuple(
                ConstructionCheck(
                    c.name,
                    c.params,
                    bool(c.skip_reason),
                    c.skip_reason,
                    c.sizes,
                    tuple(c.rows),
                    c.expanded,
                )
                for c in self.constructions
            ),
        )


# ---------------------------------------------------------------------------
# The constructions


def _c(m: int, j: int) -> int:
    """Binomial coefficient that is 0 for a negative lower index."""
    return comb(m, j) if j >= 0 else 0


def _check_layer_block(rb: _ReportBuilder, s: int) -> None:
    """A generated by all t-subsets of [s], B by the block [s] itself.

    Moving one ground point out of the window (A_1 keyed to [s-1], B_1 the
    [s-1]-block) must strictly increase the product whenever
    n >= (t+1)(k-t+1); the margin chain and the binomial ratio identity are
    checked link by link.
    """
    n, k, t = rb.n, rb.k, rb.t
    c = rb.construction("layer-vs-block", s=s)
    size_a = sum(comb(s, j) * comb(n - s, k - j) for j in range(t, s + 1))
    size_b = comb(n - s, k - s)
    c.generators(
        full_layer_genset(n, k, s, t), size_a, full_layer_genset(n, k, s, s), size_b
    )

    size_a1 = sum(comb(s - 1, j) * comb(n - s + 1, k - j) for j in range(t, s))
    size_b1 = comb(n - s + 1, k - s + 1)
    c.row(
        "window shrink drops exactly the fringe of A",
        size_a - size_a1,
        "==",
        comb(s - 1, t - 1) * comb(n - s, k - t),
    )
    c.row(
        "window shrink adds exactly the fringe of B",
        size_b1 - size_b,
        "==",
        comb(n - s, k - s + 1),
    )
    c.row(
        "margin rearrangement",
        s * (n - k) - t * (n - s + 1),
        "==",
        (s - t) * n - s * (k - t) - t,
    )
    c.row(
        "margin beats the threshold slack",
        (s - t) * n - s * (k - t) - t,
        ">",
        t * (s - t - 1) * (k - t + 1),
        guard=rb.regime,
    )
    if s >= t + 2:
        c.row(
            "threshold slack is positive",
            t * (s - t - 1) * (k - t + 1),
            ">",
            0,
            guard="s >= t+2",
        )
    c.row(
        "fringe ratio reduces to t(n-s+1) / s(n-k)",
        comb(s - 1, t - 1) * comb(n - s + 1, k - s + 1) * s * (n - k),
        "==",
        comb(s, t) * comb(n - s, k - s + 1) * t * (n - s + 1),
    )
    c.row(
        "A-fringe cost below B-fringe gain",
        comb(s - 1, t - 1) * comb(n - s + 1, k - s + 1),
        "<",
        comb(s, t) * comb(n - s, k - s + 1),
        guard=rb.regime,
    )
    diff = size_a1 * size_b1 - size_a * size_b
    c.row(
        "product gain beats the single-term bound",
        diff,
        ">",
        comb(n - s, k - t)
        * (
            comb(s, t) * comb(n - s, k - s + 1)
            - comb(s - 1, t - 1) * comb(n - s + 1, k - s + 1)
        ),
        guard=rb.regime,
    )
    c.row(
        "window shrink increases the product",
        size_a1 * size_b1,
        ">",
        size_a * size_b,
        guard=rb.regime,
    )


def _check_star_fringe(rb: _ReportBuilder) -> None:
    """A = star on [t] plus the near-window fringe, B = star cut to the window.

    With s = t+2 the pair is generated by {[t]} u {[t+2] minus one point of
    [t]} against {[t+1], [t+2] minus t+1}; its product must fall strictly
    below the twin-star product in regime.
    """
    n, k, t = rb.n, rb.k, rb.t
    c = rb.construction("star-fringe", s=t + 2)
    window = (1 << (t + 2)) - 1
    base = (1 << t) - 1
    gen_a = GenSet.from_masks(n, k, [base] + [window ^ (1 << i) for i in range(t)])
    gen_b = GenSet.from_masks(n, k, [(1 << (t + 1)) - 1, window ^ (1 << t)])
    size_a = comb(n - t, k - t) + t * comb(n - t - 2, k - t - 1)
    size_b = comb(n - t, k - t) - comb(n - t - 2, k - t)
    c.generators(gen_a, size_a, gen_b, size_b)

    c.row(
        "fringe gain at most the star deficit",
        t * comb(n - t - 2, k - t - 1),
        "<=",
        comb(n - t - 2, k - t),
        guard=rb.regime,
    )
    c.row(
        "product below the twin-star product",
        size_a * size_b,
        "<",
        comb(n - t, k - t) ** 2,
        guard=rb.regime,
    )


def _check_window_twins(rb: _ReportBuilder) -> None:
    """A = B = the (t+2)-window family {X : |X cap [t+2]| >= t+1}.

    The twin product ties the twin-star product exactly at the threshold
    n = (t+1)(k-t+1) and falls strictly below it beyond.
    """
    n, k, t = rb.n, rb.k, rb.t
    c = rb.construction("window-twins", s=t + 2)
    size = frankl_size(FranklParams(n=n, k=k, t=t, r=1))
    c.generators(full_layer_genset(n, k, t + 2, t + 1), size)
    threshold = rb.regime.least_n
    if n == threshold:
        c.row(
            "twin window ties the star at the threshold",
            size,
            "==",
            comb(n - t, k - t),
            guard=f"n == {threshold}",
        )
    elif n > threshold:
        c.row(
            "twin window falls below the star beyond the threshold",
            size,
            "<",
            comb(n - t, k - t),
            guard=f"n > {threshold}",
        )
    else:
        c.row(
            "twin window beats the star below the threshold",
            size,
            ">",
            comb(n - t, k - t),
            guard=f"n < {threshold}",
        )


def _senary_binomials(n: int, k: int) -> tuple[int, int, int, int]:
    """(b3, c, d, e) = C(n-6, k-3..k-6): cell counts beyond the 6-window."""
    return (
        _c(n - 6, k - 3),
        _c(n - 6, k - 4),
        _c(n - 6, k - 5),
        _c(n - 6, k - 6),
    )


def _check_pentad_pair(rb: _ReportBuilder) -> None:
    """B generated by two pentads of [6], A by the paired quads and triples.

    Replacing the pair with the [4]-keyed pair (A_1 = trace >= 3 on [4],
    B_1 = the [4]-star) gains exactly (|A_1| - 6|B|) C(n-6,k-4).
    """
    n, k = rb.n, rb.k
    c = rb.construction("pentad-pair")
    gen_a = compact("123,124,134,234,1256,1356,1456,2356,2456,3456", n, k)
    gen_b = compact("12345,12346", n, k)
    b3, cc, d, e = _senary_binomials(n, k)
    size_a = 4 * comb(n - 4, k - 3) + comb(n - 4, k - 4) + 6 * cc
    size_b = 2 * d + e
    c.generators(gen_a, size_a, gen_b, size_b)

    size_a1 = comb(n - 4, k - 4) + 4 * comb(n - 4, k - 3)
    size_b1 = comb(n - 4, k - 4)
    c.row(
        "pair difference collapses to one cell term",
        size_a1 * size_b1 - size_a * size_b,
        "==",
        (size_a1 - 6 * size_b) * cc,
    )
    c.row(
        "retained side dominates thirteen cells",
        size_a1,
        ">",
        13 * comb(n - 4, k - 4),
        guard=rb.six_window,
    )
    c.row(
        "thirteen cells dominate the dropped side",
        13 * comb(n - 4, k - 4),
        ">",
        13 * size_b,
        guard=rb.six_window,
    )
    c.row(
        "window swap increases the product",
        size_a1 * size_b1,
        ">",
        size_a * size_b,
        guard=rb.six_window,
    )


def _check_pentad_triple(rb: _ReportBuilder) -> None:
    """B generated by the three pentads over [3], A by [3] and twelve quads."""
    n, k = rb.n, rb.k
    c = rb.construction("pentad-triple")
    gen_a = compact(
        "123,1245,1246,1256,1345,1346,1356,1456,2345,2346,2356,2456,3456", n, k
    )
    gen_b = compact("12345,12346,12356", n, k)
    b3, cc, d, e = _senary_binomials(n, k)
    size_a = e + 6 * d + 15 * cc + b3
    size_b = e + 3 * d
    c.generators(gen_a, size_a, gen_b, size_b)

    size_a1 = comb(n - 5, k - 5) + 5 * comb(n - 5, k - 4) + comb(n - 5, k - 3)
    size_b1 = 2 * comb(n - 5, k - 4) + comb(n - 5, k - 5)
    c.row("five-window A retains all but nine cells", size_a1, "==", size_a - 9 * cc)
    c.row("five-window B gains exactly two cells", size_b1, "==", size_b + 2 * cc)
    c.row("cells outgrow pentad cells", cc, ">", d, guard=rb.six_window)
    c.row("pentad cells outgrow the core", d, ">", e, guard=rb.six_window)
    c.row(
        "quad cells dominate pentad cells threefold",
        cc,
        ">",
        3 * d,
        guard=rb.six_window,
    )
    c.row(
        "pair difference collapses to one cell term",
        size_a1 * size_b1 - size_a * size_b,
        "==",
        cc * (-7 * e - 15 * d + 12 * cc + 2 * b3),
    )
    c.row(
        "window swap increases the product",
        size_a1 * size_b1,
        ">",
        size_a * size_b,
        guard=rb.six_window,
    )


def _check_quad_pentad(rb: _ReportBuilder) -> None:
    """B generated by {[4], 12356}, A by [3] and six straddling quads.

    The top-slice move (drop the three top quads of A, refill B from its top
    pentad) must increase the product; the deltas are cross-checked against
    the perturbation engine at expansion scale.
    """
    n, k = rb.n, rb.k
    c = rb.construction("quad-pentad")
    gen_a = compact("123,1245,1246,1345,1346,2345,2346", n, k)
    gen_b = compact("1234,12356", n, k)
    b3, cc, d, e = _senary_binomials(n, k)
    size_a = b3 + 9 * cc + 6 * d + e
    size_b = cc + 3 * d + e
    expansions = c.generators(gen_a, size_a, gen_b, size_b)

    size_a1 = size_a - 3 * cc
    size_b1 = size_b + cc
    c.row(
        "pair difference collapses to one cell term",
        size_a1 * size_b1 - size_a * size_b,
        "==",
        cc * (b3 + 3 * cc - 3 * d - 2 * e),
    )
    c.row(
        "top-slice move increases the product",
        size_a1 * size_b1,
        ">",
        size_a * size_b,
        guard=rb.six_window,
    )
    if expansions:
        moved = perturb_pair(*expansions, gen_a, gen_b, i=4, t=3)
        new_a, new_b = moved.families
        if len(new_a) != size_a1 or len(new_b) != size_b1:
            raise IntegrityError(
                "quad-pentad: perturbation sizes disagree with the printed deltas"
            )
        if not is_cross_t_intersecting(new_a, new_b, 3):
            raise IntegrityError("quad-pentad: perturbed pair lost cross-3")


def _check_quad_triple(rb: _ReportBuilder) -> None:
    """A generated by three anchored quads, B by [3] and three pentads.

    The product must fall strictly below the [3]-star twin product once the
    cell ratios C(n-6,k-3) > 3C(n-6,k-4) > 9C(n-6,k-5) apply; those ratio
    links hold under their own window bounds n-6 >= 4(k-3) resp. 4(k-4),
    which are checked as the guards.
    """
    n, k = rb.n, rb.k
    c = rb.construction("quad-triple")
    b3, cc, d, e = _senary_binomials(n, k)
    star3 = comb(n - 3, k - 3)
    size_a = star3 - b3
    size_b = star3 + 3 * d
    c.generators(
        compact("1234,1235,1236", n, k),
        size_a,
        compact("123,12456,13456,23456", n, k),
        size_b,
    )

    first_guard = _at_least("n-6 >= 4(k-3), i.e. n >=", 4 * k - 6)
    second_guard = _at_least("n-6 >= 4(k-4), i.e. n >=", 4 * k - 10)
    c.row(
        "triple cells dominate quad cells threefold",
        b3,
        ">",
        3 * cc,
        guard=first_guard,
    )
    c.row(
        "quad cells dominate pentad cells threefold",
        3 * cc,
        ">",
        9 * d,
        guard=second_guard,
    )
    c.row(
        "product below the anchored-star twin product",
        size_a * size_b,
        "<",
        star3 * star3,
        guard=first_guard,
    )


def _check_senary_lopsided(rb: _ReportBuilder) -> None:
    """A = trace >= 4 on [6], B = trace >= 5 on [6].

    Writing F for the window family {X : |X cap [5]| >= 4}, the pair is
    (F + 10c, F - 5c) with c = C(n-6,k-4); its product falls short of F^2 by
    exactly 5c(F - 10c), which is negative in regime (checked both in cell
    form and through the closed rational form for k >= 5).
    """
    n, k = rb.n, rb.k
    c = rb.construction("senary-lopsided")
    b3, cc, d, e = _senary_binomials(n, k)
    window = frankl_size(FranklParams(n=n, k=k, t=3, r=1))
    size_a = 15 * cc + 6 * d + e
    size_b = 6 * d + e
    c.generators(
        full_layer_genset(n, k, 6, 4), size_a, full_layer_genset(n, k, 6, 5), size_b
    )

    c.row("window size in cells", window, "==", 5 * cc + 6 * d + e)
    c.row("A exceeds the window by ten cells", size_a, "==", window + 10 * cc)
    c.row("B falls below the window by five cells", size_b, "==", window - 5 * cc)
    c.row(
        "product deficit collapses to one cell term",
        size_a * size_b - window * window,
        "==",
        5 * cc * (window - 10 * cc),
    )
    if k >= 5 and n >= 6 + (k - 4):
        # (k-4)(n-5) (F - 10c) = C(n-5,k-5) ((k-4)(n-5) - 5(n-k)(n-2k+3))
        c.row(
            "deficit sign in closed rational form",
            (k - 4) * (n - 5) * (window - 10 * cc),
            "==",
            comb(n - 5, k - 5) * ((k - 4) * (n - 5) - 5 * (n - k) * (n - 2 * k + 3)),
        )
    c.row(
        "product falls below the window twin product",
        size_a * size_b,
        "<",
        window * window,
        guard=rb.six_window,
    )


def _check_senary_split(rb: _ReportBuilder) -> None:
    """Both quad slices on [6] nonempty: sizes are (a c + 6d + e, b c + 6d + e).

    The slice sizes obey a + b <= 10 (the sum bound for nonempty
    cross-3-intersecting subfamilies of C([6],4), recomputed here by brute
    force), so the product is at most (5c + 6d + e)^2, the window twin
    product, with equality only for twin quad slices C(T,4), T a pentad.
    """
    n, k = rb.n, rb.k
    c = rb.construction("senary-split")
    b3, cc, d, e = _senary_binomials(n, k)
    window = frankl_size(FranklParams(n=n, k=k, t=3, r=1))

    slice_best = brute_force_best(6, 4, 3, "sum")
    c.row("quad-slice sum bound", slice_best.value, "==", 10)
    c.row(
        "sum bound matches the pair-sum formula",
        slice_best.value,
        "==",
        comb(6, 4) - sum(comb(4, i) * comb(2, 4 - i) for i in range(3)) + 1,
    )
    even_split_pairs = 0
    for fam_a, fam_b in slice_best.witnesses:
        a, b = len(fam_a), len(fam_b)
        c.row(
            f"split ({a},{b}) stays at most the twin window product",
            (a * cc + 6 * d + e) * (b * cc + 6 * d + e),
            "<=" if cc > 0 else "==",
            window * window,
        )
        if a == b == 5:
            even_split_pairs += 1
            for fam in (fam_a, fam_b):
                union = 0
                for m in fam.members:
                    union |= m
                if union.bit_count() != 5 or len(fam) != 5:
                    raise IntegrityError(
                        "senary-split: an even split is not a pentad quad slice"
                    )
            if fam_a.members != fam_b.members:
                raise IntegrityError("senary-split: an even split is not a twin")
            if cc > 0:
                c.row(
                    "twin pentad slices attain the window twin product",
                    (5 * cc + 6 * d + e) ** 2,
                    "==",
                    window * window,
                )
    c.row("all six twin pentad slices attain the sum bound", even_split_pairs, "==", 6)


def verify_section4_constructions(n: int, k: int, t: int = 3) -> Section4Report:
    """Check every explicit extremal construction at one (n, k).

    The window-parametrized constructions (layer-vs-block, star-fringe,
    window-twins) run for the given t >= 3; the six-point window splits are
    specific to t = 3 and are skipped otherwise.  Size formulas and
    cross-intersection are integrity-checked unconditionally; printed strict
    comparisons are enforced only under their printed hypotheses and recorded
    informationally outside them.
    """
    if t < 3:
        raise DomainError(f"explicit constructions assume t >= 3, got {t}")
    if not t + 1 <= k <= n:
        raise DomainError(f"need t+1 <= k <= n, got t = {t}, k = {k}, n = {n}")
    if n <= 2 * k - t:
        raise DomainError(
            f"construction checks need n > 2k-t, got n = {n}, 2k-t = {2 * k - t}"
        )
    rb = _ReportBuilder(n, k, t)
    for s in range(t + 1, k + 1):
        _check_layer_block(rb, s)
    _check_star_fringe(rb)
    _check_window_twins(rb)
    if t != 3:
        rb.skip("six-point-window", "splits are specific to t = 3", t=t)
    elif k < 5:
        rb.skip("six-point-window", f"pentad generators need k >= 5, got k = {k}", k=k)
    elif n < 8:
        rb.skip("six-point-window", f"windows [6] need n >= 8, got n = {n}", n=n)
    else:
        _check_pentad_pair(rb)
        _check_pentad_triple(rb)
        _check_quad_pentad(rb)
        _check_quad_triple(rb)
        _check_senary_lopsided(rb)
        _check_senary_split(rb)
    return rb.report()
