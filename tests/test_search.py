"""Exhaustive searches: the closure operator, brute force over word-scale
layers, the generating-set branch-and-bound, the explicit-construction
comparisons, and the end-to-end product-bound confirmation.

The brute force and the genset search are independent algorithms; the tests
run both on every layer small enough for the former and demand bit-identical
optima.
"""

from __future__ import annotations

import random
import re
from math import comb

import pytest

from crossint import constructions, gensets, search
from crossint.errors import CapacityError, DomainError, IntegrityError, UsageError
from crossint.families import (
    UniformFamily,
    enumerate_k_subsets,
    is_cross_t_intersecting,
)
from crossint.compression import shift_family
from crossint.constructions import verify_section4_constructions
from crossint.frankl import FranklParams, frankl_size
from crossint.gensets import GenSet, compact, full_layer_genset, upset_k, upset_size
from crossint.search import (
    BRUTE_CAP,
    SearchResult,
    brute_force_best,
    closure_t,
    genset_search_best_product,
    validate_result,
    verify_main_theorem_small,
)


# ---------------------------------------------------------------------------
# closure


def test_closure_of_empty_family_is_full_layer() -> None:
    empty = UniformFamily(6, 3, ())
    assert closure_t(empty, 2) == enumerate_k_subsets(6, 3)


def test_closure_of_single_set() -> None:
    fam = UniformFamily.from_sets(6, 3, [[1, 2, 3]])
    cl = closure_t(fam, 2)
    expected = {
        m
        for m in enumerate_k_subsets(6, 3).members
        if (m & 0b111).bit_count() >= 2
    }
    assert set(closure_t(fam, 2).members) == expected
    assert len(cl) == 10


def test_closure_is_antitone_and_idempotent_in_pairs() -> None:
    """cl is a Galois partner map: F subset G implies cl(G) subset cl(F), and
    cl(cl(cl(F))) == cl(F) on random families."""
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        t = rng.randint(1, k)
        layer = enumerate_k_subsets(n, k).members
        small = rng.sample(layer, rng.randint(1, len(layer)))
        extra = rng.sample(layer, rng.randint(0, len(layer) // 2))
        fam_f = UniformFamily.from_masks(n, k, small)
        fam_g = UniformFamily.from_masks(n, k, set(small) | set(extra))
        cf, cg = closure_t(fam_f, t), closure_t(fam_g, t)
        assert set(cg.members) <= set(cf.members)
        c3 = closure_t(closure_t(cf, t), t)
        assert c3 == cf
        # the closure is the largest valid partner
        assert is_cross_t_intersecting(fam_f, cf, t)


def test_closure_validation() -> None:
    fam = enumerate_k_subsets(5, 3)
    with pytest.raises(DomainError):
        closure_t(fam, 0)
    with pytest.raises(DomainError):
        closure_t(fam, 4)


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_star_twins_product() -> None:
    res = brute_force_best(6, 2, 1)
    assert res.value == 25
    assert len(res.witnesses) == 6
    for side_a, side_b in res.witnesses:
        assert len(side_a) == len(side_b) == 5
        # each optimal pair is a twin star through one point
        common = side_a.members[0]
        for m in list(side_a) + list(side_b):
            common &= m
        assert common.bit_count() == 1
    validate_result(res)


def test_brute_force_sum_small_points() -> None:
    res = brute_force_best(5, 3, 2, "sum")
    assert res.value == 8
    assert len(res.witnesses) == 15
    # the twin quadruple-window pair is among the optima
    window = UniformFamily.from_masks(
        5, 3, [m for m in enumerate_k_subsets(5, 3).members if (m & 0b1111).bit_count() >= 3]
    )
    assert any(a == window and b == window for a, b in res.witnesses)
    validate_result(res)

    assert brute_force_best(6, 3, 2, "sum").value == 11
    res = brute_force_best(6, 4, 3, "sum")
    assert res.value == 10
    assert len(res.witnesses) == 21
    validate_result(res)


def test_brute_force_sum_structures_at_6_4_3() -> None:
    res = brute_force_best(6, 4, 3, "sum")
    twins = [(a, b) for a, b in res.witnesses if a == b]
    lopsided = [(a, b) for a, b in res.witnesses if a != b]
    # 6 twin pentads C([5],4) shifted around, 15 singleton-plus-ball pairs
    assert len(twins) == 6
    assert len(lopsided) == 15
    for a, b in lopsided:
        assert {len(a), len(b)} == {1, 9}


def test_brute_force_refuses_large_layers() -> None:
    assert comb(10, 5) > BRUTE_CAP
    with pytest.raises(CapacityError):
        brute_force_best(10, 5, 2)


def test_brute_force_validation() -> None:
    with pytest.raises(DomainError):
        brute_force_best(6, 2, 3)
    with pytest.raises(UsageError):
        brute_force_best(6, 2, 1, "max")


def test_validate_result_catches_tampering() -> None:
    res = brute_force_best(6, 2, 1)
    bad = SearchResult(
        res.n, res.k, res.t, res.objective, res.method, res.value + 1, res.witnesses,
        res.stats,
    )
    with pytest.raises(IntegrityError):
        validate_result(bad)
    disjoint = (
        UniformFamily.from_sets(6, 2, [[1, 2]]),
        UniformFamily.from_sets(6, 2, [[3, 4]]),
    )
    bad = SearchResult(6, 2, 1, "product", "brute", 1, (disjoint,), {})
    with pytest.raises(IntegrityError):
        validate_result(bad)


# ---------------------------------------------------------------------------
# genset search


def test_genset_search_boundary_point() -> None:
    res = genset_search_best_product(8, 4, 3)
    assert res.value == 25
    assert len(res.witnesses) == 2
    star = compact("123", 8, 4)
    window = full_layer_genset(8, 4, 5, 4)
    shapes = {(a.elements, b.elements) for a, b in res.witnesses}
    assert (star.elements, star.elements) in shapes
    assert (window.elements, window.elements) in shapes
    validate_result(res)


def test_genset_search_above_threshold_star_only() -> None:
    for n, value in ((9, 36), (10, 49)):
        res = genset_search_best_product(n, 4, 3)
        assert res.value == value
        assert len(res.witnesses) == 1
        ((gen_a, gen_b),) = res.witnesses
        assert gen_a.element_sets() == gen_b.element_sets() == ((1, 2, 3),)
        validate_result(res)


def test_genset_search_below_threshold_window_wins() -> None:
    res = genset_search_best_product(9, 5, 3)
    twin = frankl_size(FranklParams(9, 5, 3, 1)) ** 2
    assert res.value == twin == 441
    assert any(
        upset_size(a) == upset_size(b) == 21 for a, b in res.witnesses
    )
    validate_result(res)


def test_genset_search_agrees_with_brute_force() -> None:
    """Wherever the layer fits the brute cap, the two independent searches
    must find the same optimum."""
    points = 0
    for n in range(2, 8):
        for k in range(1, n):
            if comb(n, k) > BRUTE_CAP:
                continue
            for t in range(1, k + 1):
                brute = brute_force_best(n, k, t)
                gen = genset_search_best_product(n, k, t)
                assert brute.value == gen.value, (n, k, t)
                points += 1
    assert points >= 30


def test_genset_search_trivial_regime() -> None:
    # n <= 2k - t: the full layer pairs with itself
    res = genset_search_best_product(6, 4, 2)
    assert res.value == comb(6, 4) ** 2
    validate_result(res)


def test_genset_search_node_cap_surfaces_partial_best(monkeypatch) -> None:
    # (10,6,3) takes 10,257 nodes, so a cap of 2,000 stops it mid-scan
    monkeypatch.setattr(search, "GENSET_NODE_CAP", 2_000)
    with pytest.raises(CapacityError, match="node cap 2000 exceeded") as exc_info:
        genset_search_best_product(10, 6, 3)
    partial = exc_info.value.partial_best
    assert partial is not None
    assert partial.value >= frankl_size(FranklParams(10, 6, 3, 1)) ** 2
    assert partial.stats["capped"] == 1
    assert "prune_suffix" in str(exc_info.value)


def test_genset_search_visits_only_shifted_pairs() -> None:
    """Every witness expands to a left-compressed pair whose minimal genset
    is the reported one, and the shifted scan stays small."""
    from crossint.compression import is_left_compressed
    from crossint.gensets import minimal_genset

    for n, k, t in ((8, 4, 3), (9, 5, 3), (10, 5, 3), (9, 4, 1), (8, 5, 3)):
        res = genset_search_best_product(n, k, t)
        assert res.witnesses, (n, k, t)
        for gen_a, gen_b in res.witnesses:
            for gen in (gen_a, gen_b):
                family = upset_k(gen)
                assert is_left_compressed(family), (n, k, t, gen.element_sets())
                assert minimal_genset(family) == gen
        if (n, k, t) in ((9, 5, 3), (10, 5, 3)):
            assert res.stats["nodes"] < 5_000, (n, k, t, res.stats)


def test_genset_search_completes_at_9_4_1() -> None:
    res = genset_search_best_product(9, 4, 1)
    assert res.value == comb(8, 3) ** 2 == 3136
    assert res.stats["capped"] == 0


def test_genset_search_visits_only_band_sized_generators() -> None:
    # n - s = 2 < k - t = 3 at (9,4,1), s = 7: every k-set meets [7] in at
    # least 2 points, so a 1-element generator would generate the family of
    # its 2-element supersets a second time.  Only the band sizes 2..4 are
    # candidates, and the one optimal family pair is tied once.
    res = genset_search_best_product(9, 4, 1)
    assert res.stats["candidates"] == sum(comb(7, j) for j in range(2, 5))
    assert res.stats["ties"] == 1
    assert len(res.witnesses) == 1


def test_genset_search_prune_counters_repeat() -> None:
    first = genset_search_best_product(10, 5, 3).stats
    second = genset_search_best_product(10, 5, 3).stats
    assert first == second
    for name in ("improvements", "prune_level", "prune_solo", "prune_suffix"):
        assert name in first
    assert first["prune_level"] + first["prune_solo"] + first["prune_suffix"] > 0


def test_genset_search_validation() -> None:
    with pytest.raises(DomainError):
        genset_search_best_product(6, 7, 3)


def test_genset_witnesses_survive_joint_shifts() -> None:
    """Expanding an optimal genset pair and applying the same shift to both
    sides preserves cross-t and both sizes."""
    rng = random.Random(616)
    res = genset_search_best_product(8, 4, 3)
    for gen_a, gen_b in res.witnesses:
        fam_a, fam_b = upset_k(gen_a), upset_k(gen_b)
        for _ in range(100):
            i, j = rng.sample(range(1, 9), 2)
            sa, sb = shift_family(fam_a, i, j), shift_family(fam_b, i, j)
            assert len(sa) * len(sb) == res.value
            assert is_cross_t_intersecting(sa, sb, 3)


# ---------------------------------------------------------------------------
# explicit-construction comparisons


def test_section4_reports_run_every_construction() -> None:
    for n, k in ((10, 6), (12, 6), (14, 7), (16, 8)):
        report = verify_section4_constructions(n, k)
        # layer-vs-block gives 8 rows at s = 4 and 9 at each s in [5, k];
        # the other constructions give 55 rows between them
        assert sum(len(c.rows) for c in report.checks) == 9 * k + 27, (n, k)
        assert not any(c.skipped for c in report.checks), (n, k)
        names = {c.name for c in report.checks}
        assert {
            "layer-vs-block",
            "star-fringe",
            "window-twins",
            "pentad-pair",
            "pentad-triple",
            "quad-pentad",
            "quad-triple",
            "senary-lopsided",
            "senary-split",
        } <= names


def test_section4_known_informational_failures() -> None:
    # outside its guard the star-fringe product comparison genuinely fails;
    # the guard is doing real work
    report = verify_section4_constructions(10, 6)
    failures = {
        (check.name, row.label): (row.lhs, row.rhs)
        for check in report.checks
        for row in check.rows
        if not row.guard_met and not row.holds
    }
    assert any(
        lhs == 1625 and rhs == 1225 for lhs, rhs in failures.values()
    )


def test_section4_guards_are_bounds_on_n() -> None:
    # a guard that depends on n prints its bound last, as "... = N" or
    # "n >= N", and is met exactly for n >= N; every other guard holds by
    # construction.  The points straddle every bound at k = 5 (t = 3) and
    # the threshold 15 at k = 6, t = 4.
    bound = re.compile(r"(?:\) = |n >= )([0-9]+)$")
    met = set()
    for k, t, ns in ((5, 3, range(8, 17)), (6, 4, range(9, 18))):
        for n in ns:
            for check in verify_section4_constructions(n, k, t).checks:
                for row in check.rows:
                    match = bound.search(row.guard)
                    if match is None:
                        assert row.guard_met, (n, k, t, row)
                    else:
                        assert row.guard_met == (n >= int(match[1])), (n, k, t, row)
                        met.add((row.guard.rsplit(" ", 1)[0], row.guard_met))
    assert met == {
        (text, guard_met)
        for text in (
            "n >= (t+1)(k-t+1) =",
            "n >= 4(k-2) =",
            "n-6 >= 4(k-3), i.e. n >=",
            "n-6 >= 4(k-4), i.e. n >=",
        )
        for guard_met in (False, True)
    }


def test_section4_sizes_match_expansion_where_expandable() -> None:
    report = verify_section4_constructions(10, 6)
    expanded = [c for c in report.checks if c.expanded and not c.skipped]
    assert expanded  # at word scale everything should expand
    report_big = verify_section4_constructions(40, 20)
    assert sum(len(c.rows) for c in report_big.checks) == 9 * 20 + 27
    assert not any(c.expanded for c in report_big.checks)  # cells and profile only


def test_section4_validation() -> None:
    with pytest.raises(DomainError):
        verify_section4_constructions(10, 6, t=2)
    with pytest.raises(DomainError):
        verify_section4_constructions(5, 6)


def test_section4_generators_must_be_antichains_at_any_n() -> None:
    # at n = 40 nothing is expanded, so no minimality check could catch it
    rb = constructions._ReportBuilder(40, 20, 3)
    assert not rb.expandable
    chain, star = compact("123,1234", 40, 20), compact("123", 40, 20)
    with pytest.raises(IntegrityError, match=r"^chained: generators of A are not an antichain"):
        rb.construction("chained").generators(chain, comb(37, 17))
    with pytest.raises(IntegrityError, match=r"^chained: generators of B are not an antichain"):
        rb.construction("chained").generators(star, comb(37, 17), chain, comb(37, 17))


def test_section4_refuses_generators_whose_cells_miss_part_of_their_up_set() -> None:
    # {14} and {23} generate 6 sets on [5], but their cells hold only 3: the
    # cell sum agrees with the printed size, and the profile count refuses it
    rb = constructions._ReportBuilder(5, 3, 3)
    uncovered = GenSet.from_sets(5, 3, [[1, 4], [2, 3]])
    with pytest.raises(IntegrityError, match=r"^uncovered: \|A\| printed 3, cells 3, profile 6$"):
        rb.construction("uncovered").generators(uncovered, 3)


@pytest.mark.parametrize("n, k, families", [(16, 6, 19), (12, 5, 17)])
def test_section4_expands_each_registered_family_once(monkeypatch, n, k, families) -> None:
    calls = []

    def counted(genset):
        calls.append(genset)
        return upset_k(genset)

    # through both names, so that an expansion inside gensets counts too
    monkeypatch.setattr(constructions, "upset_k", counted)
    monkeypatch.setattr(gensets, "upset_k", counted)
    report = verify_section4_constructions(n, k, 3)
    assert sum(len(check.sizes) for check in report.checks) == families
    assert len(calls) == families


# ---------------------------------------------------------------------------
# end-to-end product bound at one point


def test_main_theorem_above_threshold() -> None:
    report = verify_main_theorem_small(9, 4, 3, shift_trials=50, seed=7)
    assert report.threshold == 8
    assert report.value == 36 == report.star_value
    assert report.bound_confirmed is True
    assert report.all_star is True
    assert report.structures == ("star",)
    assert report.methods == ("genset",)
    assert report.shift_ok is True


def test_main_theorem_claims_no_star_from_a_cut_witness_list(monkeypatch) -> None:
    # with no witness kept, all() over the empty list of structures used to
    # report every optimal pair a star, against a tie count of 1
    monkeypatch.setattr(search, "MAX_WITNESSES", 0)
    report = verify_main_theorem_small(9, 4, 3)
    assert report.bound_confirmed is True
    assert report.witnesses == () and report.stats["ties"] == 1
    assert report.all_star is None


def test_main_theorem_at_threshold_has_window_tie() -> None:
    report = verify_main_theorem_small(8, 4, 3)
    assert report.bound_confirmed is True
    assert report.all_star is None  # ties are legitimate exactly at threshold
    assert report.structures == ("star", "window")
    assert report.shift_ok is None


def test_main_theorem_cross_checks_brute_when_layer_fits() -> None:
    report = verify_main_theorem_small(6, 2, 1, shift_trials=25, seed=3)
    assert report.methods == ("genset", "brute")
    assert report.value == 25
    assert report.bound_confirmed is True
    assert report.shift_ok is True


def test_main_theorem_below_threshold_makes_no_bound_claim() -> None:
    report = verify_main_theorem_small(9, 5, 3)
    assert report.threshold == 12
    assert report.bound_confirmed is None
    assert report.all_star is None
    assert report.value == 441
    assert report.value > report.star_value  # the star pair is beaten here
