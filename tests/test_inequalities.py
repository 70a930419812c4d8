"""The exact big-integer inequality engine.

Everything here is integer or Fraction arithmetic: the key two-sided ratio,
the margin lemmas with their exclusion triples, the reduction-chain checks,
the specialized per-triple polynomial forms, and the record/sweep plumbing.
Two large randomized suites pin the elementary facts the engine leans on:
the product-versus-ratio equivalence and the dual algebraic forms of the
core quantities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from crossint import inequalities
from crossint.errors import DomainError, IntegrityError, UsageError
from crossint.inequalities import (
    EXCLUDED_TRIPLE,
    F_LEMMA_EXCLUSIONS,
    G_LEMMA_EXCLUSIONS,
    SPECIAL_TRIPLES,
    _SPECIAL_FORMS,
    SectionParams,
    SweepSummary,
    _grid_points,
    appendix_case,
    basefact,
    chain_checks,
    check_key_inequality,
    check_ratio_identity,
    eval_core,
    evaluate_point,
    evaluate_points,
    iter_grid,
    key_ratio,
    lemma_f,
    lemma_g,
    lemma_h,
    lemma_phi,
    sweep,
)
from crossint.records import CHECK_ORDER, VALUE_NAMES, Values


#: Off-grid points as (n, k, s, i, t), each violating one constraint.
_OFF_GRID = [
    (20, 7, 8, 6, 2),  # t < 3
    (11, 5, 6, 4, 3),  # n below (t+1)(k-t+1)
    (20, 7, 5, 4, 3),  # s < t+3
    (20, 7, 12, 6, 3),  # s > 2k-t
    (20, 7, 8, 7, 3),  # i above (s+t)/2
    (20, 7, 8, 0, 3),
]


def test_domain_validation() -> None:
    for n, k, s, i, t in _OFF_GRID:
        with pytest.raises(DomainError) as from_params:
            SectionParams(n=n, k=k, s=s, i=i, t=t)
        with pytest.raises(DomainError) as from_flat:
            evaluate_point(n, k, s, i, t)
        # the flat path words the error as SectionParams does
        assert str(from_flat.value) == str(from_params.value)


def test_evaluate_point_domain_test_is_the_section_params_domain() -> None:
    # the inline integer test accepts exactly the points SectionParams accepts
    accepted = 0
    for t in range(1, 6):
        for k in range(1, 10):
            for s in range(0, 2 * k + 2):
                for i in range(0, k + 2):
                    for n in ((t + 1) * (k - t + 1) - 1, (t + 1) * (k - t + 1), 30):
                        try:
                            SectionParams(n, k, s, i, t)
                            valid = True
                        except DomainError:
                            valid = False
                        if valid:
                            assert evaluate_point(n, k, s, i, t).point == (t, k, n, s, i)
                            accepted += 1
                        else:
                            with pytest.raises(DomainError):
                                evaluate_point(n, k, s, i, t)
    assert accepted == 192


def test_evaluate_point_matches_the_per_point_api() -> None:
    reached = set()
    for p in iter_grid(3, 6, 4, 8):
        record = evaluate_point(p.n, p.k, p.s, p.i, p.t)
        q = eval_core(p)
        key = check_key_inequality(p, q)
        assert Fraction(record.t_num, record.t_den) == key.ratio
        assert gcd(record.t_num, record.t_den) == 1
        assert record.checks.thm32 == key.status
        identity = "holds" if check_ratio_identity(p) else "violated"
        assert record.checks.ratio_identity == identity
        assert record.values[:4] == q, p
        for fn in (lemma_f, lemma_g, lemma_h, lemma_phi):
            res = fn(p, q)
            assert getattr(record.checks, res.name) == res.status, (p, res)
            assert getattr(record.values, res.name + "_slack") == res.slack, (p, res)
        entry, chain = chain_checks(p, q)
        assert record.values.equa3 == int(entry)
        for name, status in chain.items():
            assert getattr(record.checks, name) == status, (p, name)
        if p.triple in SPECIAL_TRIPLES and p.k >= p.s + p.t - p.i:
            appendix = appendix_case(p.n, p.k, p.s, p.i, p.t).status
        else:
            appendix = "skipped"
        assert record.checks.appendix == appendix
        assert record.checks._fields == CHECK_ORDER
        assert record.values._fields == VALUE_NAMES == (
            "S1", "S2", "T1", "T2", "lemma_f_slack", "lemma_g_slack",
            "lemma_h_slack", "lemma_phi_slack", "equa3",
        )
        reached.update(zip(CHECK_ORDER, record.checks))
    # the grid reaches every branch: exclusions, the lemma_g equality point,
    # the chain behind its gate and the specialized forms
    for item in (("thm32", "excluded"), ("lemma_g", "violated"), ("lemma_f", "excluded"),
                 ("equa1", "holds"), ("appendix", "holds"), ("appendix", "skipped")):
        assert item in reached, item


def test_evaluate_point_checks_the_specialized_form(monkeypatch) -> None:
    assert evaluate_point(18, 7, 8, 6, 5).checks.appendix == "holds"
    k_floor, num_fn, den_fn = _SPECIAL_FORMS[(8, 6, 5)]

    def perturbed(n: int, k: int) -> list[int]:
        factors = num_fn(n, k)
        factors[0] += 1
        return factors

    monkeypatch.setitem(_SPECIAL_FORMS, (8, 6, 5), (k_floor, perturbed, den_fn))
    with pytest.raises(IntegrityError, match=r"specialized form for \(8, 6, 5\)"):
        evaluate_point(18, 7, 8, 6, 5)


def test_key_ratio_flagship_point() -> None:
    assert key_ratio(18, 7, 8, 6, 5) == Fraction(615, 572)
    res = check_key_inequality(SectionParams(18, 7, 8, 6, 5))
    assert res.status == "holds"
    assert res.strict


def test_excluded_triple_reports_ratio_below_one() -> None:
    # the single excluded triple genuinely fails the strict ratio, which is
    # exactly why it is routed around rather than claimed
    p = SectionParams(12, 5, 6, 4, 3)
    assert p.triple == EXCLUDED_TRIPLE
    res = check_key_inequality(p)
    assert res.status == "excluded"
    assert res.ratio == Fraction(95, 98)
    assert not res.strict


def test_core_quantities_flagship_point() -> None:
    q = eval_core(SectionParams(18, 7, 8, 6, 5))
    assert (q.s1, q.s2, q.t1, q.t2) == (82, 88, 64, 78)
    # the key ratio is assembled from exactly these four quantities
    num = (18 + 6 - 7 - 8) * (18 + 5 - 7 - 6) * q.s1 * q.s2
    den = (18 - 8 + 1) ** 2 * q.t1 * q.t2
    assert Fraction(num, den) == Fraction(615, 572)


def test_ratio_identity_on_grid() -> None:
    for p in iter_grid(3, 5, 3, 4):
        assert check_ratio_identity(p), p


def test_key_inequality_strict_off_exclusion_on_grid() -> None:
    for p in iter_grid(3, 5, 3, 4):
        res = check_key_inequality(p)
        if p.triple == EXCLUDED_TRIPLE:
            assert res.status == "excluded"
        else:
            assert res.status == "holds", (p, res.ratio)


def test_lemma_statuses_at_the_boundary_equality_point() -> None:
    p = SectionParams(15, 6, 7, 5, 4)
    q = eval_core(p)
    g = lemma_g(p, q)
    assert g.status == "violated" and g.slack == 0
    f = lemma_f(p, q)
    assert f.status == "excluded" and f.slack == 1
    assert lemma_h(p, q).status == "holds"
    assert lemma_phi(p, q).status == "holds"


def test_lemma_g_equality_point_is_isolated() -> None:
    """On a grid around the equality point, lemma_g admits exactly one
    non-excluded point with slack <= 0."""
    tight = [
        (p.n, p.k, p.s, p.i, p.t)
        for p in iter_grid(3, 6, 4, 8)
        for q in (eval_core(p),)
        for res in (lemma_g(p, q),)
        if res.status != "excluded" and res.slack <= 0
    ]
    assert tight == [(15, 6, 7, 5, 4)]


def test_lemma_exclusion_lists() -> None:
    assert EXCLUDED_TRIPLE in F_LEMMA_EXCLUSIONS
    assert G_LEMMA_EXCLUSIONS < F_LEMMA_EXCLUSIONS
    assert len(F_LEMMA_EXCLUSIONS) == 7 and len(G_LEMMA_EXCLUSIONS) == 3


def test_lemmas_hold_off_exclusions_on_grid() -> None:
    for p in iter_grid(3, 5, 3, 6):
        q = eval_core(p)
        for fn in (lemma_f, lemma_h, lemma_phi):
            res = fn(p, q)
            assert res.status in ("holds", "excluded"), (p, res)


def test_chain_checks_hold_whenever_evaluated() -> None:
    # the entry condition needs k well above t, so sweep a deep k range
    evaluated = 0
    for p in iter_grid(3, 3, 8, 30):
        entry, statuses = chain_checks(p, eval_core(p))
        if not entry or p.triple in F_LEMMA_EXCLUSIONS:
            assert set(statuses.values()) == {"skipped"}
        else:
            evaluated += 1
            assert set(statuses.values()) == {"holds"}, (p, statuses)
    assert evaluated == 24


def test_appendix_flagship_point() -> None:
    res = appendix_case(18, 7, 8, 6, 5)
    assert res.status == "holds"
    assert res.ratio == Fraction(615, 572)


def test_appendix_matches_generic_ratio_across_triples() -> None:
    for s, i, t in sorted(SPECIAL_TRIPLES):
        k_floor = s + t - i
        for k in range(k_floor, k_floor + 4):
            n_base = (t + 1) * (k - t + 1)
            for n in range(n_base, n_base + 8):
                res = appendix_case(n, k, s, i, t)
                assert res.status == "holds", (n, k, s, i, t)
                assert res.ratio == key_ratio(n, k, s, i, t)


def test_appendix_rejects_unknown_triple_and_small_k() -> None:
    with pytest.raises(DomainError):
        appendix_case(20, 7, 9, 6, 3)
    with pytest.raises(DomainError):
        appendix_case(18, 5, 8, 6, 5)


def test_basefact_equivalence_large_random_suite() -> None:
    """(A+a)(B-b) < AB iff B/(A+a) < b/a: 100000 exact random quadruples,
    integer and fractional, both sides evaluated independently."""
    rng = random.Random(987654321)
    agree = 0
    for trial in range(100_000):
        if trial % 2:
            vals = [rng.randint(1, 10_000) for _ in range(4)]
        else:
            vals = [
                Fraction(rng.randint(1, 2_000), rng.randint(1, 2_000))
                for _ in range(4)
            ]
        lhs, rhs = basefact(*vals)
        assert lhs == rhs, (trial, vals)
        agree += 1
    assert agree == 100_000


def test_basefact_rejects_bad_inputs() -> None:
    with pytest.raises(DomainError):
        basefact(1, 2, 0, 1)
    with pytest.raises(DomainError):
        basefact(1, 2, 1, Fraction(-1, 2))
    with pytest.raises(UsageError):
        basefact(1.5, 2, 1, 1)


def test_dual_forms_large_random_suite() -> None:
    """100000 random valid grid points: both algebraic forms of S1 and S2
    agree and all four core quantities are positive (checked internally,
    surfacing as IntegrityError on any mismatch)."""
    rng = random.Random(55555)
    for trial in range(100_000):
        t = rng.randint(3, 9)
        k = rng.randint(t + 2, t + 14)
        n_base = (t + 1) * (k - t + 1)
        n = rng.randint(n_base, n_base + 60)
        s = rng.randint(t + 3, 2 * k - t)
        lo, hi = max(t + 1, s + t - k), min(k, (s + t) // 2)
        i = rng.randint(lo, hi)
        q = eval_core(SectionParams(n, k, s, i, t))
        assert min(q.s1, q.s2, q.t1, q.t2) > 0, trial


def test_record_roundtrip_and_checks() -> None:
    rec = evaluate_point(18, 7, 8, 6, 5)
    assert (rec.t_num, rec.t_den) == (615, 572)
    assert rec.checks.thm32 == "holds"
    assert rec.checks.ratio_identity == "holds"
    assert rec.checks.lemma_f == "excluded"
    assert rec.checks.appendix == "holds"
    assert rec.checks.equa1 == "skipped"
    for owner, name in ((rec, "n"), (rec.checks, "thm32"), (rec.values, "S1")):
        with pytest.raises(AttributeError):
            setattr(owner, name, 0)
    with pytest.raises(TypeError):
        rec.checks[0] = "violated"
    assert rec == evaluate_point(18, 7, 8, 6, 5)


def test_record_values_are_exact_ints() -> None:
    # text exists only in the stream: a record holds the integers themselves
    values = evaluate_point(18, 7, 8, 6, 5).values
    assert values == Values(
        S1=82, S2=88, T1=64, T2=78, lemma_f_slack=4,
        lemma_g_slack=2, lemma_h_slack=26, lemma_phi_slack=2, equa3=0,
    )
    assert all(type(value) is int for value in values), values


def test_iter_grid_canonical_order_and_validation() -> None:
    points = [(p.t, p.k, p.n, p.s, p.i) for p in iter_grid(3, 4, 2, 2)]
    assert points == sorted(points)
    assert len(points) == len(set(points))
    with pytest.raises(DomainError):
        list(iter_grid(2, 3, 1, 1))
    with pytest.raises(UsageError):
        list(iter_grid(4, 3, 1, 1))


def test_sweep_small_grid_frozen_summary() -> None:
    summary = SweepSummary()
    for record in sweep(3, 3, 2, 3):
        summary.absorb(record)
    assert summary.checked == 8
    assert summary.clean == 0
    assert summary.with_exclusion == 8
    assert summary.with_violation == 0
    assert summary.status_counts["thm32"] == {"excluded": 4, "holds": 4}
    assert summary.min_slack == {"lemma_h": 13, "lemma_phi": 0}
    assert summary.last_point == (3, 5, 15, 7, 5)
    obj = summary.to_json_obj()
    assert obj["checked"] == 8 and obj["last_point"] == [3, 5, 15, 7, 5]


def test_sweep_yields_the_records_of_the_grid_in_order() -> None:
    records = list(sweep(3, 4, 2, 2))
    assert [r.point for r in records] == [
        (p.t, p.k, p.n, p.s, p.i) for p in iter_grid(3, 4, 2, 2)
    ]
    assert records == [
        evaluate_point(p.n, p.k, p.s, p.i, p.t) for p in iter_grid(3, 4, 2, 2)
    ]


def _grid_after(skip: int, *grid: int):
    """The grid's point iterator advanced past its first skip points, as the
    resume reader leaves it."""
    points = _grid_points(*grid)
    for _ in range(skip):
        next(points)
    return points


def test_sweep_resume_continues_the_same_stream() -> None:
    full = [r.point for r in sweep(3, 3, 3, 4)]
    resumed = [r.point for r in evaluate_points(_grid_after(5, 3, 3, 3, 4))]
    assert resumed == full[5:]


def test_sweep_calls_evaluate_point_through_its_module_global(monkeypatch) -> None:
    # the benchmark's tracer wraps inequalities.evaluate_point by name; a sweep
    # that bound the function any other way would leave its metrics at zero
    calls = []
    flat = inequalities.evaluate_point

    def counting(*args):
        calls.append(args)
        return flat(*args)

    monkeypatch.setattr(inequalities, "evaluate_point", counting)
    fresh = list(sweep(3, 3, 3, 4))
    assert len(calls) == len(fresh) > 0
    assert [(t, k, n, s, i) for n, k, s, i, t in calls] == [r.point for r in fresh]
    calls.clear()
    resumed = list(evaluate_points(_grid_after(5, 3, 3, 3, 4)))
    assert len(calls) == len(resumed) == len(fresh) - 5
    assert resumed == fresh[5:]
