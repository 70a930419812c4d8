"""Acceptance gate: one test per promised capability, exact arithmetic only.

Each test prints a single PASS/FAIL line (visible with -s, and in the failure
report otherwise) and then asserts.  Nothing here is weakened to pass: where
an asserted strict inequality is genuinely false at a grid point, the test
fails and its message names the exact point.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from fractions import Fraction
from math import comb

import pytest

from crossint import cli, inequalities, workers
from crossint.compression import shift_family
from crossint.constructions import verify_section4_constructions
from crossint.families import (
    UniformFamily,
    enumerate_k_subsets,
    is_cross_t_intersecting,
    mask_of,
    shade,
)
from crossint.frankl import FranklParams, frankl_family, frankl_size, valid_r_range
from crossint.gensets import compact, full_layer_genset
from crossint.inequalities import SPECIAL_TRIPLES, SweepSummary, sweep
from crossint.reference import (
    SectionParams,
    appendix_case,
    basefact,
    check_key_inequality,
    eval_core,
    key_ratio,
)
from crossint.search import (
    brute_force_best,
    closure_t,
    genset_search_best_product,
    validate_result,
)
from crossint.stream import record_to_line


#: sha256 of the default record stream, one `record_to_line` per record.
DEFAULT_STREAM_SHA256 = "76541e8ae205922dcc45f68f32fb0399b240090b17076ce33c4a626fca196c42"


@pytest.fixture(scope="module")
def default_sweep_and_stream():
    """The full default verification grid, computed once and shared:
    t in [3,8], k in [t, t+12], n in [(t+1)(k-t+1), (t+1)(k-t+1)+40].
    Returns its summary and the sha256 of its record stream, both from the
    same pass over the records."""
    summary = SweepSummary()
    stream = hashlib.sha256()
    for record in sweep(3, 8, 12, 40):
        summary.absorb(record)
        stream.update((record_to_line(record) + "\n").encode())
    return summary, stream.hexdigest()


@pytest.fixture(scope="module")
def default_sweep(default_sweep_and_stream):
    return default_sweep_and_stream[0]


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_key_ratio_value_and_speed() -> None:
    ratio = key_ratio(18, 7, 8, 6, 5)
    best = min(
        _timed_key_call() for _ in range(200)
    )
    ok = ratio == Fraction(615, 572) and ratio > 1 and best < 1e-3
    _report("1", ok, f"key ratio {ratio} computed in {best * 1e6:.0f} us (best of 200)")
    assert ratio == Fraction(615, 572)
    assert ratio > 1
    assert best < 1e-3, f"single evaluation took {best:.6f} s"


def _timed_key_call() -> float:
    t0 = time.perf_counter()
    res = check_key_inequality(SectionParams(18, 7, 8, 6, 5))
    elapsed = time.perf_counter() - t0
    assert res.num * 572 == res.den * 615
    return elapsed


def test_criterion_2_key_inequality_sweep(default_sweep) -> None:
    counts = default_sweep.status_counts["thm32"]
    violated = counts.get("violated", 0)
    ok = violated == 0 and counts.get("holds", 0) > 0
    _report(
        "2",
        ok,
        f"{default_sweep.checked} grid points, {counts.get('holds', 0)} hold, "
        f"{counts.get('excluded', 0)} excluded at the single (s,i,t)=(6,4,3) "
        f"triple, {violated} violated",
    )
    assert default_sweep.checked == 86592
    assert violated == 0, f"strict key inequality violated at: {default_sweep.violations}"
    assert counts.get("excluded", 0) == 451


def test_default_stream_bytes_are_pinned(default_sweep_and_stream) -> None:
    # the record stream is the reproducible artifact: a serializer that
    # drifts by one byte must fail here
    assert default_sweep_and_stream[1] == DEFAULT_STREAM_SHA256


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def test_default_stream_torn_near_its_end_resumes_from_its_checkpoint(
    tmp_path, monkeypatch, capsys, forked_calls
) -> None:
    # as after a crash in the last 64 records: the resume re-reads only the
    # records after the last checkpoint, and gives the fresh stream and
    # summaries
    out = tmp_path / "sweep.jsonl"
    assert cli.main(["sweep-inequalities", "--out", str(out)]) == 2
    sidecars = {
        suffix: (tmp_path / f"sweep.jsonl{suffix}").read_bytes()
        for suffix in (".summary.csv", ".summary.json")
    }
    size = out.stat().st_size
    with open(out, "rb") as fh:
        fh.seek(size - 64 * 2048)
        tail = fh.read().split(b"\n")[-65:-1]
    rng = random.Random(19)
    pick = rng.randrange(len(tail))
    start = size - sum(len(line) + 1 for line in tail[pick:])
    os.truncate(out, start + rng.randrange(1, len(tail[pick])))
    for suffix in sidecars:
        os.remove(tmp_path / f"sweep.jsonl{suffix}")
    parse, parsed = cli.parse_record_line, []
    monkeypatch.setattr(
        cli, "parse_record_line", lambda lineno, line: parsed.append(lineno) or parse(lineno, line)
    )
    # counted across processes: the sweep's workers evaluate the points
    monkeypatch.setattr(
        inequalities, "evaluate_point", forked_calls.wrap("evaluate", inequalities.evaluate_point)
    )
    capsys.readouterr()
    assert cli.main(["sweep-inequalities", "--out", str(out), "--resume"]) == 2
    assert "(n,k,s,i,t)=(15,6,7,5,4): lemma_g" in capsys.readouterr().err
    assert 1 < len(parsed) <= workers.CHECKPOINT_EVERY + 64 + 1
    # each point after the last checkpoint is evaluated once: to compare
    # with its line, or to be written
    evaluated = forked_calls("evaluate")
    assert len(evaluated) == len(set(evaluated)) == 86_592 % workers.CHECKPOINT_EVERY
    assert _sha256_file(out) == DEFAULT_STREAM_SHA256
    for suffix, expected in sidecars.items():
        assert (tmp_path / f"sweep.jsonl{suffix}").read_bytes() == expected


def test_criterion_3_margin_lemmas_and_specialized_forms(default_sweep) -> None:
    counts = {
        name: default_sweep.status_counts[name]
        for name in ("lemma_f", "lemma_g", "lemma_h", "lemma_phi", "appendix")
    }
    # specialized per-triple forms, directly at every admissible grid point
    appendix_points = 0
    for s, i, t in sorted(SPECIAL_TRIPLES):
        for k in range(max(s + t - i, t), t + 13):
            n_base = (t + 1) * (k - t + 1)
            for n in range(n_base, n_base + 41):
                try:
                    SectionParams(n, k, s, i, t)
                except Exception:
                    continue
                res = appendix_case(n, k, s, i, t)
                assert res.ratio == key_ratio(n, k, s, i, t)
                assert res.status == "holds", (n, k, s, i, t)
                appendix_points += 1
    violations = list(default_sweep.violations)
    ok = all(counts[name].get("violated", 0) == 0 for name in counts)
    _report(
        "3",
        ok,
        f"margin-lemma statuses over {default_sweep.checked} points: "
        + "; ".join(
            f"{name} holds={bucket.get('holds', 0)} excluded={bucket.get('excluded', 0)} "
            f"violated={bucket.get('violated', 0)}"
            for name, bucket in counts.items()
        )
        + f"; specialized forms verified at {appendix_points} points"
        + ("" if ok else f"; violations at {violations}"),
    )
    assert counts["lemma_f"].get("violated", 0) == 0
    assert counts["lemma_h"].get("violated", 0) == 0
    assert counts["lemma_phi"].get("violated", 0) == 0
    assert counts["appendix"].get("violated", 0) == 0
    # excluded triples really are skipped-and-recorded, not silently dropped
    assert counts["lemma_f"].get("excluded", 0) > 0
    assert counts["lemma_g"].get("excluded", 0) > 0
    assert counts["lemma_g"].get("violated", 0) == 0, (
        "the strict margin inequality of the second lemma is violated (slack 0, "
        "equality instead of strict) at exactly "
        f"{[v[:5] for v in default_sweep.violations if 'lemma_g' in v[5]]}; "
        "the strict form is false at this grid point and the toolkit reports "
        "it rather than widening the exclusion list"
    )


def test_criterion_4_brute_force_oracles() -> None:
    res_prod = brute_force_best(6, 2, 1)
    validate_result(res_prod)

    res_sum_5 = brute_force_best(5, 3, 2, "sum")
    validate_result(res_sum_5)
    window = UniformFamily.from_masks(
        5,
        3,
        [m for m in enumerate_k_subsets(5, 3).members if (m & 0b1111).bit_count() >= 3],
    )
    has_window_twin = any(a == window and b == window for a, b in res_sum_5.witnesses)

    res_sum_6 = brute_force_best(6, 3, 2, "sum")

    def sum_formula(n: int, k: int, t: int) -> int:
        # one fixed set plus everything meeting it in >= t points
        return 1 + sum(comb(k, j) * comb(n - k, k - j) for j in range(t, k + 1))

    ok = (
        res_prod.value == 25 == comb(5, 1) ** 2
        and res_sum_5.value == 8 == sum_formula(5, 3, 2)
        and has_window_twin
        and res_sum_6.value == 11 == sum_formula(6, 3, 2)
    )
    _report(
        "4",
        ok,
        f"product optimum (6,2,1) = {res_prod.value}; sum optima (5,3,2) = "
        f"{res_sum_5.value} (window twin among {len(res_sum_5.witnesses)} ties: "
        f"{has_window_twin}), (6,3,2) = {res_sum_6.value}",
    )
    assert res_prod.value == 25 == comb(5, 1) ** 2
    assert res_sum_5.value == 8 == sum_formula(5, 3, 2)
    assert has_window_twin, "twin quadruple-window optimum missing at (5,3,2)"
    assert res_sum_6.value == 11 == sum_formula(6, 3, 2)


def test_criterion_5_genset_search_desk_scale() -> None:
    res8 = genset_search_best_product(8, 4, 3)
    validate_result(res8)
    star = compact("123", 8, 4).elements
    window = full_layer_genset(8, 4, 5, 4).elements
    shapes8 = {(a.elements, b.elements) for a, b in res8.witnesses}

    res9 = genset_search_best_product(9, 4, 3)
    validate_result(res9)
    res10 = genset_search_best_product(10, 4, 3)
    validate_result(res10)

    star_only_9 = [
        (a.element_sets(), b.element_sets()) for a, b in res9.witnesses
    ] == [(((1, 2, 3),), ((1, 2, 3),))]
    star_only_10 = [
        (a.element_sets(), b.element_sets()) for a, b in res10.witnesses
    ] == [(((1, 2, 3),), ((1, 2, 3),))]

    ok = (
        res8.value == 25
        and (star, star) in shapes8
        and (window, window) in shapes8
        and res9.value == 36
        and star_only_9
        and res10.value == 49
        and star_only_10
    )
    _report(
        "5",
        ok,
        f"(8,4,3) = {res8.value} with star and window twins; "
        f"(9,4,3) = {res9.value} star-only; (10,4,3) = {res10.value} star-only",
    )
    assert res8.value == 25
    assert (star, star) in shapes8, "twin star optimum missing at (8,4,3)"
    assert (window, window) in shapes8, "twin window optimum missing at (8,4,3)"
    assert res9.value == 36 and star_only_9
    assert res10.value == 49 and star_only_10


def test_criterion_6_counting_consistency() -> None:
    points = 0
    for n in range(1, 15):
        for k in range(1, min(n, 6) + 1):
            for t in range(1, k + 1):
                for r in valid_r_range(n, k, t):
                    params = FranklParams(n, k, t, r)
                    assert frankl_size(params) == len(frankl_family(params)), params
                    points += 1

    # a printed comparison that fails under its hypothesis raises
    # IntegrityError, so every returned report holds under its hypotheses
    reports = {}
    for n, k in ((10, 6), (12, 6)):
        report = verify_section4_constructions(n, k)
        reports[(n, k)] = report
        # size formulas were cross-checked against expansion, not just trusted
        for check in report.checks:
            assert not check.skipped, check.name
            if check.sizes:
                assert check.expanded, check.name

    ok = True
    _report(
        "6",
        ok,
        f"window-family closed-form size equals enumeration at {points} "
        f"(n,k,t,r) points; all printed comparisons hold under their "
        f"hypotheses at (10,6) and (12,6) "
        f"({sum(len(c.rows) for r in reports.values() for c in r.checks)} rows checked)",
    )


def test_criterion_7_property_suites() -> None:
    rng = random.Random(20260818)

    # shift preservation on 1000 random cross-t pairs
    shift_trials = 0
    for _ in range(1000):
        n = rng.randint(4, 9)
        k = rng.randint(2, n - 2)
        t = rng.randint(1, k)
        core = tuple(rng.sample(range(1, n + 1), t))
        rest = [e for e in range(1, n + 1) if e not in core]

        def side() -> UniformFamily:
            return UniformFamily.from_masks(
                n,
                k,
                [
                    mask_of(core + tuple(rng.sample(rest, k - t)))
                    for _ in range(rng.randint(1, 6))
                ],
            )

        fam_a, fam_b = side(), side()
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        sa, sb = shift_family(fam_a, i, j), shift_family(fam_b, i, j)
        assert len(sa) == len(fam_a) and len(sb) == len(fam_b)
        assert is_cross_t_intersecting(sa, sb, t)
        shift_trials += 1

    # normalized matching on 1000 random families with n <= 10
    matching_trials = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        fam = UniformFamily.from_masks(
            n, k, rng.sample(layer, rng.randint(1, min(len(layer), 30)))
        )
        assert len(shade(fam)) * comb(n, k) >= len(fam) * comb(n, k + 1)
        matching_trials += 1

    # basefact equivalence on 100000 exact quadruples
    base_trials = 0
    for trial in range(100_000):
        if trial % 2:
            vals = [rng.randint(1, 10_000) for _ in range(4)]
        else:
            vals = [
                Fraction(rng.randint(1, 3_000), rng.randint(1, 3_000))
                for _ in range(4)
            ]
        lhs, rhs = basefact(*vals)
        assert lhs == rhs
        base_trials += 1

    # closure Galois properties on random families
    closure_trials = 0
    for _ in range(200):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        t = rng.randint(1, k)
        layer = enumerate_k_subsets(n, k).members
        small = rng.sample(layer, rng.randint(1, len(layer)))
        fam_f = UniformFamily.from_masks(n, k, small)
        bigger = UniformFamily.from_masks(
            n, k, set(small) | set(rng.sample(layer, rng.randint(0, len(layer) // 2)))
        )
        cf, cg = closure_t(fam_f, t), closure_t(bigger, t)
        assert set(cg.members) <= set(cf.members)
        assert closure_t(closure_t(cf, t), t) == cf
        assert is_cross_t_intersecting(fam_f, cf, t)
        closure_trials += 1

    # dual-form identities for the core quantities on 100000 grid points
    dual_trials = 0
    for _ in range(100_000):
        t = rng.randint(3, 9)
        k = rng.randint(t + 2, t + 14)
        n_base = (t + 1) * (k - t + 1)
        n = rng.randint(n_base, n_base + 60)
        s = rng.randint(t + 3, 2 * k - t)
        lo, hi = max(t + 1, s + t - k), min(k, (s + t) // 2)
        i = rng.randint(lo, hi)
        q = eval_core(SectionParams(n, k, s, i, t))
        assert min(q.s1, q.s2, q.t1, q.t2) > 0
        dual_trials += 1

    _report(
        "7",
        True,
        f"{shift_trials} joint-shift trials, {matching_trials} normalized-"
        f"matching families, {base_trials} product-ratio quadruples, "
        f"{closure_trials} closure triples, {dual_trials} dual-form points, "
        "zero failures",
    )
