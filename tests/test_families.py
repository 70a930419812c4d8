"""Incidence words, uniform families, the intersection predicate, and the shade.

The shade tests include the normalized-matching property of the subset
lattice, checked as a cross-multiplied integer inequality on a large batch of
random families so no division ever happens.
"""

from __future__ import annotations

import io
import random
from itertools import combinations
from math import comb

import pytest

from crossint.errors import CapacityError, UsageError
from crossint.families import (
    UniformFamily,
    bottom_mask,
    elements_of,
    enumerate_k_subsets,
    is_cross_t_intersecting,
    mask_of,
    read_family,
    shade,
    write_family,
)


def test_mask_roundtrip() -> None:
    for elements in [(1,), (1, 2, 3), (2, 5, 7), (64,)]:
        assert elements_of(mask_of(elements)) == elements


def test_mask_of_folds_duplicates_and_ignores_order() -> None:
    assert mask_of([3, 1, 3, 2]) == mask_of([1, 2, 3]) == 0b111


def test_mask_of_rejects_bad_elements() -> None:
    with pytest.raises(UsageError):
        mask_of([0])
    with pytest.raises(UsageError):
        mask_of([-2])
    with pytest.raises(UsageError):
        mask_of([5], n=4)


def test_bottom_mask() -> None:
    assert bottom_mask(0) == 0
    assert bottom_mask(3) == 0b111
    assert elements_of(bottom_mask(6)) == (1, 2, 3, 4, 5, 6)


def test_uniform_family_from_masks_sorts_and_dedupes() -> None:
    fam = UniformFamily.from_masks(4, 2, [0b1100, 0b0011, 0b1100])
    assert fam.members == (0b0011, 0b1100)
    assert len(fam) == 2
    assert 0b0011 in fam
    assert 0b0101 not in fam


def test_from_masks_is_the_sorted_set_of_its_input() -> None:
    # lists with duplicates, sets and generators, each read once
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 8)
        k = rng.randint(0, n)
        layer = enumerate_k_subsets(n, k).members
        masks = [rng.choice(layer) for _ in range(rng.randint(0, 2 * len(layer)))]
        expected = tuple(sorted(set(masks)))
        for source in (masks, set(masks), (m for m in masks)):
            assert UniformFamily.from_masks(n, k, source).members == expected


def test_membership_is_a_search_of_the_members() -> None:
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 9)
        k = rng.randint(1, n)
        layer = enumerate_k_subsets(n, k).members
        fam = UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(0, len(layer))))
        assert all(m in fam for m in fam.members)
        assert not any(m in fam for m in set(layer).difference(fam.members))
        top = fam.members[-1] if fam.members else 0
        for mask in (0, top + 1, top << 1, 1 << n, 1 << 64):
            assert mask not in fam, (fam, mask)


def test_uniform_family_rejects_wrong_member_size() -> None:
    with pytest.raises(UsageError):
        UniformFamily(4, 2, (0b0111,))


def test_uniform_family_rejects_unsorted_members() -> None:
    with pytest.raises(UsageError):
        UniformFamily(4, 2, (0b1100, 0b0011))


def test_uniform_family_rejects_member_outside_ground_set() -> None:
    with pytest.raises(UsageError):
        UniformFamily(3, 2, (0b1001,))


def test_uniform_family_ground_set_cap() -> None:
    with pytest.raises(CapacityError):
        UniformFamily(65, 1, ())


def test_enumerate_k_subsets_counts_and_order() -> None:
    for n in range(1, 9):
        for k in range(0, n + 1):
            fam = enumerate_k_subsets(n, k)
            assert len(fam) == comb(n, k)
            assert all(m.bit_count() == k for m in fam)
            assert list(fam.members) == sorted(fam.members)
    assert enumerate_k_subsets(3, 0).members == (0,)
    assert enumerate_k_subsets(4, 4).members == (0b1111,)


def test_enumerate_matches_itertools() -> None:
    fam = enumerate_k_subsets(7, 3)
    expected = sorted(mask_of(c) for c in combinations(range(1, 8), 3))
    assert list(fam.members) == expected


def test_is_t_intersecting() -> None:
    # a family is t-intersecting when it is cross-t-intersecting with itself
    star = UniformFamily.from_sets(5, 3, [[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    assert is_cross_t_intersecting(star, star, 2)
    assert not is_cross_t_intersecting(star, star, 3)
    empty = UniformFamily(5, 3, ())
    assert is_cross_t_intersecting(empty, empty, 9)
    # nonempty members of size k < t can never self-intersect in t points
    point = UniformFamily.from_sets(5, 1, [[1]])
    assert not is_cross_t_intersecting(point, point, 2)
    with pytest.raises(UsageError):
        is_cross_t_intersecting(star, star, -1)


def test_is_cross_t_intersecting() -> None:
    fam_a = UniformFamily.from_sets(6, 3, [[1, 2, 3]])
    fam_b = UniformFamily.from_sets(6, 3, [[1, 2, 4], [1, 2, 5]])
    assert is_cross_t_intersecting(fam_a, fam_b, 2)
    assert not is_cross_t_intersecting(fam_a, fam_b, 3)
    with pytest.raises(UsageError):
        is_cross_t_intersecting(fam_a, UniformFamily(7, 3, ()), 1)


def test_cross_intersection_is_vacuous_with_an_empty_side() -> None:
    fam_a = UniformFamily(6, 3, ())
    fam_b = enumerate_k_subsets(6, 3)
    assert is_cross_t_intersecting(fam_a, fam_b, 3)


def test_shade_of_single_set() -> None:
    fam = UniformFamily.from_sets(6, 2, [[1, 2]])
    up = shade(fam)
    assert len(up) == 4
    assert all(m & 0b11 == 0b11 for m in up)


def test_shade_of_full_layer_is_full_layer_above() -> None:
    fam = enumerate_k_subsets(6, 2)
    assert shade(fam).members == enumerate_k_subsets(6, 3).members


def test_shade_rejects_top_layer() -> None:
    with pytest.raises(UsageError):
        shade(enumerate_k_subsets(4, 4))


def test_shade_matches_direct_enumeration() -> None:
    rng = random.Random(20260818)
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        picked = rng.sample(layer, rng.randint(1, len(layer)))
        fam = UniformFamily.from_masks(n, k, picked)
        expected = {
            m
            for m in enumerate_k_subsets(n, k + 1).members
            if any(m & a == a for a in picked)
        }
        assert set(shade(fam).members) == expected


def test_normalized_matching_cross_multiplied() -> None:
    """|shade(F)| / C(n, k+1) >= |F| / C(n, k) for every family F.

    1000 random families on ground sets up to [10], compared exactly by
    cross-multiplying the two fractions.
    """
    rng = random.Random(411)
    for trial in range(1000):
        n = rng.randint(2, 10)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        size = rng.randint(1, min(len(layer), 40))
        fam = UniformFamily.from_masks(n, k, rng.sample(layer, size))
        up = shade(fam)
        lhs = len(up) * comb(n, k)
        rhs = len(fam) * comb(n, k + 1)
        assert lhs >= rhs, (trial, n, k, len(fam), len(up))


def test_family_text_roundtrip() -> None:
    fam = UniformFamily.from_sets(6, 3, [[1, 2, 3], [2, 4, 6], [1, 5, 6]])
    text = "".join(write_family(fam))
    assert text.splitlines()[0] == "6 3"
    assert read_family(io.StringIO(text)) == fam


def test_read_family_skips_comments_and_blanks() -> None:
    text = "# header comment\n\n5 2\n1,2  # star pair\n\n3,5\n"
    fam = read_family(io.StringIO(text))
    assert fam == UniformFamily.from_sets(5, 2, [[1, 2], [3, 5]])


def test_read_family_reports_line_numbers() -> None:
    with pytest.raises(UsageError, match="line 1"):
        read_family(io.StringIO("5 2 9\n1,2\n"))
    with pytest.raises(UsageError, match="line 2"):
        read_family(io.StringIO("5 2\none,two\n"))
    with pytest.raises(UsageError, match=r"^line 3: element 5 outside ground set \[4\]$"):
        read_family(io.StringIO("4 2\n1,2\n1,5\n"))
    with pytest.raises(UsageError, match="^line 3: elements are 1-based, got 0$"):
        read_family(io.StringIO("4 2\n1,2\n0,3\n"))
    with pytest.raises(UsageError):
        read_family(io.StringIO(""))


def test_read_family_refuses_a_repeated_set_naming_it() -> None:
    # the same set twice, whatever the order of its elements or what lies
    # between; UniformFamily.from_masks still folds repeats
    for text in ("5 3\n1,2,3\n1,2,3\n", "5 3\n3,2,1\n2,4,5\n# again\n\n1,3,2\n"):
        with pytest.raises(UsageError, match="^set 1,2,3 appears more than once in the input$"):
            read_family(io.StringIO(text))
    assert len(read_family(io.StringIO("5 3\n1,2,3\n1,2,4\n"))) == 2


def test_read_family_rejects_wrong_member_size() -> None:
    with pytest.raises(UsageError, match="invalid family"):
        read_family(io.StringIO("5 2\n1,2,3\n"))


def test_read_family_accepts_path(tmp_path) -> None:
    fam = enumerate_k_subsets(5, 2)
    path = tmp_path / "layer.fam"
    path.write_text("".join(write_family(fam)), encoding="utf-8")
    assert read_family(str(path)) == fam


def _former_text(n: int, k: int, masks) -> str:
    """The set-list text as the writer built it whole before it streamed."""
    lines = [f"{n} {k}"]
    lines.extend(",".join(map(str, elements_of(m))) for m in masks)
    return "\n".join(lines) + "\n"


def test_written_lines_join_to_the_former_text() -> None:
    rng = random.Random(3301)
    families = [UniformFamily(4, 2, ()), UniformFamily(3, 0, (0,))]
    for _ in range(100):
        n = rng.randint(1, 10)
        k = rng.randint(0, n)
        layer = enumerate_k_subsets(n, k).members
        families.append(
            UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(0, len(layer))))
        )
    for fam in families:
        pieces = list(write_family(fam))
        assert "".join(pieces) == _former_text(fam.n, fam.k, fam.members), fam
        assert len(pieces) == 1 + len(fam)
        assert all(piece.count("\n") == 1 and piece.endswith("\n") for piece in pieces)


def test_write_family_returns_the_text() -> None:
    # the header, then one member per line in incidence-word order, each
    # line one piece
    fam = UniformFamily.from_sets(4, 2, [[1, 4], [2, 3]])
    assert list(write_family(fam)) == ["4 2\n", "2,3\n", "1,4\n"]
    assert "".join(write_family(UniformFamily(4, 2, ()))) == "4 2\n"
