"""Shifts and left compression.

The property suite runs over a thousand randomized trials: a simultaneous
shift applied to a random family never changes its size, and the same shift
applied jointly to both sides of a random cross-intersecting pair preserves
the cross-intersection level.
"""

from __future__ import annotations

import random
from math import comb

import pytest

from crossint.errors import UsageError
from crossint.families import (
    UniformFamily,
    enumerate_k_subsets,
    is_cross_t_intersecting,
    mask_of,
)
from crossint.compression import (
    is_left_compressed,
    left_compress,
    shift_family,
)


def test_shift_family_small_example() -> None:
    fam = UniformFamily.from_sets(4, 2, [[2, 3], [1, 3], [3, 4]])
    shifted = shift_family(fam, 1, 3)
    # {2,3} -> {1,2}; {1,3} keeps 1 so stays; {3,4} -> {1,4}
    assert shifted == UniformFamily.from_sets(4, 2, [[1, 2], [1, 3], [1, 4]])


def test_shift_family_resolves_collisions_by_fixing() -> None:
    fam = UniformFamily.from_sets(4, 2, [[1, 2], [2, 3]])
    shifted = shift_family(fam, 1, 3)
    assert shifted == fam  # {2,3} wants to become {1,2} which is occupied


def test_shift_family_rejects_equal_indices() -> None:
    with pytest.raises(UsageError):
        shift_family(enumerate_k_subsets(4, 2), 2, 2)


def _random_family(rng: random.Random, n: int, k: int) -> UniformFamily:
    layer = enumerate_k_subsets(n, k).members
    size = rng.randint(1, min(len(layer), 25))
    return UniformFamily.from_masks(n, k, rng.sample(layer, size))


def _reference_shift(members: frozenset[int], i: int, j: int) -> frozenset[int]:
    """d_ij computed member by member against the original membership table."""
    bit_i, bit_j = 1 << (i - 1), 1 << (j - 1)
    out = set()
    for m in members:
        image = (m & ~bit_j) | bit_i
        out.add(image if m & bit_j and not m & bit_i and image not in members else m)
    return frozenset(out)


def _reference_compress(fam: UniformFamily) -> frozenset[int]:
    """Simultaneous shifts d_ij (i < j) in lexicographic sweeps until nothing moves."""
    members = fam.member_set
    changed = True
    while changed:
        changed = False
        for i in range(1, fam.n):
            for j in range(i + 1, fam.n + 1):
                shifted = _reference_shift(members, i, j)
                changed |= shifted != members
                members = shifted
    return members


def test_shift_preserves_size_randomized() -> None:
    rng = random.Random(97)
    for _ in range(400):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        fam = _random_family(rng, n, k)
        i, j = rng.sample(range(1, n + 1), 2)
        shifted = shift_family(fam, i, j)
        assert len(shifted) == len(fam)
        assert shifted.member_set == _reference_shift(fam.member_set, i, j), (fam, i, j)


def test_left_compress_matches_the_simultaneous_reference() -> None:
    """300 families of any size up to the whole layer, n <= 10."""
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 10)
        k = rng.randint(0, n)
        layer = enumerate_k_subsets(n, k).members
        fam = UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(0, len(layer))))
        assert left_compress(fam).member_set == _reference_compress(fam), fam


def _random_cross_pair(
    rng: random.Random,
) -> tuple[UniformFamily, UniformFamily, int]:
    """A random cross-t-intersecting pair built around a shared core."""
    n = rng.randint(4, 9)
    k = rng.randint(2, n - 2)
    t = rng.randint(1, k)
    core = tuple(rng.sample(range(1, n + 1), t))
    rest = [e for e in range(1, n + 1) if e not in core]

    def side() -> UniformFamily:
        members = []
        for _ in range(rng.randint(1, 8)):
            extra = rng.sample(rest, k - t)
            members.append(mask_of(core + tuple(extra)))
        return UniformFamily.from_masks(n, k, members)

    return side(), side(), t


def test_joint_shift_preserves_cross_intersection_randomized() -> None:
    """1000 trials: the same shift applied to both sides of a cross-t pair
    keeps it cross-t and keeps both sizes."""
    rng = random.Random(20260501)
    for trial in range(1000):
        fam_a, fam_b, t = _random_cross_pair(rng)
        assert is_cross_t_intersecting(fam_a, fam_b, t)
        i, j = rng.sample(range(1, fam_a.n + 1), 2)
        if i > j:
            i, j = j, i
        sa = shift_family(fam_a, i, j)
        sb = shift_family(fam_b, i, j)
        assert len(sa) == len(fam_a) and len(sb) == len(fam_b), trial
        assert is_cross_t_intersecting(sa, sb, t), (trial, fam_a, fam_b, t, i, j)


def test_left_compress_reaches_fixpoint() -> None:
    rng = random.Random(555)
    for _ in range(80):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        fam = _random_family(rng, n, k)
        compressed = left_compress(fam)
        assert len(compressed) == len(fam)
        assert is_left_compressed(compressed)
        assert left_compress(compressed) == compressed


def test_left_compress_star_example() -> None:
    fam = UniformFamily.from_sets(5, 2, [[4, 5], [3, 5], [2, 4]])
    compressed = left_compress(fam)
    assert compressed == UniformFamily.from_sets(5, 2, [[1, 2], [1, 3], [2, 3]])


def test_is_left_compressed_detects_movable_member() -> None:
    assert not is_left_compressed(UniformFamily.from_sets(4, 2, [[3, 4]]))
    assert is_left_compressed(UniformFamily.from_sets(4, 2, [[1, 2]]))
    assert is_left_compressed(enumerate_k_subsets(5, 3))


def test_full_layer_is_fixed_by_every_shift() -> None:
    fam = enumerate_k_subsets(6, 3)
    assert len(fam) == comb(6, 3)
    for i in range(1, 7):
        for j in range(1, 7):
            if i != j:
                assert shift_family(fam, i, j) == fam
