"""Gensets: expansion, minimal generators, exact counting, cell-trading
perturbations, and the genset-level cross-intersection test.

The counting tests pin down the difference between the cell-sum formula
(exact only when the cells cover the up-set) and profile counting (exact for
every antichain), using the smallest genset that separates them.
"""

from __future__ import annotations

import io
import random
import tracemalloc
from collections import deque
from itertools import combinations
from math import comb

import pytest

from crossint.errors import CapacityError, UsageError
from crossint.families import (
    UniformFamily,
    elements_of,
    enumerate_k_subsets,
    is_cross_t_intersecting,
    mask_of,
    write_family,
)
from crossint.compression import is_left_compressed, left_compress
from crossint.search import genset_search_best_product
from crossint.gensets import (
    GenSet,
    cell_D,
    cells_union,
    compact,
    downset_closure_bitmap,
    full_layer_genset,
    genset_cross_t,
    layer_bitmaps,
    minimal_genset,
    perturb_pair,
    profile_counts,
    read_genset,
    s_plus,
    s_plus_mask,
    shift_upset_bitmaps,
    size_from_genset,
    slice_top,
    strip_top,
    upset_closure_bitmap,
    upset_k,
    upset_size,
    write_genset,
)


def test_genset_validation() -> None:
    with pytest.raises(UsageError):
        GenSet(5, 3, (0,))  # empty element
    with pytest.raises(UsageError):
        GenSet(3, 2, (0b1000,))  # element outside [3]
    with pytest.raises(UsageError):
        GenSet(5, 2, (0b111,))  # element larger than the layer
    with pytest.raises(UsageError):
        GenSet(5, 3, (0b11, 0b1))  # wrong sort order
    # a genset is its elements: an antichain is the builder's to check
    assert GenSet(5, 3, (0b1, 0b11)).elements == (0b1, 0b11)


def test_compact_parser() -> None:
    g = compact("12, 134", 6, 3)
    assert g.element_sets() == ((1, 2), (1, 3, 4))
    with pytest.raises(UsageError):
        compact("102", 6, 3)
    with pytest.raises(UsageError):
        compact("1a", 6, 3)


def test_s_plus() -> None:
    assert s_plus_mask(mask_of([2, 5])) == 5
    assert s_plus(compact("12,134", 6, 3)) == 4
    with pytest.raises(UsageError):
        s_plus_mask(0)


def test_upset_k_of_singleton_is_star() -> None:
    g = compact("1", 5, 3)
    fam = upset_k(g)
    assert len(fam) == comb(4, 2)
    assert all(m & 1 for m in fam)


def test_upset_k_respects_expansion_cap() -> None:
    with pytest.raises(CapacityError):
        upset_k(GenSet.from_sets(40, 20, [[1]]))


def test_minimal_genset_of_star() -> None:
    star = UniformFamily.from_masks(
        5, 3, [m for m in enumerate_k_subsets(5, 3).members if m & 1]
    )
    assert minimal_genset(star).element_sets() == ((1,),)


def test_minimal_genset_of_full_layer_is_all_singletons() -> None:
    fam = enumerate_k_subsets(5, 3)
    assert minimal_genset(fam).element_sets() == ((1,), (2,), (3,), (4,), (5,))


def test_minimal_genset_generates_any_family() -> None:
    rng = random.Random(31337)
    for _ in range(120):
        n = rng.randint(2, 7)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        fam = UniformFamily.from_masks(
            n, k, rng.sample(layer, rng.randint(1, len(layer)))
        )
        gen = minimal_genset(fam)
        assert upset_k(gen).members == fam.members
        # re-extracting from the generated family is idempotent
        assert minimal_genset(upset_k(gen)) == gen


def _minimal_genset_by_definition(family: UniformFamily) -> tuple[int, ...]:
    """The minimal nonempty sets of size <= k all of whose k-supersets lie
    in the family, by brute force over every subset of [n], sorted as a
    GenSet sorts its elements."""
    n, k = family.n, family.k
    layer = enumerate_k_subsets(n, k).members
    safe = {
        mask
        for mask in range(1, 1 << n)
        if mask.bit_count() <= k
        and all(member in family for member in layer if member & mask == mask)
    }
    minimal = [
        mask for mask in safe if not any(sub != mask and sub & mask == sub for sub in safe)
    ]
    return tuple(sorted(minimal, key=lambda m: (m.bit_count(), m)))


def _relabelled_upset(n: int, k: int, generators, label: list[int]) -> UniformFamily:
    """The k-subsets of [n] that hold a generator, each point e relabelled
    label[e - 1]."""
    members = set()
    for generator in generators:
        free = [e for e in range(1, n + 1) if e not in generator]
        for extra in combinations(free, k - len(generator)):
            members.add(mask_of(label[e - 1] for e in generator + extra))
    return UniformFamily.from_masks(n, k, members)


def test_minimal_genset_is_its_definition() -> None:
    # the level-by-level walk equals the definition, checked over every
    # subset of [n], on compressed families and others
    rng = random.Random(2027)
    families = [UniformFamily(n, k, ()) for n, k in ((1, 0), (4, 0), (5, 2), (6, 6))]
    for n in range(1, 9):
        families += [enumerate_k_subsets(n, k) for k in (1, max(1, n // 2), n)]
    for _ in range(150):
        n = rng.randint(1, 8)
        k = rng.choice([1, n, rng.randint(1, n)])
        layer = enumerate_k_subsets(n, k).members
        family = UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(0, len(layer))))
        families += [family, left_compress(family)]
    assert any(not is_left_compressed(family) for family in families)
    for family in families:
        expected = _minimal_genset_by_definition(family)
        assert minimal_genset(family) == GenSet(family.n, family.k, expected)
    # the full layer is generated by the n singletons
    for n in range(1, 9):
        for k in range(1, n + 1):
            singletons = tuple(1 << e for e in range(n))
            assert minimal_genset(enumerate_k_subsets(n, k)).elements == singletons
    # on k = 0 the empty family has the empty genset, and the family of the
    # empty set has no genset of nonempty sets
    assert minimal_genset(UniformFamily(5, 0, ())).elements == ()
    with pytest.raises(UsageError, match="nonempty"):
        minimal_genset(enumerate_k_subsets(5, 0))


def test_minimal_genset_of_a_relabelled_upset_is_its_relabelled_generators() -> None:
    # the (18,7) family of the benchmark's genset round trip, on a ground
    # set relabelled at random
    rng = random.Random(271)
    generators = ((1, 2), (3, 4, 5))
    for _ in range(3):
        label = list(range(1, 19))
        rng.shuffle(label)
        family = _relabelled_upset(18, 7, generators, label)
        assert len(family) == 5_655
        relabelled = [[label[e - 1] for e in generator] for generator in generators]
        assert minimal_genset(family) == GenSet.from_sets(18, 7, relabelled)


def _peak_bytes(call, *args) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_minimal_genset_peak_memory() -> None:
    # testing each subset once, from its canonical parent, against the
    # ascending safe sets of the level above, by bisection: the members
    # themselves are the first level, so no copy and no hash table of them
    # is made, 0.12 MB of tracemalloc peak here; a set of the 5,655 members
    # alone is 0.52 MB, and with one the peak was 0.73 MB
    family = _relabelled_upset(18, 7, ((1, 2), (3, 4, 5)), list(range(1, 19)))
    assert _peak_bytes(minimal_genset, family) < 400_000


def test_left_compress_and_upset_k_peak_memory() -> None:
    # left_compress sweeps one ascending list of the 5,655 members, searched
    # by bisection, and upset_k lists the k-supersets for from_masks to sort
    # and fold: 0.27-0.31 MB and 0.33 MB of tracemalloc peak here, against
    # 0.76-0.79 MB and 0.81 MB with a set of the members
    label = list(range(1, 19))
    random.Random(18).shuffle(label)
    generators = ((1, 2), (3, 4, 5))
    family = _relabelled_upset(18, 7, generators, label)
    genset = GenSet.from_sets(18, 7, [[label[e - 1] for e in g] for g in generators])
    assert _peak_bytes(left_compress, family) < 400_000
    assert _peak_bytes(upset_k, genset) < 400_000


def test_writing_a_family_peak_memory() -> None:
    # the writer yields one line at a time: 2 KB of tracemalloc peak to
    # write the 5,655 members, against 0.61 MB for their whole text
    family = _relabelled_upset(18, 7, ((1, 2), (3, 4, 5)), list(range(1, 19)))
    assert _peak_bytes(lambda fam: deque(write_family(fam), 0), family) < 50_000


def test_cell_D_counts() -> None:
    cell = cell_D(mask_of([1, 4]), 6, 3)
    assert cell.members == (mask_of([1, 4, 5]), mask_of([1, 4, 6]))


def test_cells_are_disjoint_for_antichains_but_may_undercount() -> None:
    g = GenSet.from_sets(5, 3, [[1, 4], [2, 3]])
    union = cells_union(g)
    assert len(union) == 3  # {145} from one cell, {234},{235} from the other
    assert len(upset_k(g)) == 6
    # the cell sum counts the cells, not the up-set they miss part of
    assert size_from_genset(g) == 3
    # profile counting stays exact even where the cell sum fails
    assert upset_size(g) == 6


def test_size_from_genset_exact_on_compressed_minimal_gensets() -> None:
    rng = random.Random(4242)
    for _ in range(120):
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        fam = left_compress(
            UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(1, len(layer))))
        )
        gen = minimal_genset(fam)
        assert size_from_genset(gen) == len(fam)


def test_upset_size_matches_expansion_for_random_antichains() -> None:
    rng = random.Random(777)
    for _ in range(250):
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        pool = [
            m
            for m in range(1, 1 << min(n, k + 2))
            if 1 <= m.bit_count() <= k
        ]
        picked = rng.sample(pool, rng.randint(1, min(len(pool), 5)))
        minimal = [a for a in picked if not any(b != a and a & b == b for b in picked)]
        g = GenSet.from_masks(n, k, minimal)
        assert upset_size(g) == len(upset_k(g))


def test_upset_size_of_empty_genset_is_zero() -> None:
    assert upset_size(GenSet(9, 4, ())) == 0


def test_profile_counts_small() -> None:
    reach = upset_closure_bitmap([0b1], 2)  # up-closure of {1} within 2^[2]
    # traces {1} and {1,2} are reachable; {} and {2} are not
    assert profile_counts(reach, 2) == [0, 1, 1]


def test_layer_bitmaps_match_their_definition() -> None:
    # layer j holds exactly the indices x in 2^[s] with |x| = j
    for s in range(9):
        layers = layer_bitmaps(s)
        assert len(layers) == s + 1
        for x in range(1 << s):
            assert [layer >> x & 1 for layer in layers] == [
                int(j == x.bit_count()) for j in range(s + 1)
            ]
        assert sum(layers) == (1 << (1 << s)) - 1


def test_bitmap_closures_match_their_definitions() -> None:
    """The shift-order up-sets and the down-closure, against pairwise tests:
    f >= e when |f| >= |e| and f's i-th smallest element is at most e's."""

    def shift_geq(f: int, e: int) -> bool:
        fs, es = elements_of(f), elements_of(e)
        return len(fs) >= len(es) and all(a <= b for a, b in zip(fs, es))

    rng = random.Random(11)
    for s in range(1, 7):
        sets = range(1 << s)
        ups = shift_upset_bitmaps(list(sets), s)
        for e in sets:
            assert ups[e] == sum(1 << f for f in sets if shift_geq(f, e)), (s, e)
        for _ in range(20):
            bitmap = rng.getrandbits(1 << s)
            expected = sum(
                1 << x for x in sets if any(bitmap >> y & 1 and x & y == x for y in sets)
            )
            assert downset_closure_bitmap(bitmap, s) == expected


def test_slice_and_strip_top() -> None:
    g = compact("14,23,124,134", 6, 3)
    assert s_plus(g) == 4
    assert slice_top(g, 3, 4).element_sets() == ((1, 2, 4), (1, 3, 4))
    assert strip_top(g, 3, 4).element_sets() == ((1, 2), (1, 3))
    assert slice_top(g, 2, 4).element_sets() == ((1, 4),)
    # a lower top picks the slice through that element instead
    assert slice_top(g, 3, 3).element_sets() == ((1, 3, 4),)
    assert strip_top(g, 3, 3).element_sets() == ((1, 4),)


def test_perturb_pair_down_up_mirrors() -> None:
    g = full_layer_genset(6, 3, 4, 3)
    fam = upset_k(g)
    result = perturb_pair(fam, fam, g, g, 3, 2)
    new_a, new_b = result.families
    sliced = len(slice_top(g, 3, result.s))
    assert result.deltas == (-sliced * comb(2, 0), sliced * comb(2, 1))
    assert len(new_a) == len(fam) + result.deltas[0]
    assert len(new_b) == len(fam) + result.deltas[1]


def test_genset_cross_t() -> None:
    star = compact("123", 9, 4)
    window = full_layer_genset(9, 4, 5, 4)
    assert genset_cross_t(star, star, 3)
    assert not genset_cross_t(star, window, 3)


def test_cross_t_equivalence_randomized() -> None:
    """Genset-level and expanded-family-level cross-t agree whenever
    n > 2k - t, across random antichain pairs."""
    rng = random.Random(1009)
    checked = 0
    for _ in range(300):
        n = rng.randint(4, 9)
        k = rng.randint(2, n - 1)
        t = rng.randint(1, k)
        if n <= 2 * k - t:
            continue
        pool = [m for m in range(1, 1 << min(n, k + 1)) if 1 <= m.bit_count() <= k]

        def pick() -> GenSet:
            picked = rng.sample(pool, rng.randint(1, 4))
            minimal = [a for a in picked if not any(b != a and a & b == b for b in picked)]
            return GenSet.from_masks(n, k, minimal)

        a, b = pick(), pick()
        assert genset_cross_t(a, b, t) == is_cross_t_intersecting(upset_k(a), upset_k(b), t)
        checked += 1
    assert checked >= 100


def test_full_layer_genset() -> None:
    g = full_layer_genset(9, 4, 5, 4)
    assert len(g) == comb(5, 4)
    assert all(m.bit_count() == 4 and m < (1 << 5) for m in g)
    with pytest.raises(UsageError):
        full_layer_genset(9, 4, 5, 6)


def test_genset_text_roundtrip() -> None:
    g = compact("14,23,124", 7, 3)
    text = "".join(write_genset(g))
    assert text == "7 3\n2,3\n1,4\n1,2,4\n"  # elements by (size, word)
    assert read_genset(io.StringIO(text)) == g
    # a genset is its elements, so the antichains the builders make come
    # back equal from their text
    rng = random.Random(2024)
    gensets = [full_layer_genset(9, 4, 5, 4), full_layer_genset(12, 6, 8, 3)]
    for _ in range(40):
        n = rng.randint(2, 8)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        gensets.append(
            minimal_genset(
                UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(1, len(layer))))
            )
        )
    for gen_a, gen_b in genset_search_best_product(10, 5, 3).witnesses:
        gensets += [gen_a, gen_b]
    for built in gensets:
        assert read_genset(write_genset(built)) == built


def test_written_genset_lines_join_to_the_former_text() -> None:
    rng = random.Random(3302)
    gensets = [GenSet(6, 3, ())]
    for _ in range(60):
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        layer = enumerate_k_subsets(n, k).members
        family = UniformFamily.from_masks(n, k, rng.sample(layer, rng.randint(1, len(layer))))
        gensets.append(minimal_genset(family))
    for gen in gensets:
        former = "\n".join([f"{gen.n} {gen.k}"] + [",".join(map(str, s)) for s in gen.element_sets()])
        assert "".join(write_genset(gen)) == former + "\n", gen


def test_read_genset_refuses_a_repeated_set_naming_it() -> None:
    with pytest.raises(UsageError, match="^set 1,2 appears more than once in the input$"):
        read_genset(io.StringIO("5 3\n1,2\n2,1\n"))
    with pytest.raises(UsageError, match="^set 3 appears more than once in the input$"):
        read_genset(io.StringIO("5 3\n3\n1,2\n3\n"))


def test_read_genset_reports_line_numbers() -> None:
    with pytest.raises(UsageError, match="line 1"):
        read_genset(io.StringIO("9\n1,2\n"))
    with pytest.raises(UsageError, match="line 3"):
        read_genset(io.StringIO("9 4\n1,2\nx,y\n"))
    with pytest.raises(UsageError, match=r"^line 3: element 5 outside ground set \[4\]$"):
        read_genset(io.StringIO("4 2\n1,2\n1,5\n"))
    with pytest.raises(UsageError, match="^line 3: elements are 1-based, got 0$"):
        read_genset(io.StringIO("4 2\n1,2\n0,3\n"))
    with pytest.raises(UsageError):
        read_genset(io.StringIO("# only comments\n"))
