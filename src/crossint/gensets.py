"""Generating sets of uniform families and cell-based size counting.

A generating set g of a k-uniform family F on [n] is any collection of subsets
(sizes <= k) whose up-set, intersected with the k-th layer, is exactly F.  Every
family generates itself; the interesting gensets are small antichains living in
a bounded prefix [s] of the ground set, because then |F| can be *counted*
without enumeration:

* cell counting: with s+(E) = max E, the cell D(E) = {B : B cap [s+(E)] = E}
  has exactly C(n - s+(E), k - |E|) members, and for a minimal genset of a
  left-compressed family the cells partition F;
* profile counting: for any genset with top element s = s+(g), grouping the
  up-set's traces on [s] by size j gives |F| = Sum_j N_j * C(n-s, k-j), valid
  unconditionally (used when nothing is known about the genset's shape).

Both counters take unbounded n; expansion to an explicit family is capped.

Two gensets whose elements pairwise meet in >= t points generate
cross-t-intersecting families, and for n > 2k - t the converse holds too
(genset_cross_t), so cross-intersection is decided on the generators.

The perturbation move (perturb_pair) trades cells between a
cross-t-intersecting pair: delete A's top slice while pushing B's
complementary slice down one element.  The deleted cells are always
counted exactly; the added cells match the closed-form delta exactly when the
genset is closed under left shifts in the sense of the structural lemma, and
the move verifies this against the expanded families, refusing to return
silently wrong deltas.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import NamedTuple

from .errors import CapacityError, IntegrityError, UsageError
from .families import (
    WORD_CAP,
    UniformFamily,
    bottom_mask,
    elements_of,
    enumerate_k_subsets,
    in_sorted,
    mask_of,
    read_sets,
    write_sets,
)
from .records import Frozen
from math import comb

# Expanding an up-set to an explicit family is refused beyond this many sets.
EXPAND_CAP = 2_000_000
# Profile counting enumerates 2^(s+) trace patterns.
PROFILE_CAP = 24


def _sorted_elements(masks) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


class GenSet(Frozen):
    """A genset: context parameters (n, k) plus element incidence words.

    Elements are nonempty subsets of [n] of size <= k, kept sorted by
    (size, word).  n is *not* capped: counting operations work at any scale,
    only expansion requires n <= WORD_CAP.  A genset is its elements: whether
    they form an antichain is a property of the builder that made them
    (``minimal_genset`` and ``full_layer_genset`` make antichains), not a
    field.
    """

    _fields = __slots__ = ("n", "k", "elements")

    def __init__(self, n: int, k: int, elements: tuple[int, ...]) -> None:
        if n < 1:
            raise UsageError(f"ground set size must be positive, got {n}")
        if not 0 <= k <= n:
            raise UsageError(f"subset size {k} outside [0, {n}]")
        prev = None
        for m in elements:
            if m == 0:
                raise UsageError("genset elements must be nonempty")
            if m >> n:
                raise UsageError(f"element {elements_of(m)} not within [{n}]")
            if m.bit_count() > k:
                raise UsageError(
                    f"element {elements_of(m)} larger than the layer size {k}"
                )
            key = (m.bit_count(), m)
            if prev is not None and key <= prev:
                raise UsageError("elements must be sorted by (size, word), no repeats")
            prev = key
        self._init(n, k, elements)

    @classmethod
    def from_masks(cls, n: int, k: int, masks) -> "GenSet":
        return cls(n, k, _sorted_elements(masks))

    @classmethod
    def from_sets(cls, n: int, k: int, sets) -> "GenSet":
        return cls.from_masks(n, k, (mask_of(s, n) for s in sets))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def element_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(elements_of(m) for m in self.elements)


def compact(text_elements: str, n: int, k: int) -> GenSet:
    """Genset from single-digit element strings: compact("123,1256", 12, 6).

    Only for elements within [9]; used to transcribe small explicit gensets.
    The elements are taken as written: whether they form an antichain is for
    the caller to check (``verify-case4`` checks each construction's).
    """
    masks = []
    for token in text_elements.replace(" ", "").split(","):
        if not token:
            continue
        if not token.isdigit() or "0" in token:
            raise UsageError(f"compact tokens are nonzero digit strings, got {token!r}")
        masks.append(mask_of((int(ch) for ch in token), n))
    return GenSet.from_masks(n, k, masks)


def s_plus_mask(mask: int) -> int:
    """Largest element of a nonempty subset."""
    if mask == 0:
        raise UsageError("s+ of the empty set is undefined")
    return mask.bit_length()


def s_plus(genset: GenSet) -> int:
    """Largest element appearing in any element of a nonempty genset."""
    if not genset.elements:
        raise UsageError("s+ of an empty genset is undefined")
    return max(m.bit_length() for m in genset.elements)


def expandable(n: int, k: int) -> bool:
    """Whether the whole layer C([n], k) fits in the expansion caps, so that
    every family on it can be expanded: n within the word cap and
    C(n, k) <= EXPAND_CAP."""
    return n <= WORD_CAP and comb(n, k) <= EXPAND_CAP


def upset_k(genset: GenSet) -> UniformFamily:
    """The generated family: all k-supersets of genset elements, expanded."""
    if genset.n > WORD_CAP:
        raise CapacityError(f"cannot expand on a ground set of size {genset.n}")
    # the bound is the length of the list, checked before it is built
    bound = sum(comb(genset.n - m.bit_count(), genset.k - m.bit_count()) for m in genset.elements)
    if bound > EXPAND_CAP:
        raise CapacityError(f"expansion bound {bound} exceeds cap {EXPAND_CAP}")
    out = []
    for m in genset.elements:
        free = [e for e in range(1, genset.n + 1) if not m >> (e - 1) & 1]
        out.extend(m | mask_of(extra) for extra in combinations(free, genset.k - m.bit_count()))
    return UniformFamily.from_masks(genset.n, genset.k, out)


def minimal_genset(family: UniformFamily) -> GenSet:
    """The canonical minimal genset: the minimal nonempty sets all of whose
    k-supersets lie in the family.  Every genset of the family consists of
    such sets, so this is the coarsest antichain generating it.

    Found level by level, from the members at level k down to level 1 (the
    empty set is no element): a (j-1)-set B is safe exactly when all n-j+1
    of its one-larger supersets are safe.  B is tested once, from its
    canonical parent B + x, x the least point absent from B: a safe j-set A
    is the canonical parent of A - x for the points x of A below A's least
    absent point, and a B whose canonical parent is not safe is not safe
    either, so a level holds no set twice.  A safe set is minimal when none
    of its one-smaller subsets is safe; a canonical parent of a safe set is
    not, and for any other safe set only the subsets it is not the
    canonical parent of are left to look up.  Each level is an ascending
    sequence, the members themselves at level k, searched by bisection:
    only the safe sets of two levels are held at a time, never a set
    outside the family's down-set and no table over a level.  On the
    5,655-member (18,7) family of the benchmark, a tracemalloc peak of
    0.12 MB."""
    n, k = family.n, family.k
    full = bottom_mask(n)
    minimal: list[int] = []
    safe = family.members
    for _ in range(k, 1, -1):
        lower = []
        size = len(safe)
        # parent[at] is set when safe[at] is the canonical parent of a safe set
        parent = bytearray(size)
        for at, mask in enumerate(safe):
            absent = full & ~mask
            # the points of mask below its least absent point
            prefix = (mask ^ (mask + 1)) >> 1
            while prefix:
                low = prefix & -prefix
                prefix ^= low
                below = mask ^ low
                # below plus each point absent from mask, the largest first:
                # each word exceeds mask and is less than the one before, so
                # it is searched for between the two
                rest, hi = absent, size
                while rest:
                    y = 1 << (rest.bit_length() - 1)
                    rest ^= y
                    up = below | y
                    hi = bisect_left(safe, up, at + 1, hi)
                    if hi == size or safe[hi] != up:
                        break
                else:
                    lower.append(below)
                    parent[at] = 1
        lower.sort()
        for at, mask in enumerate(safe):
            if parent[at]:
                continue
            # the points of mask above its least absent point
            rest = mask & ~((mask ^ (mask + 1)) >> 1)
            while rest:
                low = rest & -rest
                rest ^= low
                if in_sorted(lower, mask ^ low):
                    break
            else:
                minimal.append(mask)
        safe = lower
    minimal += safe
    return GenSet.from_masks(n, k, minimal)


def cell_D(element_mask: int, n: int, k: int) -> UniformFamily:
    """The cell D(E) = {B in the k-th layer : B cap [s+(E)] = E}, expanded."""
    if n > WORD_CAP:
        raise CapacityError(f"cannot expand cells on a ground set of size {n}")
    top = s_plus_mask(element_mask)
    if element_mask.bit_count() > k:
        raise UsageError("cell of an element larger than the layer size is empty")
    free = list(range(top + 1, n + 1))
    out = [
        element_mask | mask_of(extra)
        for extra in combinations(free, k - element_mask.bit_count())
    ]
    return UniformFamily.from_masks(n, k, out)


def cells_union(genset: GenSet) -> UniformFamily:
    """Union of the cells D(E) over the genset's elements."""
    out: set[int] = set()
    for m in genset.elements:
        out.update(cell_D(m, genset.n, genset.k).members)
    return UniformFamily.from_masks(genset.n, genset.k, out)


def size_from_genset(genset: GenSet) -> int:
    """Cell count Sum_E C(n - s+(E), k - |E|) of the generated family.

    Exact when the cells cover the family (minimal genset of a left-compressed
    family); for other antichains the cells are merely disjoint and the sum
    undercounts.
    """
    return sum(
        comb(genset.n - s_plus_mask(m), genset.k - m.bit_count()) for m in genset.elements
    )


def _periodic_bitmap(s: int, block: int, period: int) -> int:
    """Bitmap over 2^[s] repeating ``block`` every ``period`` indices."""
    return ((1 << (1 << s)) - 1) // ((1 << period) - 1) * block


def _close_up(reach: int, s: int) -> int:
    for b in range(s):
        step = 1 << b
        # indices whose bit b is clear gain it
        reach |= (reach & _periodic_bitmap(s, (1 << step) - 1, 2 * step)) << step
    return reach


def upset_closure_bitmap(elements, s: int) -> int:
    """Bitmap over 2^[s] (index = trace word) of the up-closure of the given
    element words: bit x set iff x contains some element."""
    reach = 0
    for m in elements:
        reach |= 1 << m
    return _close_up(reach, s)


def downset_closure_bitmap(bitmap: int, s: int) -> int:
    """Bitmap over 2^[s] of every subset of a set in ``bitmap``."""
    for b in range(s):
        step = 1 << b
        # indices whose bit b is set lose it
        bitmap |= (bitmap & _periodic_bitmap(s, ((1 << step) - 1) << step, 2 * step)) >> step
    return bitmap


def shift_upset_bitmaps(elements, s: int) -> list[int]:
    """Each element's up-set in the shift order, as a bitmap over 2^[s].

    f >= e when |f| >= |e| and the i-th smallest element of f is at most
    that of e for every i <= |e|: f contains a same-size left shift of e.
    Moving position b to a free b-1 maps every index with bit b set and bit
    b-1 clear down by 2^(b-1) in one big-integer operation; repeating the
    moves until nothing changes gives the left shifts without a pairwise
    test over 2^[s], and their inclusion up-closure is the up-set.  The
    shifted up-sets of 2^[s] are exactly the unions of these.
    """
    moves = [
        (_periodic_bitmap(s, ((1 << (1 << (b - 1))) - 1) << (1 << b), 2 << b), 1 << (b - 1))
        for b in range(s - 1, 0, -1)
    ]
    ups = []
    for e in elements:
        reach, previous = 1 << e, 0
        while reach != previous:
            previous = reach
            for pattern, step in moves:
                reach |= (reach & pattern) >> step
        ups.append(_close_up(reach, s))
    return ups


def layer_bitmaps(s: int) -> list[int]:
    """layers[j] = the 2^[s]-bitmap of the size-j subsets of [s].

    Built by doubling: adding the point b+1 to [b] keeps every layer and
    adds to layer j the sets of layer j-1 with the point, their indices
    moved up by 2^b."""
    layers = [1] + [0] * s
    for b in range(s):
        for j in range(b + 1, 0, -1):
            layers[j] |= layers[j - 1] << (1 << b)
    return layers


def profile_counts(reach: int, s: int) -> list[int]:
    """counts[j] = number of size-j indices set in a 2^[s]-bitmap."""
    return [(reach & layer).bit_count() for layer in layer_bitmaps(s)]


def upset_size(genset: GenSet) -> int:
    """Exact size of the generated family for *any* genset, by profile counting
    over [s+]: the up-set's traces of size j each contribute C(n-s+, k-j)."""
    if not genset.elements:
        return 0
    s = s_plus(genset)
    if s > PROFILE_CAP:
        raise CapacityError(f"profile counting over [{s}] exceeds cap {PROFILE_CAP}")
    counts = profile_counts(upset_closure_bitmap(genset.elements, s), s)
    return sum(
        counts[j] * comb(genset.n - s, genset.k - j)
        for j in range(min(s, genset.k) + 1)
    )


def slice_top(genset: GenSet, i: int, top: int) -> GenSet:
    """g*_i: elements of size i containing the top element."""
    bit = 1 << (top - 1)
    return GenSet.from_masks(
        genset.n,
        genset.k,
        (m for m in genset.elements if m.bit_count() == i and m & bit),
    )


def strip_top(genset: GenSet, i: int, top: int) -> GenSet:
    """g*_i': the size-i top slice with the top element removed from each set."""
    sliced = slice_top(genset, i, top)
    bit = 1 << (top - 1)
    return GenSet.from_masks(genset.n, genset.k, (m & ~bit for m in sliced.elements))


class PerturbResult(NamedTuple):
    """Outcome of a cell-trading move: new families plus closed-form deltas."""

    families: tuple[UniformFamily, ...]
    deltas: tuple[int, ...]
    s: int


def _checked_delta(new_len: int, old_len: int, formula: int, what: str) -> int:
    if new_len - old_len != formula:
        raise IntegrityError(
            f"{what}: closed-form delta {formula} != actual {new_len - old_len}; "
            "genset lacks the shift-closure the formula needs"
        )
    return formula


def perturb_pair(
    fam_a: UniformFamily,
    fam_b: UniformFamily,
    gen_a: GenSet,
    gen_b: GenSet,
    i: int,
    t: int,
) -> PerturbResult:
    """Trade cells between a cross-t-intersecting pair at complementary sizes.

    A loses D(g*_i(A)) and B gains D(g*_{s+t-i}(B)'), where s is the larger
    of the two top elements; both slices are taken there.
    """
    for fam, gen, name in ((fam_a, gen_a, "A"), (fam_b, gen_b, "B")):
        if (gen.n, gen.k) != (fam.n, fam.k):
            raise UsageError(f"genset context does not match family {name}")
    if fam_a.n != fam_b.n:
        raise UsageError("families live on different ground sets")
    s = max(s_plus(gen_a), s_plus(gen_b))
    j = s + t - i
    slice_a = slice_top(gen_a, i, s)
    slice_b = slice_top(gen_b, j, s)
    if not slice_a.elements:
        raise UsageError(f"empty top slice g*_{i}(A) at s = {s}; nothing to perturb")
    n, k = fam_a.n, fam_a.k
    new_a_members = set(fam_a.members).difference(cells_union(slice_a).members)
    new_b_members = set(fam_b.members).union(cells_union(strip_top(gen_b, j, s)).members)
    delta_a_formula = -len(slice_a) * comb(n - s, k - i)
    delta_b_formula = len(slice_b) * comb(n - s, k + i - s - t + 1)
    new_a = UniformFamily.from_masks(n, k, new_a_members)
    new_b = UniformFamily.from_masks(n, k, new_b_members)
    delta_a = _checked_delta(len(new_a), len(fam_a), delta_a_formula, "perturb_pair A")
    delta_b = _checked_delta(len(new_b), len(fam_b), delta_b_formula, "perturb_pair B")
    return PerturbResult((new_a, new_b), (delta_a, delta_b), s)


# ---------------------------------------------------------------------------
# Text round-trip: the set-list text of families.write_sets / read_sets.
# ---------------------------------------------------------------------------


def write_genset(genset: GenSet) -> str:
    """The genset's set-list text."""
    return write_sets(genset.n, genset.k, genset.elements)


def read_genset(source) -> GenSet:
    return GenSet.from_masks(*read_sets(source))


def genset_cross_t(gen_a: GenSet, gen_b: GenSet, t: int) -> bool:
    """True iff every element of one genset meets every element of the other
    in >= t points.  Implies the generated families are cross-t-intersecting;
    the converse holds when n > 2k - t."""
    for a in gen_a.elements:
        for b in gen_b.elements:
            if (a & b).bit_count() < t:
                return False
    return True


def full_layer_genset(n: int, k: int, s: int, size: int) -> GenSet:
    """The genset consisting of all size-`size` subsets of [s]."""
    if not 0 < size <= min(k, s):
        raise UsageError(f"layer size {size} outside [1, min({k}, {s})]")
    return GenSet(n, k, enumerate_k_subsets(s, size).members)
