"""Uniform set families over a ground set [n] = {1, ..., n}.

A k-subset A of [n] is stored as an n-bit incidence word: element e is present
iff bit (e-1) is set.  A uniform family is a duplicate-free, numerically sorted
tuple of such words, all of the same popcount k.  Single-word incidence keeps
every family-level operation (intersection sizes, membership, shifting) at a
few machine-int operations per pair, which is what makes exhaustive checks at
desk scale practical.  Enumeration-level operations are capped at n <= WORD_CAP;
counting-level operations elsewhere in the package take unbounded n.

Intersection conventions: families A and B are cross-t-intersecting when
|A & B| >= t for every A in A, B in B; a family F is t-intersecting when F and
F are cross-t-intersecting (A = B included, so a nonempty family needs k >= t).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, islice
from operator import eq, ne
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, UsageError
from .records import Frozen

# Family-level operations hold whole subsets in one machine word.
WORD_CAP = 64


def mask_of(elements: Iterable[int], n: int | None = None) -> int:
    """Incidence word of a collection of elements (1-based, duplicates folded)."""
    mask = 0
    for e in elements:
        if e < 1:
            raise UsageError(f"elements are 1-based, got {e}")
        if n is not None and e > n:
            raise UsageError(f"element {e} outside ground set [{n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending elements of an incidence word."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def bottom_mask(m: int) -> int:
    """Incidence word of [m]."""
    return (1 << m) - 1


class UniformFamily(Frozen):
    """A duplicate-free family of k-subsets of [n], members sorted numerically."""

    _fields = __slots__ = ("n", "k", "members")

    def __init__(self, n: int, k: int, members: tuple[int, ...]) -> None:
        if n < 1:
            raise UsageError(f"ground set size must be positive, got {n}")
        if n > WORD_CAP:
            raise CapacityError(f"ground set size {n} outside [1, {WORD_CAP}]")
        if not 0 <= k <= n:
            raise UsageError(f"subset size {k} outside [0, {n}]")
        prev = -1
        for m in members:
            if m <= prev:
                raise UsageError("members must be strictly increasing incidence words")
            if m >> n:
                raise UsageError(f"member {m:#x} not within [{n}]")
            if m.bit_count() != k:
                raise UsageError(
                    f"member {elements_of(m)} has size {m.bit_count()}, expected {k}"
                )
            prev = m
        self._init(n, k, members)

    @classmethod
    def from_masks(cls, n: int, k: int, masks: Iterable[int]) -> "UniformFamily":
        # one sorted copy; a mask equal to the one before it is a duplicate
        ordered = sorted(masks)
        return cls(n, k, tuple(compress(ordered, map(ne, ordered, chain((None,), ordered)))))

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "UniformFamily":
        return cls.from_masks(n, k, (mask_of(s, n) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return in_sorted(self.members, mask)


def in_sorted(masks: Sequence[int], mask: int) -> bool:
    """Whether mask is in masks, an ascending sequence: a binary search, so
    no table over the sequence is built."""
    at = bisect_left(masks, mask)
    return at != len(masks) and masks[at] == mask


def enumerate_k_subsets(n: int, k: int) -> UniformFamily:
    """All C(n,k) k-subsets of [n] in increasing incidence-word order."""
    if n > WORD_CAP:
        raise CapacityError(f"n = {n} exceeds the {WORD_CAP}-bit word cap")
    if not 0 <= k <= n:
        raise UsageError(f"subset size {k} outside [0, {n}]")
    if k == 0:
        return UniformFamily(n, 0, (0,))
    masks = []
    v = bottom_mask(k)
    limit = 1 << n
    while v < limit:
        masks.append(v)
        # Gosper's hack: next larger word with the same popcount.
        low = v & -v
        ripple = v + low
        v = ripple | (((v ^ ripple) >> 2) // low)
    return UniformFamily(n, k, tuple(masks))


def is_cross_t_intersecting(fam_a: UniformFamily, fam_b: UniformFamily, t: int) -> bool:
    """True iff |A & B| >= t for every A in fam_a, B in fam_b."""
    if fam_a.n != fam_b.n:
        raise UsageError(f"mismatched ground sets: [{fam_a.n}] vs [{fam_b.n}]")
    if t < 0:
        raise UsageError(f"t must be nonnegative, got {t}")
    for a in fam_a.members:
        for b in fam_b.members:
            if (a & b).bit_count() < t:
                return False
    return True


def shade(family: UniformFamily) -> UniformFamily:
    """All (k+1)-subsets containing at least one member (the upper shadow)."""
    if family.k >= family.n:
        raise UsageError(f"shade undefined: k = {family.k} already equals n = {family.n}")
    full = bottom_mask(family.n)
    out = set()
    for m in family.members:
        absent = full & ~m
        while absent:
            low = absent & -absent
            out.add(m | low)
            absent ^= low
    return UniformFamily.from_masks(family.n, family.k + 1, out)


# ---------------------------------------------------------------------------
# Set-list text, shared by families and generating sets: header "n k", then
# one set per line, comma-separated ascending elements.  '#' starts a comment;
# blank lines are skipped; a set may appear only once.  write_sets is the one
# writer and yields the text line by line, so that no copy of the whole text
# is held; read_sets is the one reader.
# ---------------------------------------------------------------------------


def _set_text(mask: int) -> str:
    return ",".join(map(str, elements_of(mask)))


def write_sets(n: int, k: int, masks: Iterable[int]) -> Iterator[str]:
    """The set-list text, one line at a time: the "n k" header, then one set
    per line, each line ending in a newline."""
    yield f"{n} {k}\n"
    for m in masks:
        yield _set_text(m) + "\n"


def read_sets(source) -> tuple[int, int, list[int]]:
    """The (n, k, ascending incidence words) of the set-list text in a path,
    a binary or text file object, or an iterable of lines.  Malformed input,
    bytes that are not UTF-8 included, raises UsageError naming the line; a
    set given twice raises UsageError naming the set."""
    if isinstance(source, (str, bytes)):
        with open(source, "rb") as fh:
            return read_sets(fh)
    header: tuple[int, int] | None = None
    masks: list[int] = []
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise UsageError(f"line {lineno}: not valid UTF-8: {exc.reason}") from None
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise UsageError(f"line {lineno}: header must be 'n k', got {raw!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise UsageError(f"line {lineno}: non-integer header {raw!r}") from None
            continue
        try:
            elements = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise UsageError(f"line {lineno}: bad set line {raw!r}") from None
        try:
            masks.append(mask_of(elements, header[0]))
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}") from None
    if header is None:
        raise UsageError("empty input: missing 'n k' header")
    masks.sort()
    # a word equal to the one after it is a repeat
    repeated = next(compress(masks, map(eq, masks, islice(masks, 1, None))), None)
    if repeated is not None:
        raise UsageError(f"set {_set_text(repeated)} appears more than once in the input")
    return header[0], header[1], masks


def write_family(family: UniformFamily) -> Iterator[str]:
    """The family's set-list text, one line at a time."""
    return write_sets(family.n, family.k, family.members)


def read_family(source) -> UniformFamily:
    """Read a family from a path, binary or text file object, or lines."""
    n, k, masks = read_sets(source)
    try:
        return UniformFamily(n, k, tuple(masks))
    except UsageError as exc:
        raise UsageError(f"invalid family in input: {exc}") from None
