"""Left-compression (shifting) of uniform families.

The elementary shift d_ij replaces j by i in a member A when j is present, i is
absent, and the replacement is not already a member; otherwise it leaves A
alone.  Applied simultaneously to every member (against the *original*
membership table) it preserves family size, and for i < j it preserves the
t-intersecting and cross-t-intersecting properties.  Repeating all shifts with
i < j until nothing moves yields the left-compressed fixpoint, the normal form
on which generating-set arguments operate.
"""

from __future__ import annotations

from .errors import UsageError
from .families import UniformFamily


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise UsageError(f"shift indices ({i}, {j}) outside [1, {n}]")
    if i == j:
        raise UsageError(f"shift indices must differ, got i = j = {i}")


def _shift_mask(m: int, bit_i: int, bit_j: int, member_set) -> int:
    if m & bit_j and not m & bit_i:
        moved = (m & ~bit_j) | bit_i
        if moved not in member_set:
            return moved
    return m


def shift_family(family: UniformFamily, i: int, j: int) -> UniformFamily:
    """D_ij applied to every member simultaneously; size is preserved."""
    _check_pair(family.n, i, j)
    bit_i, bit_j = 1 << (i - 1), 1 << (j - 1)
    members = family.member_set
    shifted = UniformFamily.from_masks(
        family.n, family.k, (_shift_mask(m, bit_i, bit_j, members) for m in family.members)
    )
    assert len(shifted) == len(family), "shift must be injective on the family"
    return shifted


def is_left_compressed(family: UniformFamily) -> bool:
    """True iff every d_ij with i < j fixes the family."""
    members = family.member_set
    for m in family.members:
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            j_bit = low
            # any absent smaller position must already be occupied by a member
            absent_below = (j_bit - 1) & ~m
            while absent_below:
                i_bit = absent_below & -absent_below
                absent_below ^= i_bit
                if (m & ~j_bit) | i_bit not in members:
                    return False
    return True


def left_compress(family: UniformFamily) -> UniformFamily:
    """Iterate all shifts d_ij (i < j) in lexicographic sweeps until fixed."""
    current = family
    changed = True
    while changed:
        changed = False
        for i in range(1, current.n):
            for j in range(i + 1, current.n + 1):
                nxt = shift_family(current, i, j)
                if nxt.members != current.members:
                    current = nxt
                    changed = True
    return current
