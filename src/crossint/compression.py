"""Left-compression (shifting) of uniform families.

The elementary shift d_ij replaces j by i in a member A when j is present, i is
absent, and the replacement is not already a member; otherwise it leaves A
alone.  Applied simultaneously to every member (against the *original*
membership table) it preserves family size, and for i < j it preserves the
t-intersecting and cross-t-intersecting properties.  One sweep of the shifts
d_ij in lexicographic order (1,2), (1,3), ..., (n-1,n) yields a family that
every d_ij with i < j fixes, the left-compressed normal form on which
generating-set arguments operate (the proof is in `left_compress`).

One routine, `_shift_in_place`, applies d_ij to a mutable set of incidence
words, and both `shift_family` and `left_compress` use it.  Doing it in place
gives the simultaneous shift: only members holding j and not i move, and an
image holds i and not j, so it never moves again and never equals another
mover's image.  A membership test against the partly updated set therefore
gives the same answer as one against the original table, and each swap of a
mover for its image keeps the size.  `left_compress` copies the members into
one set, sweeps it, and builds and validates one `UniformFamily` at the end.

The sweep moves nothing exactly when the family is left-compressed: every
d_ij fixes a left-compressed family, and what the sweep leaves is
left-compressed.  So `crossint compress` reads its verdict off the result,
whose members equal the input's iff it was already left-compressed, and
builds no membership table for `is_left_compressed`.
"""

from __future__ import annotations

from .errors import UsageError
from .families import UniformFamily


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise UsageError(f"shift indices ({i}, {j}) outside [1, {n}]")
    if i == j:
        raise UsageError(f"shift indices must differ, got i = j = {i}")


def _shift_in_place(members: set[int], bit_i: int, bit_j: int) -> None:
    """Apply d_ij to the incidence words in members."""
    both = bit_i | bit_j
    movers = [m for m in members if m & both == bit_j]
    for m in movers:
        image = m ^ both
        if image not in members:
            members.remove(m)
            members.add(image)


def shift_family(family: UniformFamily, i: int, j: int) -> UniformFamily:
    """D_ij applied to every member simultaneously; size is preserved."""
    _check_pair(family.n, i, j)
    members = set(family.members)
    _shift_in_place(members, 1 << (i - 1), 1 << (j - 1))
    shifted = UniformFamily.from_masks(family.n, family.k, members)
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
    """Apply every shift d_ij (i < j) once, in lexicographic order of (i, j).

    The result is fixed by every d_ij with i < j.  Call F (a,b)-stable when
    d_ab(F) = F.  First, d_cd(F) is (c,d)-stable.  Second, stability under
    an earlier pair (a,b) survives d_cd in two cases: the pairs are disjoint
    or share a = c or b = d; or b = c while F is also (a,d)-stable.  The
    only other shared element is d = a, with c < a.  In lexicographic order
    (c,a) never comes after (a,b), and (a,d) comes before (b,d).  By
    induction over the sweep, after d_cd the family is stable under (c,d)
    and under every pair before it, so after the last pair it is stable
    under all of them, and a second sweep would move nothing.
    """
    n = family.n
    members = set(family.members)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            _shift_in_place(members, 1 << (i - 1), 1 << (j - 1))
    compressed = UniformFamily.from_masks(n, family.k, members)
    assert len(compressed) == len(family), "compression must preserve the family size"
    return compressed
