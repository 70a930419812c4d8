"""Left-compression (shifting) of uniform families.

The elementary shift d_ij replaces j by i in a member A when j is present, i is
absent, and the replacement is not already a member; otherwise it leaves A
alone.  Applied simultaneously to every member (against the *original*
membership table) it preserves family size, and for i < j it preserves the
t-intersecting and cross-t-intersecting properties.  One sweep of the shifts
d_ij in lexicographic order (1,2), (1,3), ..., (n-1,n) yields a family that
every d_ij with i < j fixes, the left-compressed normal form on which
generating-set arguments operate (the proof is in `left_compress`).

One routine, `_shift_in_place`, applies d_ij to an ascending list of
incidence words, and both `shift_family` and `left_compress` use it.  A
mover, a member holding j and not i, moves when its image (j replaced by i)
is absent from the list as it was before the pass, which is the
simultaneous shift.  The images ascend as the movers do, so one scan of the
list tells whether all of them are members, and most passes of a sweep end
there; otherwise each image is searched for by bisection, and the movers
are replaced and the list sorted again.  An image holds i and not j, so no
two movers share one and the size is kept.  `left_compress` copies the
members into one list, sweeps it, and builds and validates one
`UniformFamily` at the end: no table over the whole family is built.

The sweep moves nothing exactly when the family is left-compressed: every
d_ij fixes a left-compressed family, and what the sweep leaves is
left-compressed.  So `crossint compress` reads its verdict off the result,
whose members equal the input's iff it was already left-compressed, and
builds no membership table for `is_left_compressed`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import contains, xor

from .errors import UsageError
from .families import UniformFamily, in_sorted


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise UsageError(f"shift indices ({i}, {j}) outside [1, {n}]")
    if i == j:
        raise UsageError(f"shift indices must differ, got i = j = {i}")


def _shift_in_place(members: list[int], bit_i: int, bit_j: int) -> None:
    """Apply d_ij to the ascending incidence words in members, which stay
    ascending."""
    both = bit_i | bit_j
    movers = [m for m in members if m & both == bit_j]
    # an image is its mover plus bit_i minus bit_j, so the images ascend as
    # the movers do, and all are members iff they are a subsequence of the
    # members: one scan of the members, which settles most passes
    if all(map(contains, repeat(iter(members)), map(xor, movers, repeat(both)))):
        return
    moved = [m for m in movers if not in_sorted(members, m ^ both)]
    # in ascending order, each search starts past the words replaced
    at = -1
    for m in moved:
        at = bisect_left(members, m, at + 1)
        members[at] ^= both
    members.sort()


def shift_family(family: UniformFamily, i: int, j: int) -> UniformFamily:
    """D_ij applied to every member simultaneously; size is preserved."""
    _check_pair(family.n, i, j)
    members = list(family.members)
    _shift_in_place(members, 1 << (i - 1), 1 << (j - 1))
    return UniformFamily(family.n, family.k, tuple(members))


def is_left_compressed(family: UniformFamily) -> bool:
    """True iff every d_ij with i < j fixes the family."""
    members = family.members
    for m in members:
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
                if not in_sorted(members, (m & ~j_bit) | i_bit):
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
    members = list(family.members)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            _shift_in_place(members, 1 << (i - 1), 1 << (j - 1))
    return UniformFamily(n, family.k, tuple(members))
