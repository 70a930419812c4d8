"""Exact verification toolkit for cross-t-intersecting families of k-subsets.

Submodules: families (bitmask k-subsets and uniform families), compression
(shifting to the left-compressed normal form), gensets (generating sets, cell
counting, perturbation moves), frankl (the F(n,k,t,r) candidates and their
regimes), records (the sweep's record schema and the base of the validated
value types), inequalities (the exact big-integer inequality engine and grid
sweeps), search (brute-force and generating-set extremal searches),
constructions (the explicit construction checks, with their rows, sizes and
reports), workers (the forked workers of the inequality sweep), cli (the
command line, which imports inequalities, workers and constructions only
for the commands that run them).
"""

from .errors import (
    CapacityError,
    CrossIntError,
    DomainError,
    IntegrityError,
    OutOfScopeError,
    UsageError,
)

__all__ = [
    "CapacityError",
    "CrossIntError",
    "DomainError",
    "IntegrityError",
    "OutOfScopeError",
    "UsageError",
]

__version__ = "0.1.0"
