"""Exact verification toolkit for cross-t-intersecting families of k-subsets.

Submodules: families (bitmask k-subsets and uniform families), compression
(shifting to the left-compressed normal form), gensets (generating sets, cell
counting, perturbation moves), frankl (the F(n,k,t,r) candidates and their
regimes), records (the sweep's record schema and the base of the validated
value types), inequalities (the exact big-integer inequality engine and grid
sweeps), reference (the engine's per-point reference API, which only the
tests import), search (brute-force and generating-set extremal searches),
constructions (the explicit construction checks, with their rows, sizes and
reports), workers (the sweep's driver, checkpoint and resume, and its
forked workers), stream (the sweep's record line writer and reader and the
digest of its records, imported by workers alone), cli (the command line,
which imports no layer at module level: each command imports only the
modules it runs).
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
