"""Extremal search oracles for cross-t-intersecting families.

Two exhaustive maximizers and the end-to-end confirmation of the bound:

* ``brute_force_best`` enumerates every subfamily A of C([n],k) (as a bitmask
  over the member list) and pairs it with its t-closure, the unique largest
  partner family.  For either objective (product |A||B| or sum |A|+|B|) the
  optimal partner of a fixed A is cl_t(A), so the scan over A alone is
  exhaustive.  Branch and bound keeps the scan fast: |A| can only grow by the
  number of members not yet decided, and |cl_t(A)| only shrinks.

* ``genset_search_best_product`` maximizes the product over pairs of families
  generated by antichains on a bounded ground window [s].  A family generated
  by elements E_1,...,E_m on [s] contains exactly the k-sets whose trace on
  [s] contains some E_j, so its size is a profile count
  sum_X #{traces X} * C(n-s, k-|X|) over the up-closure of the elements in
  2^[s].  For n > 2k-t two generated families are cross-t-intersecting if and
  only if every pair of generators meets in at least t points (two k-sets can
  always be pushed apart to an intersection of max(|E cap F|, 2k-n)), so the
  partner of a partial antichain is read off a precomputed compatibility
  matrix.  Joint left compression keeps both sizes and cross-t-intersection,
  so only shifted pairs are scanned: the A side runs over antichains in the
  order "inclusion plus left shift", whose up-sets are exactly the shifted
  trace sets, and its partner is shifted too.  For n <= 2k-t any two k-sets
  meet in >= t points and the full layer paired with itself is the trivial
  optimum.

* ``verify_main_theorem_small`` runs the genset search (cross-checked against
  brute force when the layer is small), compares the optimum against the
  star-pair bound C(n-t,k-t)^2, and classifies the maximizing pairs, which
  the scan finds jointly left-compressed: strictly above the threshold
  n = (t+1)(k-t+1) the only structure is the twin star, at the threshold the
  twin window {A : |A cap [t+2]| >= t+1} ties with it.
"""

from __future__ import annotations

from math import comb
from random import Random
from typing import Iterable, Mapping, NamedTuple

from .compression import shift_family
from .errors import CapacityError, DomainError, IntegrityError, UsageError
from .families import (
    WORD_CAP,
    UniformFamily,
    enumerate_k_subsets,
    is_cross_t_intersecting,
)
from .frankl import FranklParams, frankl_size
from .gensets import (
    EXPAND_CAP,
    GenSet,
    downset_closure_bitmap,
    expandable,
    genset_cross_t,
    layer_bitmaps,
    minimal_genset,
    shift_upset_bitmaps,
    size_from_genset,
    upset_k,
    upset_size,
)

# minimal_genset and size_from_genset are exported for the traced benchmark,
# which wraps them under this module's name (perfbench/tracing.py).
__all__ = [
    "BRUTE_CAP",
    "GENSET_CANDIDATE_CAP",
    "GENSET_GROUND_CAP",
    "GENSET_NODE_CAP",
    "MAX_WITNESSES",
    "MainTheoremReport",
    "SearchResult",
    "brute_force_best",
    "closure_t",
    "genset_search_best_product",
    "minimal_genset",
    "size_from_genset",
    "validate_result",
    "verify_main_theorem_small",
]

#: Largest layer size C(n,k) the brute-force scan will accept.
BRUTE_CAP = 22

#: Antichain nodes the genset search may expand before giving up.
GENSET_NODE_CAP = 5_000_000

#: Largest generator pool (subsets of [s] with t <= size <= k) accepted.
GENSET_CANDIDATE_CAP = 2_000

#: Largest ground window [s] the genset search will bitmap (2^s positions).
GENSET_GROUND_CAP = 16

#: Distinct optimal witness pairs kept in a result.
MAX_WITNESSES = 64

#: Tie keys retained during a scan; the ``ties`` count stops here.
_TIE_SOFT_CAP = 4_096


# ---------------------------------------------------------------------------
# t-closure


def closure_t(family: UniformFamily, t: int) -> UniformFamily:
    """Largest B with (family, B) cross-t-intersecting.

    B = {X in C([n],k) : |X cap A| >= t for every A in family}; the empty
    family closes to the whole layer (vacuous condition).
    """
    n, k = family.n, family.k
    if not 1 <= t <= k:
        raise DomainError(f"need 1 <= t <= k, got t = {t}, k = {k}")
    if comb(n, k) > EXPAND_CAP:
        raise CapacityError(
            f"closure over C({n},{k}) = {comb(n, k)} exceeds the expansion cap"
        )
    members = family.members
    out = [
        m
        for m in enumerate_k_subsets(n, k).members
        if all((m & a).bit_count() >= t for a in members)
    ]
    return UniformFamily.from_masks(n, k, out)


# ---------------------------------------------------------------------------
# Search results


class SearchResult(NamedTuple):
    """Outcome of an exhaustive maximization.

    ``witnesses`` holds the distinct optimal pairs found (unordered pairs,
    canonically sorted, truncated to MAX_WITNESSES); each entry is a pair of
    UniformFamily (brute force, trivial regime) or a pair of GenSet (genset
    search).  ``stats`` carries enumeration counters.
    """

    n: int
    k: int
    t: int
    objective: str
    method: str
    value: int
    witnesses: tuple
    stats: Mapping[str, int]


def _pair_value(side_a, side_b, objective: str) -> int:
    sizes = []
    for side in (side_a, side_b):
        if isinstance(side, UniformFamily):
            sizes.append(len(side))
        elif isinstance(side, GenSet):
            sizes.append(upset_size(side))
        else:  # pragma: no cover - defensive
            raise UsageError(f"unsupported witness side {type(side).__name__}")
    a, b = sizes
    return a * b if objective == "product" else a + b


def validate_result(result: SearchResult) -> None:
    """Integrity re-check of a result's stated invariants.

    Every witness pair must be cross-t-intersecting and must reproduce the
    stated objective value exactly.
    """
    for side_a, side_b in result.witnesses:
        if _pair_value(side_a, side_b, result.objective) != result.value:
            raise IntegrityError(
                f"witness pair value disagrees with stated optimum {result.value}"
            )
        if isinstance(side_a, GenSet) and isinstance(side_b, GenSet):
            if not genset_cross_t(side_a, side_b, result.t):
                raise IntegrityError("genset witness pair is not cross-t as generators")
        elif not is_cross_t_intersecting(side_a, side_b, result.t):
            raise IntegrityError("witness pair is not cross-t-intersecting")


# ---------------------------------------------------------------------------
# Brute force over subfamilies


def brute_force_best(
    n: int,
    k: int,
    t: int,
    objective: str = "product",
) -> SearchResult:
    """Exact optimum of |A||B| or |A|+|B| over cross-t-intersecting pairs.

    Scans every A (subfamily of the layer) with B = closure_t(A); for the sum
    objective both families must be nonempty.  All optimal closed pairs are
    reported (unordered, deduplicated).  Layers larger than BRUTE_CAP members
    are refused with a pointer to the genset search.
    """
    if not 1 <= t <= k <= n:
        raise DomainError(f"need 1 <= t <= k <= n, got t = {t}, k = {k}, n = {n}")
    if objective not in ("product", "sum"):
        raise UsageError(f"objective must be 'product' or 'sum', got {objective!r}")
    layer = comb(n, k)
    if layer > BRUTE_CAP:
        raise CapacityError(
            f"layer C({n},{k}) = {layer} exceeds the brute-force cap {BRUTE_CAP}; "
            "use genset_search_best_product for the product objective"
        )
    members = enumerate_k_subsets(n, k).members
    count = len(members)
    full = (1 << count) - 1
    compat = []
    for a in members:
        m = 0
        for idx, b in enumerate(members):
            if (a & b).bit_count() >= t:
                m |= 1 << idx
        compat.append(m)

    product = objective == "product"
    best = -1
    ties: set[tuple[int, int]] = set()
    nodes = 0

    # Each nonempty A is visited exactly once, right after its largest member
    # index is included; pruning uses |A| <= chosen + undecided and the fact
    # that the closure bitmask only shrinks.
    def scan(start: int, chosen: int, a_mask: int, cl_mask: int) -> None:
        nonlocal best, nodes
        for idx in range(start, count):
            new_cl = cl_mask & compat[idx]
            b_count = new_cl.bit_count()
            if b_count == 0:
                # Sum needs B nonempty; for the product the value is 0 and
                # can never beat the star pair.  Descendants only shrink B.
                continue
            nodes += 1
            new_chosen = chosen + 1
            new_a = a_mask | (1 << idx)
            value = new_chosen * b_count if product else new_chosen + b_count
            if value > best:
                best = value
                ties.clear()
            if value == best and len(ties) < _TIE_SOFT_CAP:
                ties.add((min(new_a, new_cl), max(new_a, new_cl)))
            remaining = count - idx - 1
            parent_count = cl_mask.bit_count()
            ceiling = (
                (new_chosen + remaining) * parent_count
                if product
                else new_chosen + remaining + parent_count
            )
            if ceiling < best:
                # remaining shrinks as idx grows while the parent closure is
                # fixed, so every later branch of this loop is dominated too.
                break
            bound = (
                (new_chosen + remaining) * b_count
                if product
                else new_chosen + remaining + b_count
            )
            if bound >= best:
                scan(idx + 1, new_chosen, new_a, new_cl)

    scan(0, 0, 0, full)
    if best < 0:  # pragma: no cover - a singleton always pairs with itself
        raise IntegrityError("no admissible pair found")

    witness_pairs = []
    for a_key, b_key in sorted(ties)[:MAX_WITNESSES]:
        fam_a = UniformFamily.from_masks(
            n, k, (members[i] for i in range(count) if a_key >> i & 1)
        )
        fam_b = UniformFamily.from_masks(
            n, k, (members[i] for i in range(count) if b_key >> i & 1)
        )
        witness_pairs.append((fam_a, fam_b))
    result = SearchResult(
        n=n,
        k=k,
        t=t,
        objective=objective,
        method="brute",
        value=best,
        witnesses=tuple(witness_pairs),
        stats={"members": count, "nodes": nodes, "ties": len(ties)},
    )
    validate_result(result)
    return result


# ---------------------------------------------------------------------------
# Genset search


def _bitmap_indices(bitmap: int) -> list[int]:
    """Indices of the set bits of a bitmap, ascending."""
    out = []
    while bitmap:
        low = bitmap & -bitmap
        out.append(low.bit_length() - 1)
        bitmap ^= low
    return out


def _bitmap_minimal_elements(bitmap: int) -> list[int]:
    """Minimal sets (as masks) of an up-closed subset of 2^[s]."""
    return [
        x
        for x in _bitmap_indices(bitmap)
        if not any(bitmap >> (x ^ 1 << p) & 1 for p in _bitmap_indices(x))
    ]


def _trivial_full_pair(n: int, k: int, t: int) -> SearchResult:
    size = comb(n, k)
    witnesses: tuple = ()
    if n <= WORD_CAP and size <= 600:
        layer = enumerate_k_subsets(n, k)
        witnesses = ((layer, layer),)
    result = SearchResult(
        n=n,
        k=k,
        t=t,
        objective="product",
        method="genset-trivial",
        value=size * size,
        witnesses=witnesses,
        stats={"trivial": 1},
    )
    validate_result(result)
    return result


def genset_search_best_product(n: int, k: int, t: int) -> SearchResult:
    """Exact product maximum over pairs generated by antichains on [s].

    For n > 2k-t the search is complete: the generating sets live on the
    window [s] with s = 2k-t, the bound forced on maximal left-compressed
    pairs by the trace-pairing lemma (paired generator slices have sizes i
    and s+t-i, both at most k).  Every generator has size between
    max(t, k-(n-s)) and k: a k-set meets [s] in at least k-(n-s) points, so
    a smaller generator gives the family its supersets of that size give.
    For a fixed A side the optimal partner is generated by all compatible
    candidates, so only one side is enumerated.  For n <= 2k-t any two
    k-sets meet in >= t points and the doubled full layer is returned
    directly.

    Only shifted A sides are enumerated, which is exact.  A family generated
    on [s] is {X : X cap [s] in T} for an up-set T of 2^[s]; a shift d_ij
    with i < j <= s acts on T alone and one with j > s fixes the family, so
    joint left compression keeps both sides generated on [s], both sizes
    and cross-t-intersection: some optimal pair is shifted, and the
    trace-pairing bound s <= 2k-t applies to it.  T is shifted exactly when
    it is an up-set in the order "inclusion plus left shift"
    (``shift_upset_bitmaps``), so the scan runs over the antichains of that
    order.  The t-closure of a shifted A is shifted (for Y' = Y - j + i, i < j, and
    X in A with j in X, i not in X: |Y' cap X| = |Y cap (X - j + i)| >= t),
    so the partner is generated by the candidates meeting the whole shift
    up-set of every chosen generator.  That compatibility is symmetric (both
    directions say the two shift up-sets cross-t-intersect), so the
    ceilings below carry over, and every visited pair is already jointly
    left-compressed.

    ``stats`` counts nodes, ties, incumbent improvements and the cuts of
    each prune rule.  Exceeding GENSET_NODE_CAP nodes raises a capacity
    error whose ``partial_best`` carries the best result found so far.
    """
    if not 1 <= t <= k <= n:
        raise DomainError(f"need 1 <= t <= k <= n, got t = {t}, k = {k}, n = {n}")
    if n <= 2 * k - t:
        return _trivial_full_pair(n, k, t)
    s = 2 * k - t
    if s > GENSET_GROUND_CAP:
        raise CapacityError(
            f"window [s] with s = {s} exceeds the ground cap {GENSET_GROUND_CAP}"
        )

    cands: list[int] = []
    for size in range(max(t, k - (n - s)), k + 1):
        cands.extend(enumerate_k_subsets(s, size).members)
    cands.sort(key=lambda m: (m.bit_count(), m))
    m_count = len(cands)
    if m_count > GENSET_CANDIDATE_CAP:
        raise CapacityError(
            f"{m_count} candidate generators exceed the cap {GENSET_CANDIDATE_CAP}"
        )

    up = shift_upset_bitmaps(cands, s)
    buckets = layer_bitmaps(s)
    weights = [comb(n - s, k - j) if 0 <= k - j <= n - s else 0 for j in range(s + 1)]
    active = [(buckets[j], weights[j]) for j in range(s + 1) if weights[j]]

    def fam_size(bitmap: int) -> int:
        return sum(w * (bitmap & bucket).bit_count() for bucket, w in active)

    def union_up(mask: int) -> int:
        bitmap = 0
        for i in _bitmap_indices(mask):
            bitmap |= up[i]
        return bitmap

    # above[i]: the candidates in the shift up-set of cands[i], itself
    # included; below[i]: those whose up-set holds cands[i].  compat[i]: the
    # candidates meeting all of above[i] in >= t points.
    index_of = {c: i for i, c in enumerate(cands)}
    cand_bitmap = sum(1 << c for c in cands)
    above = [sum(1 << index_of[x] for x in _bitmap_indices(u & cand_bitmap)) for u in up]
    meets = [
        sum(1 << j for j, b in enumerate(cands) if (a & b).bit_count() >= t) for a in cands
    ]
    full_compat = (1 << m_count) - 1
    compat = []
    for row in above:
        cm = full_compat
        for j in _bitmap_indices(row):
            cm &= meets[j]
        compat.append(cm)
    below = [sum(1 << j for j, row in enumerate(above) if row >> i & 1) for i in range(m_count)]
    incomp = [full_compat & ~(a | b) for a, b in zip(above, below)]

    suffix_up = [0] * (m_count + 1)
    for i in range(m_count - 1, -1, -1):
        suffix_up[i] = suffix_up[i + 1] | up[i]

    # Any completed pair has a nonempty B side, and picking one generator g
    # of B confines the whole A side to the upsets of candidates compatible
    # with g.  The per-generator family ceiling turns that into a sharp
    # product bound deep in the tree, where the partner is pinned down.
    solo_cap = [fam_size(union_up(row)) for row in compat]

    ties: set[tuple[int, int]] = set()
    counts = dict.fromkeys(
        ("nodes", "improvements", "prune_level", "prune_solo", "prune_suffix"), 0
    )

    # Seed the incumbent with every twin r-window pair whose generating
    # antichain (the middle layer of a (t+2r)-window) fits inside [s].  Twin
    # window families are shifted and cross-t-intersecting, so each seed
    # value is realized by an antichain the scan will visit: seeding prunes
    # strictly dominated branches early without hiding any optimal pair.
    best = max(
        frankl_size(FranklParams(n=n, k=k, t=t, r=r)) ** 2
        for r in range((s - t) // 2 + 1)
        if t + r <= k
    )

    def current_result(capped: bool) -> SearchResult:
        band = sum(bucket for bucket, _ in active)  # trace sizes of k-sets
        witnesses = _materialize_genset_ties(n, k, s, band, sorted(ties)[:MAX_WITNESSES])
        return SearchResult(
            n=n,
            k=k,
            t=t,
            objective="product",
            method="genset",
            value=best,
            witnesses=witnesses,
            stats={
                "window": s,
                "candidates": m_count,
                **counts,
                "ties": len(ties),
                "capped": int(capped),
            },
        )

    def scan(start: int, avail: int, a_bitmap: int, cmask: int, b_cap: int) -> None:
        nonlocal best
        idx_mask = avail >> start << start
        # Every pair finished inside this subtree keeps A within the chosen
        # upsets plus the upsets still available here, and keeps B within the
        # current partner: prune the whole level on that coupled ceiling.
        if fam_size(a_bitmap | union_up(idx_mask)) * b_cap < best:
            counts["prune_level"] += 1
            return
        for idx in _bitmap_indices(idx_mask):
            new_cmask = cmask & compat[idx]
            if new_cmask == 0:
                continue
            counts["nodes"] += 1
            if counts["nodes"] > GENSET_NODE_CAP:
                raise CapacityError(
                    f"antichain node cap {GENSET_NODE_CAP} exceeded at (n,k,t) = "
                    f"({n},{k},{t}), s = {s}; "
                    + ", ".join(f"{name} {value}" for name, value in counts.items()),
                    partial_best=current_result(capped=True),
                )
            new_a = a_bitmap | up[idx]
            b_bitmap = union_up(new_cmask)
            b_size = fam_size(b_bitmap)
            value = fam_size(new_a) * b_size
            if value > best:
                best = value
                ties.clear()
                counts["improvements"] += 1
            if value == best and len(ties) < _TIE_SOFT_CAP:
                ties.add((min(new_a, b_bitmap), max(new_a, b_bitmap)))
            if max(solo_cap[g] for g in _bitmap_indices(new_cmask)) * b_size < best:
                counts["prune_solo"] += 1
            elif fam_size(new_a | suffix_up[idx + 1]) * b_size < best:
                counts["prune_suffix"] += 1
            else:
                scan(idx + 1, avail & incomp[idx], new_a, new_cmask, b_size)

    scan(0, full_compat, 0, full_compat, fam_size(union_up(full_compat)))
    if not ties:  # pragma: no cover - every seed pair is visited by the scan
        raise IntegrityError("scan finished without visiting an optimal pair")
    result = current_result(capped=False)
    validate_result(result)
    return result


def _materialize_genset_ties(
    n: int,
    k: int,
    s: int,
    band: int,
    keys: Iterable[tuple[int, int]],
) -> tuple:
    """Canonical witness pairs from optimal trace-upset bitmaps.

    The pairs are jointly left-compressed already.  Each side's generators
    are what ``minimal_genset`` finds on its expansion: the minimal nonempty
    e with at most k elements that no trace in ``band`` (the sizes k-sets
    have) outside the bitmap contains.  These may be smaller than any
    candidate, so they are not always the bitmap's minimal sets.  Every
    candidate size lies in the band, so a union of candidate up-sets is
    fixed by its traces in the band: distinct antichains give distinct
    families, and distinct keys give distinct witness pairs.
    """
    sized = downset_closure_bitmap(band, s) & ~1  # nonempty, at most k elements

    def generators(bitmap: int) -> GenSet:
        safe = sized & ~downset_closure_bitmap(band & ~bitmap, s)
        return GenSet.from_masks(n, k, _bitmap_minimal_elements(safe))

    pairs = [sorted(map(generators, pair), key=lambda g: g.elements) for pair in keys]
    pairs.sort(key=lambda pair: (pair[0].elements, pair[1].elements))
    return tuple((a, b) for a, b in pairs)


# ---------------------------------------------------------------------------
# Small-scale confirmation of the product bound


class MainTheoremReport(NamedTuple):
    """Search-based confirmation of the product bound at one (n, k, t).

    ``bound_confirmed`` is None when n is below the threshold
    (t+1)(k-t+1) (the bound is not claimed there), otherwise the exact truth
    of value == C(n-t,k-t)^2.  ``structures`` names each optimal pair after
    joint left compression: "star" (twin star on [t]), "window" (twin
    (t+2)-window family), or "other".  ``all_star`` says whether every
    optimal pair is a star when n is above the threshold and the bound
    holds, and is None otherwise, or when the witness list is cut short of
    the ``ties`` in ``stats``.
    """

    n: int
    k: int
    t: int
    threshold: int
    star_value: int
    value: int
    methods: tuple[str, ...]
    witnesses: tuple
    structures: tuple[str, ...]
    bound_confirmed: bool | None
    all_star: bool | None
    shift_trials: int
    shift_ok: bool | None
    stats: Mapping[str, int]


def _classify_structure(genset: GenSet, t: int) -> str:
    star = ((1 << t) - 1,)
    if genset.elements == star:
        return "star"
    window = tuple(enumerate_k_subsets(t + 2, t + 1).members)
    if genset.elements == window:
        return "window"
    return "other"


def verify_main_theorem_small(
    n: int,
    k: int,
    t: int,
    *,
    shift_trials: int = 0,
    seed: int = 0,
) -> MainTheoremReport:
    """Confirm the product bound C(n-t,k-t)^2 by exhaustive search.

    Runs the genset search, cross-checks it against brute force whenever the
    layer fits under the brute cap, classifies the optimal structures, and
    optionally stress-tests witnesses with random simultaneous shifts (which
    must preserve cross-t-intersection and the product exactly).
    """
    if shift_trials < 0:
        raise UsageError(f"shift trials must be >= 0, got {shift_trials}")
    result = genset_search_best_product(n, k, t)
    methods = [result.method]
    stats = dict(result.stats)
    if comb(n, k) <= BRUTE_CAP:
        brute = brute_force_best(n, k, t, "product")
        methods.append(brute.method)
        stats["brute_nodes"] = brute.stats["nodes"]
        if brute.value != result.value:
            raise IntegrityError(
                f"search methods disagree: genset {result.value}, brute {brute.value}"
            )

    threshold = (t + 1) * (k - t + 1)
    star_value = comb(n - t, k - t) ** 2
    bound_confirmed: bool | None = None
    if n >= threshold:
        bound_confirmed = result.value == star_value

    structures = []
    for gen_a, gen_b in result.witnesses:
        if isinstance(gen_a, GenSet):
            pair = sorted((_classify_structure(gen_a, t), _classify_structure(gen_b, t)))
            structures.append(pair[0] if pair[0] == pair[1] else f"{pair[0]}+{pair[1]}")
        else:
            structures.append("full-layer")
    all_star: bool | None = None
    # a witness list cut short of the ties names too few pairs to claim all
    if n > threshold and bound_confirmed and stats["ties"] <= len(result.witnesses):
        all_star = all(s == "star" for s in structures)

    shift_ok: bool | None = None
    if shift_trials > 0:
        shift_ok = _shift_stress(result, shift_trials, seed)

    return MainTheoremReport(
        n=n,
        k=k,
        t=t,
        threshold=threshold,
        star_value=star_value,
        value=result.value,
        methods=tuple(methods),
        witnesses=result.witnesses,
        structures=tuple(structures),
        bound_confirmed=bound_confirmed,
        all_star=all_star,
        shift_trials=shift_trials,
        shift_ok=shift_ok,
        stats=stats,
    )


def _shift_stress(result: SearchResult, trials: int, seed: int) -> bool:
    """Random simultaneous shifts never change a witness pair's product."""
    n, k, t = result.n, result.k, result.t
    if not expandable(n, k) or not result.witnesses:
        raise CapacityError("shift trials need expandable witnesses")
    pairs = []
    for side_a, side_b in result.witnesses:
        if isinstance(side_a, GenSet):
            pairs.append((upset_k(side_a), upset_k(side_b)))
        else:
            pairs.append((side_a, side_b))
    rng = Random(seed)
    for _ in range(trials):
        fam_a, fam_b = pairs[rng.randrange(len(pairs))]
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        moved_a = shift_family(fam_a, i, j)
        moved_b = shift_family(fam_b, i, j)
        if not is_cross_t_intersecting(moved_a, moved_b, t):
            return False
        if len(moved_a) * len(moved_b) != result.value:
            return False
    return True
