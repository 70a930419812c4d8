"""Window families F(n,k,t,r), their exact sizes, and the r-threshold scale.

Closed-form sizes are cross-checked against explicit enumeration, and the
regime classifier is cross-checked against the enumerated argmax over r,
including the rational boundary values where two consecutive r tie.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from crossint.errors import OutOfScopeError, UsageError
from crossint.frankl import (
    FranklParams,
    ak_regime,
    ak_threshold,
    frankl_family,
    frankl_max,
    frankl_size,
    valid_r_range,
)
from crossint.families import bottom_mask


def test_params_validation() -> None:
    with pytest.raises(UsageError):
        FranklParams(n=5, k=6, t=2, r=0)
    with pytest.raises(UsageError):
        FranklParams(n=5, k=3, t=4, r=0)
    with pytest.raises(UsageError):
        FranklParams(n=5, k=3, t=2, r=-1)
    with pytest.raises(UsageError):
        FranklParams(n=5, k=3, t=2, r=2)  # window 6 > 5


def test_star_size() -> None:
    for n, k, t in [(9, 4, 3), (12, 5, 3), (18, 7, 4)]:
        assert frankl_size(FranklParams(n, k, t, 0)) == comb(n - t, k - t)


def test_size_vanishes_when_half_window_exceeds_k() -> None:
    assert frankl_size(FranklParams(8, 4, 3, 2)) == 0


def test_family_members_meet_window() -> None:
    p = FranklParams(n=9, k=4, t=2, r=1)
    fam = frankl_family(p)
    window = bottom_mask(p.window)
    assert all((m & window).bit_count() >= p.t + p.r for m in fam)
    assert len(fam) == frankl_size(p)


def test_size_matches_enumeration_grid() -> None:
    for n in range(2, 11):
        for k in range(1, min(n, 5) + 1):
            for t in range(1, k + 1):
                for r in valid_r_range(n, k, t):
                    p = FranklParams(n, k, t, r)
                    assert frankl_size(p) == len(frankl_family(p)), p


def test_frankl_max_small_values() -> None:
    fm = frankl_max(9, 4, 3)
    assert fm.best_r == (0,) and fm.size == 6
    fm = frankl_max(7, 4, 3)
    assert fm.best_r == (1,) and fm.size == 5
    fm = frankl_max(8, 4, 3)
    assert fm.best_r == (0, 1) and fm.size == 5


def test_ak_threshold_values() -> None:
    assert ak_threshold(4, 3, 0) == 8
    assert ak_threshold(4, 3, 1) == 6
    assert ak_threshold(5, 4, 1) == Fraction(7)
    assert ak_threshold(6, 3, 1) == 12


def test_ak_regime_examples() -> None:
    reg = ak_regime(9, 4, 3)
    assert (reg.kind, reg.r, reg.tied) == ("strict", 0, (0,))
    reg = ak_regime(8, 4, 3)
    assert (reg.kind, reg.tied) == ("boundary", (0, 1))
    assert (reg.threshold_num, reg.threshold_den) == (8, 1)
    reg = ak_regime(7, 4, 3)
    assert (reg.kind, reg.r) == ("strict", 1)


def test_ak_regime_boundary_without_room_for_partner_window() -> None:
    # n sits on the r = 1 threshold but the r = 2 window would not fit
    reg = ak_regime(6, 4, 3)
    assert (reg.kind, reg.r, reg.tied) == ("strict", 1, (1,))
    assert (reg.threshold_num, reg.threshold_den) == (6, 1)


def test_ak_regime_out_of_scope_below_nontrivial_range() -> None:
    with pytest.raises(OutOfScopeError):
        ak_regime(5, 3, 1)
    with pytest.raises(UsageError):
        ak_regime(3, 4, 2)


def test_regime_agrees_with_enumerated_argmax() -> None:
    """On every point of a word-scale grid the classifier's r is among the
    enumerated maximizers, boundary ties really tie, and strict points with
    t >= 2 have a unique maximizer."""
    for n in range(1, 15):
        for k in range(1, min(n, 6) + 1):
            for t in range(1, k + 1):
                if n < 2 * k - t + 1:
                    continue
                reg = ak_regime(n, k, t)
                fm = frankl_max(n, k, t)
                assert reg.r in fm.best_r, (n, k, t)
                if reg.kind == "boundary":
                    assert set(reg.tied) <= set(fm.best_r), (n, k, t)
                    sizes = {
                        frankl_size(FranklParams(n, k, t, r)) for r in reg.tied
                    }
                    assert len(sizes) == 1
                if reg.kind == "strict" and t >= 2:
                    assert fm.best_r == (reg.r,), (n, k, t)


def test_boundary_tie_sizes_match_star_square_bound() -> None:
    # on the main threshold n = (t+1)(k-t+1) with r = 0, star and first window tie
    for t in range(3, 6):
        for k in range(t + 1, t + 4):
            n = (t + 1) * (k - t + 1)
            assert ak_threshold(k, t, 0) == n
            s0 = frankl_size(FranklParams(n, k, t, 0))
            s1 = frankl_size(FranklParams(n, k, t, 1))
            assert s0 == s1 == comb(n - t, k - t)
