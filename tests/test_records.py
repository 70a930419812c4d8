"""The package's immutable types without dataclasses.

The validated value types (``UniformFamily``, ``GenSet``, ``FranklParams``,
``SectionParams``) are ``__slots__`` classes on ``records.Frozen``: equal
by fields and only to their own class, hashable, read-only, with the repr a
dataclass would give.  The pure records are ``NamedTuple``s whose positional
fields keep the order the dataclasses had.
"""

from __future__ import annotations

from collections import namedtuple
from typing import get_type_hints

import pytest

from crossint.constructions import ComparisonRow, ConstructionCheck, Section4Report
from crossint.families import UniformFamily
from crossint.frankl import AKRegime, FranklMax, FranklParams
from crossint.gensets import GenSet, PerturbResult
from crossint.records import CHECK_ORDER, VALUE_NAMES, Checks, Values, VerificationRecord
from crossint.reference import (
    AppendixResult,
    CoreQuantities,
    KeyIneqResult,
    LemmaResult,
    SectionParams,
)
from crossint.search import MainTheoremReport, SearchResult

#: (class, field values, other field values, repr of the first).
_VALUE_TYPES = [
    (
        UniformFamily,
        (5, 2, (3, 5, 6)),
        (5, 2, (3, 5, 12)),
        "UniformFamily(n=5, k=2, members=(3, 5, 6))",
    ),
    (
        GenSet,
        (6, 3, (3, 5)),
        (6, 3, (3, 6)),
        "GenSet(n=6, k=3, elements=(3, 5))",
    ),
    (FranklParams, (8, 4, 3, 1), (8, 4, 3, 2), "FranklParams(n=8, k=4, t=3, r=1)"),
    (
        SectionParams,
        (18, 7, 8, 6, 5),
        (19, 7, 8, 6, 5),
        "SectionParams(n=18, k=7, s=8, i=6, t=5)",
    ),
]
_VALUE_IDS = [cls.__name__ for cls, *_ in _VALUE_TYPES]


@pytest.mark.parametrize("cls, fields, other, text", _VALUE_TYPES, ids=_VALUE_IDS)
def test_value_types_are_equal_by_fields_and_class(cls, fields, other, text) -> None:
    value, same = cls(*fields), cls(*fields)
    assert value is not same
    assert value == same and not value != same
    assert value != cls(*other)
    assert value != fields
    assert fields != value
    assert value != namedtuple(cls.__name__, cls._fields)(*fields)
    subclass = type("Sub" + cls.__name__, (cls,), {"__slots__": ()})
    assert value != subclass(*fields)
    assert tuple(getattr(value, name) for name in cls._fields) == fields


@pytest.mark.parametrize("cls, fields, other, text", _VALUE_TYPES, ids=_VALUE_IDS)
def test_value_types_hash_by_fields(cls, fields, other, text) -> None:
    value, same, different = cls(*fields), cls(*fields), cls(*other)
    assert hash(value) == hash(same) == hash(fields)
    assert {value, same, different} == {same, different}
    assert len({value, same, different}) == 2
    assert {value: 1}[same] == 1


@pytest.mark.parametrize("cls, fields, other, text", _VALUE_TYPES, ids=_VALUE_IDS)
def test_value_types_are_read_only(cls, fields, other, text) -> None:
    value = cls(*fields)
    for name, replacement in zip(cls._fields, other):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, replacement)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*fields)


@pytest.mark.parametrize("cls, fields, other, text", _VALUE_TYPES, ids=_VALUE_IDS)
def test_value_types_repr_names_class_and_fields(cls, fields, other, text) -> None:
    assert repr(cls(*fields)) == str(cls(*fields)) == text


def test_member_set_is_built_once_and_kept() -> None:
    family = UniformFamily(5, 2, (3, 5, 6))
    assert family.member_set == frozenset({3, 5, 6})
    assert family.member_set is family.member_set
    assert 5 in family and 9 not in family
    # the cache is no field: it changes neither equality nor the repr
    assert family == UniformFamily(5, 2, (3, 5, 6))
    assert repr(family) == "UniformFamily(n=5, k=2, members=(3, 5, 6))"


#: Each record type with its fields in the order the dataclass had them.
_RECORDS = [
    (FranklMax, ("n", "k", "t", "best_r", "size")),
    (
        AKRegime,
        ("n", "k", "t", "kind", "r", "tied", "threshold_num", "threshold_den"),
    ),
    (PerturbResult, ("families", "deltas", "s")),
    (
        SearchResult,
        ("n", "k", "t", "objective", "method", "value", "witnesses", "stats"),
    ),
    (
        MainTheoremReport,
        (
            "n", "k", "t", "threshold", "star_value", "value", "methods",
            "witnesses", "structures", "bound_confirmed", "all_star",
            "shift_trials", "shift_ok", "stats",
        ),
    ),
    (
        ComparisonRow,
        ("label", "relation", "lhs", "rhs", "guard", "guard_met", "holds"),
    ),
    (
        ConstructionCheck,
        ("name", "params", "skipped", "skip_reason", "sizes", "rows", "expanded"),
    ),
    (Section4Report, ("n", "k", "t", "checks")),
    (CoreQuantities, ("s1", "s2", "t1", "t2")),
    (KeyIneqResult, ("status", "num", "den")),
    (LemmaResult, ("name", "slack", "status")),
    (AppendixResult, ("params", "num", "den", "status")),
    (
        Checks,
        (
            "thm32", "ratio_identity", "lemma_f", "lemma_g", "lemma_h", "lemma_phi",
            "equa1", "equac2", "st", "equac1", "equac3", "appendix",
        ),
    ),
    (
        Values,
        (
            "S1", "S2", "T1", "T2", "lemma_f_slack", "lemma_g_slack",
            "lemma_h_slack", "lemma_phi_slack", "equa3",
        ),
    ),
]


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_keep_their_positional_field_order(cls, fields) -> None:
    values = tuple(object() for _ in fields)
    record = cls(*values)
    assert cls._fields == fields
    assert tuple(getattr(record, name) for name in fields) == values
    assert record == cls(**dict(zip(fields, values)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def test_record_schema_is_declared_once() -> None:
    # the names of a record's checks and values are the fields of its tuples
    assert CHECK_ORDER is Checks._fields
    assert VALUE_NAMES is Values._fields
    hints = get_type_hints(VerificationRecord)
    assert (hints["checks"], hints["values"]) == (Checks, Values)


def test_search_results_share_no_default_stats() -> None:
    # every construction passes its own stats; there is no default to share
    with pytest.raises(TypeError, match="stats"):
        SearchResult(6, 2, 1, "product", "brute", 1, ())
