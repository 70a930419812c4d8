"""Immutable records shared by the package.

The record schema of the inequality sweep (its check and value names, the
statuses and ``VerificationRecord``) lives here, so that the command line
can read and write record streams without importing the inequality engine.
``Frozen`` is the base of the validated value types (``UniformFamily``,
``GenSet``, ``FranklParams``, ``SectionParams``): plain ``__slots__``
classes, whose construction runs no generated code and builds nothing at
import.
"""

from __future__ import annotations

from typing import NamedTuple

#: Canonical check names of a record, in the order evaluate_point writes them.
CHECK_ORDER = (
    "thm32",
    "ratio_identity",
    "lemma_f",
    "lemma_g",
    "lemma_h",
    "lemma_phi",
    "equa1",
    "equac2",
    "st",
    "equac1",
    "equac3",
    "appendix",
)

#: The statuses a check can have.
STATUSES = ("holds", "excluded", "violated", "skipped")

#: Canonical value names of a record, in the order evaluate_point writes them.
VALUE_NAMES = (
    "S1",
    "S2",
    "T1",
    "T2",
    "lemma_f_slack",
    "lemma_g_slack",
    "lemma_h_slack",
    "lemma_phi_slack",
    "equa3",
)


class VerificationRecord(NamedTuple):
    """One grid point's statuses and exact values.  An immutable tuple, so
    building one sets no attribute one by one; assigning a field raises
    AttributeError.  values maps each of VALUE_NAMES to an exact int; the
    only text of a record is the line the sweep writes and reads back."""

    n: int
    k: int
    s: int
    i: int
    t: int
    t_num: int  # reduced key ratio numerator
    t_den: int
    checks: dict[str, str]
    values: dict[str, int]

    @property
    def point(self) -> tuple[int, int, int, int, int]:
        # canonical sweep order: (t, k, n, s, i)
        return (self.t, self.k, self.n, self.s, self.i)


class Frozen:
    """Base of the validated value types.

    A subclass names its fields in ``_fields`` and holds them in
    ``__slots__``; its ``__init__`` validates the arguments and sets them once
    through ``_init``.  Assigning or deleting an attribute afterwards raises
    AttributeError.  Equality and hash go by the fields, in order, and an
    object equals only objects of its own class; the repr names the class
    and each field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
