"""Immutable records shared by the package.

The record schema of the inequality sweep lives here, so that the command
line can read and write record streams without importing the inequality
engine.  A ``VerificationRecord`` is immutable all the way down: its
statuses and exact values are the named tuples ``Checks`` and ``Values``,
whose fields are the schema, declared once.  ``Frozen`` is the base of the
validated value types (``UniformFamily``, ``GenSet``, ``FranklParams``,
``SectionParams``): plain ``__slots__`` classes, whose construction runs no
generated code and builds nothing at import.
"""

# No postponed annotations here: NamedTuple would compile each field's
# annotation string into a ForwardRef at import, about 0.7 ms for this module.
from typing import NamedTuple


class Checks(NamedTuple):
    """The status of each check at a grid point, one of STATUSES."""

    thm32: str
    ratio_identity: str
    lemma_f: str
    lemma_g: str
    lemma_h: str
    lemma_phi: str
    equa1: str
    equac2: str
    st: str
    equac1: str
    equac3: str
    appendix: str


class Values(NamedTuple):
    """A grid point's core quantities, lemma slacks and chain gate (0 or 1)."""

    S1: int
    S2: int
    T1: int
    T2: int
    lemma_f_slack: int
    lemma_g_slack: int
    lemma_h_slack: int
    lemma_phi_slack: int
    equa3: int


#: The check and value names of a record: the fields of its two tuples.
CHECK_ORDER, VALUE_NAMES = Checks._fields, Values._fields

#: The statuses a check can have.
STATUSES = ("holds", "excluded", "violated", "skipped")


class VerificationRecord(NamedTuple):
    """One grid point's statuses and exact values.  An immutable tuple of
    immutable tuples, so building one sets no attribute one by one and
    assigning a field, at any depth, raises AttributeError; the only text of
    a record is the line the sweep writes and reads back."""

    n: int
    k: int
    s: int
    i: int
    t: int
    t_num: int  # reduced key ratio numerator
    t_den: int
    checks: Checks
    values: Values

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
