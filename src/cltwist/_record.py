"""The frozen base of the package's value types, ``SymbolicSign``,
``TwistTable``, ``Algebra`` and ``Multivector``.  (The package's
records are ``typing.NamedTuple`` classes, immutable as tuples.)

:class:`Frozen` raises ``AttributeError`` on setting or deleting any
attribute.  It declares no slots of its own, so a subclass with
``__slots__`` keeps no instance ``__dict__``.  A subclass builds its
value in ``__new__``, setting its fields with ``object.__setattr__``,
and defines no ``__init__``: a second ``value.__init__(...)`` call is
``object.__init__``, which changes nothing.

A frozen class whose values are a fixed few builds each of them once,
at import, with :func:`_shared`, and its constructor returns one of
them: two such values are equal exactly when they are the same object,
so the class needs no ``__eq__`` or ``__hash__`` of its own.
"""


class Frozen:
    """Immutable value; see the module docstring."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}"
        )

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot delete {name!r}"
        )


def _shared(cls, field: str, values) -> dict:
    """One instance of ``cls`` per value in ``values``, with its one
    field ``field`` set to that value, as a map from the value."""
    shared = {value: object.__new__(cls) for value in values}
    for value, self in shared.items():
        object.__setattr__(self, field, value)
    return shared

