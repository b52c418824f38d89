"""Base classes of the package's immutable values.

:class:`Frozen` raises ``AttributeError`` on setting or deleting any
attribute.  It declares no slots of its own, so a subclass with
``__slots__`` keeps no instance ``__dict__``.  A subclass builds its
value in ``__new__``, setting its fields with ``object.__setattr__``,
and defines no ``__init__``: a second ``value.__init__(...)`` call is
``object.__init__``, which changes nothing.

:class:`Record` is a frozen base for small records.  A subclass
declares its fields as annotations, in order, with any default as a
class attribute, as for a frozen dataclass, and gets what a frozen
dataclass gives: a constructor (positional and keyword, in
``__new__``), a ``repr`` naming every field, ``==`` field by field
against the same class only, a hash of the field tuple,
``__match_args__``, and the ``Frozen`` guard.  Copy, deepcopy and
pickle call the constructor with the field values.
The stdlib ``dataclasses`` module is not used because importing it
loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, which took about
half the time of ``import cltwist``.
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


class Record(Frozen):
    """Frozen record; see the module docstring."""

    __match_args__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        fields = cls.__match_args__ + own
        # the body of a generated dataclass __init__, in __new__
        params = ", ".join(
            f"{name}=_cls.{name}" if hasattr(cls, name) else name
            for name in fields
        )
        body = "".join(f"\n _set(self, {name!r}, {name})" for name in fields)
        namespace = {"_cls": cls, "_new": object.__new__,
                     "_set": object.__setattr__}
        exec(f"def __new__(cls, {params}):\n self = _new(cls){body}"
             "\n return self", namespace)
        new = namespace["__new__"]
        new.__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__ = staticmethod(new)
        cls.__match_args__ = fields

    def __reduce__(self):
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        args = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__match_args__, self._values())
        )
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
