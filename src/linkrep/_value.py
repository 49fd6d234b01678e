"""Immutable value classes, written out rather than generated.

A value class names its constructor fields in `__match_args__` and stores
them in its own `__init__` through the setters of its slots, which pass the
immutability guard.  `Value` gives it the rest from that field tuple: `==`
(equal field tuples, NotImplemented against another class), `hash` (of the
field tuple), `repr` (`Name(field=value!r, ...)`) and pickling and copying
(rebuilt through the constructor).
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    __match_args__: tuple = ()

    def __init_subclass__(cls):
        # postponed evaluation makes `-> None` the string 'None'; the
        # signature shows None itself, as a generated __init__'s did
        cls.__init__.__annotations__["return"] = None
        # the field values of an instance, read in one call: a tuple for
        # two fields or more, the value itself for one
        cls._key = staticmethod(attrgetter(*cls.__match_args__))

    def __setattr__(self, *_):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def _astuple(self) -> tuple:
        key = self._key(self)
        return key if len(self.__match_args__) > 1 else (key,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._astuple())


def slot_setters(cls) -> list:
    """The setters of cls's own slots, in `__slots__` order."""
    return [vars(cls)[name].__set__ for name in cls.__slots__ if name != "__dict__"]
