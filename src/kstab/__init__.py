"""kstab: exact-arithmetic K-stability computations.

A library and CLI that replays volume integrals, Zariski chamber
decompositions, toric intersection numbers, flag functionals, GIT weights
and invariant-ring dimensions as a machine-checked regression suite of
exact rational values.
"""

__version__ = "0.1.0"


class KstabError(Exception):
    """Base class of every error the library raises on bad input or an
    unprovable claim; the CLI reports these as exit code 2."""


class _Record:
    """Base of the package's value records.  It stands in for the standard
    library's record decorator, whose import and per-class generated code
    were about a quarter of a cold start.

    A record's fields are its class annotations, in order; a class
    attribute of a field's name is its default, and a list or dict default
    is copied for each instance.  ``__init__`` takes the fields by position
    or by name, then calls ``__post_init__``, which a subclass may define.
    Equality and the ``Name(field=value, ...)`` repr go by the fields.  A
    record declared ``class R(_Record, frozen=True)`` refuses assignment
    with AttributeError and hashes by its fields; any other is unhashable.
    """

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields
                         if hasattr(cls, f)}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_assignment
            cls.__hash__ = lambda self: hash(self._values())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._match(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _match(self, args, kwargs) -> list:
        """The field values of a call with keywords or defaults."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for f, value in kwargs.items():
            if f not in fields or f in values:
                raise TypeError(f"{name} got an unknown or repeated "
                                f"field {f!r}")
            values[f] = value
        for f in fields:
            if f not in values:
                if f not in self._defaults:
                    raise TypeError(f"{name} is missing field {f!r}")
                value = self._defaults[f]
                values[f] = value.copy() if isinstance(
                    value, (list, dict)) else value
        return [values[f] for f in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


def _refuse_assignment(self, name, *value):
    raise AttributeError(
        f"cannot set or delete {name!r} of frozen {type(self).__name__}")
