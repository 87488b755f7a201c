"""Immutable value classes, built without the dataclasses module.

The package's records (descriptors, fields, count results, tables) are
small immutable values.  The dataclasses module would do, but importing it
pulls in inspect, ast and dis, and each decorated class is built by exec;
every command would pay that at start-up.  Frozen gives the same behaviour
from one plain base class.
"""

from operator import attrgetter


class Frozen:
    """Base of an immutable record.

    The annotations of a subclass are its fields, in order; a class
    attribute of the same name is the field's default.  An instance takes
    its fields by position or keyword, runs the class's __post_init__ (if
    any) to validate them, equals and hashes by class and field values,
    shows as Name(field=value, ...) and refuses assignment and deletion
    with AttributeError, as a frozen dataclass does.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__annotations__)
        defaults = [cls.__dict__[name] for name in fields if name in cls.__dict__]
        required = cls._required = len(fields) - len(defaults)
        if any(name in cls.__dict__ for name in fields[:required]):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        cls._defaults = tuple(defaults)  # of the last fields
        cls._has_post_init = hasattr(cls, "__post_init__")
        # the field values as a tuple, read by attribute in C
        get = attrgetter(*fields)
        cls._values = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))

    def __init__(self, *args, **kwargs):
        fields, required, given = self._fields, self._required, len(args)
        if kwargs or not required <= given <= len(fields):
            args = self._bind(args, kwargs)
        elif given < len(fields):
            args += self._defaults[given - required :]
        self.__dict__.update(zip(fields, args))
        if self._has_post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values, in field order, from positions, keywords and
        defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields but "
                            f"{len(args)} were given")
        values = dict(zip(fields[cls._required :], cls._defaults))
        values.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected field {name!r}")
            if name in fields[: len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for field {name!r}")
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing fields: {', '.join(missing)}")
        return [values[name] for name in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        cells = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({cells})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
