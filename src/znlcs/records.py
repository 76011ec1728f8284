"""Immutable records declared by their class annotations.

A subclass of ``Record`` lists its fields as annotations, with optional
defaults::

    class Point(Record):
        x: int
        y: int = 0

and gets positional and keyword construction (``Point(1)``,
``Point(x=1, y=2)``), field-wise ``==`` and ``hash``, a ``repr`` naming
every field, and ``AttributeError`` on assignment or deletion. A
``__post_init__`` method runs after the fields are set, to validate or
normalise them (with ``object.__setattr__``).

The field names and defaults are read once, when the class is created, and
no code is generated for it, so defining a record costs no compilation.
Only a class's own annotations are its fields: a record class is not meant
to be subclassed.
"""


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The class's own annotations, in order (not a base class's).
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but "
                            f"{len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(
                    f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(
                    f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        state = self.__dict__
        for key in fields:
            if key in values:
                state[key] = values[key]
            elif key in self._defaults:
                state[key] = self._defaults[key]
            else:
                raise TypeError(
                    f"{name}() missing required argument: {key!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{key}={getattr(self, key)!r}"
                         for key in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r}")
