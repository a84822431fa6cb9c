"""Bases for the package's immutable records.

A checked record is a ``NamedTuple`` subclass that lists ``_Checked``
first and defines ``_check``: every way of building it (the constructor,
``_make`` and ``_replace``) runs that check. An array holder is a
``__slots__`` class on ``_Frozen``: its ``__init__`` sets each field once,
and no field can be rebound or deleted afterwards.
"""


class _Checked:
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):  # what _replace builds through: check it too
        return cls(*iterable)


class _Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in type(self).__slots__
            if not name.startswith("_")
        )
        return f"{type(self).__name__}({fields})"
