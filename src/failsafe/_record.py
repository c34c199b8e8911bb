"""``record``: what ``dataclass(frozen=True)`` makes of a value class, built
from its annotations as closures, so nothing is compiled and neither the
dataclass module nor ``inspect`` loads.  ``__match_args__`` names the fields;
instances keep a ``__dict__``, for ``cached_property`` and ``object.__setattr__``."""


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    keywords = [frozenset(names[i:]) for i in range(len(names) + 1)]  # after i positional
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        fields = self.__dict__
        fields.update(defaults)
        fields.update(zip(names, args), **kwargs)
        if len(args) > len(names) or not kwargs.keys() <= keywords[len(args)] \
                or len(fields) < len(names):
            raise TypeError(f"{cls.__name__} takes {names}; got {args} and {kwargs}")
        post_init(self)

    def values(self):
        return tuple([getattr(self, n) for n in names])

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in names])})"

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is cls else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__):
        setattr(cls, method.__name__, method)
    cls.__delattr__ = __setattr__
    cls.__match_args__ = names
    return cls
