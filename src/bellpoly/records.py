"""Frozen record classes, built without code generation.

`record` makes a class a frozen record. Its fields are its own annotations,
in order, and a class attribute gives a field its default. It installs
methods that every record shares, where `dataclasses` compiles source per
class: `__init__`, which calls `__post_init__` when the class has one;
`__repr__` in the dataclass format; `__eq__` and `__hash__` over the
compared fields, for two records of one class; `<`, `<=`, `>` and `>=` with
`order=True`; and `__setattr__` and `__delattr__`, which raise
AttributeError. A class keeps any of these it defines itself, and both
`__eq__` and `__hash__` when it defines `__eq__`. Instances keep a
`__dict__`, so `functools.cached_property` works on them.
"""

import operator


class field:
    """A field's options, given as its class attribute: init=False leaves it
    out of `__init__` (the class's own constructor sets it), compare=False
    out of equality, hash and order, and repr=False out of the repr."""

    def __init__(self, *, init=True, compare=True, repr=True):
        self.init, self.compare, self.repr = init, compare, repr


def record(cls=None, *, order=False):
    """Make cls a frozen record; used as @record or @record(order=True)."""
    if cls is None:
        return lambda cls: record(cls, order=order)
    specs = {}
    for name in cls.__annotations__:
        specs[name] = vars(cls).get(name)
        if isinstance(specs[name], field):
            delattr(cls, name)  # a field's options, not its default
        else:
            specs[name] = _PLAIN
    cls._record_init = tuple(name for name, spec in specs.items() if spec.init)
    cls._record_defaults = {name: vars(cls)[name] for name in cls._record_init
                            if name in vars(cls)}
    cls._record_repr = tuple(name for name, spec in specs.items() if spec.repr)
    cls._record_key = operator.attrgetter(*(name for name, spec in specs.items()
                                            if spec.compare))
    cls._record_post_init = getattr(cls, "__post_init__", None)
    methods = {"__init__": _init, "__repr__": _repr,
               "__setattr__": _setattr, "__delattr__": _delattr}
    if "__eq__" not in vars(cls):
        methods.update(__eq__=_COMPARISONS["eq"], __hash__=_hash)
    if order:
        methods.update((f"__{op}__", _COMPARISONS[op]) for op in ("lt", "le", "gt", "ge"))
    for name, method in methods.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed, built by its
    class's constructor, so `__post_init__` checks it again (as
    `dataclasses.replace`)."""
    return type(obj)(**{name: getattr(obj, name) for name in obj._record_init} | changes)


_PLAIN = field()
_set = object.__setattr__


def _init(self, *args, **kwargs):
    # the fields go in as one dict, the instance's __dict__, not one
    # attribute at a time
    cls = type(self)
    names = cls._record_init
    if kwargs or len(args) != len(names):
        kwargs = _bind(cls, args, kwargs)
    else:
        kwargs.update(zip(names, args))
    _set(self, "__dict__", kwargs)
    post_init = cls._record_post_init
    if post_init is not None:
        post_init(self)


def _bind(cls, args, kwargs) -> dict:
    """Every init field's value, from the arguments and the defaults; a
    TypeError for the arguments a generated __init__ refuses."""
    names = cls._record_init
    state = {**cls._record_defaults, **kwargs}
    state.update(zip(names, args))
    if len(args) > len(names) or len(state) != len(names) \
            or kwargs and not kwargs.keys() <= set(names[len(args):]):
        raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}; got "
                        f"{len(args)} positional and the keywords {sorted(kwargs)}")
    return state


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_repr)
    return f"{type(self).__qualname__}({fields})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _hash(self):
    return hash(self._record_key(self))


def _comparison(op):
    def compare(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return op(self._record_key(self), self._record_key(other))
    return compare


_COMPARISONS = {op: _comparison(getattr(operator, op)) for op in ("eq", "lt", "le", "gt", "ge")}
