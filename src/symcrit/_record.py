"""The package's records: slotted, frozen dataclasses whose methods are
written once, here.

`@dataclass(frozen=True, slots=True)` compiles an `__init__`, `__repr__`,
`__eq__`, `__hash__`, `__setattr__` and `__delattr__` for each class it
decorates, from generated source text that bytecode does not cache.
`record` asks dataclass for fields and slots only and gives the class the
shared methods below instead.  Each reads what it needs of its class from
a few class attributes that `record` sets once:

- `_record_init`: the (name, slot setter, default) of each init field, in
  order, and the class's `__post_init__` or None;
- `_record_repr` and `_record_compare`: the names of the fields that
  `__repr__`, and `__eq__` and `__hash__`, read.

`__init__` stores each field through its slot descriptor's `__set__`, as
a frozen dataclass stores it through `object.__setattr__`, then calls
`__post_init__`.  Pickle and copy rebuild a record through its
constructor, so `__post_init__` checks and freezes its values again.  A
method the class writes itself stays.  Fields take plain defaults only:
`__init__` knows no default_factory, keyword-only field or non-init
default, and `__hash__` reads the compare fields, whatever a field's own
hash flag says.
"""

import dataclasses
import inspect

__all__ = ["record"]

_MISSING = dataclasses.MISSING


def _init(self, *args, **kwargs):
    fields, post_init = self._record_init
    if len(args) > len(fields):
        raise TypeError("%s() takes %d positional arguments but %d were given"
                        % (_where(self), len(fields) + 1, len(args) + 1))
    for (_, set_field, _), value in zip(fields, args):
        set_field(self, value)
    if kwargs or len(args) < len(fields):
        for name, set_field, default in fields[len(args):]:
            value = kwargs.pop(name, default)
            if value is _MISSING:
                raise TypeError("%s() missing required argument %r" % (_where(self), name))
            set_field(self, value)
        for name in kwargs:
            how = "multiple values for argument" if name in self.__match_args__ else "an unexpected keyword argument"
            raise TypeError("%s() got %s %r" % (_where(self), how, name))
    if post_init is not None:
        post_init(self)


def _where(self):
    return type(self).__qualname__ + ".__init__"


def _values(self, names):
    return tuple([getattr(self, name) for name in names])


def _repr(self):
    cls = type(self)
    return "%s(%s)" % (
        cls.__qualname__, ", ".join(["%s=%r" % (name, getattr(self, name)) for name in cls._record_repr])
    )


def _eq(self, other):
    if other.__class__ is self.__class__:
        names = self._record_compare
        return _values(self, names) == _values(other, names)
    return NotImplemented


def _hash(self):
    return hash(_values(self, self._record_compare))


def _setattr(self, name, value):
    raise dataclasses.FrozenInstanceError("cannot assign to field %r" % (name,))


def _delattr(self, name):
    raise dataclasses.FrozenInstanceError("cannot delete field %r" % (name,))


def _reduce(self):
    return type(self), tuple([getattr(self, name) for name, _, _ in self._record_init[0]])


class _Signature:
    """A record's `__signature__`: its constructor's, read from its fields
    when asked for, so that `inspect.signature` and `help()` list them."""

    def __get__(self, record, cls):
        return inspect.Signature(
            [
                inspect.Parameter(
                    f.name,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    default=inspect.Parameter.empty if f.default is _MISSING else f.default,
                    annotation=f.type,
                )
                for f in dataclasses.fields(cls)
                if f.init
            ],
            return_annotation=None,
        )


_SIGNATURE = _Signature()
_SHARED = {
    "__init__": _init,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
    "__reduce__": _reduce,
}
_COMPARED = {"__eq__": _eq, "__hash__": _hash}


def record(cls=None, /, *, eq=True):
    """Make cls a slotted, frozen dataclass with the shared methods.

    eq=False keeps identity comparison and hashing, as for
    `dataclass(eq=False)`.
    """

    def wrap(cls):
        own = set(vars(cls))
        cls = dataclasses.dataclass(cls, slots=True, init=False, repr=False, eq=False)
        fields = dataclasses.fields(cls)
        cls._record_init = (
            tuple((f.name, vars(cls)[f.name].__set__, f.default) for f in fields if f.init),
            getattr(cls, "__post_init__", None),
        )
        cls._record_repr = tuple(f.name for f in fields if f.repr)
        cls._record_compare = tuple(f.name for f in fields if f.compare)
        shared = dict(_SHARED, **_COMPARED) if eq else _SHARED
        for name, method in shared.items():
            if name not in own:
                setattr(cls, name, method)
        if "__init__" not in own:
            cls.__signature__ = _SIGNATURE
        return cls

    return wrap if cls is None else wrap(cls)
