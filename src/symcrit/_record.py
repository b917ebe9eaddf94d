"""The package's records: slotted, frozen classes whose methods are
written once, here, and which dataclasses' functions take for frozen
dataclasses.

`@dataclass(frozen=True, slots=True)` compiles an `__init__`, `__repr__`,
`__eq__`, `__hash__`, `__setattr__` and `__delattr__` for each class it
decorates, from generated source text that bytecode does not cache, and
importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`.
`record` builds the class itself.  It reads the fields from the class's
annotations, each with a plain default or a `field` marker, and rebuilds
the class with the field names as its `__slots__`, as dataclass's
slots=True does.  The class gets the shared methods below.  Each reads
what it needs of its class from a few class attributes that `record`
sets once:

- `_record_fields`: every field's `field` spec, in order, and
  `_record_names`: their names;
- `_record_init`: the (name, slot setter, default) of each init field, in
  order, and the class's `__post_init__` or None;
- `_record_repr` and `_record_compare`: the names of the fields that
  `__repr__`, and `__eq__` and `__hash__`, read.

`__init__` stores each field through its slot descriptor's `__set__`, as
a frozen dataclass stores it through `object.__setattr__`, then calls
`__post_init__`.  Pickle and copy rebuild a record through its
constructor, so `__post_init__` checks and freezes its values again.  A
method the class writes itself stays.  `__match_args__` holds the init
fields.  Fields take plain defaults only: `__init__` knows no
default_factory or keyword-only field, a non-init field has no default
(`__post_init__` sets it), and `__hash__` reads the compare fields.  A
record derives from object alone.

`__dataclass_fields__` and `__dataclass_params__` are a frozen slotted
dataclass's, made by `dataclasses.make_dataclass` from the fields the
first time either is read, so `fields`, `replace`, `asdict` and
`is_dataclass` work on every record.  Whoever reads them has imported
dataclasses already; nothing in the package does.
"""

__all__ = ["record"]

_MISSING = object()  # a field without a default


class field:
    """One field's spec.  As a marker, `name: type = field(init=False,
    repr=False)`, it gives a field other than a plain default its flags,
    as `dataclasses.field` does; `record` fills in its name and type."""

    __slots__ = ("name", "type", "default", "init", "repr", "compare")

    def __init__(self, *, init=True, repr=True, compare=True):
        self.default = _MISSING
        self.init, self.repr, self.compare = init, repr, compare


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
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError("cannot assign to field %r" % (name,))


def _delattr(self, name):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError("cannot delete field %r" % (name,))


def _reduce(self):
    return type(self), tuple([getattr(self, name) for name, _, _ in self._record_init[0]])


class _Signature:
    """A record's `__signature__`: its constructor's, read from its fields
    when asked for, so that `inspect.signature` and `help()` list them."""

    def __get__(self, record, cls):
        import inspect

        return inspect.Signature(
            [
                inspect.Parameter(
                    f.name,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    default=inspect.Parameter.empty if f.default is _MISSING else f.default,
                    annotation=f.type,
                )
                for f in cls._record_fields
                if f.init
            ],
            return_annotation=None,
        )


class _DataclassView:
    """A record's `__dataclass_fields__` or `__dataclass_params__`: built
    with the other on first access, then cached on the class in place of
    both views."""

    def __init__(self, name, eq):
        self.name, self.eq = name, eq

    def __get__(self, record, cls):
        import dataclasses

        twin = dataclasses.make_dataclass(
            cls.__name__,
            [
                (f.name, f.type, dataclasses.field(
                    default=dataclasses.MISSING if f.default is _MISSING else f.default,
                    init=f.init, repr=f.repr, compare=f.compare,
                ))
                for f in cls._record_fields
            ],
            frozen=True,
            slots=True,
            eq=self.eq,
        )
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return vars(cls)[self.name]


_SIGNATURE = _Signature()
_SHARED = {
    "__init__": _init,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
    "__reduce__": _reduce,
}
_COMPARED = {"__eq__": _eq, "__hash__": _hash}


def _fields(body):
    """The field specs of a class body, one per annotation, in order."""
    fields = []
    for name, annotation in body.get("__annotations__", {}).items():
        value = body.get(name, _MISSING)
        spec = value if isinstance(value, field) else field()
        if spec is not value:
            spec.default = value
        spec.name, spec.type = name, annotation
        fields.append(spec)
    return tuple(fields)


def record(cls=None, /, *, eq=True):
    """Make cls a slotted, frozen record with the shared methods.

    eq=False keeps identity comparison and hashing, as for
    `dataclass(eq=False)`.
    """

    def wrap(cls):
        body = dict(vars(cls))
        fields = _fields(body)
        names = tuple(f.name for f in fields)
        for name in names:
            body.pop(name, None)
        body.pop("__dict__", None)
        body.pop("__weakref__", None)
        body["__slots__"] = names
        body["__qualname__"] = cls.__qualname__
        body.setdefault("__match_args__", tuple(f.name for f in fields if f.init))
        body["_record_fields"] = fields
        body["_record_names"] = names
        body["_record_repr"] = tuple(f.name for f in fields if f.repr)
        body["_record_compare"] = tuple(f.name for f in fields if f.compare)
        for name, method in (dict(_SHARED, **_COMPARED) if eq else _SHARED).items():
            body.setdefault(name, method)
        if "__init__" not in vars(cls):
            body["__signature__"] = _SIGNATURE
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            body[name] = _DataclassView(name, eq)
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        cls._record_init = (
            tuple((f.name, vars(cls)[f.name].__set__, f.default) for f in fields if f.init),
            getattr(cls, "__post_init__", None),
        )
        return cls

    return wrap if cls is None else wrap(cls)
