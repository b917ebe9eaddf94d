"""Deferred imports of third-party modules.

`lazy_import(name)` returns a module whose code runs on the first
attribute access, so a command that never touches numpy never pays for
importing it.  After that first access every lookup is an ordinary
module attribute lookup.
"""

import importlib.util
import sys


def lazy_import(name):
    """The module `name`, executed on first attribute access (the
    `importlib.util.LazyLoader` recipe); the loaded module if there is one."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
