"""Deferred imports of third-party modules.

`lazy_import(name)` returns a module whose code runs on the first
attribute access, so a command that never touches numpy never pays for
importing it.  After that first access every lookup is an ordinary
module attribute lookup.

`flapack()` returns scipy's compiled LAPACK wrappers, the extension
`scipy/linalg/_flapack<EXTENSION_SUFFIX>`, loaded by itself.  The solver
needs three routines from it, `dgtsv`, `dpttrf` and `dpttrs`;
`import scipy.linalg.lapack` would reach them only through scipy.linalg's
package, which costs a cold `solve` about 0.3 s and 24 MB of memory
(scipy._lib's array-API layer alone pulls in numpy.f2py).  This relies on
a private part of scipy, the file's place in its package.  Where a scipy
release moves the file, `flapack()` falls back to `scipy.linalg.lapack`:
the solve stays correct and only gets slower.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

_FLAPACK = "scipy.linalg._flapack"


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


def _flapack_file():
    """Path of scipy's `linalg/_flapack` extension, or None if there is no
    such file; scipy itself is located, not imported."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def flapack():
    """scipy's LAPACK wrappers: the extension module `scipy.linalg._flapack`,
    loaded without scipy.linalg's package and registered under that name,
    so a later `import scipy.linalg` reuses it; `scipy.linalg.lapack` if
    the extension's file is not where scipy has kept it.  A load that
    fails for any other reason raises."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    path = _flapack_file()
    if path is None:
        return importlib.import_module("scipy.linalg.lapack")
    # The extension imports numpy's C API as it initialises.  numpy bound
    # by lazy_import and not yet executed would be left half-initialised
    # by that import, and a later `import scipy.linalg` would fail in it.
    import numpy

    numpy.ndarray
    spec = importlib.util.spec_from_file_location(_FLAPACK, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module
