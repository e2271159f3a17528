"""Load a repository script that is not in a package, such as
``bench/workloads.py`` or a tool under ``tools/``, as a module.

The tests only read ``bench/`` and ``tools/``, so loading writes no bytecode
beside the file: a ``__pycache__`` left in ``bench/`` would change what the
benchmark's setup probe times when it imports ``workloads``.
"""

import importlib.util
import sys


def load_source(name, path):
    """The module made by running the Python file at ``path``, named ``name``.

    While the file runs, bytecode writing is off and the module is
    ``sys.modules[name]``, where a dataclass looks up its module; both are
    as before once it returns or raises.
    """
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    dont_write_bytecode, registered = sys.dont_write_bytecode, sys.modules.get(name)
    sys.dont_write_bytecode = True
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write_bytecode
        if registered is None:
            del sys.modules[name]
        else:
            sys.modules[name] = registered
    return module
