"""Generalized-CHSH games over Z_n: strategies, groups, certificates.

Every submodule except ``cli`` is registered here as a lazy module: it sits
in ``sys.modules`` (and on this package) from the start, and its code, with
what it imports (numpy too), runs only when one of its attributes is first
read. So a command pays only for the modules it uses. ``cli`` is left out
because ``python -m znlcs.cli`` warns when its module is already loaded.
"""

import importlib.util
import pkgutil
import sys

__version__ = "0.1.0"

for _info in pkgutil.iter_modules(__path__, f"{__name__}."):
    if _info.name == f"{__name__}.cli":
        continue
    _spec = _info.module_finder.find_spec(_info.name)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_info.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_info.name.rpartition(".")[2]] = _module
