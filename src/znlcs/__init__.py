"""Generalized-CHSH games over Z_n: strategies, groups, certificates.

Every submodule except ``cli`` is registered here as a lazy module: it sits
in ``sys.modules`` (and on this package) from the start, and its code, with
what it imports, runs only when one of its attributes is first read. So a
command pays only for the modules it uses. ``cli`` is left out because
``python -m znlcs.cli`` warns when its module is already loaded.
The submodules are the ``.py`` files of this directory, listed directly
(``pkgutil.iter_modules`` would import ``inspect`` in every process).

Numpy rule: ``npakit`` imports no numpy at all, and ``ncpoly``,
``gamekit``, ``biaskit`` and ``strategykit`` import it inside the
functions that build or read arrays, not at the top, so ``npa export``,
which only rewrites words and writes text, and ``strategy entropy``,
which reads the canonical state's amplitudes, load no numpy (its import
is about half of such a job).
Numpy cannot be registered as a lazy module instead: every ``import numpy
as np`` statement reads the module's ``__spec__``, and that first
attribute read runs the deferred load. The other modules import numpy at
the top; every other command uses it.

Sibling-import rule: a submodule imports its siblings as modules,
``from . import ncpoly``, and names what it uses at the call site,
``ncpoly.eval_nc(...)``. Binding the module object does not load it, so a
sibling loads only when one of its functions runs; ``from .ncpoly import
eval_nc`` would load it with the importer. Three name imports remain. Two
are of code that runs when the importer loads: ``from .records import
Record``, the base of every record class, and ``groupkit``'s import of
``monomial``'s element type, generators and row kernels (``pack_rows``,
``step_columns``, ``compose_steps``, ``invert_rows``, ``power_rows``),
which it re-exports and makes above its numpy import, by the
compile-order rule. The third is made for that rule alone.

Compile-order rule: with no bytecode cache a module compiles as it loads,
in transient memory that grows with its source (about 0.8 MB for
``strategykit``, CPython 3.11). After numpy has loaded, that memory sits
on top of numpy's and can set the process's peak RSS. So the numpy
commands load ``strategykit``, the largest module they would otherwise
load late, before numpy: ``soskit`` (loaded only by ``sos verify`` and
``relations check``, which both use ``strategykit``) imports two of its
functions by name above its numpy import, and ``bias spectrum``'s handler
reads its value formula first. Loaded late, ``strategykit`` with its
three command handlers raised both commands' peak RSS by 0.2-0.3 MB.
Likewise ``groupkit`` loads ``monomial`` before numpy (0.1-0.5 MB less
for the group commands), and ``psirep check`` reads the group order first.
"""

import importlib.util
import os
import sys

__version__ = "0.1.0"

for _file in sorted(os.listdir(__path__[0])):
    _stem, _ext = os.path.splitext(_file)
    if _ext != ".py" or _stem in ("__init__", "cli"):
        continue
    _spec = importlib.util.find_spec(f"{__name__}.{_stem}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_stem] = _module
