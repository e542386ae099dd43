"""The polynomial kernels tiltlab calls, re-exported from ``_kernels_py``.

There is one implementation, in pure Python.  This module stays as the
name the rest of the code reaches the kernels by: ``core`` calls
``_backend.eisenstein_mul`` and ``_backend.window_mul`` at each product,
so ``perfbench/spans.py`` can wrap them by patching ``tiltlab._backend``,
and ``perfbench/program.py`` records ``backend_name()`` with every result.
"""

from ._kernels_py import eisenstein_mul, window_mul


def backend_name():
    return "python"
