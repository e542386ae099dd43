"""Locate the tiltlab sources of the checkout and describe the environment.

The benchmark measures the package under ``src/`` of the checkout it
sits in, never an installed copy, and always on the pure-Python kernels.
"""

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tiltlab"
PYCACHE = ROOT / "perfbench" / "out" / "pycache"


class MissingProgram(RuntimeError):
    pass


def prepare():
    """Put the checkout's sources first on sys.path and force the Python kernels.

    TILTLAB_FORCE_PY is read once, when tiltlab._backend is imported, so it
    has to be set before the first import of tiltlab in this process.
    Bytecode is written and read under PYCACHE even where the environment
    says PYTHONDONTWRITEBYTECODE, so that tiltlab imports from compiled
    bytecode, as an installed copy does, and setup_s does not time the
    compiler.  Child processes inherit both settings.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no tiltlab sources at {PACKAGE}")
    os.environ["TILTLAB_FORCE_PY"] = "1"
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_import():
    """Import tiltlab and fail unless it came from this checkout."""
    import tiltlab

    origin = Path(tiltlab.__file__).resolve().parent
    if origin != PACKAGE:
        raise MissingProgram(f"tiltlab imported from {origin}, expected {PACKAGE}")
    return tiltlab


def backend_name():
    try:
        from tiltlab import _backend
    except ImportError:  # no backend switch: only the Python kernels exist
        return "python"
    return _backend.backend_name()


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package's Python sources, in path order."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    """What a result depends on besides the code: recorded with every result."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": backend_name(),
        "nproc": cpus,
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "TILTLAB_THREADS": os.environ.get("TILTLAB_THREADS"),
        "TILTLAB_FORCE_PY": os.environ.get("TILTLAB_FORCE_PY"),
    }
