"""Build-once loader for the compiled arena kernels (``_kernels.c``).

The arena core's conflict hot path — :meth:`ArenaPropagator.propagate
<repro.solver.arena.ArenaPropagator.propagate>`, :meth:`ArenaConflictAnalyzer.analyze
<repro.solver.arena.ArenaConflictAnalyzer.analyze>` and
:meth:`ArenaTrail.backtrack <repro.solver.arena.ArenaTrail.backtrack>` — has
a C twin in ``_kernels.c`` that works in place on the same Python lists.
:func:`kernels` compiles it on first use with the system ``cc`` against the
interpreter's own headers and caches the shared object under
``~/.cache/repro/kernels``, keyed by a hash of the source, the compiler
flags and the interpreter ABI.  A build is published with ``os.replace``,
so processes racing on a cold cache each produce a complete file and the
last rename wins; a warm cache is loaded without running the compiler.

Without a compiler, headers or a writable cache the Python bodies run
instead (one ``RuntimeWarning`` per process).  Both paths follow the same
search bit for bit, which the fuzz bank's same-search oracle checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path
from types import ModuleType
from typing import Iterator, Optional

SOURCE = Path(__file__).with_name("_kernels.c")

#: No fast-math and no fused multiply-add: VSIDS and clause activities
#: must round exactly as Python's float arithmetic does.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-strict-aliasing", "-fPIC", "-shared")

#: Seconds a cold build may take before it counts as failed.
BUILD_TIMEOUT = 120.0

_UNLOADED = object()
_module = _UNLOADED
_use_reference = False


def cache_dir() -> Path:
    """Where built kernels are kept between processes."""
    return Path.home() / ".cache" / "repro" / "kernels"


def artifact_name() -> str:
    """File name of the build for this source, these flags and this ABI."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256()
    key.update(SOURCE.read_bytes())
    key.update(" ".join(CFLAGS).encode())
    key.update(f"{sys.implementation.cache_tag} {suffix} {sys.hexversion}".encode())
    return f"_kernels-{key.hexdigest()[:16]}{suffix}"


def build(directory: Path) -> Path:
    """Path of the compiled kernels in ``directory``, compiling on a miss.

    Raises :class:`OSError` when no compiler or headers exist and
    :class:`subprocess.SubprocessError` when compilation fails.
    """
    target = directory / artifact_name()
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise OSError(f"Python headers not found in {include}")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=target.suffix)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, f"-I{include}", str(SOURCE), "-o", tmp],
            check=True,
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load(directory: Path) -> ModuleType:
    """Build (if needed) and import the kernels from ``directory``."""
    path = build(directory)
    spec = importlib.util.spec_from_file_location("repro.solver._kernels", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from repro.solver.decide import Decider

    module.configure(Decider.bump, Decider.requeue)
    return module


def kernels() -> Optional[ModuleType]:
    """The compiled kernels, or None when the Python bodies should run.

    The first call builds or loads them; a failure warns once and the
    process keeps using the Python bodies.
    """
    global _module
    if _use_reference:
        return None
    if _module is _UNLOADED:
        try:
            _module = load(cache_dir())
        except (OSError, RuntimeError, ImportError, subprocess.SubprocessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            warnings.warn(
                f"compiled solver kernels unavailable, using the Python "
                f"reference bodies: {detail}",
                RuntimeWarning,
                stacklevel=2,
            )
            _module = None
    return _module


@contextlib.contextmanager
def _reference_bodies() -> Iterator[None]:
    """Test hook: solvers built inside the block run the Python bodies."""
    global _use_reference
    previous = _use_reference
    _use_reference = True
    try:
        yield
    finally:
        _use_reference = previous
