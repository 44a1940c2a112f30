"""The C target: generated C compiled by cc, cached and loaded with ctypes.

tpim.dynamics builds its step loops here, and tpim.output its trace
formatter. Nothing imports this module until a run builds one of them.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import tempfile
import textwrap

__all__ = ["load"]

# No fused multiply-add, so that each + and * of the C statements rounds as
# Python's float operations do. No SLP vectorization, so that the loops stay
# scalar whatever the frame's layout: with it, gcc 12 packed the Euler step's
# states in pairs once the store sat behind a test of k on every step, and
# the Euler loop ran 23% slower.
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fno-tree-slp-vectorize", "-fPIC", "-shared")
# Nor excess precision (x87, FLT_EVAL_METHOD 2), nor fast or finite-only
# math, which folds isfinite away (gcc sets __GCC_IEC_559 below 2 under any
# unsafe math option): such a compile fails.
_FP_GUARD = ("#if FLT_EVAL_METHOD != 0 || defined(__FAST_MATH__) || __FINITE_MATH_ONLY__"
             " || (defined(__GCC_IEC_559) && __GCC_IEC_559 < 2)\n#error \"tpim needs IEEE doubles\"\n#endif\n")
_CC_TIMEOUT_S = 60.0


def load(name: str, parameters: list[str], body: str, definitions: str = ""):
    """Compile `int name(parameters) { body }` with cc, the one way generated
    C is compiled, and load it with ctypes; None where there is no cc on PATH,
    the compile or the load fails, or the cache directory is not the user's
    own. parameters are C declarations: a pointer is passed as an address,
    an int64_t or a double as a number. definitions (static tables and
    helpers) go before the function; float.h, math.h, stdint.h and string.h
    are included, and _FP_GUARD stops the compile under excess precision or
    fast or finite-only math.

    The library is cached in $XDG_CACHE_HOME/tpim (~/.cache/tpim where that
    is unset or not an absolute path), named by the sha256 of the source,
    the compile command and the compiler's path and mtime, so that a warm
    cache starts no process."""
    indented = textwrap.indent(body, "    ")
    source = (f"#include <float.h>\n#include <math.h>\n#include <stdint.h>\n#include <string.h>\n{_FP_GUARD}\n"
              f"{definitions}int {name}({', '.join(parameters)})\n{{\n{indented}}}\n")
    cc = shutil.which("cc")
    if cc is None:
        return None
    cc = os.path.realpath(cc)
    command = [cc, *_CC_FLAGS, "-x", "c", "-", "-lm"]
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the default
        root = os.path.expanduser("~/.cache")
    if not os.path.isabs(root):  # no home directory
        return None
    directory = os.path.join(root, "tpim")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        owner = os.stat(directory)
        if owner.st_uid != os.getuid() or owner.st_mode & 0o022:
            return None
        key = "\0".join([source, *command, str(os.stat(cc).st_mtime_ns)])
        library = os.path.join(directory, _sha256(key.encode()) + ".so")
        if not os.path.exists(library):
            _build(command, source, library)
        function = getattr(ctypes.CDLL(library), name)
    except OSError:
        return None
    function.argtypes = [
        ctypes.c_void_p if "*" in p else ctypes.c_int64 if p.startswith("int64_t") else ctypes.c_double
        for p in parameters
    ]
    function.restype = ctypes.c_int
    return function


def _sha256(data: bytes) -> str:
    """The hex sha256 of data, by CPython's built-in module where there is
    one: hashlib's import loads OpenSSL, 3.6 MB more memory for a run."""
    for module in ("_sha2", "_sha256"):  # Python 3.12 on; 3.10 and 3.11
        with contextlib.suppress(ImportError):
            return __import__(module).sha256(data).hexdigest()
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _build(command: list[str], source: str, library: str) -> None:
    """Compile source by command into library, through a temporary file in
    its directory: concurrent builders each replace it whole. A failed
    compile leaves no library."""
    import subprocess

    handle, temporary = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(library))
    os.close(handle)
    try:
        done = subprocess.run([*command, "-o", temporary], input=source, text=True, capture_output=True,
                              timeout=_CC_TIMEOUT_S)
        if done.returncode == 0:
            os.replace(temporary, library)
    except subprocess.TimeoutExpired:
        pass
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
