"""Profile a whole Python process when ``E2E_PROFILE_DIR`` is set.

The traced run puts this directory first on ``PYTHONPATH`` of the
processes it starts (CLI invocations and the worker processes they
spawn), so each one writes ``<pid>.prof`` into that directory at exit.
Without the variable, importing this module does nothing.
"""

import os

_DIR = os.environ.get("E2E_PROFILE_DIR")

if _DIR:
    import atexit
    import cProfile

    _PROFILER = cProfile.Profile()

    def _dump() -> None:
        _PROFILER.disable()
        _PROFILER.dump_stats(os.path.join(_DIR, f"{os.getpid()}.prof"))

    atexit.register(_dump)
    _PROFILER.enable()
