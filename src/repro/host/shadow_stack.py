"""The host (CPU) shadow stack.

CUDAAdvisor mandatorily instruments CPU function calls and returns so it
can concatenate the CPU call path leading to a kernel launch with the
GPU-side call path (Section 3.2.1, Figure 8). The stand-in for that
instrumentation in a Python host program is the :func:`host_function`
decorator: wrapped functions push a frame (function name, source file,
definition line, call-site line) on entry and pop it on return. A call
made from inside the library itself (the advisor running an app's
``prepare``/``run``) keeps its file but not its line: that line belongs
to the tool's implementation, not to the profiled program.

The stack is per-thread (``threading.local``), like the per-thread CPU
shadow stacks in the paper.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class HostFrame:
    """One entry of the host shadow stack."""

    function: str
    filename: str
    #: call-site line in the caller (0 for the root; None for a call
    #: from inside the library).
    line: Optional[int]

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.function}():: {self.filename}"
        return f"{self.function}():: {self.filename}: {self.line}"


class HostShadowStack:
    """Per-thread stack of :class:`HostFrame`."""

    def __init__(self):
        self._local = threading.local()

    def _frames(self) -> List[HostFrame]:
        if not hasattr(self._local, "frames"):
            self._local.frames = [HostFrame("main", "<program>", 0)]
        return self._local.frames

    def push(self, frame: HostFrame) -> None:
        self._frames().append(frame)

    def pop(self) -> HostFrame:
        frames = self._frames()
        if len(frames) <= 1:
            raise RuntimeError("host shadow stack underflow")
        return frames.pop()

    def snapshot(self) -> Tuple[HostFrame, ...]:
        """The current call path, outermost first."""
        return tuple(self._frames())

    def depth(self) -> int:
        return len(self._frames())

    def reset(self) -> None:
        self._local.frames = [HostFrame("main", "<program>", 0)]


#: The process-wide host shadow stack (one per thread inside).
GLOBAL_HOST_STACK = HostShadowStack()

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the bundled benchmark programs: profiled code, not library code.
_APPS_DIR = os.path.join(_PACKAGE_DIR, "apps")


def _library_internal(path: str) -> bool:
    path = os.path.abspath(path)
    return (path.startswith(_PACKAGE_DIR + os.sep)
            and not path.startswith(_APPS_DIR + os.sep))


def host_function(fn: Callable) -> Callable:
    """Instrument a host function's calls and returns.

    Equivalent to the engine's mandatory CPU instrumentation: each call
    pushes the callee (with the *call site's* file/line, which is what
    the code-centric view prints) and each return pops it.
    """
    filename = (inspect.getsourcefile(fn) or "<unknown>").rsplit("/", 1)[-1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        caller = sys._getframe(1)
        path = caller.f_code.co_filename
        line = None if _library_internal(path) else caller.f_lineno
        frame = HostFrame(fn.__name__, path.rsplit("/", 1)[-1], line)
        GLOBAL_HOST_STACK.push(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            GLOBAL_HOST_STACK.pop()

    wrapper.__wrapped_host_function__ = True
    return wrapper
