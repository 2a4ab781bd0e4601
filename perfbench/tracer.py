"""Span tracing of the lacvoid layers from outside the package.

`install` wraps every public function and public method of the package's
modules and rebinds each wrapper at every place the original is bound:
modules import functions by name (`from .tensors import matmul`), so
`lacvoid.model.matmul` and `lacvoid.tensors.matmul` are both replaced.
Nothing under `src/` is edited.

A span is (id, name, start_ns, end_ns, parent_id, thread_id, count).
Each thread keeps its own stack of open spans, so spans recorded on the
CLI's pool threads nest correctly; a pool thread's first span has no
parent. `count` is an exact quantity computed from argument and result
shapes for the calls listed in `_COUNTERS`, else None.
"""

from __future__ import annotations

import enum
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from types import FunctionType, ModuleType

# Called once per generated float (millions per model build): a span per
# call would cost more than the work it measures. `rng.floats` counts
# these calls exactly through `Xoshiro256StarStar.uniform` instead.
_NOT_WRAPPED = {"lacvoid.rng.Xoshiro256StarStar.next_u64"}


def _matmul_flops(args, kwargs, result):
    # 2 * (output elements) * (inner extent), leading axes broadcast.
    return 2 * result.size * args[0].shape[-1]


def _kv_bytes_copied(args, kwargs, result):
    # The first append stores the arrays as given; every later append
    # concatenates, copying the whole cache for both K and V.
    k_all, v_all = result
    return 0 if k_all is args[2] else k_all.nbytes + v_all.nbytes


def _void_units(args, kwargs, result):
    flags = result.void_flags
    return (int(flags.sum()), int(flags.size))


def _path_bytes(args, kwargs, result):
    source = args[0]
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


_COUNTERS = {
    "lacvoid.tensors.matmul": _matmul_flops,
    "lacvoid.model.KVCache.append": _kv_bytes_copied,
    "lacvoid.rng.Xoshiro256StarStar.uniform": lambda a, k, r: int(a[1]),
    "lacvoid.executor.run_stack": _void_units,
    "lacvoid.model.run_prompt": lambda a, k, r: len(r[1]),
    "lacvoid.model.generate": lambda a, k, r: len(r[0]),
    "lacvoid.trace.write_trace": lambda a, k, r: r,
    "lacvoid.trace.read_trace": _path_bytes,
    "lacvoid.container.load_container": _path_bytes,
}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, ids, local = self.spans, self._ids, self._local
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            count = counter(args, kwargs, result) if counter else None
            spans.append((sid, name, start, end, parent, threading.get_ident(), count))
            return result

        return traced

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        del self.spans[:]
        return taken


def _package_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lacvoid" or name.startswith("lacvoid."))]


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and methods with `tracer`'s spans."""
    import lacvoid.cli  # noqa: F401  (imports every module the CLI reaches)

    modules = _package_modules()
    replaced: dict[int, object] = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, FunctionType):
                replaced[id(obj)] = tracer.wrap(f"{module.__name__}.{attr}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                for meth, fn in list(vars(obj).items()):
                    name = f"{module.__name__}.{attr}.{meth}"
                    if meth.startswith("_") or not isinstance(fn, FunctionType) or name in _NOT_WRAPPED:
                        continue
                    setattr(obj, meth, tracer.wrap(name, fn))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced and isinstance(obj, FunctionType):
                setattr(module, attr, replaced[id(obj)])
