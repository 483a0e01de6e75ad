"""Span tracer installed from outside the package.

`Tracer.install()` replaces every function and class method that a
`twistsmc` module exposes with a timing wrapper, on every `twistsmc.*`
module that binds it (the package imports names `from .fk import resample`
style, so patching the defining module alone would miss most calls).
`_TwistedKernel`, through which every twisted draw and kernel factorization
passes, is wrapped although its name is private.  `uninstall()` puts every
original object back.

Spans live on a stack: a span's self time is its duration minus the time
covered by the spans it encloses.  Totals are kept per qualified name
(`fk.resample`, `twist._TwistedKernel.sample`, ...) together with counters
that hooks bump at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Hook:
    """Extra work at one wrapped boundary.

    `on_call(args, kwargs, result, exc, tracer)` runs after the wrapped
    call, inside its span, and may bump counters; `wrap_result(result,
    tracer)` may replace the returned object (used to wrap closures that a
    factory hands out).
    """

    on_call: Callable | None = None
    wrap_result: Callable | None = None


@dataclass
class Tracer:
    modules: tuple[str, ...]
    package: str = "twistsmc"
    extra_classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    hooks: dict[str, Hook] = field(default_factory=dict)
    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span accounting -------------------------------------------------

    def _enter(self) -> list:
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def snapshot(self) -> dict[str, int]:
        return dict(self.counters)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Timing wrapper for one callable under span `name`."""
        hook = self.hooks.get(name)
        enter, exit_ = self._enter, self._exit

        if hook is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(name, frame)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter()
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    if hook.wrap_result is not None:
                        result = hook.wrap_result(result, self)
                    return result
                except BaseException as err:
                    exc = err
                    raise
                finally:
                    if hook.on_call is not None:
                        hook.on_call(args, kwargs, result, exc, self)
                    exit_(name, frame)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation ----------------------------------------------------

    def _targets(self):
        """(short module name, attribute name, object) for every function and
        class the listed modules define and expose."""
        for short in self.modules:
            mod = importlib.import_module(f"{self.package}.{short}")
            extra = set(self.extra_classes.get(short, ()))
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    yield short, attr, obj

    def _set(self, owner, attr: str, value) -> None:
        # vars() keeps staticmethod/classmethod descriptors intact on classes
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        bindings = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for short, attr, obj in list(self._targets()):
            if inspect.isclass(obj):
                self._wrap_class(f"{short}.{attr}", obj)
                continue
            wrapped = self.wrap(f"{short}.{attr}", obj)
            for mod in bindings:
                for bound_name, bound in list(vars(mod).items()):
                    if bound is obj:
                        self._set(mod, bound_name, wrapped)

    def _wrap_class(self, qualname: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            name = f"{qualname}.{attr}"
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(name, member))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
