"""Self-test of the span tracer.

    python3 -m pytest bench/test_spans.py

Synthetic nested calls advance a fake clock by known amounts, so every self
time is exact; the names are bound in several modules of a fake package, as
`from .a import inner` would bind them.  The last test installs the real
tracer on twistsmc and checks that uninstalling restores every binding.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Hook, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _snapshot(modules) -> dict:
    out = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if isinstance(obj, type):
                for cattr, member in vars(obj).items():
                    out[(mod.__name__, attr, cattr)] = member
    return out


@pytest.fixture
def fakepkg():
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner(dt):
        clock.advance(dt)
        return dt

    def outer():
        clock.advance(1.0)
        b.inner(2.0)  # through b's binding, as `from .a import inner` gives
        clock.advance(0.5)
        return a.Box.make(0.25).grow(0.125)

    def _private():
        clock.advance(10.0)

    class Box:
        def __init__(self, size):
            clock.advance(size)
            self.size = size

        @classmethod
        def make(cls, size):
            return cls(size)

        @staticmethod
        def unit():
            clock.advance(0.0625)

        def grow(self, dt):
            clock.advance(dt)
            Box.unit()
            a.raise_if(dt < 0)
            return self.size + dt

    def raise_if(flag):
        if flag:
            raise ValueError("negative")

    for fn in (inner, outer, _private, raise_if):
        fn.__module__ = "fakepkg.a"
        setattr(a, fn.__name__, fn)
    Box.__module__ = "fakepkg.a"
    a.Box = Box
    b.inner = inner
    b.__name__ = "fakepkg.b"
    pkg.outer = outer
    pkg.Box = Box
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    try:
        yield clock, pkg, a, b
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_self_times_of_nested_calls(fakepkg):
    clock, pkg, a, b = fakepkg
    tracer = Tracer(modules=("a",), package="fakepkg", clock=clock)
    with tracer:
        assert pkg.outer() == 0.375
    st = tracer.stats
    assert st["a.outer"].calls == 1
    # outer: 1.0 + 0.5 of its own; inner 2.0, Box() 0.25, grow 0.125 + unit
    assert st["a.outer"].total_s == pytest.approx(1.0 + 2.0 + 0.5 + 0.25 + 0.125 + 0.0625)
    assert st["a.outer"].self_s == pytest.approx(1.5)
    assert st["a.inner"].self_s == pytest.approx(2.0)
    assert st["a.Box.__init__"].self_s == pytest.approx(0.25)
    assert st["a.Box.make"].self_s == pytest.approx(0.0)
    assert st["a.Box.make"].total_s == pytest.approx(0.25)
    assert st["a.Box.grow"].self_s == pytest.approx(0.125)
    assert st["a.Box.unit"].self_s == pytest.approx(0.0625)
    assert st["a.raise_if"].calls == 1
    assert "a._private" not in st  # private names are not exposed
    assert sum(s.self_s for s in st.values()) == pytest.approx(st["a.outer"].total_s)


def test_every_binding_is_wrapped_and_restored(fakepkg):
    clock, pkg, a, b = fakepkg
    mods = (pkg, a, b)
    before = _snapshot(mods)
    tracer = Tracer(modules=("a",), package="fakepkg", clock=clock)
    tracer.install()
    try:
        assert b.inner is a.inner and getattr(b.inner, "__wrapped_by_tracer__", False)
        assert getattr(pkg.outer, "__wrapped_by_tracer__", False)
        assert not getattr(a._private, "__wrapped_by_tracer__", False)
        assert isinstance(vars(a.Box)["make"], classmethod)
        assert isinstance(vars(a.Box)["unit"], staticmethod)
    finally:
        tracer.uninstall()
    after = _snapshot(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_close_on_exceptions_and_hooks_count(fakepkg):
    clock, pkg, a, b = fakepkg
    seen = []

    def on_grow(args, kwargs, result, exc, tracer):
        seen.append(type(exc).__name__ if exc else result)
        tracer.bump("grow.failed", exc is not None)

    tracer = Tracer(
        modules=("a",), package="fakepkg", clock=clock, hooks={"a.Box.grow": Hook(on_call=on_grow)}
    )
    with tracer:
        box = a.Box(1.0)
        with pytest.raises(ValueError):
            box.grow(-0.5)
        assert box.grow(0.5) == 1.5
        assert tracer._stack == []
    assert seen == ["ValueError", 1.5]
    assert tracer.counters["grow.failed"] == 1
    assert tracer.stats["a.Box.grow"].calls == 2
    # grow: -0.5 then +0.5 of its own, each with a 0.0625 unit() child
    assert tracer.stats["a.Box.grow"].total_s == pytest.approx(0.125)
    assert tracer.stats["a.Box.grow"].self_s == pytest.approx(0.0)


def test_installs_on_twistsmc_and_restores_everything():
    import layers
    from twistsmc import cli  # noqa: F401  (the package does not import cli itself)

    mods = [m for n, m in sys.modules.items() if n == "twistsmc" or n.startswith("twistsmc.")]
    before = _snapshot(mods)
    tracer = layers.make_tracer()
    tracer.install()
    try:
        from twistsmc import fk, schemes, twist

        assert schemes.resample is fk.resample
        assert getattr(fk.resample, "__wrapped_by_tracer__", False)
        assert getattr(vars(twist._TwistedKernel)["sample"], "__wrapped_by_tracer__", False)
    finally:
        tracer.uninstall()
    after = _snapshot(mods)
    assert all(after[k] is before[k] for k in before)
