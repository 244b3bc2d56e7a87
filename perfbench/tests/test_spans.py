import sys
import types

import pytest

from perfbench.spans import Span, Target, Tracer, install, self_times, uninstall


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, -1, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 3.0),
        Span(2, 0, 0, "b", 2.0, 5.0),  # overlaps a: [1, 5] covered once
        Span(3, 0, 0, "c", 8.0, 12.0),  # only [8, 10] lies inside the parent
        Span(4, 1, 0, "grandchild", 1.5, 2.5),  # covers part of a, not of root
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span(0, -1, 0, "x", 2.0, 2.5)]) == [0.5]


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines ``work`` and a class; ``fakepkg.b`` binds ``work``
    under the same and another name, as ``from .a import work`` would."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return a.inner(x) + 1

    def inner(x):
        return 2 * x

    class Box:
        def step(self, x):
            return a.work(x)

    a.work, a.inner, a.Box = work, inner, Box
    b.work, b.alias, b.Box = work, work, Box
    pkg.work = work
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg, a, b
    for name in mods:
        del sys.modules[name]


def test_install_patches_every_binding_and_uninstall_restores_them(fake_package):
    pkg, a, b = fake_package
    original = a.work
    tracer = Tracer()
    targets = [
        Target("fakepkg.a", "work", "a.work", pre=lambda t, args, kw: {"x": args[0]}),
        Target("fakepkg.a", "inner", "a.inner"),
        Target("fakepkg.a", "Box.step", "a.Box.step",
               post=lambda attrs, args, kw, result: attrs.update(result=result)),
    ]
    patched = install(tracer, targets, "fakepkg")
    assert a.work is not original
    assert b.work is a.work and b.alias is a.work and pkg.work is a.work

    with tracer.root("op", 7):
        assert a.Box().step(3) == 7
        assert b.alias(1) == 3
    names = [s.name for s in tracer.spans]
    assert names == ["op", "a.Box.step", "a.work", "a.inner", "a.work", "a.inner"]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a.Box.step"].attrs == {"result": 7}
    assert tracer.spans[2].attrs == {"x": 3}
    assert all(s.request == 7 for s in tracer.spans)
    parents = [s.parent for s in tracer.spans]
    assert parents == [-1, 0, 1, 2, 0, 4]

    uninstall(patched)
    assert a.work is original and b.alias is original and pkg.work is original
    assert "step" in vars(a.Box) and a.Box().step(1) == 3
    assert len(tracer.spans) == 6  # nothing recorded once uninstalled


def test_a_raising_call_still_closes_its_span(fake_package):
    _pkg, a, _b = fake_package
    tracer = Tracer()
    patched = install(tracer, [Target("fakepkg.a", "inner", "a.inner")], "fakepkg")
    try:
        with pytest.raises(TypeError):
            a.inner(None)
    finally:
        uninstall(patched)
    assert tracer.current() is None
    assert tracer.spans[0].end >= tracer.spans[0].start
