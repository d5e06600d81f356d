"""Tests of the benchmark's own tracer: arithmetic, restoration, output bytes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from layertrace import Span, Tracer, covered, install_layers, self_times, summarize  # noqa: E402
from run import _trace_doc, compare_rows, invoke  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    root = Span("root", 0.0, 10.0, None)
    a = Span("a", 1.0, 3.0, root)
    b = Span("b", 2.0, 5.0, root)  # overlaps a: the overlap is subtracted once
    c = Span("c", 8.0, 12.0, root)  # runs past the parent: clipped at 10
    grandchild = Span("g", 1.5, 2.5, a)  # charged to a, not to root
    spans = [root, a, b, c, grandchild]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    summary = summarize(spans + [Span("a", 20.0, 21.0, None)])
    assert summary["a"] == pytest.approx([2, 3.0, 2.0])
    assert summary["root"] == pytest.approx([1, 10.0, 4.0])


def test_covered_merges_touching_and_empty_intervals():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.0, 1.0), (1.0, 2.0), (3.0, 3.0)], 0.0, 5.0) == pytest.approx(2.0)
    assert covered([(-1.0, 0.5), (4.0, 9.0)], 0.0, 5.0) == pytest.approx(1.5)


def test_nested_calls_record_parent_and_names_from_results():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    tracer.wrap(Layer, "inner", lambda r: "inner.odd" if r % 2 else "inner.even")
    tracer.wrap(Layer, "outer", "outer",
                after=lambda t, args, kwargs, r: t.counters.__setitem__("seen", r))
    try:
        assert Layer().outer(2) == 6
    finally:
        tracer.restore()
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("outer", "inner.odd")
    assert inner.parent is outer and outer.parent is None
    assert tracer.counters["seen"] == 6
    assert "inner" not in vars(Layer) or not hasattr(Layer.inner, "__wrapped__")


def test_install_layers_restores_every_original():
    tracer = Tracer()
    install_layers(tracer)
    saved = list(tracer._saved)
    assert len(saved) > 10
    for owner, attr, original, _ in saved:
        assert getattr(owner, attr).__wrapped__ is original
    tracer.restore()
    for owner, attr, original, own in saved:
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own


def test_inherited_method_is_removed_not_pinned():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "f", "f")
    assert Child().f() == 1
    tracer.restore()
    assert "f" not in vars(Child)


COMMANDS = [
    ["superadd", "--model", "sk", "--n", "6", "--n1", "3", "--beta", "0.5,1",
     "--samples", "40", "--seed", "3", "--threads", "1"],
    ["alpha", "--model", "mixed:2=0.5,4=0.5", "--n", "6", "--beta", "1", "--samples", "20",
     "--seed", "3", "--threads", "1"],
    ["interp", "--model", "sk", "--n", "6", "--n1", "3", "--beta", "1", "--tgrid", "0.2:0.8:3",
     "--samples", "20", "--seed", "3", "--threads", "1"],
    ["grem-verify", "--tree", "perfbench/gremtree8.txt", "--mode", "canonical"],
    ["check", "--model", "pspin:3", "--n", "5", "--mode", "all"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_traced_output_bytes_equal_untraced(argv):
    plain = invoke(argv)
    traced = invoke(argv, traced=True)
    assert traced.exit == plain.exit
    assert traced.stdout == plain.stdout
    assert plain.stdout
    doc = _trace_doc(traced.stderr)
    assert doc["spans"]["cli.main"][0] == 1
    assert doc["import_s"] > 0


def test_gate_allows_three_combined_standard_errors_and_nothing_else():
    columns = ["beta", "value", "std_error", "verdict"]
    ref = {"columns": columns, "rows": [["1.0", "0.50", "0.03", "BOUNDED"]]}
    # hypot(0.04, 0.03) = 0.05, so 3 combined standard errors are 0.15
    assert compare_rows(columns, [["1.0", "0.64", "0.04", "BOUNDED"]], ref) == []
    assert len(compare_rows(columns, [["1.0", "0.66", "0.04", "BOUNDED"]], ref)) == 1
    assert len(compare_rows(columns, [["1.0", "0.50", "0.04", "EXCEEDS"]], ref)) == 1
    assert len(compare_rows(columns, [["2.0", "0.50", "0.03", "BOUNDED"]], ref)) == 1
    assert len(compare_rows(columns, [], ref)) == 1
