import threading
import types

import pytest

from benchlib.spans import Span, Tracer, read_jsonl, self_times, union_length, write_jsonl


def span(span_id, start, end, parent=None, name="x"):
    result = Span(span_id, name, parent, 0)
    result.start, result.end = start, end
    return result


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == 2.0
    assert union_length([], 0, 1) == 0


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # grandchild: counts against 1, not 0
        span(3, 5.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    # Children from several threads may overlap; their union is covered.
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0), span(2, 4.0, 8.0, parent=0),
             span(3, 9.0, 12.0, parent=0)]  # runs past its parent: clipped
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_wrapped_calls_nest_per_thread_and_restore():
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    module.outer = lambda x: module.inner(x) * 2

    class Holder:
        @staticmethod
        def double(x):
            return 2 * x

    original_inner = module.inner
    tracer = Tracer(clock=FakeClock())
    tracer.patch(module, "inner", "layer.inner", attrs=lambda s, args, result: {"arg": args[0]})
    tracer.patch(module, "outer", "layer.outer")
    tracer.patch(Holder, "double", "layer.double")
    assert module.outer(1) == 4
    assert Holder.double(3) == 6 and Holder().double(3) == 6
    worker = threading.Thread(target=module.inner, args=(5,))
    worker.start()
    worker.join(5)
    assert not worker.is_alive()
    tracer.restore()
    assert module.inner is original_inner
    assert isinstance(Holder.__dict__["double"], staticmethod)

    by_name = {}
    for recorded in tracer.spans:
        by_name.setdefault(recorded.name, []).append(recorded)
    outer = by_name["layer.outer"][0]
    inner_main, inner_thread = sorted(by_name["layer.inner"], key=lambda s: s.attrs["arg"])
    assert inner_main.parent == outer.id
    assert inner_thread.parent is None  # another thread starts its own stack
    assert outer.start < inner_main.start < inner_main.end < outer.end
    module.inner(0)
    assert len(tracer.spans) == 5  # restored: no more spans


def test_when_vetoes_recording():
    module = types.SimpleNamespace(f=lambda: 1)
    tracer = Tracer()
    enabled = [False]
    tracer.patch(module, "f", "layer.f", when=lambda: enabled[0])
    module.f()
    enabled[0] = True
    module.f()
    assert len(tracer.spans) == 1


def test_jsonl_round_trip(tmp_path):
    spans = [span(0, 0.0, 2.0, name="a"), span(1, 0.5, 1.0, parent=0, name="b")]
    spans[1].attrs = {"rid": "f3"}
    path = tmp_path / "trace.jsonl"
    write_jsonl(spans, path)
    loaded = read_jsonl(path)
    assert [(s.id, s.name, s.parent, s.start, s.end) for s in loaded] == [
        (0, "a", None, 0.0, 2.0), (1, "b", 0, 0.5, 1.0)]
    assert loaded[1].attrs == {"rid": "f3"}
