"""Tests of span recording, self time and coverage."""

import threading

import pytest

from perfbench import trace
from perfbench.trace import Span, Tracer


def span(name, start, end, span_id, parent=None, request_id=None, **attrs):
    return Span(name, start, end, span_id, parent, request_id, attrs)


def test_union_length_merges_overlaps_and_gaps():
    assert trace.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert trace.union_length([(0, 10), (2, 3)]) == 10
    assert trace.union_length([]) == 0
    assert trace.union_length([(3, 3)]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        span("parent", 0.0, 10.0, 1),
        span("a", 1.0, 4.0, 2, parent=1),
        span("b", 3.0, 6.0, 3, parent=1),  # overlaps a by 1
        span("c", 9.0, 12.0, 4, parent=1),  # runs past the parent's end
    ]
    selfs = trace.self_times(spans)
    # children cover [1, 6] and [9, 10] inside the parent: 6 units
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.0)


def test_summarise_groups_by_name():
    spans = [
        span("root", 0.0, 10.0, 1),
        span("leaf", 0.0, 2.0, 2, parent=1),
        span("leaf", 5.0, 8.0, 3, parent=1),
    ]
    rows = {row.name: row for row in trace.summarise(spans)}
    assert rows["leaf"].count == 2
    assert rows["leaf"].self_s == pytest.approx(5.0)
    assert rows["root"].self_s == pytest.approx(5.0)
    assert rows["root"].total_s == pytest.approx(10.0)


def test_coverage_counts_descendants_and_request_spans_on_other_threads():
    spans = [
        span("op", 0.0, 10.0, 1),
        span("layer", 0.0, 4.0, 2, parent=1),
        span("inner", 1.0, 2.0, 3, parent=2),
        span("request", 20.0, 30.0, 4, request_id="r1"),
        span("submit", 20.0, 21.0, 5, request_id="r1"),
        span("batch", 25.0, 30.0, 6, request_ids=["r0", "r1"]),
        span("batch", 12.0, 14.0, 7, request_ids=["r9"]),  # serves another request
    ]
    # op: 4 of 10 covered; request: 6 of 10 covered
    assert trace.coverage(spans, ["op", "request"]) == pytest.approx(10.0 / 20.0)
    assert trace.coverage(spans, ["missing"]) == 0.0


class Widget:
    def work(self, x):
        return x * 2


class Gadget(Widget):
    pass


def outer(tracer, x):
    return tracer.call("outer", Widget().work, x)


def test_wrap_records_parents_annotations_and_restores():
    tracer = Tracer()
    tracer.wrap(Widget, "work", "widget.work", annotate=lambda a, k, r: {"result": r})
    assert outer(tracer, 3) == 6
    tracer.restore()
    assert Widget().work(1) == 2 and not hasattr(Widget.work, "__wrapped__")
    inner, root = tracer.spans
    assert (root.name, inner.name) == ("outer", "widget.work")
    assert inner.parent == root.span_id and root.parent is None
    assert inner.attrs == {"result": 6}
    assert root.start <= inner.start <= inner.end <= root.end


def test_wrap_of_an_inherited_method_leaves_the_base_untouched():
    tracer = Tracer()
    tracer.wrap(Gadget, "work", "gadget.work")
    Widget().work(1)
    Gadget().work(1)
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["gadget.work"]
    assert "work" not in Gadget.__dict__


def test_request_id_and_thread_local_parents():
    tracer = Tracer()
    tracer.wrap(Widget, "work", "widget.work", request_id=lambda a, k: k.get("rid"))

    class Tagged(Widget):
        def work(self, x, rid=None):
            return x

    tracer.wrap(Tagged, "work", "tagged.work", request_id=lambda a, k: k.get("rid"))
    done = threading.Event()

    def other_thread():
        Tagged().work(1, rid="r7")
        done.set()

    def in_root():
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.call("root", in_root)
    tracer.restore()
    assert done.is_set()
    tagged = tracer.named("tagged.work")[0]
    assert tagged.request_id == "r7"
    assert tagged.parent is None  # spans on another thread do not nest under this one's


def test_write_emits_one_json_object_per_span(tmp_path):
    tracer = Tracer()
    tracer.record("derived", 1.0, 2.0, request_id="r1", kind="wait")
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    text = path.read_text().splitlines()
    assert len(text) == 1 and '"request_id": "r1"' in text[0] and '"kind": "wait"' in text[0]


def test_within_roots_takes_spans_started_inside_any_root_on_any_thread():
    spans = [
        span("root", 0.0, 2.0, 1),
        span("root", 1.0, 3.0, 2),  # overlaps the first: one window [0, 3]
        span("root", 5.0, 6.0, 3),
        span("inside", 2.5, 4.0, 4),  # another thread's span, started inside
        span("between", 3.5, 4.5, 5),
        span("later", 5.5, 5.6, 6),
        span("setup", -1.0, -0.5, 7),
    ]
    assert [s.name for s in trace.within_roots(spans, ["root"])] == ["inside", "later"]


def test_category_times_sum_self_time_and_calls_per_category():
    spans = [
        span("root", 0.0, 10.0, 1),
        span("fit", 0.0, 9.0, 2, parent=1),
        span("score", 1.0, 3.0, 3, parent=2),
        span("recurse", 3.0, 7.0, 4, parent=2),
        span("score", 7.0, 8.0, 5, parent=2),
        span("score", 11.0, 12.0, 6),  # outside the root: not counted
    ]
    times = trace.category_times(
        spans, ["root"], {"score": "emissions", "recurse": "recursion", "fit": "orchestration", "unused": "other"}
    )
    assert times["emissions"].self_s == pytest.approx(3.0)
    assert times["emissions"].calls == 2
    assert times["recursion"].self_s == pytest.approx(4.0)
    assert times["orchestration"].self_s == pytest.approx(2.0)  # 9 minus its children's 7
    assert times["other"] == trace.CategoryTime(0.0, 0)
