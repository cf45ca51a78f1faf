"""Self-time arithmetic and rollup accounting of the outside-in tracer."""

import threading

from e2ebench.tracer import Span, Tracer, covered, self_times


def test_covered_is_the_clipped_union():
    assert covered(0, 100, []) == 0
    assert covered(0, 100, [(10, 30), (20, 50)]) == 40
    assert covered(0, 100, [(90, 120), (-5, 5)]) == 15
    assert covered(0, 100, [(10, 20), (10, 20)]) == 10


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("request", 0, 100),               # 0
        Span("parse", 5, 15, parent=0),        # 1
        Span("solve", 20, 90, parent=0),       # 2
        Span("reduce", 30, 40, parent=2),      # 3
        Span("reduce", 35, 60, parent=2),      # 4: overlaps 3
        Span("other", 95, 130, parent=0),      # 5: runs past its parent
        Span("solve", 0, 50, rolled=20),       # 6: 20 ns of rollups
    ]
    # request: 100 - (10 + 70 + 5); solve: 70 - |[30, 60]|; leaves keep
    # their duration; a rolled-up child counts as covered.
    assert self_times(spans) == [15, 10, 40, 10, 25, 35, 30]


def test_rollups_and_spans_account_for_the_parent():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    hot = tracer.wrap(leaf, "leaf", rollup=True)

    def outer():
        for _ in range(50):
            hot(200)
        inner()

    inner = tracer.wrap(lambda: hot(10), "inner")
    tracer.wrap(outer, "outer")()

    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 51
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent is None
    # Self + rolled-up leaves + the inner span add back to the outer span.
    own = self_times(tracer.spans)
    total = outer_span.end - outer_span.start
    inner_total = inner_span.end - inner_span.start
    assert own[0] + outer_span.rolled + inner_total == total
    assert summary["leaf"]["self_s"] == summary["leaf"]["total_s"]


def test_threads_keep_their_own_parents_and_op_ids():
    tracer = Tracer()
    work = tracer.wrap(lambda: None, "work")

    def client(op):
        with tracer.op(op), tracer.span("request"):
            work()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    for span in tracer.spans:
        if span.name == "work":
            parent = tracer.spans[span.parent]
            assert parent.name == "request" and parent.op == span.op


def test_patch_is_restored_for_modules_not_instances():
    import types

    module = types.ModuleType("fake")
    module.fn = lambda: 1

    class Thing:
        def method(self):
            return 2

    thing = Thing()
    tracer = Tracer()
    original = module.fn
    tracer.patch(module, "fn", "fake.fn")
    tracer.patch(thing, "method", "thing.method")
    assert module.fn() == 1 and thing.method() == 2
    tracer.restore()
    assert module.fn is original
    assert [s.name for s in tracer.spans] == ["fake.fn", "thing.method"]
