"""Span recorder arithmetic, binding swaps, and tracing leaving results
bit-identical."""

import math

import numpy as np
import pytest

from tracing import Patcher, Tracer, format_table, self_times, span_table


def test_self_time_is_duration_minus_children_and_leaves():
    #   root [0, 10] with 0.5 s of leaf calls
    #   +- a [1, 3]
    #   +- b [4, 8]
    #      +- c [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    leaf_time = [0.5, 0.0, 0.0, 0.0]
    assert self_times(starts, ends, parents, leaf_time) == [3.5, 2.0, 3.0, 1.0]
    assert self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_self_times_of_a_span_tree_sum_to_the_root_duration():
    rng = np.random.default_rng(0)
    tr = Tracer()
    leaf = tr.leaf_wrapper("x.leaf")(lambda: sum(range(50)))

    def node(depth):
        for _ in range(int(rng.integers(1, 4))):
            leaf()
            if depth < 3:
                child(depth + 1)

    child = tr.span_wrapper("x.node")(node)
    child(0)
    selfs = self_times(tr.starts, tr.ends, tr.parents, tr.leaf_time)
    leaf_total = sum(s for _, s in tr.leaves.values())
    root = tr.ends[0] - tr.starts[0]
    assert math.isclose(sum(selfs) + leaf_total, root, rel_tol=1e-9)
    assert all(s >= 0 for s in selfs)


def test_spans_record_parent_request_and_close_on_error():
    tr = Tracer()
    inner = tr.span_wrapper("layer.inner")(lambda x: 1 / x)
    outer = tr.span_wrapper("layer.outer")(lambda x: inner(x))
    tr.request_id = 7
    assert outer(2) == 0.5
    with pytest.raises(ZeroDivisionError):
        outer(0)
    assert tr.names == ["layer.outer", "layer.inner"] * 2
    assert tr.parents == [-1, 0, -1, 2]
    assert tr.requests == [7, 7, 7, 7]
    assert all(e >= s for s, e in zip(tr.starts, tr.ends))
    assert tr._stack == []


def test_observer_sees_arguments_result_and_error():
    seen = []
    tr = Tracer()
    f = tr.span_wrapper("l.f", lambda t, sid, a, k, r, e: seen.append((sid, a, r, e)))(
        lambda x: x * 2)
    f(3)
    assert seen == [(0, (3,), 6, None)]


def test_leaves_are_counted_per_parent_name_and_charged_to_it():
    tr = Tracer()
    leaf = tr.leaf_wrapper("l.leaf")(lambda: None)
    parent = tr.span_wrapper("l.parent")(lambda: [leaf() for _ in range(3)])
    parent()
    leaf()
    assert tr.leaves[("l.parent", "l.leaf")][0] == 3
    assert tr.leaves[("", "l.leaf")][0] == 1
    assert tr.leaf_time[0] == pytest.approx(tr.leaves[("l.parent", "l.leaf")][1])
    table = span_table(tr)
    assert table["l.leaf"].calls == 4
    assert table["l.parent"].calls == 1
    text = format_table(table, ops=1, op_s=tr.ends[0] - tr.starts[0])
    assert "layer l" in text and "outside traced layers" in text


def test_patcher_swaps_every_binding_and_restores_them():
    import aqakit.frontend as F
    import aqakit.synthetic as S
    original = F.compute_fbank
    assert S.compute_fbank is original
    p = Patcher()
    p.swap("aqakit.frontend:compute_fbank", lambda fn: "wrapped")
    assert F.compute_fbank == "wrapped" and S.compute_fbank == "wrapped"
    p.restore()
    assert F.compute_fbank is original and S.compute_fbank is original


def test_patcher_swaps_methods_on_the_class():
    from aqakit.model.decoder import AudioTextLm
    original = AudioTextLm.__dict__["sgd_step"]
    p = Patcher()
    p.swap("aqakit.model.decoder:AudioTextLm.sgd_step", lambda fn: "wrapped")
    assert AudioTextLm.__dict__["sgd_step"] == "wrapped"
    p.restore()
    assert AudioTextLm.__dict__["sgd_step"] is original


def test_traced_curriculum_is_bit_identical_to_untraced(tmp_path):
    import layers
    from workloads import TrainCurriculum

    wl = TrainCurriculum(seed=0, workdir=tmp_path)
    wl.setup()
    runs = []
    for traced in (False, True):
        tr = Tracer()
        wl.prepare(0)
        patch = layers.install(tr) if traced else None
        try:
            wl.op(0)
        finally:
            if patch:
                patch.restore()
        runs.append((wl._losses(), wl.model, tr))
    (losses0, model0, _), (losses1, model1, tr) = runs
    assert losses0 == losses1
    for k, v in model0.base.items():
        assert np.array_equal(model1.base[k], v)
        assert np.array_equal(wl.base0[k], v)
    for k, v in model0.trainable_parameters().items():
        assert np.array_equal(model1.trainable_parameters()[k], v)
    table = span_table(tr)
    assert table["model.sgd_step"].calls == 89
    assert table["training.make_example"].calls == 710
    assert table["model.forward"].calls == 710
