import pytest

from benchstats import latency_summary, percentile, self_times, tail_rank


def test_nearest_rank_percentile():
    vals = list(range(10, 0, -1))  # 10..1, unsorted on purpose
    assert percentile(vals, 50) == 5
    assert percentile(vals, 90) == 9
    assert percentile(vals, 100) == 10
    assert percentile(vals, 1) == 1
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(vals, 0)


@pytest.mark.parametrize("n,q", [(9, None), (99, None), (100, 90.0), (999, 90.0),
                                 (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_needs_ten_samples_beyond(n, q):
    assert tail_rank(n) == q


def test_latency_summary_states_count_and_tail():
    summary = latency_summary([float(v) for v in range(1, 301)])
    assert summary == {"n": 300, "p50": 150.5, "tail_q": 90.0, "tail": 270.0}
    assert "tail" not in latency_summary([1.0, 2.0, 3.0])


def span(name, start, end, parent):
    return (name, start, end, parent, "run")


def test_self_time_subtracts_direct_children():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 1.0, 3.0, 0),
             span("b", 4.0, 8.0, 0),
             span("b.inner", 5.0, 6.0, 2)]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [span("root", 0.0, 10.0, -1),
             span("a", 2.0, 6.0, 0),
             span("b", 4.0, 12.0, 0)]  # overlaps a, runs past the parent's end
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span("x", 1.5, 2.0, -1)]) == pytest.approx([0.5])
