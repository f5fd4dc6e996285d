import time
from array import array

from tracer import Tracer, aggregate, layer_self_ns


def _spans(*rows):
    return array("q", [v for row in rows for v in row])


def test_self_time_on_toy_nesting():
    # a [0, 100] holds b [10, 40] and c [50, 90]; b holds d [20, 25].
    names = ["cli.main", "symstats.sweep", "symstats.dimension", "partitions.hook_lengths"]
    spans = _spans(
        (0, 0, 100, -1),
        (1, 10, 40, 0),
        (3, 20, 25, 1),
        (2, 50, 90, 0),
    )
    agg = aggregate([(names, spans)])
    assert agg["cli.main"] == [1, 100, 100 - 30 - 40]
    assert agg["symstats.sweep"] == [1, 30, 25]
    assert agg["partitions.hook_lengths"] == [1, 5, 5]
    assert agg["symstats.dimension"] == [1, 40, 40]
    assert layer_self_ns(agg) == {
        "partitions": 5, "symstats": 65, "rsk": 0, "qseries": 0, "kirillov": 0, "cli": 30,
    }


def test_aggregate_sums_invocations_and_keeps_parents_local():
    names = ["cli.main", "rsk.rsk_shape"]
    one = _spans((0, 0, 10, -1), (1, 2, 6, 0))
    two = _spans((0, 100, 120, -1), (1, 101, 103, 0), (1, 104, 110, 0))
    agg = aggregate([(names, one), (names, two)])
    assert agg["cli.main"] == [2, 30, 30 - 12]
    assert agg["rsk.rsk_shape"] == [3, 12, 12]


def test_wrappers_record_nesting_and_generator_resumes():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = tracer._span(leaf, "partitions.hook_lengths")

    def gen(k):
        for i in range(k):
            leaf_w()
            yield i

    gen_w = tracer._span(gen, "partitions.enumerate_partitions")

    def root():
        return sum(gen_w(3))

    assert tracer._span(root, "cli.main")() == 3
    agg = aggregate([(tracer.names, tracer.spans)])
    assert agg["cli.main"][0] == 1
    assert agg["partitions.enumerate_partitions"][0] == 4  # three yields and the final resume
    assert agg["partitions.hook_lengths"][0] == 3
    assert tracer.counters["partitions.enumerate_partitions.yielded"] == 3
    main_calls, main_total, main_self = agg["cli.main"]
    assert main_self == main_total - agg["partitions.enumerate_partitions"][1]
    gen_total, gen_self = agg["partitions.enumerate_partitions"][1:]
    assert gen_self == gen_total - agg["partitions.hook_lengths"][1]
    assert agg["partitions.hook_lengths"][1] >= 3 * 2_000_000
