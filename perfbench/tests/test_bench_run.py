from run import end_to_end, sequence_s


def _sample(wall, setup, scale, ok=True, rss=20.0):
    return {"wall_s": wall, "setup_s": setup, "scale": scale, "ok": ok, "rss_mb": rss}


def test_times_are_scaled_per_invocation_and_summed_over_the_sequence():
    passes = [
        {"wall_s": 3.0, "samples": [_sample(1.0, 0.10, 1.0), _sample(2.0, 0.10, 1.0)]},
        {"wall_s": 6.0, "samples": [_sample(2.0, 0.20, 0.5), _sample(4.0, 0.20, 0.5, ok=False, rss=30.0)]},
        {"wall_s": 4.5, "samples": [_sample(1.5, 0.12, 1.0), _sample(3.0, 0.12, 0.8)]},
    ]
    # Scaled walls: first invocation 1.0, 1.0, 1.5 -> median 1.0; second 2.0, 2.0, 2.4 -> 2.0.
    assert sequence_s(passes) == 3.0
    metrics = end_to_end(passes)
    assert metrics["wall_s"] == 3.0
    assert metrics["setup_s"] == 0.10  # scaled set-ups 0.1, 0.1, 0.1, 0.1, 0.12, 0.096
    assert metrics["peak_rss_mb"] == 30.0
    assert metrics["pass_rate"] == 5 / 6
