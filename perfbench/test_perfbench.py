"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys
from pathlib import Path

import pytest

import spans
import stats

SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# tail percentile


def test_tail_picks_the_sample_with_ten_beyond():
    t = stats.tail(range(1, 101))
    assert (t.value, t.percentile, t.count, t.beyond) == (90, 90.0, 100, 10)


def test_tail_of_a_thousand_samples_is_p99():
    t = stats.tail([x / 1000 for x in range(1000, 0, -1)])
    assert t.value == 0.99
    assert (t.percentile, t.count, t.beyond) == (99.0, 1000, 10)
    assert "p99.0 of 1000 samples, 10 beyond" == t.describe()


def test_tail_falls_back_to_the_maximum_below_a_hundred_samples():
    t = stats.tail(range(99))
    assert (t.value, t.count, t.beyond) == (98, 99, 0)
    assert "max of 99 samples" in t.describe()
    t = stats.tail([0.3, 0.1, 0.2])
    assert (t.value, t.count, t.beyond) == (0.3, 3, 0)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.tail([])


# ---------------------------------------------------------------------------
# self time on a synthetic span tree


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def perf_counter(self):
        return next(self.ticks)


def test_self_time_subtracts_children(monkeypatch):
    # cli.main [0, 10] > realization.suite [1, 4] > matcore.norm [2, 3]
    #                  > hardy.pullback [5, 9]
    monkeypatch.setattr(spans, "time", FakeClock([0.0, 1.0, 2.0, 5.0]))
    rec = spans.Recorder(keep_s=0.0)
    root = rec.open("cli.main")
    suite = rec.open("realization.suite")
    norm = rec.open("matcore.norm")
    rec.close(norm, 3.0)
    rec.close(suite, 4.0)
    pull = rec.open("hardy.pullback")
    rec.close(pull, 9.0)
    rec.close(root, 10.0)

    assert rec.self_time == {
        "matcore.norm": 1.0,
        "realization.suite": 2.0,
        "hardy.pullback": 4.0,
        "cli.main": 3.0,
    }
    assert rec.total["cli.main"] == 10.0
    assert rec.root_time == 10.0
    layers = rec.layer_self()
    assert layers["cli"] == 3.0 and layers["hardy"] == 4.0
    assert sum(layers.values()) == rec.root_time
    parents = {name: parent for _, parent, name, *_ in rec.spans}
    ids = {name: span_id for span_id, _, name, *_ in rec.spans}
    assert parents["matcore.norm"] == ids["realization.suite"]
    assert parents["hardy.pullback"] == ids["cli.main"]
    assert parents["cli.main"] is None


def test_short_spans_are_counted_but_not_stored(monkeypatch):
    monkeypatch.setattr(spans, "time", FakeClock([0.0, 0.1]))
    rec = spans.Recorder(keep_s=1.0)
    root = rec.open("cli.main")
    leaf = rec.open("matcore.adj")
    rec.close(leaf, 0.2)
    rec.close(root, 2.0)
    assert rec.calls["matcore.adj"] == 1
    assert [name for _, _, name, *_ in rec.spans] == ["cli.main"]


def test_closing_out_of_order_is_an_error(monkeypatch):
    monkeypatch.setattr(spans, "time", FakeClock([0.0, 1.0]))
    rec = spans.Recorder()
    outer = rec.open("cli.main")
    rec.open("matcore.adj")
    with pytest.raises(RuntimeError):
        rec.close(outer, 2.0)


def test_layer_metrics_add_setup_to_the_mean_round():
    setup, rounds = spans.Recorder(), spans.Recorder()
    setup.calls["realization.transfer_eval"] = 100
    setup.total["vonneumann.precompute_torus"] = 1.5
    rounds.calls["realization.transfer_eval"] = 40
    rounds.attrs["vonneumann.vn_check"] += [{"margin": 0.5, "grid": 32}, {"margin": 0.25, "grid": 32}]
    rounds.attrs["realization.inner_check"].append({"points": 100, "singular": 4})
    out = spans.layer_metrics(setup, rounds, n_rounds=2)
    assert out["realization.transfer_eval_calls"] == 120
    assert out["vonneumann.precompute_torus_s"] == 1.5
    assert out["vonneumann.min_margin"] == 0.25
    assert out["realization.torus_regular_ratio"] == 0.96
    assert out["hardy.block_pullback_s"] == 0.0


# ---------------------------------------------------------------------------
# wrappers on the real program


@pytest.fixture
def polydil_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import polydil  # noqa: F401
    from polydil import hardy, matcore

    return hardy, matcore


def test_wrappers_reach_names_imported_by_value(polydil_modules):
    hardy, matcore = polydil_modules
    original = matcore.operator_norm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hardy.operator_norm is matcore.operator_norm
        assert matcore.operator_norm is not original
        hardy.operator_norm([[3.0, 0.0], [0.0, 1.0]])
        matcore.operator_norm([[1.0]])
        method = hardy.CoefficientEmbedding.isometry_defect
        assert method.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert matcore.operator_norm is original and hardy.operator_norm is original
    assert tracer.recorder.calls["matcore.operator_norm"] == 2
    assert not hasattr(hardy.CoefficientEmbedding.isometry_defect, "__wrapped__")


# ---------------------------------------------------------------------------
# failure accounting


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    assert tally.record("verify:w2:", "verify.n4", 1.0, True, True, b"a")
    assert not tally.record("verify:w3:", "verify.nonnormal", 0.5, False, True, b"b")
    assert (tally.attempted, tally.failed, tally.passed) == (2, 1, 1)
    assert tally.fail_frac == 0.5
    assert tally.correct  # the program reported that failure itself
    assert tally.failed_by_kind == {"verify.nonnormal": 1}
    assert tally.samples["verify.n4"] == {"verify:w2:": [1.0]}


def test_kind_seconds_averages_the_median_of_each_input():
    tally = stats.Tally()
    for key, seconds in [("w2", 0.008), ("w2", 0.009), ("w2", 0.030), ("w3", 0.014)]:
        tally.record(key, "cmd.certify", seconds, True, True, None)
    assert tally.kind_seconds("cmd.certify") == (0.009 + 0.014) / 2


def test_tally_marks_changed_bytes_as_unsound():
    tally = stats.Tally()
    tally.record("certify:w1:", "cmd.certify", 0.01, True, True, b"x")
    tally.record("certify:w1:", "cmd.cold_certify", 0.3, True, True, b"x")
    assert tally.correct and tally.failed == 0
    assert not tally.record("certify:w1:", "cmd.certify", 0.01, True, True, b"y")
    assert not tally.correct
    assert (tally.attempted, tally.failed, tally.unsound) == (3, 1, 1)
    assert any("differ" in note for note in tally.notes)


def test_mean_of_medians_weights_every_input_equally():
    # a single median over all six samples would fall between the inputs
    per_input = {"fx22": [0.010, 0.011, 0.030], "fx33": [0.040, 0.046, 0.050]}
    assert stats.mean_of_medians(per_input) == pytest.approx((0.011 + 0.046) / 2)


def test_at_reference_rescales_by_the_mean_loop_time():
    # the loop took 3 ms before, 4 ms during and 5 ms after the operation,
    # 4 ms on average against a reference of 2.5 ms: the host ran at 0.625
    # of reference speed
    assert stats.at_reference(0.6, [0.003, 0.004, 0.005], 0.0025) == pytest.approx(0.375)
    assert stats.at_reference(0.6, [0.0025, 0.0025], 0.0025) == pytest.approx(0.6)


def test_tally_counts_unsound_output_as_failed():
    tally = stats.Tally()
    assert not tally.record("dilate:w1:", "cmd.dilate", 0.01, True, False, None)
    assert tally.failed == 1 and not tally.correct


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
