import json

import pytest

import compare


def test_within_bound_when_medians_are_close():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    b = [10.2, 10.3, 10.1, 10.25, 10.15]
    assert compare.verdict(a, b, "lower", 0.10)["verdict"] == "within bound"


def test_worse_beyond_bound():
    a = [10.0, 10.1, 9.9, 10.05, 9.95]
    b = [x * 1.2 for x in a]
    result = compare.verdict(a, b, "lower", 0.10)
    assert result["verdict"] == "worse"
    assert result["change"] == pytest.approx(-0.2)
    # For a higher-is-better metric the same move is a gain.
    assert compare.verdict(a, b, "higher", 0.10)["verdict"] == "better"


def test_better_needs_wins_and_a_gap_wider_than_the_spread():
    a = [10.0, 10.4, 9.6, 10.2, 9.8]
    clear = [x * 0.9 for x in a]
    assert compare.verdict(a, clear, "lower", 0.10)["verdict"] == "better"
    # A gain smaller than the baseline's own IQR is not claimed.
    slight = [x * 0.98 for x in a]
    assert compare.verdict(a, slight, "lower", 0.10)["verdict"] == "within bound"


def test_unresolved_when_spread_exceeds_bound():
    a = [5.0, 10.0, 15.0, 7.0, 13.0]
    b = [6.0, 11.0, 14.0, 8.0, 12.0]
    assert compare.verdict(a, b, "lower", 0.10)["verdict"] == "unresolved"
    # ...unless every B run beats every A run.
    assert compare.verdict(a, [1.0, 2.0, 3.0], "lower", 0.10)["verdict"] == "better"


def test_main_reads_result_directories(tmp_path, capsys):
    benchmark = {
        "workloads": [{"name": "w", "why": "x"}],
        "end_to_end": [{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    for side, scale in (("a", 1.0), ("b", 1.5)):
        directory = tmp_path / side
        directory.mkdir()
        for seed in range(3):
            record = {"workload": "w", "trace": False, "smoke": False, "correct": True,
                      "metrics": {"p50_ms": {"value": scale * (10 + seed * 0.1), "unit": "ms"}}}
            (directory / f"w-seed{seed}.json").write_text(json.dumps(record))
        skipped = dict(record, correct=False)
        (directory / "w-seed9.json").write_text(json.dumps(skipped))
    code = compare.main([str(tmp_path / "a"), str(tmp_path / "b"),
                         "--benchmark", str(tmp_path / "BENCHMARK.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "worse (n=3/3)" in out
