"""The claim rule and the refusals of scripts/bench.py, with no perfbench run
and no worktree."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "bench.py")


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """scripts/bench.py as a fresh module whose root is an empty directory
    and whose perfbench runs and worktrees fail the test."""
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def forbidden(*args, **kwargs):
        raise AssertionError("a perfbench run or a worktree was started")

    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    monkeypatch.setattr(module, "perfbench", forbidden)
    monkeypatch.setattr(module, "worktree", forbidden)
    return module


# Ten parent runs with a narrow spread: quartiles 10.0225 and 10.0675.
NARROW = [10.0 + 0.01 * i for i in range(10)]


class TestVerdict:
    def test_ties_count_for_neither_side(self, bench):
        parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        change = [1.0, 2.0, 3.0, 0.5, 0.5, 0.5, 0.5, 9.0, 10.0, 11.0]
        v = bench.verdict(parent, change, "lower")
        assert (v["won"], v["lost"], v["pairs"]) == (4, 3, 10)
        assert bench.verdict(parent, parent, "lower")["won"] == 0
        assert bench.verdict(parent, parent, "lower")["lost"] == 0

    def test_nine_wins_in_ten_meet_the_claim(self, bench):
        v = bench.verdict(NARROW, [5.0] * 9 + [20.0], "lower")
        assert (v["won"], v["lost"]) == (9, 1)
        assert v["verdict"] == "met"

    def test_eight_wins_in_ten_do_not(self, bench):
        v = bench.verdict(NARROW, [5.0] * 8 + [20.0, 20.0], "lower")
        assert (v["won"], v["lost"]) == (8, 2)
        assert v["median_gap"] < -v["parent_iqr"]
        assert v["verdict"] == "not met"

    def test_median_gap_must_exceed_parent_iqr(self, bench):
        parent = [float(i) for i in range(1, 11)]
        # Inclusive quartiles 3.25 and 7.75.
        small = bench.verdict(parent, [p - 4.0 for p in parent], "lower")
        assert small["won"] == 10
        assert small["parent_iqr"] == pytest.approx(4.5)
        assert small["median_gap"] == pytest.approx(-4.0)
        assert small["verdict"] == "not met"
        assert bench.verdict(parent, [p - 5.0 for p in parent], "lower")["verdict"] == "met"

    def test_higher_is_better_flips_the_sign(self, bench):
        change = [20.0] * 10
        higher = bench.verdict(NARROW, change, "higher")
        lower = bench.verdict(NARROW, change, "lower")
        assert (higher["won"], higher["lost"], higher["verdict"]) == (10, 0, "met")
        assert (lower["won"], lower["lost"], lower["verdict"]) == (0, 10, "not met")
        assert higher["median_gap"] == lower["median_gap"] > 0.0


class TestRefusals:
    def test_dirty_checkout_exits_1_and_writes_nothing(self, bench, monkeypatch, tmp_path,
                                                       capsys):
        calls = []

        def git(*args):
            calls.append(args)
            return " M src/spectilt/runtime.py" if args[0] == "status" else "0" * 40

        monkeypatch.setattr(bench, "git", git)
        assert bench.main(["--against", "HEAD"]) == 1
        assert [args[0] for args in calls] == ["status"]
        assert os.listdir(tmp_path) == []
        assert "uncommitted changes" in capsys.readouterr().err

    def test_against_is_required(self, bench, tmp_path):
        with pytest.raises(SystemExit) as exc:
            bench.main([])
        assert exc.value.code == 2
        assert os.listdir(tmp_path) == []
