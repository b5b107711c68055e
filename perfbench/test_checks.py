"""Self-tests of the benchmark's correctness checks.

    python3 -m pytest perfbench/test_checks.py -q

The planted fault is a tampered makespan: an op that reports a makespan
other than its schedule's must fail the checks and raise the failure
ratio, while the same ops untampered pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402


def small_paper_mix() -> run.PaperMix:
    workload = run.PaperMix(seed=3, seconds=0)
    workload.setup()
    workload.problems = workload.problems[:4]
    return workload


def test_untampered_ops_pass():
    workload = small_paper_mix()
    log = workload.run_loop(0, passes=2)
    assert log.attempted == 8
    assert log.failed == 0
    assert workload.checker.failures == []
    assert len(log.quality) == 4


def test_tampered_makespan_fails_and_raises_fail_ratio():
    workload = small_paper_mix()
    planted = workload.problems[1]

    def tamper(problem, result):
        return result.makespan * 0.97 if problem is planted else result.makespan

    log = workload.run_loop(0, passes=2, tamper=tamper)
    assert log.failed == 2  # the planted problem, in both passes
    assert log.failed / log.attempted == 0.25
    assert any("makespan" in failure for failure in workload.checker.failures)


def test_worse_than_seed_makespan_is_caught():
    workload = small_paper_mix()
    log = workload.run_loop(
        0, passes=1, tamper=lambda problem, result: max(result.seed_makespans.values()) * 2
    )
    assert log.failed == log.attempted
    assert any("exceeds the best seed" in f for f in workload.checker.failures)


def test_changed_repeat_digest_is_caught():
    workload = small_paper_mix()
    calls = []

    def drift(problem, result):
        calls.append(problem)
        # the second answer to the same problem drifts in the last digit
        return result.makespan if len(calls) <= 4 else result.makespan * (1 + 1e-15)

    log = workload.run_loop(0, passes=2, tamper=drift)
    assert log.failed >= 1
    assert any("result digest" in f for f in workload.checker.failures)


def test_op_on_the_wrong_engine_fails(monkeypatch):
    workload = small_paper_mix()
    monkeypatch.setattr(run, "expected_engine", lambda: "numpy")
    log = workload.run_loop(0, passes=1)
    assert log.failed == log.attempted == 4
    assert all("engine" in f for f in workload.checker.failures)


def test_set_up_on_the_wrong_engine_fails_every_op(monkeypatch):
    log = run.OpLog()
    for i in range(5):
        log.add(0.1, True, f"p{i}", 1.0, 2.0, "d")
    checker = checks.Checker()
    assert run.count_failed(log, checker, run.expected_engine()) == 0
    monkeypatch.setattr(run, "expected_engine", lambda: "c")
    assert run.count_failed(log, checker, "numpy") == 5


def test_cli_fields_round_trip():
    fields = run.cli_fields(143.4712, {"hcpa": 311.0712, "mcpa": 311.0712}, 1010)
    stdout = "\n".join([
        "algorithm : emts10",
        "seed hcpa           : 311.071 s",
        "seed mcpa           : 311.071 s",
        "makespan  : 143.471 s",
        "evals     : 1010",
        "evaluator : 1013 evaluations (1005 mapper calls, 8 cache hits, 0.8% hit rate) in 0.02 s",
    ])
    parsed = run.parse_cli(stdout)
    assert parsed.pop("evaluator") == [1013, 1005, 8]
    assert parsed == fields


def test_host_speed_takes_out_the_time_stolen_around_each_op():
    speed = hostspeed.HostSpeed()
    # readings a second apart, 100 busy ticks a second; from the tenth
    # second on, the hypervisor steals half of the CPU time wanted
    busy = steal = 0
    for i in range(20):
        speed.marks.append((float(i), (busy, steal)))
        busy += 100
        steal += 100 if i >= 10 else 0
    speed.ops = [1.0, 18.0]
    assert speed.scale([0.1, 0.2]) == pytest.approx([0.1, 0.1])
    assert speed.stolen == pytest.approx(900 / 2800)
    with pytest.raises(ValueError):
        speed.scale([0.1])


def test_problem_medians_take_out_one_slow_op():
    walls = [1.0, 2.0, 1.1, 2.1, 5.0, 2.0]
    labels = ["a", "b", "a", "b", "a", "b"]
    assert run.problem_medians(walls, labels) == [1.1, 2.0]


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    assert run.tail(values)[0] == 99.0
    assert run.tail(values[:100])[0] == 90.0
    assert run.tail(values[:30])[0] == 75.0  # too few samples: p75


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), "printed a result without the program"
    json.loads((tmp_path / "BENCHMARK.json").read_text())
