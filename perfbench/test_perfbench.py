"""The benchmark's own tests, at tiny scale.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _names(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_checks_answers_and_prints_its_metrics(
        workload, trace, tmp_path):
    result = run.benchmark(workload, seed=5, seconds=1, trace=trace,
                           size_gb=1, count=4, state_dir=tmp_path)
    assert result.correct and result.failed == 0 and result.attempted >= 4
    line = json.loads(result.json_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = _names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_a_second_seed_runs_clean_and_repeats(tmp_path):
    for __ in range(2):  # the second run compares with the first's record
        result = run.benchmark("ingest_upsert", seed=6, seconds=1, trace=False,
                               size_gb=1, count=3, state_dir=tmp_path)
        assert result.correct
    assert len(list(tmp_path.iterdir())) == 1


def test_wrong_answers_count_as_failed(tmp_path, monkeypatch):
    real = ops.plan_workload

    def corrupted(*args, **kwargs):
        plan = real(*args, **kwargs)
        plan.ops[0].expected = [(0, 0, 0, -1)]
        return plan

    monkeypatch.setattr(ops, "plan_workload", corrupted)
    result = run.benchmark("point_lookup", seed=5, seconds=1, trace=False,
                           size_gb=1, count=3, state_dir=tmp_path)
    assert not result.correct and result.failed == 1 and result.attempted == 3


def test_changed_fingerprint_for_the_same_source_fails_loudly(tmp_path):
    run.check_repeat(tmp_path, "k", {"sim_read_s": 1.0})
    run.check_repeat(tmp_path, "k", {"sim_read_s": 1.0})
    with pytest.raises(run.DeterminismError):
        run.check_repeat(tmp_path, "k", {"sim_read_s": 2.0})


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_times_add_up_to_the_operation_on_a_synthetic_tree():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def enter(t: int, name: str) -> None:
        clock.now = t
        tracer.enter(name)

    def leave(t: int) -> None:
        clock.now = t
        tracer.exit()

    def produce():
        clock.now = 42
        yield 1
        clock.now = 75
        yield 2

    it = layers._TimedIterator(tracer, "gen", produce())
    with tracer.op("read"):     # op   0 .. 100
        enter(10, "a")          # a   10 .. 60
        enter(20, "b")          # b   20 .. 30
        leave(30)
        clock.now = 40
        next(it)                # gen 40 .. 42, inside a
        enter(42, "c")          # c   42 .. 50
        leave(50)
        leave(60)
        enter(70, "d")          # d   70 .. 90
        clock.now = 73
        next(it)                # gen 73 .. 75, inside d
        leave(90)
        clock.now = 100
    (op,) = tracer.ops
    self_ns = {name: s.self_ns for name, s in op.spans.items()}
    assert self_ns == {"op": 30, "a": 30, "b": 10, "gen": 4, "c": 8, "d": 18}
    assert op.spans["gen"].total_ns == 4 and op.spans["gen"].calls == 2
    assert op.wall_ns == 100 == op.self_sum_ns()


def test_wrappers_are_removed_after_the_traced_block():
    targets = layers.op_targets() + layers.setup_targets()
    before = [vars(t.owner)[t.attr] for t in targets]
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with layers.installed(tracer, targets):
            assert any(vars(t.owner)[t.attr] is not b for t, b in zip(targets, before))
            raise RuntimeError("the block fails")
    assert [vars(t.owner)[t.attr] for t in targets] == before


def test_calls_from_other_threads_pass_through_untimed():
    import threading

    tracer = layers.Tracer()

    class Owner:
        def work(self):
            return 7

    with layers.installed(tracer, [layers.Target(Owner, "work", "w")]):
        out = []
        worker = threading.Thread(target=lambda: out.append(Owner().work()))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and out == [7]
        with tracer.op("read"):
            assert Owner().work() == 7
    assert tracer.ops[0].spans["w"].calls == 1


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(40)))[0] == 75
    assert run.tail(list(range(12)))[0] == 50
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 99
    assert run.tail(list(range(10000)))[0] == 99.9
    assert run.percentile([1, 2, 3, 4], 50) == 2.5


def test_same_rows_ignores_order_and_float_noise():
    assert ops.same_rows([(2, 0.1 + 0.2), (1, None)], [(1, None), (2, 0.3)])
    assert not ops.same_rows([(1, 0.3)], [(1, 0.31)])
    assert not ops.same_rows([(1,)], [(1,), (1,)])
    assert not ops.same_rows(None, [])
