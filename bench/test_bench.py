"""Tests of the benchmark itself: inputs, checker, tracer and counts.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from workloads import WORKLOADS, Cycle, Membership, Reduce  # noqa: E402


def inputs(workload, cycles=2):
    """Everything the program would see: files and argument vectors."""
    out = []
    for k in range(cycles):
        c = workload.cycle(k)
        out.append((sorted(c.files.items()), [q.argv(q.presentation) for q in c.queries]))
    return json.dumps(out).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    cls = WORKLOADS[name]
    assert inputs(cls(7)) == inputs(cls(7))
    assert inputs(cls(7)) != inputs(cls(8))


@pytest.fixture
def runner():
    from click.testing import CliRunner

    return CliRunner()


@pytest.fixture
def cli_main():
    from mihailova.cli import main

    return main


def answer(runner, cli_main, tmp_path, cycle, query):
    run.write_files(tmp_path, cycle.files)
    result = runner.invoke(cli_main, query.argv(str(tmp_path / query.presentation)))
    return result.exit_code, result.output


def first(cycle, qclass):
    return next(q for q in cycle.queries if q.qclass == qclass)


def test_checker_accepts_real_answers_and_flags_tampering(runner, cli_main, tmp_path):
    cycle = Membership(3).cycle(0)
    query = first(cycle, "short")
    code, out = answer(runner, cli_main, tmp_path, cycle, query)
    assert out.startswith("equal-in-H")
    assert checker.check("membership", query.expect, code, out) == (True, None)

    head, factor, *rest = out.splitlines()
    tampered = "\n".join([head, factor + " x1", *rest])
    decided, error = checker.check("membership", query.expect, code, tampered)
    assert error == "certificate does not multiply out to w1 w2^-1"

    wrong = "not-equal-in-H\nobstruction 0 0\n"
    decided, error = checker.check("membership", query.expect, code, wrong)
    assert error == "not-equal-in-H for a pair that is equal in H"

    unequal = first(cycle, "abelian")
    code, out = answer(runner, cli_main, tmp_path, cycle, unequal)
    assert checker.check("membership", unequal.expect, code, out) == (True, None)
    decided, error = checker.check("membership", unequal.expect, 0, "equal-in-H\n")
    assert error == "equal-in-H for a pair that differs in H"


def test_checker_flags_broken_reduction_trail(runner, cli_main, tmp_path):
    cycle = Reduce(3).cycle(0)
    query = cycle.queries[0]
    code, out = answer(runner, cli_main, tmp_path, cycle, query)
    assert checker.check("reduce-identity", query.expect, code, out) == (True, None)
    lines = out.splitlines()
    assert checker.check("reduce-identity", query.expect, code,
                         "\n".join(lines[:-1]))[1] is not None
    assert checker.check("reduce-identity", query.expect, code,
                         "\n".join(lines[:-1] + ["d1 d1^-1 t1"]))[1] is not None
    assert checker.check("reduce-identity", query.expect, 1, out)[1] == "exit code 1"


TAMPER = {
    "check": lambda out: out.rstrip("\n") + " x1^-1\n",
    "relators": lambda out: out.split("\n", 1)[1],
    "embed-aut": lambda out: out.replace("b -> b", "b -> a", 1),
}


def test_checker_flags_wrong_onboarding_answers(runner, cli_main, tmp_path):
    cycle = WORKLOADS["onboard"](3).cycle(0)
    for query in cycle.queries[:3]:
        code, out = answer(runner, cli_main, tmp_path, cycle, query)
        assert checker.check(query.command, query.expect, code, out) == (True, None)
        broken = TAMPER[query.command](out)
        assert checker.check(query.command, query.expect, code, broken)[1] is not None


def test_z4z4_normal_form_decides_equality():
    x1, x2 = 1, 2
    assert checker.z4z4_normal_form((x1,) * 5) == checker.z4z4_normal_form((x1,))
    assert checker.z4z4_normal_form((x1, x2, -x2, x1, x1, x1)) == ()
    assert checker.z4z4_normal_form((x1, x2)) != checker.z4z4_normal_form((x2, x1))


class Fixed:
    """A workload of one fixed cycle, for traced runs in tests."""

    trace_cycles = 1

    def __init__(self, cycle):
        self._cycle = cycle

    def cycle(self, k):
        return self._cycle


def small_mixed_cycle():
    m, r = Membership(5).cycle(0), Reduce(5).cycle(0)
    queries = [q for q in m.queries if q.qclass in ("short", "abelian")][:6]
    queries += r.queries[:4]
    return Cycle({**m.files, **r.files}, queries)


def traced(runner, cli_main, tmp_path):
    return run.traced_run(Fixed(small_mixed_cycle()), runner, cli_main, tmp_path,
                          float("inf"), tmp_path / "spans.jsonl")


def test_counts_repeat_exactly_and_self_times_add_up(runner, cli_main, tmp_path):
    answers1, metrics1, skipped = traced(runner, cli_main, tmp_path)
    answers2, metrics2, _ = traced(runner, cli_main, tmp_path)
    assert skipped == []
    assert all(a.error is None for a in answers1 + answers2)
    assert set(metrics1) == {name for name, _, _ in run.PER_LAYER}
    for name, unit, _ in run.PER_LAYER:
        if unit == "count":
            assert metrics1[name] == metrics2[name], name
    for name in ("presentations.closure_children", "words.word_new", "peiffer.transforms"):
        assert metrics1[name]["value"] > 0
    layers = sum(metrics1[f"{layer}.self_s"]["value"] for layer in run.LAYERS)
    assert layers == pytest.approx(metrics1["trace.query_s"]["value"], rel=1e-9)
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert set(json.loads(spans[0])) == {"name", "start", "end", "parent", "query"}


def test_tracer_survives_missing_targets(runner, cli_main, tmp_path, monkeypatch):
    import mihailova.pairs

    # the peiffer module keeps its own binding, so the program still runs
    monkeypatch.delattr(mihailova.pairs, "decompose")
    monkeypatch.setattr(tracer_module, "COUNT_TARGETS", tracer_module.COUNT_TARGETS + (
        ("words.gone", "mihailova.words", "Word.no_such_method", None),
    ))
    answers, metrics, skipped = traced(runner, cli_main, tmp_path)
    assert all(a.error is None for a in answers)
    assert skipped == ["pairs.decompose: mihailova.pairs.decompose",
                       "words.gone: mihailova.words.Word.no_such_method"]
    assert "pairs.decompose_calls" not in metrics
    assert "pairs.pair_image_calls" in metrics
    assert mihailova.pairs.pair_image.__name__ == "pair_image"  # uninstalled


def test_tracer_patches_every_binding_site():
    import mihailova.cli
    import mihailova.pairs
    import mihailova.peiffer

    original = mihailova.pairs.in_pair_kernel
    t = tracer_module.Tracer()
    t.install()
    try:
        assert mihailova.cli.in_pair_kernel is mihailova.peiffer.in_pair_kernel
        assert mihailova.peiffer.in_pair_kernel is not original
        assert mihailova.cli.in_mihailova is mihailova.pairs.in_mihailova
    finally:
        t.uninstall()
    assert mihailova.peiffer.in_pair_kernel is original


def test_query_over_the_limit_fails_and_the_run_goes_on(runner, cli_main, tmp_path, monkeypatch):
    import signal

    cycle = Membership(3).cycle(0)
    run.write_files(tmp_path, cycle.files)
    monkeypatch.setattr(run, "QUERY_LIMIT_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        slow = run.run_query(runner, cli_main, first(cycle, "cap"), tmp_path)
        fast = run.run_query(runner, cli_main, first(cycle, "abelian"), tmp_path)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert slow.error == "over the per-query limit" and slow.latency_s == 0.05
    assert fast.error is None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
