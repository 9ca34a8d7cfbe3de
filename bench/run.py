"""Benchmark for the mihailova command-line toolkit.

    python3 bench/run.py --workload membership --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client sends one query at a time (a closed loop), each query
one in-process invocation of ``mihailova.cli.main`` through click's
``CliRunner``, on one core.  Inputs come from ``--seed`` alone (see
``workloads.py``); every answer is judged by ``checker.py``, which shares no
code with the package.

With ``--trace 0`` the run issues whole cycles of queries until they have
kept the CLI busy for ``--seconds``, and reports the end-to-end metrics.

With ``--trace 1`` it runs a fixed number of cycles twice, first with
spans around every call into the package's layers and then without, and
reports per-layer metrics; the spans are written to
``.bench_work/spans-<workload>-<seed>.jsonl``.  A fixed query set makes
every count in the traced run repeat exactly for a given seed.

On a shared host a core's speed can change twofold over tens of seconds
with other tenants' load.  So a fixed piece of pure-Python work (the
reference) is timed before every query and after the last, and every
reported time is scaled to a core on which the reference takes
``REFERENCE_S``: a query's wall time is multiplied by ``REFERENCE_S`` over
the median of the eight reference times around it.  The unscaled figures
are in the run record.

The last line of standard output is the result object; the line before it
records the interpreter, git commit, core count, seed and step budgets.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from weakref import WeakKeyDictionary

from checker import check
from tracer import Tracer
from workloads import MEMBERSHIP_BUDGETS, REDUCE_ARGS, RELATORS_ARGS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
QUERY_LIMIT_S = 20.0  # hard wall-clock limit per query
RUN_DEADLINE_S = 150.0  # no query starts after this, so a run ends within 180 s
SETUP_REPEATS = 5
REFERENCE_S = 0.001  # reported times are scaled to a core where the reference takes this
_REFERENCE_WORD = tuple(random.Random(0).choice((1, -1, 2, -2, 3, -3)) for _ in range(64))

BUDGETS = {
    "membership": {k: f"--budget-steps {v}" for k, v in MEMBERSHIP_BUDGETS.items()},
    "reduce": {"kernel-word": " ".join(REDUCE_ARGS[1:])},
    "onboard": {"relators": " ".join(RELATORS_ARGS)},
}

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("decided_share", "ratio"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("cli", "presentations", "words", "pairs", "peiffer", "automorphisms")

# (name, unit, tracer spans or counters it is computed from); a metric is
# left out when every target behind one of its sources is missing
PER_LAYER = (
    ("presentations.closure_s", "s", ("presentations.closure",)),
    ("presentations.closure_children", "count", ("presentations.closure_children",)),
    ("presentations.closure_children_per_s", "1/s",
     ("presentations.closure_children", "presentations.closure")),
    ("presentations.cert_factors_mean", "count", ("presentations.closure",)),
    ("presentations.refine_s", "s", ("presentations.refine",)),
    ("words.word_new", "count", ("words.word_new",)),
    ("words.are_conjugate_calls", "count", ("words.are_conjugate",)),
    ("words.are_conjugate_s", "s", ("words.are_conjugate",)),
    ("pairs.pair_image_calls", "count", ("pairs.pair_image",)),
    ("pairs.pair_image_s", "s", ("pairs.pair_image",)),
    ("pairs.kernel_checks_per_query", "count", ("pairs.kernel_check",)),
    ("pairs.decompose_calls", "count", ("pairs.decompose",)),
    ("pairs.mixed_new", "count", ("pairs.mixed_new",)),
    ("pairs.relator_family_s", "s", ("pairs.relator_family",)),
    ("peiffer.search_s", "s", ("peiffer.search",)),
    ("peiffer.verify_s", "s", ("peiffer.verify",)),
    ("peiffer.transforms", "count", ("peiffer.transforms",)),
    ("peiffer.transforms_per_s", "1/s", ("peiffer.transforms", "peiffer.search")),
    ("peiffer.useful_ratio", "ratio", ("peiffer.transforms", "peiffer.search")),
    ("peiffer.cert_moves_mean", "count", ("peiffer.search",)),
    ("automorphisms.embed_s", "s", ("automorphisms.embed",)),
    ("cli.self_ms_per_query", "ms", ()),
    ("cli.output_lines", "count", ()),
    *((f"{layer}.self_s", "s", ()) for layer in LAYERS),
    ("trace.query_s", "s", ()),
    ("trace.overhead_ratio", "ratio", ()),
)


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query.  A BaseException, so that neither
    click's runner nor the package's own handlers swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout


@dataclass
class Answer:
    label: str
    latency_s: float
    decided: bool
    error: str | None
    lines: int


def forget_click_streams():
    """Empty click's per-stream text wrapper caches.  Their values keep
    their keys alive, so each CliRunner invocation would otherwise leave its
    captured output in memory for the rest of the run, which a one-shot CLI
    process never does."""
    from click import _compat

    for name in ("_default_text_stdin", "_default_text_stdout", "_default_text_stderr"):
        for cell in getattr(getattr(_compat, name, None), "__closure__", None) or ():
            if isinstance(cell.cell_contents, WeakKeyDictionary):
                cell.cell_contents.clear()


def run_query(runner, main, query, workdir, tracer=None, query_id=0) -> Answer:
    argv = query.argv(str(workdir / query.presentation))

    def invoke():
        return runner.invoke(main, argv)

    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    try:
        start = time.perf_counter()
        result = invoke() if tracer is None else tracer.run_query(query_id, invoke)
        latency = time.perf_counter() - start
    except QueryTimeout:
        return Answer(query.label, QUERY_LIMIT_S, True, "over the per-query limit", 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        forget_click_streams()
    output = result.output
    decided, error = check(query.command, query.expect, result.exit_code, output)
    if error and result.exception is not None and not isinstance(result.exception, SystemExit):
        error += f" ({result.exception!r})"
    return Answer(query.label, latency, decided, error, output.count("\n"))


def reference_time() -> float:
    """Wall time of a fixed piece of work like the package's inner loops:
    reduced concatenation of letter tuples, kept in a set."""
    start = time.perf_counter()
    seen = set()
    w = ()
    for x in _REFERENCE_WORD * 50:
        w = w[:-1] if w and w[-1] == -x else (w + (x,))[-12:]
        seen.add(w)
    return time.perf_counter() - start


def scale_factors(refs):
    """REFERENCE_S over the median of the eight reference times around each
    query; refs[j] was taken before query j, and the last after the last
    query."""
    return [REFERENCE_S / statistics.median(refs[max(0, j - 3): j + 5])
            for j in range(len(refs) - 1)]


def scaled(latencies, refs):
    return [lat * f for lat, f in zip(latencies, scale_factors(refs))]


def write_files(workdir: Path, files: dict[str, str]):
    for name, text in files.items():
        path = workdir / name
        if not path.exists():
            path.write_text(text)


def measure_setup(files: list[Path]):
    """Fresh imports of mihailova.cli (and click) plus reading and parsing
    the workload's presentation files, SETUP_REPEATS times; returns the
    wall times, the reference times around them, and the CLI entry point."""
    times, refs = [], [reference_time()]
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n.split(".")[0] in ("click", "mihailova")]:
            del sys.modules[name]
        start = time.perf_counter()
        cli = importlib.import_module("mihailova.cli")
        parse = sys.modules["mihailova.presentations"].parse_presentation
        for path in files:
            parse(path.read_text())
        times.append(time.perf_counter() - start)
        refs.append(reference_time())
    return times, refs, cli.main


def percentile_ms(latencies, q):
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def run_queries(queries, runner, main, workdir, deadline, tracer=None):
    """Answers, and reference times taken before each query and after the
    last.  Stops early at the deadline."""
    answers, refs = [], [reference_time()]
    for i, query in enumerate(queries):
        if time.perf_counter() >= deadline:
            break
        answers.append(run_query(runner, main, query, workdir, tracer, i))
        refs.append(reference_time())
    return answers, refs


def timed_run(workload, runner, main, workdir, seconds, deadline):
    """Whole cycles until the queries have been busy for ``seconds``."""
    answers, refs, k = [], [], 0
    while sum(a.latency_s for a in answers) < seconds and time.perf_counter() < deadline:
        cycle = workload.cycle(k)
        write_files(workdir, cycle.files)
        got, got_refs = run_queries(cycle.queries, runner, main, workdir, deadline)
        answers += got
        refs += got_refs if not refs else got_refs[1:]
        k += 1
    return answers, refs, k


def timing_metrics(latencies, setup_s):
    return {
        "setup_s": setup_s,
        "query_p50_ms": percentile_ms(latencies, 50),
        "query_p90_ms": percentile_ms(latencies, 90),
        "queries_per_s": len(latencies) / sum(latencies),
    }


def end_to_end_metrics(answers, latencies, setup_s):
    n = len(answers)
    return {
        **timing_metrics(latencies, setup_s),
        "decided_share": sum(a.decided for a in answers) / n,
        "correct_share": 1 - sum(a.error is not None for a in answers) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, runner, main, workdir, deadline, spans_path):
    queries = []
    for k in range(workload.trace_cycles):
        cycle = workload.cycle(k)
        write_files(workdir, cycle.files)
        queries += cycle.queries
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_refs = run_queries(queries, runner, main, workdir, deadline, tracer)
    finally:
        tracer.uninstall()
    plain, plain_refs = run_queries(queries, runner, main, workdir, deadline)
    tracer.write(spans_path)
    ratio = (sum(scaled([a.latency_s for a in traced], traced_refs))
             / sum(scaled([a.latency_s for a in plain], plain_refs)))
    metrics = layer_metrics(tracer, traced, scale_factors(traced_refs), ratio)
    return traced + plain, metrics, tracer.skipped


def layer_metrics(tracer, answers, scale, overhead_ratio):
    """Per-layer metrics over the traced queries, times scaled like the
    end-to-end ones; metrics whose targets were all missing are left out
    (see tracer.skipped)."""
    totals, calls, counts = tracer.totals(scale), tracer.calls(), tracer.counts
    samples, selfs = tracer.samples, tracer.self_times(scale)
    n = len(answers)

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    closure_s = totals["presentations.closure"]
    children = counts["presentations.closure_children"]
    peiffer_s = totals["peiffer.search"] + totals["peiffer.verify"]
    transforms = counts["peiffer.transforms"]
    values = {
        "presentations.closure_s": closure_s,
        "presentations.closure_children": children,
        "presentations.closure_children_per_s": ratio(children, closure_s),
        "presentations.cert_factors_mean": mean(samples["presentations.cert_factors"]),
        "presentations.refine_s": totals["presentations.refine"],
        "words.word_new": counts["words.word_new"],
        "words.are_conjugate_calls": calls["words.are_conjugate"],
        "words.are_conjugate_s": totals["words.are_conjugate"],
        "pairs.pair_image_calls": calls["pairs.pair_image"],
        "pairs.pair_image_s": totals["pairs.pair_image"],
        "pairs.kernel_checks_per_query": calls["pairs.kernel_check"] / n,
        "pairs.decompose_calls": calls["pairs.decompose"],
        "pairs.mixed_new": counts["pairs.mixed_new"],
        "pairs.relator_family_s": totals["pairs.relator_family"],
        "peiffer.search_s": totals["peiffer.search"],
        "peiffer.verify_s": totals["peiffer.verify"],
        "peiffer.transforms": transforms,
        "peiffer.transforms_per_s": ratio(transforms, peiffer_s),
        "peiffer.useful_ratio": ratio(sum(samples["peiffer.cert_moves"]), transforms),
        "peiffer.cert_moves_mean": mean(samples["peiffer.cert_moves"]),
        "automorphisms.embed_s": totals["automorphisms.embed"],
        "cli.self_ms_per_query": 1000 * selfs["cli"] / n,
        "cli.output_lines": sum(a.lines for a in answers) / n,
        **{f"{layer}.self_s": selfs[layer] for layer in LAYERS},
        "trace.query_s": totals["cli.query"],
        "trace.overhead_ratio": overhead_ratio,
    }
    missing = tracer.missing()
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, sources in PER_LAYER
        if not missing.intersection(sources)
    }


def git_sha(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def workload_why(name):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == name), None)


def class_summary(answers):
    """Per query class and input shape: counts and unscaled latencies."""
    out = {}
    for a in sorted(answers, key=lambda a: a.label):
        row = out.setdefault(a.label, {"queries": 0, "decided": 0, "errors": 0, "latency_s": []})
        row["queries"] += 1
        row["decided"] += a.decided
        row["errors"] += a.error is not None
        row["latency_s"].append(a.latency_s)
    for row in out.values():
        lat = row.pop("latency_s")
        row["p50_ms"] = 1000 * statistics.median(lat)
        row["max_ms"] = 1000 * max(lat)
    return out


def percentile_neighbours(answers, latencies):
    """Classes of the queries within 5% of the ranks of p50 and p90, to show
    that neither percentile sits on an edge between latency modes."""
    order = sorted(range(len(answers)), key=latencies.__getitem__)
    width = max(1, len(order) // 20)
    out = {}
    for q in (50, 90):
        mid = len(order) * q // 100
        near = [answers[i].label for i in order[max(0, mid - width): mid + width]]
        out[f"p{q}"] = {label: near.count(label) for label in sorted(set(near))}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mihailova" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        first = workload.cycle(0).files
        write_files(workdir, first)
        setup_times, setup_refs, main_cmd = measure_setup([workdir / name for name in first])
        setup_s = statistics.median(scaled(setup_times, setup_refs))
        from click.testing import CliRunner

        runner = CliRunner()
        run = {"cycles": None, "spans": None, "reference_ms": None, "unscaled": None,
               "neighbours": None}
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            answers, metrics, skipped = traced_run(
                workload, runner, main_cmd, workdir, deadline, spans)
            run.update(cycles=workload.trace_cycles, spans=str(spans.relative_to(ROOT)))
        else:
            answers, refs, cycles = timed_run(workload, runner, main_cmd, workdir,
                                              args.seconds, deadline)
            latencies = [a.latency_s for a in answers]
            scaled_latencies = scaled(latencies, refs)
            values = end_to_end_metrics(answers, scaled_latencies, setup_s)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            run.update(
                cycles=cycles,
                neighbours=percentile_neighbours(answers, scaled_latencies),
                reference_ms=1000 * statistics.median(refs),
                unscaled=timing_metrics(latencies, statistics.median(setup_times)),
            )
            skipped = []
    errors = [a.error for a in answers if a.error is not None]
    meta = {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "budgets": BUDGETS[args.workload],
        "query_limit_s": QUERY_LIMIT_S,
        "queries": len(answers),
        "classes": class_summary(answers),
        "errors": errors[:10],
        "skipped": skipped,
        "wall_s": time.perf_counter() - started,
        **run,
    }
    print(json.dumps({"run": meta}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(answers),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
