"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare RUN_A.json RUN_B.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Each run also saves a report with its ``env`` block under
``.perfbench/runs/``; a traced run writes its spans to
``.perfbench/trace-<workload>-seed<seed>.json`` (Chrome trace-event JSON).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep_cold", "sweep_pooled", "campaign", "analyze")
#: Set-up is repeated this often per run and reported as a median.
SETUP_REPEATS = 3
#: Fresh interpreters whose import time is the median ``setup_s`` counts.
IMPORT_REPEATS = 3
#: What a run imports before its set-up, timed in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; started = time.perf_counter(); "
    "import perfbench.workloads, perfbench.instrument, perfbench.report; "
    "print(time.perf_counter() - started)"
)


def import_seconds() -> list[tuple[float, float]]:
    """Import times, raw and rescaled, of what a run imports, in fresh interpreters."""
    from perfbench.calibration import reference_seconds

    def one_import() -> float:
        completed = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT), str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        return float(completed.stdout.strip().splitlines()[-1])

    return [reference_seconds(one_import) for _ in range(IMPORT_REPEATS)]


def timed(action: Callable[[], object]) -> float:
    """Seconds ``action()`` takes."""
    started = time.perf_counter()
    action()
    return time.perf_counter() - started


def _run_seconds() -> float:
    """The run length ``BENCHMARK.json`` sets: the default of ``--seconds``."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(config["run_seconds"])


def _arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("RUN_A", "RUN_B"))
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seconds is None:
        args.seconds = _run_seconds()
    return args


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one table of every metric."""
    combined: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited {completed.returncode}")
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print()
    for metric, value in combined.items():
        print(f"{metric:48s} {value['value']!s:>24} {value['unit']}")
    print(f"{'failed_frac':48s} {failed / attempted:>24} ratio")
    print(_result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _arguments(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    if args.compare is not None:
        from perfbench.report import compare

        print(compare(*args.compare))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # The program's modules load here; ``setup_s`` counts their import time
    # as a median over fresh interpreters instead (``import_seconds``).
    from perfbench import report, workloads
    from perfbench.calibration import REFERENCE_SPEED, NullPacer, Pacer, reference_seconds
    from perfbench.instrument import Instrumentation, PoolProbe
    from perfbench.spans import NULL_RECORDER, Recorder, chrome_trace, check_metric_names
    from repro.solvers import bounds, evaluate

    imports = import_seconds()
    work_dir = OUTPUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    errors: list[str] = []
    attempted = failed = 0
    #: (traced, seconds without probe slices, probe speed, outcome)
    reps: list[tuple[bool, float, "float | None", "workloads.RepResult"]] = []
    traced_reps: list[report.TracedRep] = []
    setup_times: list[tuple[float, float]] = []
    pooled = workload.workers > 1
    probe = PoolProbe(work_dir / "pool") if pooled else contextlib.nullcontext()
    try:
        for _ in range(SETUP_REPEATS):
            setup_times.append(reference_seconds(functools.partial(timed, workload.setup)))
        workload.reference()
        with probe:
            loop_started = last_started = time.perf_counter()
            while True:
                now = time.perf_counter()
                # Stop when one more repetition would end further past the
                # time budget than stopping now leaves short of it.
                finish = now - loop_started + 0.5 * (now - last_started)
                kinds = {traced for traced, *_ in reps}
                if reps and finish >= args.seconds and (not args.trace or len(kinds) == 2):
                    break
                last_started = now
                traced = bool(args.trace) and len(reps) % 2 == 1
                workload.prepare()
                gc.collect()
                recorder = Recorder() if traced else NULL_RECORDER
                pacer = NullPacer() if traced else Pacer(workload.probe_items)
                kernel = evaluate.cache_info()
                certificate = bounds._certificate.cache_info()
                try:
                    with Instrumentation(recorder) if traced else contextlib.nullcontext():
                        started = time.perf_counter()
                        with recorder.span("bench.rep"):
                            outcome = workload.run(recorder, pacer)
                        seconds = time.perf_counter() - started - pacer.seconds
                    after_kernel = evaluate.cache_info()
                    after_certificate = bounds._certificate.cache_info()
                except Exception:  # noqa: BLE001 - a failed repetition is reported, not raised
                    attempted += 1
                    failed += 1
                    errors.append(traceback.format_exc())
                    break
                worker_spans: list = []
                if pooled:
                    pids, worker_spans = probe.collect()
                    workloads.wait_for_children()
                    outcome.extras["pool.worker_pids"] = len(pids - {os.getpid()})
                problems = workload.check(outcome)
                attempted += outcome.attempted + 1
                failed += 1 if problems else 0
                errors.extend(problems)
                reps.append((traced, seconds, pacer.speed, outcome))
                if traced:
                    traced_reps.append(report.TracedRep(
                        spans=recorder.spans,
                        worker_spans=worker_spans,
                        extras=outcome.extras,
                        kernel=(after_kernel.hits - kernel.hits, after_kernel.misses - kernel.misses),
                        certificate=(after_certificate.hits - certificate.hits,
                                     after_certificate.misses - certificate.misses),
                    ))
                if problems:
                    break
        store_bytes = workload.store_bytes_per_scenario() if reps else 0.0
    finally:
        workload.close()
        workloads.wait_for_children()
        shutil.rmtree(work_dir, ignore_errors=True)

    def rate(kind: bool, field: str, rescaled: bool = False) -> float:
        """Median over the repetitions of one kind of their completion rate.

        ``rescaled``: each repetition's rate at REFERENCE_SPEED, by the
        speed its own probe slices showed (see ``perfbench.calibration``).
        """
        rates = [
            getattr(outcome, field) / seconds * (REFERENCE_SPEED / speed if rescaled else 1.0)
            for traced, seconds, speed, outcome in reps if traced == kind
        ]
        return statistics.median(rates) if rates else 0.0

    # Saved with every run, so that drift of the machine can be told apart
    # from a change of the program.
    speeds = [speed for traced, _, speed, _ in reps if not traced and speed]
    machine_speed = statistics.median(speeds) if speeds else None
    # Raw and rescaled set-up seconds: imports plus one set-up, each a median.
    raw_setup_s, setup_s = (
        statistics.median(seconds[kind] for seconds in imports)
        + statistics.median(seconds[kind] for seconds in setup_times)
        for kind in (0, 1)
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    end_to_end = {
        "scenarios_per_s": rate(False, "scenarios", rescaled=True),
        "rows_per_s": rate(False, "rows", rescaled=True),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "store_bytes_per_scenario": store_bytes,
    }
    if args.trace:
        values = report.per_layer(
            traced_reps,
            workers=workload.workers,
            rates=(rate(False, workload.primary), rate(True, workload.primary)),
            worker_spans_missing=pooled and multiprocessing.get_start_method() != "fork",
        )
        problems = workload.check_layers(values) if traced_reps else []
        attempted += 1
        failed += 1 if problems else 0
        errors.extend(problems)
        units = {name: unit for name, unit, _ in report.PER_LAYER}
        OUTPUT.mkdir(exist_ok=True)
        trace_path = OUTPUT / f"trace-{workload.name}-seed{args.seed}.json"
        all_spans = [span for rep in traced_reps for span in rep.spans + rep.worker_spans]
        trace_path.write_text(json.dumps(chrome_trace(all_spans)), encoding="utf-8")
        print(f"trace: {len(all_spans)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end
        units = {name: unit for name, unit, _, _ in report.END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    check_metric_names(metrics)

    env = report.environment(workload.backend)
    correct = not errors
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} setup={[round(raw, 3) for raw, _ in setup_times]} "
          f"import_s={[round(raw, 3) for raw, _ in imports]}")
    print(f"unscaled: scenarios_per_s={rate(False, 'scenarios')} "
          f"rows_per_s={rate(False, 'rows')} setup_s={raw_setup_s} machine_speed={machine_speed}")
    print("env " + json.dumps(env, sort_keys=True))
    for error in errors:
        print("ERROR " + error.rstrip().replace("\n", "\n      "))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']!s:>24} {metric['unit']}")
    print(f"  {'failed_frac':36s} {failed / max(attempted, 1)!s:>24} ratio")
    (OUTPUT / "runs").mkdir(parents=True, exist_ok=True)
    saved = OUTPUT / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "env": env, "machine_speed": machine_speed,
        "unscaled": {"scenarios_per_s": rate(False, "scenarios"), "rows_per_s": rate(False, "rows"),
                     "setup_s": raw_setup_s},
        "import_times": imports, "setup_times": setup_times, "correct": correct,
        "attempted": attempted, "failed": failed,
        "errors": errors, "metrics": metrics,
    }, indent=1), encoding="utf-8")
    print(_result_line(correct, max(attempted, 1), failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
