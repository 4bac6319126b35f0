"""Span wrappers around the program's layer boundaries, installed from outside.

The program carries no tracing of its own, so the traced run replaces
the functions each layer calls into -- at the module attribute the
caller looks them up through -- with wrappers that time the call into a
:class:`~perfbench.spans.Recorder`.  :class:`Instrumentation` installs
them on entry and restores the originals on exit, so an untraced
repetition runs the unmodified program.

Pool workers are forked from the driver (the engine's process pool uses
the platform default start method), so they inherit the wrappers.  The
chunk task wrapper (:func:`chunk_task`) marks each worker pid that did
work and, when tracing, appends the worker's spans to a per-pid file.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import multiprocessing
import os
from pathlib import Path
from typing import Any, Callable

from perfbench.spans import Recorder, Span, dump_spans, load_spans

#: Environment variable naming the directory pool workers write to; an
#: environment variable reaches workers under every start method.
POOL_DIR_ENV = "PERFBENCH_POOL_DIR"

#: ``(module, attribute path, span name, ident)`` of every timed boundary.
#: ``ident`` derives the scenario id from the first argument.
_SCENARIO_ID = "scenario"
_REQUEST_ID = "request"
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.api.engine", "_execute", "api.engine.execute", _SCENARIO_ID),
    ("repro.api.engine", "solve", "solvers.solve", None),
    ("repro.api.engine", "make_record", "api.engine.make_record", _SCENARIO_ID),
    ("repro.api.plan", "SweepPlan.build", "api.plan.build", None),
    ("repro.solvers.bounds", "scenario_lower_bound", "solvers.bounds.certificate", None),
    ("repro.store.result_store", "encode_result", "store.serialize.encode", None),
    ("repro.store.result_store", "decode_result", "store.serialize.decode", None),
    ("repro.store.result_store", "ResultStore.put_records", "store.write", None),
    ("repro.store.result_store", "ResultStore.missing_keys", "store.probe", None),
    ("repro.store.result_store", "ResultStore.contains_key", "store.probe", None),
    ("repro.store.result_store", "ResultStore.get", "store.get", None),
    ("repro.store.packed", "PackedResultStore.put_records", "store.write", None),
    ("repro.store.packed", "PackedResultStore.missing_keys", "store.probe", None),
    ("repro.store.packed", "PackedResultStore.contains_key", "store.probe", None),
    ("repro.store.packed", "PackedResultStore.get", "store.get", None),
    ("repro.store.packed", "PackedResultStore.close", "store.close", None),
    ("repro.store.columns", "scan_segment", "store.columns.scan", None),
    ("repro.analysis.records", "records_from_store", "analysis.records.scan", None),
    ("repro.analysis.analyze", "records_table", "analysis.analyze.records_table", None),
    ("repro.analysis.analyze", "group_summary", "analysis.analyze.group_summary", None),
    ("repro.analysis.analyze", "best_per_soc", "analysis.analyze.best_per_soc", None),
    ("repro.analysis.analyze", "pareto_front", "analysis.analyze.pareto_front", None),
    ("repro.analysis.analyze", "best_table", "analysis.analyze.best_table", None),
    ("repro.analysis.analyze", "pareto_table", "analysis.analyze.pareto_table", None),
    ("repro.reporting.tables", "Table.render", "reporting.render", None),
    ("repro.service.worker", "make_record", "service.worker.make_record", _SCENARIO_ID),
    ("repro.service.client", "ServiceClient.lease", "service.client.lease", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.missing", "service.client.missing", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.put_records_batch", "service.client.upload", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.put_record", "service.client.upload", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.heartbeat", "service.client.heartbeat", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.complete", "service.client.complete", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.digest", "service.client.digest", _REQUEST_ID),
    ("repro.service.client", "ServiceClient.submit_campaign", "service.client.submit", _REQUEST_ID),
    ("repro.service.server", "CampaignServer.ingest", "service.server.ingest", None),
    ("repro.service.server", "CampaignServer.query_missing", "service.server.query_missing", None),
    ("repro.service.server", "CampaignServer.lease", "service.server.lease", None),
    ("repro.service.server", "CampaignServer.heartbeat", "service.server.heartbeat", None),
    ("repro.service.server", "CampaignServer.complete", "service.server.complete", None),
    ("repro.service.server", "CampaignServer.digest", "service.server.digest", None),
    ("repro.service.server", "CampaignServer.submit_campaign", "service.server.submit", None),
)


def _timed(recorder: Recorder, name: str, function: Callable, ident: str | None) -> Callable:
    requests = itertools.count(1)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if ident == _SCENARIO_ID:
            label = f"scn-{args[0].key}"
        elif ident == _REQUEST_ID:
            label = f"req-{os.getpid()}-{next(requests)}"
        else:
            label = None
        span = recorder.start(name, label)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.finish(span)
        _annotate(span, args, result)
        return result

    return wrapper


def _annotate(span: Span, args: tuple, result: Any) -> None:
    """Counts taken where the work happens (plan shape, scan rows, uploads)."""
    if span.name == "api.plan.build":
        span.attrs["chunks"] = len(result)
        span.attrs["scenarios"] = result.total
    elif span.name == "store.columns.scan":
        span.attrs["rows"] = len(result.rows)
    elif span.name == "analysis.records.scan":
        span.attrs["rows"] = len(result)
    elif span.name == "service.client.upload":
        records = args[1]
        span.attrs["records"] = len(records) if isinstance(records, (list, tuple)) else 1


def _timed_iterator(recorder: Recorder, name: str, function: Callable) -> Callable:
    """Time each ``next()`` of an iterator the caller blocks on."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = iter(function(*args, **kwargs))
        while True:
            span = recorder.start(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.finish(span)
            yield item

    return wrapper


def _counted_bytes(recorder: Recorder, function: Callable) -> Callable:
    """Record the request body size on the enclosing client span."""

    @functools.wraps(function)
    def wrapper(self, path, payload=None, raw=None, content_type="application/json"):
        span = recorder.current()
        if span is not None and raw is not None:
            span.attrs["bytes"] = span.attrs.get("bytes", 0) + len(raw)
        return function(self, path, payload, raw=raw, content_type=content_type)

    return wrapper


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, module_name: str, path: str, make: Callable[[Callable], Any]) -> None:
        """Replace ``module.path`` (``function`` or ``Class.method``) by ``make(it)``."""
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._saved.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attribute, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)


class CallCount:
    """Count the calls of one program function while installed.

    Cheap enough for untimed and timed repetitions alike: the wrapper adds
    one increment per call, and a path that never calls the function pays
    nothing.
    """

    def __init__(self, module_name: str, path: str) -> None:
        self.module_name = module_name
        self.path = path
        self.calls = 0
        self._patches = _Patches()

    def __enter__(self) -> "CallCount":
        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                self.calls += 1
                return function(*args, **kwargs)

            return wrapper

        self._patches.replace(self.module_name, self.path, make)
        return self

    def __exit__(self, *exc_info) -> None:
        self._patches.restore()


class Instrumentation:
    """Install the span wrappers of :data:`TARGETS` for one traced repetition."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches = _Patches()

    def __enter__(self) -> "Instrumentation":
        recorder = self.recorder
        for module_name, path, name, ident in TARGETS:
            self._patches.replace(
                module_name, path,
                lambda function, name=name, ident=ident: _timed(recorder, name, function, ident),
            )
        self._patches.replace(
            "repro.api.engine", "as_completed",
            lambda function: _timed_iterator(recorder, "api.engine.pool_wait", function),
        )
        self._patches.replace(
            "repro.service.client", "ServiceClient._call",
            lambda function: _counted_bytes(recorder, function),
        )
        global _TRACE_RECORDER
        _TRACE_RECORDER = recorder
        return self

    def __exit__(self, *exc_info) -> None:
        global _TRACE_RECORDER
        _TRACE_RECORDER = None
        self._patches.restore()


# ----------------------------------------------------------------------
# Pool workers
# ----------------------------------------------------------------------
#: The recorder forked workers inherit while a traced repetition runs.
_TRACE_RECORDER: Recorder | None = None
_ORIGINAL_CHUNK: Callable | None = None


def chunk_task(scenarios):
    """Pool task standing in for ``repro.api.engine._execute_chunk``.

    Top-level so the pool pickles it by reference.  Marks the worker's pid
    as one that did work, and on traced repetitions records the chunk
    (with the worker's kernel-memo counter deltas) and flushes the
    worker's spans to its own file before the result travels back.
    """
    directory = Path(os.environ[POOL_DIR_ENV])
    (directory / f"pid-{os.getpid()}").touch()
    recorder = _TRACE_RECORDER
    original = _ORIGINAL_CHUNK
    if original is None:  # a non-fork start method re-imported this module
        from repro.api.engine import _execute_chunk as original
    if recorder is None or multiprocessing.parent_process() is None:
        return original(scenarios)
    from repro.solvers import evaluate

    recorder.adopt_fork()
    before = evaluate.cache_info()
    span = recorder.start("api.engine.chunk")
    try:
        return original(scenarios)
    finally:
        recorder.finish(span)
        after = evaluate.cache_info()
        span.attrs["kernel_hits"] = after.hits - before.hits
        span.attrs["kernel_misses"] = after.misses - before.misses
        dump_spans(directory / f"spans-{os.getpid()}.jsonl", recorder.drain())


class PoolProbe:
    """Route the engine's pool tasks through :func:`chunk_task` for a run.

    ``directory`` receives the per-pid work markers and span files;
    :meth:`collect` reads and clears them after each repetition.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self._patches = _Patches()

    def __enter__(self) -> "PoolProbe":
        global _ORIGINAL_CHUNK
        self.directory.mkdir(parents=True, exist_ok=True)
        os.environ[POOL_DIR_ENV] = str(self.directory)
        from repro.api import engine

        _ORIGINAL_CHUNK = engine._execute_chunk
        self._patches.replace("repro.api.engine", "_execute_chunk", lambda function: chunk_task)
        return self

    def __exit__(self, *exc_info) -> None:
        global _ORIGINAL_CHUNK
        self._patches.restore()
        _ORIGINAL_CHUNK = None
        os.environ.pop(POOL_DIR_ENV, None)

    def collect(self) -> tuple[set[int], list[Span]]:
        """Pids that did work and their spans since the last call."""
        pids: set[int] = set()
        spans: list[Span] = []
        for path in sorted(self.directory.iterdir()):
            if path.name.startswith("pid-"):
                pids.add(int(path.name[4:]))
            elif path.name.startswith("spans-"):
                spans.extend(load_spans(path))
            path.unlink()
        return pids, spans
