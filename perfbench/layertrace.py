"""Per-layer span recording for the traced benchmark runs.

The recorder lives here, not in ``repro.obs``, so that a change to the
program's own observability cannot change the instrument that
measures it.  Spans are opened by wrappers installed around the public
entry points of each layer; nothing under ``src/`` is edited.

A layer's self time is the duration of its spans minus the part of
that interval covered by child spans, so the self times of all layers
plus the uncovered remainder add up to the measured op wall.
"""

from __future__ import annotations

import functools
import re
import threading
import time
from collections import defaultdict

#: Top-level ``repro`` subpackages reported as ``import.<name>_s``;
#: every other module of the package lands in ``import.other_s``.
IMPORT_LAYERS = ("synth", "ocr", "parsing", "nlp", "pipeline", "query",
                 "serving")


class Recorder:
    """Accumulates span self times, call counts and work counters.

    Spans nest on a per-thread stack.  Counters are plain integers
    added at the same boundaries as the spans.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        # [name, start, time covered by children]
        self._stack().append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; return its duration."""
        end = time.perf_counter()
        stack = self._stack()
        name, start, covered = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[name] += duration - covered
            self.calls[name] += 1
        return duration

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, func, on_result=None):
        """``func`` inside a span; ``on_result(result, args)`` may add
        counters once the call has returned."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper


def _patch(recorder: Recorder, owner, attr: str, name: str,
           on_result=None) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = recorder.wrap(name, raw.__func__, on_result)
        setattr(owner, attr, classmethod(wrapped))
    else:
        setattr(owner, attr, recorder.wrap(name, raw, on_result))


def instrument_pipeline(recorder: Recorder) -> None:
    """Wrap the entry points the pipeline runner calls into each layer.

    Names bound into ``repro.pipeline.runner`` / ``repro.pipeline.
    stages`` by ``from ... import`` are wrapped where they are bound,
    because that is the reference the runner calls.
    """
    from repro.nlp.dictionary import FailureDictionary
    from repro.nlp.tagger import VotingTagger
    from repro.ocr import OcrCorrector, OcrEngine, Scanner
    from repro.parsing.base import ParserRegistry, ReportParser
    from repro.pipeline import runner, stages

    def corpus_documents(corpus, _args):
        recorder.count("synth.documents", len(corpus.documents))

    def scanned_pages(document, _args):
        recorder.count("ocr.pages", len(document.pages))

    _patch(recorder, runner, "generate_corpus", "synth.generate",
           corpus_documents)
    _patch(recorder, Scanner, "scan", "ocr.scan", scanned_pages)
    _patch(recorder, OcrEngine, "recognize", "ocr.recognize")
    _patch(recorder, OcrCorrector, "__init__", "ocr.correct")
    _patch(recorder, OcrCorrector, "correct_lines", "ocr.correct")

    fallback = stages.apply_fallback

    def apply_fallback(document, result, queue):
        before = queue.pages_transcribed
        recorder.enter("ocr.fallback")
        try:
            lines = fallback(document, result, queue)
        finally:
            recorder.exit()
        recorder.count("ocr.lines", len(lines))
        recorder.count("ocr.fallback_pages",
                       queue.pages_transcribed - before)
        return lines

    stages.apply_fallback = apply_fallback

    def parsed_report(report, args):
        recorder.count("parsing.records", len(report.disengagements)
                       + len(report.mileage))
        recorder.count("parsing.lines", len(args[1]))
        recorder.count("parsing.unparsed_lines",
                       len(report.unparsed_lines))

    def parsed_accident(_record, _args):
        recorder.count("parsing.records", 1)

    _patch(recorder, ParserRegistry, "resolve", "parsing.parse")
    for cls in _subclasses(ReportParser):
        if "parse" in cls.__dict__:
            _patch(recorder, cls, "parse", "parsing.parse",
                   parsed_report)
    _patch(recorder, runner, "parse_accident_report", "parsing.parse",
           parsed_accident)
    _patch(recorder, runner, "normalize_records", "parsing.normalize")
    _patch(recorder, runner, "normalize_accident", "parsing.normalize")
    _patch(recorder, runner, "filter_records", "parsing.filter")

    _patch(recorder, FailureDictionary, "build", "nlp.dictionary")
    _patch(recorder, FailureDictionary, "from_seeds", "nlp.dictionary")
    _patch(recorder, VotingTagger, "tag", "nlp.tag")
    _patch(recorder, VotingTagger, "tag_batch", "nlp.tag")
    _patch(recorder, runner, "evaluate_tagger", "nlp.evaluate")


def _subclasses(cls) -> list:
    # The format parsers register on import of the formats package.
    import repro.parsing.formats  # noqa: F401

    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class ExecuteLog:
    """Per-call durations and cache outcomes of ``QueryEngine.execute``,
    in call order, so the client can pair them with its requests."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, bool]] = []
        self._lock = threading.Lock()

    def install(self, recorder: Recorder) -> None:
        import repro.api as api
        from repro.query import QueryEngine

        _patch(recorder, api, "load_database", "pipeline.store.load")
        _patch(recorder, QueryEngine, "__init__", "query.engine_build")
        execute = QueryEngine.execute
        log = self

        @functools.wraps(execute)
        def timed_execute(engine, query):
            started = time.perf_counter()
            result = execute(engine, query)
            elapsed = time.perf_counter() - started
            with log._lock:
                log.calls.append((elapsed, bool(result.cached)))
            return result

        QueryEngine.execute = timed_execute


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)$")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Self import time per ``repro`` subpackage, in seconds.

    Parses ``python -X importtime`` output.  A module outside
    ``repro`` (numpy, scipy, ...) is charged to the nearest ``repro``
    module that imported it, so the layers sum to the whole import.
    Lines are printed children-first; walking them in reverse visits
    every parent before its children.
    """
    rows = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            rows.append((int(match.group(1)), len(match.group(2)),
                         match.group(3)))
    totals = {name: 0.0 for name in (*IMPORT_LAYERS, "other")}
    stack: list[str | None] = []
    for self_us, indent, module in reversed(rows):
        depth = (indent - 1) // 2
        del stack[depth:]
        owner = module if module.split(".")[0] == "repro" else None
        if owner is None and stack:
            owner = stack[-1]
        stack.append(owner)
        if owner is None:
            continue  # interpreter start-up, not the repro import
        parts = owner.split(".")
        layer = parts[1] if len(parts) > 1 else "other"
        key = layer if layer in totals else "other"
        totals[key] += self_us / 1e6
    return totals
