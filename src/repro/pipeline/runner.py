"""End-to-end pipeline orchestration (Fig. 1).

Every per-document and per-record step runs through a
:class:`~repro.pipeline.resilience.StageGuard`, so one bad unit of
work is retried, degraded, or quarantined according to the configured
:class:`~repro.pipeline.resilience.FailurePolicy` instead of aborting
the whole run.  A clean run draws no randomness from the guard, so
resilient output is byte-identical to the historical unguarded
pipeline.

When the config names a checkpoint directory, completed units of work
are journaled through a
:class:`~repro.pipeline.checkpoint.CheckpointStore` at stage
boundaries, and a resume run restores them instead of recomputing —
keyed by the same stable unit ids the resilience layer uses, so a run
killed at any point (see
:data:`~repro.pipeline.chaos.CRASH_POINTS`) and resumed produces a
database byte-identical to an uninterrupted run.  Artifacts that fail
their checksum, or checkpoints written under a different config/seed,
are discarded and recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
import warnings
from dataclasses import asdict, dataclass

from ..errors import (
    DegradedModeWarning,
    ParseError,
    PipelineError,
    QuarantinedError,
)
from ..nlp.dictionary import FailureDictionary
from ..nlp.evaluation import evaluate_tagger
from ..nlp.tagger import VotingTagger
from ..nlp.textcache import token_cache
from ..obs.metrics import (
    TOKEN_CACHE_HITS,
    TOKEN_CACHE_MISSES,
)
from ..obs.runtime import Observability
from ..parsing import (
    default_registry,
    filter_records,
    parse_accident_report,
)
from ..parsing.filters import FilterStats
from ..parsing.normalize import (
    NormalizationStats,
    normalize_accident,
    normalize_records,
)
from ..parsing.records import (
    AccidentRecord,
    DisengagementRecord,
    MonthlyMileage,
)
from ..rng import child_generator
from ..synth.dataset import SyntheticCorpus, generate_corpus
from ..synth.reports import RawDocument
from ..taxonomy import FailureCategory, FaultTag, category_of
from .chaos import ChaosInjector, CrashController
from .checkpoint import CheckpointStore, config_fingerprint
from .config import PipelineConfig
from .parallel import (
    BatchOutcome,
    ParallelExecutor,
    ParallelStats,
    UnitOutcome,
    iter_units,
)
from .resilience import QuarantineEntry, StageGuard
from .stages import OcrStage, PipelineDiagnostics
from .store import FailureDatabase


@dataclass
class PipelineResult:
    """Output of one pipeline run."""

    database: FailureDatabase
    diagnostics: PipelineDiagnostics
    config: PipelineConfig


def run_pipeline(config: PipelineConfig | None = None) -> PipelineResult:
    """Synthesize the corpus and process it end to end."""
    config = config or PipelineConfig()
    corpus = generate_corpus(config.seed, config.manufacturers)
    return process_corpus(corpus, config)


def process_corpus(corpus: SyntheticCorpus,
                   config: PipelineConfig | None = None) -> PipelineResult:
    """Process an existing raw corpus through Stages II-IV."""
    config = config or PipelineConfig()
    diagnostics = PipelineDiagnostics()
    database = FailureDatabase()
    obs = Observability.for_run(config)
    guard = StageGuard(
        policy=config.resolved_policy(),
        seed=config.seed,
        quarantine=database.quarantine,
        chaos=(ChaosInjector(config.chaos, config.seed)
               if config.chaos is not None else None),
        metrics=obs.registry)
    diagnostics.health = guard.health
    store = None
    if config.checkpointing_active:
        store = CheckpointStore(
            config.checkpoint_dir, config_fingerprint(config),
            health=guard.health.checkpoint)
        store.open(resume=config.resume)
    cache_before = (token_cache().stats()
                    if obs.registry is not None else None)
    try:
        with obs.tracer.span("run", kind="run", seed=config.seed,
                             workers=config.workers):
            result = _process(corpus, config, diagnostics, database,
                              guard, store, obs)
        _snapshot_obs(obs, diagnostics, config, cache_before)
        return result
    finally:
        if store is not None:
            store.close()
        obs.close()


def _snapshot_obs(obs: Observability,
                  diagnostics: PipelineDiagnostics,
                  config: PipelineConfig,
                  cache_before: dict | None) -> None:
    """Fold end-of-run samples in and snapshot onto diagnostics.

    The token-cache counters are sampled as a start/end delta of the
    process-global cache: in serial and thread-pool runs that covers
    every consumer; process-pool workers ship their private caches'
    deltas home per unit instead (see ``parallel._stage3_unit``).
    """
    registry = obs.registry
    if registry is not None:
        if cache_before is not None:
            after = token_cache().stats()
            registry.counter(
                TOKEN_CACHE_HITS, "Token-memo hits").inc(
                after["hits"] - cache_before["hits"])
            registry.counter(
                TOKEN_CACHE_MISSES, "Token-memo misses").inc(
                after["misses"] - cache_before["misses"])
        diagnostics.metrics = registry.to_dict()
        obs.publish()
    if config.trace_path is not None:
        diagnostics.trace_path = str(config.trace_path)


def _process(corpus: SyntheticCorpus, config: PipelineConfig,
             diagnostics: PipelineDiagnostics,
             database: FailureDatabase, guard: StageGuard,
             store: CheckpointStore | None,
             obs: Observability) -> PipelineResult:
    executor = None
    if config.resolved_parallelism()[1] != "serial":
        executor = ParallelExecutor(config, diagnostics.parallel)
    try:
        return _run_stages(corpus, config, diagnostics, database,
                           guard, store, executor, obs)
    finally:
        if executor is not None:
            executor.close()


def _run_stages(corpus: SyntheticCorpus, config: PipelineConfig,
                diagnostics: PipelineDiagnostics,
                database: FailureDatabase, guard: StageGuard,
                store: CheckpointStore | None,
                executor: ParallelExecutor | None,
                obs: Observability) -> PipelineResult:
    crash = CrashController(config.crash)
    checkpoint = guard.health.checkpoint
    par = diagnostics.parallel
    ocr_stage = OcrStage(
        config.scanner_profile, config.correction_enabled,
        config.fallback_threshold) if config.ocr_enabled else None
    registry = default_registry()

    # ---- Stage II: disengagement reports (per-document) --------------
    raw_disengagements: list[DisengagementRecord] = []
    raw_mileage: list[MonthlyMileage] = []
    started = time.perf_counter()
    with obs.stage("parse-documents",
                   documents=len(corpus.disengagement_documents)):
        _stage2_disengagements(
            corpus.disengagement_documents, config, diagnostics,
            database, guard, store, crash, ocr_stage, registry,
            executor, raw_disengagements, raw_mileage, obs)
    _mark_stage(par, "parse-documents", started, executor is not None)
    crash.reached("parse-documents")
    if store is not None:
        store.sync()

    # ---- Stage II: accident reports (per-document) -------------------
    started = time.perf_counter()
    with obs.stage("accident-documents",
                   documents=len(corpus.accident_documents)):
        _stage2_accidents(
            corpus.accident_documents, config, diagnostics, database,
            guard, store, crash, ocr_stage, executor, obs)
    _mark_stage(par, "accident-documents", started,
                executor is not None)
    crash.reached("accident-documents")
    if store is not None:
        store.sync()

    # ---- Stage II/III boundary: normalize + filter -------------------
    started = time.perf_counter()
    with obs.stage("normalize"):
        restored_norm = _restore_normalized(store, config, diagnostics,
                                            checkpoint)
        if restored_norm is not None:
            filtered, mileage = restored_norm
        else:
            normalized, mileage, norm_stats = normalize_records(
                raw_disengagements, raw_mileage)
            diagnostics.normalization = norm_stats
            filtered, filter_stats = filter_records(
                normalized, drop_planned=config.drop_planned)
            diagnostics.filters = filter_stats
            if store is not None:
                store.write_artifact("normalized", {
                    "disengagements": [r.to_dict() for r in filtered],
                    "mileage": [m.to_dict() for m in mileage],
                    "normalization": asdict(norm_stats),
                    "filters": asdict(filter_stats),
                })
    _mark_stage(par, "normalize", started)
    crash.reached("normalize")

    # ---- Stage III: dictionary + tagging -----------------------------
    started = time.perf_counter()
    with obs.stage("dictionary", mode=config.dictionary_mode):
        dictionary = _restore_dictionary(store, config, checkpoint)
        if dictionary is None:
            dictionary = guard.run(
                "dictionary", "corpus",
                lambda: _build_dictionary(filtered, config),
                fallback=lambda: _degraded_dictionary())
            if store is not None:
                store.write_artifact(
                    "dictionary", json.loads(dictionary.to_json()))
        diagnostics.dictionary_entries = len(dictionary)
    _mark_stage(par, "dictionary", started)
    crash.reached("dictionary")

    tagger = VotingTagger(dictionary)
    started = time.perf_counter()
    with obs.stage("tag", records=len(filtered)):
        _stage3_tags(filtered, dictionary, tagger, config, guard,
                     store, crash, checkpoint, executor, par, obs)
    _mark_stage(par, "tag", started, executor is not None)
    crash.reached("tag")
    if store is not None:
        store.sync()

    if config.attach_truth:
        started = time.perf_counter()
        with obs.stage("evaluate"):
            diagnostics.tagging = evaluate_tagger(tagger, filtered)
        _mark_stage(par, "evaluate", started)

    database.disengagements = filtered
    database.mileage = mileage
    return PipelineResult(
        database=database, diagnostics=diagnostics, config=config)


def _mark_stage(par: ParallelStats, stage: str, started: float,
                fanned: bool = False) -> None:
    """Record one stage's coordinator wall time."""
    elapsed = time.perf_counter() - started
    par.stage_wall_s[stage] = (
        par.stage_wall_s.get(stage, 0.0) + elapsed)
    if fanned:
        par.parallel_wall_s += elapsed


# ----------------------------------------------------------------------
# Stage loops.  Each has a serial branch (the historical loop,
# byte-for-byte) and a parallel branch that fans units out to the
# worker pool and merges the outcomes back in original corpus order.
# ----------------------------------------------------------------------

def _stage2_disengagements(documents, config: PipelineConfig,
                           diagnostics: PipelineDiagnostics,
                           database: FailureDatabase,
                           guard: StageGuard,
                           store: CheckpointStore | None,
                           crash: CrashController,
                           ocr_stage: OcrStage | None, registry,
                           executor: ParallelExecutor | None,
                           raw_disengagements: list,
                           raw_mileage: list,
                           obs: Observability) -> None:
    checkpoint = guard.health.checkpoint
    restored_docs = store.restored("documents") if store else {}
    units_c = obs.unit_counter("parse-documents")
    results = None
    batcher = None
    if executor is not None:
        pending = [("disengagement", document)
                   for document in documents
                   if document.document_id not in restored_docs]
        if store is not None:
            batcher = _JournalBatcher(store, "documents")
        results = iter_units(
            executor.map_documents(pending, "parse-documents"),
            _batch_folder("parse-documents", guard,
                          diagnostics.parallel, batcher))
    try:
        for index, document in enumerate(documents):
            crash.reached_mid("mid-parse-documents", index,
                              len(documents))
            if units_c is not None:
                units_c.inc()
            entry = restored_docs.get(document.document_id)
            if entry is not None and _restore_disengagement(
                    entry, diagnostics, database, guard,
                    raw_disengagements, raw_mileage):
                checkpoint.restored_units += 1
                obs.restored_unit("parse-documents",
                                  document.document_id)
                continue
            if results is None or entry is not None:
                # Serial path — also the fallback for a unit whose
                # checkpoint entry was corrupt (it was never
                # dispatched, so it is recomputed inline, exactly
                # like a serial run).
                with obs.unit("parse-documents",
                              document.document_id):
                    body = _process_disengagement(
                        document, config, diagnostics, database,
                        guard, ocr_stage, registry,
                        raw_disengagements, raw_mileage,
                        journal=store is not None)
            else:
                outcome = next(results)
                obs.merged_unit("parse-documents",
                                document.document_id, outcome.elapsed)
                body = _merge_stage2(
                    outcome, "disengagement", diagnostics, database,
                    guard, raw_disengagements, raw_mileage)
            if store is not None:
                if batcher is not None:
                    batcher.append(document.document_id, body)
                else:
                    store.append("documents", document.document_id,
                                 body)
                checkpoint.recomputed_units += 1
    finally:
        # Buffered entries are completed units: journal them even
        # when a crash/abort unwinds the loop, exactly as the serial
        # per-unit appends would have survived via the writer buffer.
        if batcher is not None:
            batcher.flush()


def _stage2_accidents(documents, config: PipelineConfig,
                      diagnostics: PipelineDiagnostics,
                      database: FailureDatabase, guard: StageGuard,
                      store: CheckpointStore | None,
                      crash: CrashController,
                      ocr_stage: OcrStage | None,
                      executor: ParallelExecutor | None,
                      obs: Observability) -> None:
    checkpoint = guard.health.checkpoint
    restored_accidents = store.restored("accidents") if store else {}
    units_c = obs.unit_counter("accident-documents")
    results = None
    batcher = None
    if executor is not None:
        pending = [("accident", document) for document in documents
                   if document.document_id not in restored_accidents]
        if store is not None:
            batcher = _JournalBatcher(store, "accidents")
        results = iter_units(
            executor.map_documents(pending, "accident-documents"),
            _batch_folder("accident-documents", guard,
                          diagnostics.parallel, batcher))
    try:
        for document in documents:
            if units_c is not None:
                units_c.inc()
            entry = restored_accidents.get(document.document_id)
            if entry is not None and _restore_accident(
                    entry, diagnostics, database, guard):
                checkpoint.restored_units += 1
                obs.restored_unit("accident-documents",
                                  document.document_id)
                continue
            if results is None or entry is not None:
                with obs.unit("accident-documents",
                              document.document_id):
                    body = _process_accident(
                        document, config, diagnostics, database,
                        guard, ocr_stage, journal=store is not None)
            else:
                outcome = next(results)
                obs.merged_unit("accident-documents",
                                document.document_id, outcome.elapsed)
                body = _merge_stage2(
                    outcome, "accident", diagnostics, database, guard,
                    None, None)
            if store is not None:
                if batcher is not None:
                    batcher.append(document.document_id, body)
                else:
                    store.append("accidents", document.document_id,
                                 body)
                checkpoint.recomputed_units += 1
    finally:
        if batcher is not None:
            batcher.flush()


def _stage3_tags(filtered, dictionary, tagger,
                 config: PipelineConfig, guard: StageGuard,
                 store: CheckpointStore | None,
                 crash: CrashController, checkpoint,
                 executor: ParallelExecutor | None,
                 par: ParallelStats, obs: Observability) -> None:
    restored_tags = store.restored("tags") if store else {}
    record_ids = [_record_id(record) for record in filtered]
    units_c = obs.unit_counter("tag")
    pending = [(rid, record.description)
               for rid, record in zip(record_ids, filtered)
               if rid not in restored_tags]
    results = None
    batcher = None
    precomputed = None
    if executor is not None:
        if store is not None:
            batcher = _JournalBatcher(store, "tags")
        results = iter_units(
            executor.map_tags(dictionary.to_json(), pending),
            _batch_folder("tag", guard, par, batcher))
    elif pending:
        # Serial runs tag through the batch-native entrypoint too:
        # one tokenization/index pass over the whole stage, with each
        # precomputed result adopted under the record's own guarded
        # stage run — retries, chaos draws, fallbacks, and journal
        # bytes are identical to the historical per-record loop.
        precomputed = iter(
            tagger.tag_batch([text for _, text in pending]))
    try:
        for index, record in enumerate(filtered):
            crash.reached_mid("mid-tag", index, len(filtered))
            if units_c is not None:
                units_c.inc()
            record_id = record_ids[index]
            entry = restored_tags.get(record_id)
            if entry is not None and _restore_tag(entry, record,
                                                  checkpoint):
                checkpoint.restored_units += 1
                obs.restored_unit("tag", record_id)
                continue
            if results is not None and entry is None:
                outcome = next(results)
                obs.merged_unit("tag", record_id, outcome.elapsed)
                _merge_tag(outcome, record, guard)
            else:
                with obs.unit("tag", record_id):
                    if precomputed is not None and entry is None:
                        pre = next(precomputed)
                        result = guard.run("tag", record_id,
                                           lambda: pre,
                                           fallback=_unknown_tag)
                    else:
                        # Corrupt checkpoint entry: the record was
                        # never dispatched or precomputed, so it is
                        # re-tagged inline, exactly like a serial run.
                        result = guard.run(
                            "tag", record_id,
                            lambda: tagger.tag(record.description),
                            fallback=_unknown_tag)
                    record.tag = result.tag
                    record.category = result.category
            if store is not None:
                body = {
                    "tag": record.tag.value,
                    "category": record.category.value,
                }
                if batcher is not None:
                    batcher.append(record_id, body)
                else:
                    store.append("tags", record_id, body)
                checkpoint.recomputed_units += 1
    finally:
        if batcher is not None:
            batcher.flush()


# ----------------------------------------------------------------------
# Parallel merge paths.  The coordinator adopts worker outcomes in
# original corpus order, reproducing exactly the state transitions the
# serial live path would have made.
# ----------------------------------------------------------------------

def _merge_stage2(outcome: UnitOutcome, kind: str,
                  diagnostics: PipelineDiagnostics,
                  database: FailureDatabase, guard: StageGuard,
                  raw_disengagements: list | None,
                  raw_mileage: list | None) -> dict:
    _merge_worker_health(outcome, guard)
    if outcome.error is not None:
        raise PipelineError(outcome.error)
    if outcome.ocr is not None:
        _merge_ocr_stats(outcome.ocr, diagnostics)
    body = outcome.body
    verdict = body["outcome"]
    if verdict == "quarantined":
        database.quarantine.add(
            QuarantineEntry.from_dict(body["entry"]))
        _check_merged_thresholds(outcome, guard)
        return body
    if verdict == "parse_error":
        diagnostics.parse.unparsed_lines += int(body["unparsed"])
        return body
    if kind == "disengagement":
        records = [DisengagementRecord.from_dict(d)
                   for d in body["disengagements"]]
        cells = [MonthlyMileage.from_dict(m) for m in body["mileage"]]
        diagnostics.parse.documents += 1
        diagnostics.parse.disengagements_parsed += len(records)
        diagnostics.parse.mileage_cells_parsed += len(cells)
        diagnostics.parse.unparsed_lines += int(body["unparsed"])
        raw_disengagements.extend(records)
        raw_mileage.extend(cells)
    else:
        diagnostics.parse.accidents_parsed += 1
        database.accidents.append(
            AccidentRecord.from_dict(body["accident"]))
    return body


class _JournalBatcher:
    """Buffers one stage's journal appends for per-chunk flushing.

    Entries accumulate in merge (corpus) order and land with one
    buffered multi-line :meth:`~repro.pipeline.checkpoint.
    CheckpointStore.append_many` per dispatch chunk, so the journal
    file is line-for-line identical to a serial run's.  A crash can
    additionally lose the current chunk's buffered entries (on top of
    the writer's usual fsync window); resume simply recomputes them.
    """

    def __init__(self, store: CheckpointStore, name: str) -> None:
        self._store = store
        self._name = name
        self._entries: list[tuple[str, dict]] = []

    def append(self, unit_id: str, body: dict) -> None:
        self._entries.append((unit_id, body))

    def flush(self) -> None:
        if self._entries:
            self._store.append_many(self._name, self._entries)
            self._entries.clear()


def _batch_folder(stage: str, guard: StageGuard, par: ParallelStats,
                  batcher: _JournalBatcher | None):
    """The once-per-chunk merge hook for one stage's fan-out.

    Fires when the coordinator pulls a chunk, right before its units
    unpack: the previous chunk's journal buffer flushes (one
    multi-line append per chunk), and the chunk-level sidecars — the
    merged health delta, metrics dump, chaos count, and batch
    accounting — fold exactly once.
    """
    counters = None
    if guard.metrics is not None:
        from ..obs.metrics import (
            BATCH_PAYLOAD_BYTES_TOTAL, BATCH_TASKS_TOTAL,
            BATCH_UNITS_TOTAL)

        registry = guard.metrics
        counters = (
            registry.counter(BATCH_TASKS_TOTAL,
                             "Dispatch chunks shipped to the pool",
                             ("stage",)).labels(stage),
            registry.counter(BATCH_UNITS_TOTAL,
                             "Units that rode dispatch chunks",
                             ("stage",)).labels(stage),
            registry.counter(BATCH_PAYLOAD_BYTES_TOTAL,
                             "Pickled chunk-outcome payload bytes",
                             ("stage",)).labels(stage),
        )

    def fold(batch: BatchOutcome) -> None:
        if batcher is not None:
            batcher.flush()
        par.batch_tasks += 1
        par.parallel_units += batch.units
        par.unit_compute_s += batch.elapsed
        if batch.health is not None:
            _fold_health_delta(batch.health, guard)
        if guard.chaos is not None:
            guard.chaos.injected += batch.injected
        if batch.metrics is not None and guard.metrics is not None:
            guard.metrics.merge(batch.metrics)
        if counters is not None:
            tasks_c, units_c, bytes_c = counters
            tasks_c.inc()
            units_c.inc(batch.units)
            bytes_c.inc(len(pickle.dumps(batch)))

    return fold


def _merge_tag(outcome: UnitOutcome, record,
               guard: StageGuard) -> None:
    _merge_worker_health(outcome, guard)
    if outcome.error is not None:
        raise PipelineError(outcome.error)
    record.tag = FaultTag(outcome.body["tag"])
    record.category = FailureCategory(outcome.body["category"])


def _merge_worker_health(outcome: UnitOutcome,
                         guard: StageGuard) -> None:
    """Fold one unpacked unit's sidecars into the run health.

    ``health`` is ``None`` for units whose chunk shipped one merged
    delta (already folded by the chunk hook); per-unit deltas appear
    only when the chunk carried a quarantine.  ``injected`` and
    ``metrics`` are zero/``None`` on unpacked units — kept here so
    hand-built per-unit outcomes (tests, benchmarks) merge fully.
    """
    if outcome.health is not None:
        _fold_health_delta(outcome.health, guard)
    if guard.chaos is not None:
        guard.chaos.injected += outcome.injected
    if outcome.metrics is not None and guard.metrics is not None:
        guard.metrics.merge(outcome.metrics)


def _fold_health_delta(delta: tuple, guard: StageGuard) -> None:
    """Fold a ``(stages, events)`` health delta into the run health."""
    par_stats, events = delta
    for name, (attempts, errors, retries, degradations,
               quarantined) in par_stats.items():
        stats = guard.health.stage(name)
        stats.attempts += attempts
        stats.errors += errors
        stats.retries += retries
        stats.degradations += degradations
        stats.quarantined += quarantined
    guard.health.degradation_events.extend(events)


def _check_merged_thresholds(outcome: UnitOutcome,
                             guard: StageGuard) -> None:
    """Re-enforce the threshold policy on the merged counters.

    The serial path checks the threshold exactly when a unit is
    quarantined, so the merge path checks only stages whose delta
    carries a quarantine — with the merged (run-global) stats, the
    run aborts at the same unit with the same message.  A quarantined
    unit always arrives with a per-unit delta (its chunk switches to
    ``unit_health``), so ``health`` is never ``None`` here.
    """
    if outcome.health is None:  # pragma: no cover - invariant guard
        return
    for name, counters in outcome.health[0].items():
        if counters[4]:  # quarantined
            guard.check_threshold(name)


def _merge_ocr_stats(delta: dict, diagnostics: PipelineDiagnostics,
                     ) -> None:
    """Fold one worker document's OCR stats into the run's.

    Replays the serial stage's running-mean update in merge (corpus)
    order, so the merged confidence is bit-identical to a serial run.
    """
    stats = diagnostics.ocr
    stats.documents += 1
    stats.pages += delta["pages"]
    stats.lines += delta["lines"]
    stats.mean_confidence += (
        delta["confidence"] - stats.mean_confidence) / stats.documents
    stats.fallback_pages += delta["fallback_pages"]
    stats.fallback_lines += delta["fallback_lines"]


# ----------------------------------------------------------------------
# Per-unit processing (live path).  Each returns the journal body that
# lets a resume run replay the unit without recomputing it.
# ----------------------------------------------------------------------

def _process_disengagement(document: RawDocument,
                           config: PipelineConfig,
                           diagnostics: PipelineDiagnostics,
                           database: FailureDatabase,
                           guard: StageGuard,
                           ocr_stage: OcrStage | None,
                           registry,
                           raw_disengagements: list,
                           raw_mileage: list,
                           journal: bool = True) -> dict | None:
    try:
        lines = guard.run(
            "ocr", document.document_id,
            lambda: _through_ocr(document, ocr_stage, config,
                                 diagnostics))
    except QuarantinedError:
        return _quarantined_body(database)
    try:
        parsed = guard.run(
            "parse", document.document_id,
            lambda: registry.resolve(lines).parse(
                lines, document.document_id),
            expected=(ParseError,))
    except ParseError:
        unparsed = _non_blank(lines)
        diagnostics.parse.unparsed_lines += unparsed
        return {"outcome": "parse_error", "unparsed": unparsed}
    except QuarantinedError:
        return _quarantined_body(database)
    unparsed = _non_blank(parsed.unparsed_lines)
    diagnostics.parse.documents += 1
    diagnostics.parse.disengagements_parsed += len(
        parsed.disengagements)
    diagnostics.parse.mileage_cells_parsed += len(parsed.mileage)
    diagnostics.parse.unparsed_lines += unparsed
    if config.attach_truth:
        _attach_truth(document, parsed.disengagements)
    raw_disengagements.extend(parsed.disengagements)
    raw_mileage.extend(parsed.mileage)
    if not journal:  # body building is pure checkpoint overhead
        return None
    return {
        "outcome": "ok",
        "disengagements": [r.to_dict() for r in parsed.disengagements],
        "mileage": [m.to_dict() for m in parsed.mileage],
        "unparsed": unparsed,
    }


def _process_accident(document: RawDocument, config: PipelineConfig,
                      diagnostics: PipelineDiagnostics,
                      database: FailureDatabase, guard: StageGuard,
                      ocr_stage: OcrStage | None,
                      journal: bool = True) -> dict | None:
    try:
        lines = guard.run(
            "ocr", document.document_id,
            lambda: _through_ocr(document, ocr_stage, config,
                                 diagnostics))
    except QuarantinedError:
        return _quarantined_body(database)
    try:
        accident = guard.run(
            "parse", document.document_id,
            lambda: parse_accident_report(
                lines, document.document_id),
            expected=(ParseError,))
    except ParseError:
        unparsed = _non_blank(lines)
        diagnostics.parse.unparsed_lines += unparsed
        return {"outcome": "parse_error", "unparsed": unparsed}
    except QuarantinedError:
        return _quarantined_body(database)
    try:
        normalized_accident = guard.run(
            "normalize", document.document_id,
            lambda: normalize_accident(accident))
    except QuarantinedError:
        return _quarantined_body(database)
    diagnostics.parse.accidents_parsed += 1
    database.accidents.append(normalized_accident)
    if not journal:
        return None
    return {"outcome": "ok",
            "accident": normalized_accident.to_dict()}


def _quarantined_body(database: FailureDatabase) -> dict:
    """Journal body for a unit the guard just dead-lettered."""
    return {"outcome": "quarantined",
            "entry": database.quarantine.entries[-1].to_dict()}


# ----------------------------------------------------------------------
# Restore paths.  Each returns True when the journal entry was adopted;
# False sends the unit back to the live path (corrupt/unknown shapes
# are recomputed, never trusted).
# ----------------------------------------------------------------------

def _restore_disengagement(entry: dict,
                           diagnostics: PipelineDiagnostics,
                           database: FailureDatabase,
                           guard: StageGuard,
                           raw_disengagements: list,
                           raw_mileage: list) -> bool:
    try:
        outcome = entry["outcome"]
        if outcome == "ok":
            records = [DisengagementRecord.from_dict(d)
                       for d in entry["disengagements"]]
            cells = [MonthlyMileage.from_dict(m)
                     for m in entry["mileage"]]
            unparsed = int(entry["unparsed"])
            diagnostics.parse.documents += 1
            diagnostics.parse.disengagements_parsed += len(records)
            diagnostics.parse.mileage_cells_parsed += len(cells)
            diagnostics.parse.unparsed_lines += unparsed
            diagnostics.parse.documents_restored += 1
            raw_disengagements.extend(records)
            raw_mileage.extend(cells)
            return True
        if outcome == "parse_error":
            diagnostics.parse.unparsed_lines += int(entry["unparsed"])
            diagnostics.parse.documents_restored += 1
            return True
        if outcome == "quarantined":
            _restore_quarantined(entry, database, guard)
            diagnostics.parse.documents_restored += 1
            return True
    except Exception:
        pass
    _note_unusable(guard, entry)
    return False


def _restore_accident(entry: dict, diagnostics: PipelineDiagnostics,
                      database: FailureDatabase,
                      guard: StageGuard) -> bool:
    try:
        outcome = entry["outcome"]
        if outcome == "ok":
            accident = AccidentRecord.from_dict(entry["accident"])
            diagnostics.parse.accidents_parsed += 1
            diagnostics.parse.documents_restored += 1
            database.accidents.append(accident)
            return True
        if outcome == "parse_error":
            diagnostics.parse.unparsed_lines += int(entry["unparsed"])
            diagnostics.parse.documents_restored += 1
            return True
        if outcome == "quarantined":
            _restore_quarantined(entry, database, guard)
            diagnostics.parse.documents_restored += 1
            return True
    except Exception:
        pass
    _note_unusable(guard, entry)
    return False


def _restore_quarantined(entry: dict, database: FailureDatabase,
                         guard: StageGuard) -> None:
    """Re-adopt a pre-crash quarantine verdict (and its health)."""
    quarantined = QuarantineEntry.from_dict(entry["entry"])
    database.quarantine.add(quarantined)
    stats = guard.health.stage(quarantined.stage)
    stats.attempts += 1
    stats.errors += 1
    stats.quarantined += 1


def _restore_normalized(store: CheckpointStore | None,
                        config: PipelineConfig,
                        diagnostics: PipelineDiagnostics,
                        checkpoint) -> tuple[list, list] | None:
    """Adopt the normalized+filtered stage artifact, if usable."""
    if store is None or not config.resume:
        return None
    payload = store.load_artifact("normalized")
    if payload is None:
        return None
    try:
        filtered = [DisengagementRecord.from_dict(d)
                    for d in payload["disengagements"]]
        mileage = [MonthlyMileage.from_dict(m)
                   for m in payload["mileage"]]
        norm_stats = NormalizationStats(**payload["normalization"])
        filter_stats = FilterStats(**payload["filters"])
    except Exception:
        checkpoint.corrupt_entries += 1
        checkpoint.notes.append(
            "artifact 'normalized' could not be decoded; recomputed")
        return None
    diagnostics.normalization = norm_stats
    diagnostics.filters = filter_stats
    checkpoint.artifacts_restored += 1
    return filtered, mileage


def _restore_dictionary(store: CheckpointStore | None,
                        config: PipelineConfig,
                        checkpoint) -> FailureDictionary | None:
    """Adopt the built-dictionary stage artifact, if usable."""
    if store is None or not config.resume:
        return None
    payload = store.load_artifact("dictionary")
    if payload is None:
        return None
    try:
        dictionary = FailureDictionary.from_json(json.dumps(payload))
    except Exception:
        checkpoint.corrupt_entries += 1
        checkpoint.notes.append(
            "artifact 'dictionary' could not be decoded; recomputed")
        return None
    checkpoint.artifacts_restored += 1
    return dictionary


def _restore_tag(entry: dict, record, checkpoint) -> bool:
    try:
        tag = FaultTag(entry["tag"])
        category = FailureCategory(entry["category"])
    except Exception:
        checkpoint.corrupt_entries += 1
        checkpoint.notes.append(
            f"tag entry for {_record_id(record)!r} unusable; "
            "recomputed")
        return False
    record.tag = tag
    record.category = category
    return True


def _note_unusable(guard: StageGuard, entry: dict) -> None:
    checkpoint = guard.health.checkpoint
    checkpoint.corrupt_entries += 1
    checkpoint.notes.append(
        f"journal entry with outcome {entry.get('outcome')!r} "
        "unusable; recomputed")


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------

def _non_blank(lines: list[str]) -> int:
    """Count the non-blank lines (blank ones are not 'unparsed')."""
    return sum(1 for line in lines if line.strip())


def record_id(record) -> str:
    """A stable unit id for one disengagement record.

    Records without provenance get a content-derived id rather than a
    positional one: a position shifts whenever an earlier record is
    filtered or quarantined, which would silently re-key the unit
    across a resume.
    """
    if record.source_document is not None:
        return f"{record.source_document}:{record.source_line}"
    digest = hashlib.sha256("|".join((
        record.manufacturer, record.month, record.description,
    )).encode("utf-8")).hexdigest()[:16]
    return f"record:{digest}"


#: Backward-compatible alias (the id became public API when the query
#: layer's by-id index started exposing it).
_record_id = record_id


def _unknown_tag():
    """Degraded tagging outcome: the explicit UNKNOWN tag/category."""
    from ..nlp.tagger import TagResult

    return TagResult(
        tag=FaultTag.UNKNOWN,
        category=category_of(FaultTag.UNKNOWN),
        confident=False)


def _degraded_dictionary() -> FailureDictionary:
    """Fallback when the corpus-expanded dictionary build fails."""
    warnings.warn(
        "expanded dictionary build failed; falling back to the "
        "hand-curated seed dictionary",
        DegradedModeWarning, stacklevel=2)
    return FailureDictionary.from_seeds()


def _through_ocr(document: RawDocument, ocr_stage: OcrStage | None,
                 config: PipelineConfig,
                 diagnostics: PipelineDiagnostics) -> list[str]:
    if ocr_stage is None:
        return list(document.lines)
    rng = child_generator(config.seed, f"ocr:{document.document_id}")
    return ocr_stage.process(document, rng, diagnostics.ocr)


def _attach_truth(document: RawDocument, parsed) -> None:
    """Copy ground-truth tags onto parsed records by source line.

    Line numbers are stable through the OCR channel (lines are never
    merged or split), so (document, line) identifies the record.
    """
    truth_by_line = {r.source_line: r
                     for r in document.truth_disengagements}
    for record in parsed:
        truth = truth_by_line.get(record.source_line)
        if truth is not None:
            record.truth_tag = truth.truth_tag


def _build_dictionary(records, config: PipelineConfig) -> FailureDictionary:
    if config.dictionary_mode == "seed":
        return FailureDictionary.from_seeds()
    texts = [r.description for r in records]
    return FailureDictionary.build(texts)
