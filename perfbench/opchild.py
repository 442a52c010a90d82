"""One ``run_*`` op in a fresh interpreter: what ``repro run`` does.

Usage: ``python opchild.py SEED OCR(0|1) OUT_PATH TRACE(0|1)``, with
the program's ``src`` on ``PYTHONPATH``.  Prints one JSON object:
the import time of ``repro.api``, the op wall from calling
``run_pipeline`` until the database is saved, the saved and reloaded
fingerprints, and, when traced, the per-layer self times and counts.
An untraced op runs the ``refspeed`` probe from before the import to
the end; its kernel time is reported and left out of both times.

Each op gets its own process so that no process-global memo (the
token cache) carries over from one op to the next.
"""

from __future__ import annotations

import json
import os
import sys
import time

from refspeed import Speed


def main(argv: list[str]) -> None:
    seed, ocr, out, trace = (int(argv[0]), argv[1] == "1", argv[2],
                             argv[3] == "1")
    speed = Speed()
    if not trace:
        speed.start_probe()
    started, probed = time.perf_counter(), speed.busy_s
    import repro.api as api
    import_s = time.perf_counter() - started - (speed.busy_s - probed)

    recorder = None
    if trace:
        from layertrace import Recorder, instrument_pipeline
        from repro.nlp.textcache import token_cache

        recorder = Recorder()
        instrument_pipeline(recorder)
        cache_before = token_cache().stats()

    config = api.PipelineConfig(seed=seed, ocr_enabled=ocr)
    started, probed = time.perf_counter(), speed.busy_s
    result = api.run_pipeline(config)
    if recorder is not None:
        recorder.enter("pipeline.store.save")
    result.database.save(out)
    if recorder is not None:
        recorder.exit()
    wall_s = time.perf_counter() - started - (speed.busy_s - probed)

    report = {
        "import_s": import_s,
        "wall_s": wall_s,
        "fingerprint": result.database.fingerprint(),
        "reloaded": api.load_database(out).fingerprint(),
    }
    speed.stop_probe()
    report.update(kernel_s=speed.busy_s, kernel_passes=len(speed.samples))
    if recorder is not None:
        cache_after = token_cache().stats()
        hits = cache_after["hits"] - cache_before["hits"]
        lookups = hits + cache_after["misses"] - cache_before["misses"]
        report.update(
            self_s=dict(recorder.self_s),
            calls=dict(recorder.calls),
            counts={**recorder.counts,
                    "pipeline.store.bytes": os.path.getsize(out),
                    "nlp.token_lookups": lookups,
                    "nlp.token_hits": hits},
        )
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
