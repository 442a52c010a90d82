"""``repro serve`` with the query-layer wrappers installed.

Usage: ``python servechild.py SPANS_PATH -- <repro serve arguments>``.
Runs the same CLI entry point as ``python -m repro serve``; when the
server stops (SIGINT) it writes the recorded spans to ``SPANS_PATH``
as JSON: the load and engine-build self times, and the duration and
cache outcome of every ``QueryEngine.execute`` call in order.
"""

from __future__ import annotations

import json
import sys

from layertrace import ExecuteLog, Recorder


def main(argv: list[str]) -> int:
    spans_path, rest = argv[0], argv[argv.index("--") + 1:]
    import repro.cli

    recorder = Recorder()
    log = ExecuteLog()
    log.install(recorder)
    try:
        return repro.cli.main(rest)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"self_s": dict(recorder.self_s),
                       "calls": dict(recorder.calls),
                       "execute": log.calls}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
