"""``scipy.stats`` stays off the ``repro run`` and ``repro serve`` paths.

Importing it costs about a second, more than the rest of ``repro.api``
together.  Only the Stage IV analyses that need its distributions and
tests import it, inside the functions that call it.  Each check runs
in a fresh interpreter, because this test process has long since
imported ``scipy.stats`` for other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_interpreter(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_stats_out():
    loaded = _fresh_interpreter(
        "import json, sys\n"
        "import repro.api, repro.cli\n"
        "print(json.dumps('scipy.stats' in sys.modules))\n")
    assert loaded is False


def test_run_and_engine_leave_scipy_stats_out():
    # Nissan reports reaction times, so the exponentiated-Weibull draw
    # runs; OCR is on; every engine kernel executes once.
    loaded = _fresh_interpreter(
        "import json, sys\n"
        "import repro.api as api\n"
        "from repro.analysis.kernels import KERNELS\n"
        "from repro.errors import ReproError\n"
        "from repro.query import Query, QueryEngine\n"
        "result = api.run_pipeline(api.PipelineConfig(\n"
        "    seed=7, manufacturers=['Nissan', 'Volkswagen']))\n"
        "assert any(r.reaction_time_s\n"
        "           for r in result.database.disengagements)\n"
        "engine = QueryEngine(result.database)\n"
        "for metric, group_by in KERNELS:\n"
        "    try:\n"
        "        engine.execute(Query(metric, group_by))\n"
        "    except ReproError:\n"
        "        pass\n"
        "print(json.dumps('scipy.stats' in sys.modules))\n")
    assert loaded is False
