"""Tests of the seeded query-stream generator.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/test_querystream.py -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import querystream  # noqa: E402
from repro.api import PipelineConfig, Query, QueryEngine, run_pipeline  # noqa: E402

HOT, COLD = 16, 64


@pytest.fixture(scope="module")
def engine():
    config = PipelineConfig(seed=5, manufacturers=["Nissan", "Waymo"],
                            ocr_enabled=False, dictionary_mode="seed")
    return QueryEngine(run_pipeline(config).database)


def _populations(engine, seed):
    return querystream.build_populations(engine, seed, hot_size=HOT,
                                         cold_size=COLD)


def _prefix(seed, hot, cold, n=500):
    return list(itertools.islice(
        querystream.request_stream(seed, hot, cold), n))


def test_same_seed_gives_same_stream(engine):
    hot_a, cold_a, rejected_a = _populations(engine, 7)
    hot_b, cold_b, rejected_b = _populations(engine, 7)
    assert (hot_a, cold_a, rejected_a) == (hot_b, cold_b, rejected_b)
    assert _prefix(7, hot_a, cold_a) == _prefix(7, hot_b, cold_b)


def test_other_seed_gives_other_stream(engine):
    hot_a, cold_a, _ = _populations(engine, 7)
    hot_b, cold_b, _ = _populations(engine, 8)
    assert _prefix(7, hot_a, cold_a) != _prefix(8, hot_b, cold_b)


def _query_of(request):
    """The query a request carries, decoded as the HTTP API documents."""
    if request.method == "POST":
        return Query.from_dict(json.loads(request.body))
    parts = urlsplit(request.path)
    data = {key: values[-1]
            for key, values in parse_qs(parts.query).items()}
    names = parse_qs(parts.query).get("manufacturer")
    if names:
        data.pop("manufacturer")
        data["manufacturers"] = tuple(names)
    if parts.path.startswith("/v1/metrics/"):
        data["metric"] = parts.path.rsplit("/", 1)[1]
    return Query.from_dict(data)


def test_stream_holds_only_valid_distinct_queries(engine):
    hot, cold, _ = _populations(engine, 7)
    assert len(hot) == HOT <= querystream.LRU_ENTRIES
    assert len(cold) == COLD
    keys = set()
    for request in hot + cold:
        query = _query_of(request)
        result = engine.execute(query)  # raises on a rejected query
        body = json.dumps(result.to_dict()).encode()
        assert querystream.stable_body(body) == request.expected
        keys.add(query.canonical())
    assert len(keys) == HOT + COLD


def test_same_answer_ignores_only_volatile_fields():
    body = (b'{"query": {"metric": "dpm"}, "fingerprint": "ab", '
            b'"cached": true, "elapsed_ms": 0.01, "result": {"x": 1}}')
    expected = querystream.stable_body(body.replace(b"true", b"false"))
    assert querystream.same_answer(body, expected)
    assert not querystream.same_answer(body.replace(b'"x": 1', b'"x": 2'),
                                       expected)
    reordered = (b'{"result": {"x": 1}, "elapsed_ms": 3, "cached": false, '
                 b'"fingerprint": "ab", "query": {"metric": "dpm"}}')
    assert querystream.same_answer(reordered, expected)
