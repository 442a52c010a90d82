"""Seeded request stream for the ``serve_mixed`` workload.

The stream mixes two populations of distinct queries:

* a *hot set* of ``HOT_SET`` queries, small enough to live in the
  server's 256-entry result LRU, so most requests are cache hits and
  their latency measures the HTTP/server path;
* a *cold population* ``COLD_POPULATION`` queries large (four times
  the LRU), drawn for ``COLD_SHARE`` of requests, so those miss and
  their latency measures the engine and its index.

Both populations cycle through every metric / group-by shape with
random filters, so the mix of result sizes and compute costs does not
depend on the seed.  A query is kept only when the public ``Query``
constructor and the in-process ``QueryEngine`` both accept it; the
engine's answer is kept as the expected response body.  The same seed
and database always give the same stream.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from urllib.parse import urlencode

#: Entries in the server's result LRU (``repro serve`` default).
LRU_ENTRIES = 256
HOT_SET = 128
COLD_POPULATION = 4 * LRU_ENTRIES
#: Share of requests drawn from the cold population.
COLD_SHARE = 0.15

#: The HTTP query surface: metrics, group-bys, shortcut routes.
METRICS = ("count", "miles", "dpm", "apm", "dpa", "tags", "categories",
           "modalities", "trend")
GROUP_BYS = (None, "manufacturer", "month", "year", "tag", "category")
SHORTCUTS = ("dpm", "apm", "dpa")

#: The response fields that legitimately differ between two answers
#: to one query: timing and whether the LRU served it.
_VOLATILE = re.compile(rb'"cached": (?:true|false), "elapsed_ms": [^,}]*, ')


@dataclass(frozen=True)
class Request:
    """One HTTP request and the body the server must answer with."""

    method: str
    path: str
    body: bytes | None
    #: The engine's answer with the volatile fields stripped.
    expected: bytes


def stable_body(raw: bytes) -> bytes:
    """A response body without its volatile fields."""
    return _VOLATILE.sub(b"", raw, count=1)


def same_answer(raw: bytes, expected: bytes) -> bool:
    """Whether a response body carries the expected answer.

    Byte equality after stripping the volatile fields is the fast path;
    a body that differs only in key order is compared decoded.
    """
    if stable_body(raw) == expected:
        return True
    try:
        got = json.loads(raw)
        want = json.loads(expected)
    except ValueError:
        return False
    if not isinstance(got, dict):
        return False
    got.pop("cached", None)
    got.pop("elapsed_ms", None)
    return (json.dumps(got, sort_keys=True)
            == json.dumps(want, sort_keys=True))


def _filters(rng: random.Random, data: dict, manufacturers: list[str],
             months: list[str], tags: list[str],
             categories: list[str]) -> dict:
    data = dict(data)
    if rng.random() < 0.5:
        data["manufacturers"] = sorted(rng.sample(
            manufacturers, rng.randint(1, min(3, len(manufacturers)))))
    if rng.random() < 0.3:
        first, last = sorted(rng.sample(range(len(months)), 2))
        data["month_from"] = months[first]
        data["month_to"] = months[last]
    if rng.random() < 0.15:
        data["tag"] = rng.choice(tags)
    elif rng.random() < 0.1:
        data["category"] = rng.choice(categories)
    return data


def shapes() -> list[dict]:
    """Every metric / group-by pair the ``Query`` constructor accepts."""
    from repro.errors import QueryError
    from repro.query import Query

    found = {}
    for metric in METRICS:
        for group_by in GROUP_BYS:
            try:
                query = Query(metric=metric, group_by=group_by)
            except QueryError:
                continue
            found[query.canonical()] = query.to_dict()
    return list(found.values())


def _request(rng: random.Random, data: dict, expected: bytes) -> Request:
    """Pick the route a query is sent on: a metric shortcut, a GET or
    a POST ``/v1/query``."""
    route = rng.random()
    if data["metric"] in SHORTCUTS and route < 0.5:
        params = {k: v for k, v in data.items() if k != "metric"}
        path = f"/v1/metrics/{data['metric']}"
    elif route < 0.8:
        params, path = dict(data), "/v1/query"
    else:
        return Request("POST", "/v1/query",
                       json.dumps(data).encode(), expected)
    names = params.pop("manufacturers", [])
    pairs = list(params.items()) + [("manufacturer", n) for n in names]
    if pairs:
        path += "?" + urlencode(pairs)
    return Request("GET", path, None, expected)


def build_populations(engine, seed: int, hot_size: int = HOT_SET,
                      cold_size: int = COLD_POPULATION,
                      ) -> tuple[list[Request], list[Request], int]:
    """The hot set and the cold population for one seed.

    Returns ``(hot, cold, rejected)``: ``rejected`` counts candidates
    the ``Query`` constructor or the engine refused.  No two requests
    share a cache key.
    """
    from repro.errors import ReproError
    from repro.query import Query
    from repro.taxonomy import FailureCategory, FaultTag

    db = engine.db
    choices = (db.manufacturers(), sorted({c.month for c in db.mileage}),
               [tag.value for tag in FaultTag],
               [category.value for category in FailureCategory])
    cycle = shapes()
    rng = random.Random(f"perfbench-queries-{seed}")
    seen: set[str] = set()
    accepted: list[Request] = []
    rejected = 0
    attempts = 0
    while len(accepted) < hot_size + cold_size:
        attempts += 1
        if attempts > 20 * (hot_size + cold_size):
            raise RuntimeError("too few distinct valid queries for the "
                               "requested population sizes")
        shape = cycle[len(accepted) % len(cycle)]
        data = _filters(rng, shape, *choices)
        try:
            query = Query.from_dict(data)
            key = query.canonical()
            if key in seen:
                continue
            result = engine.execute(query)
        except ReproError:
            rejected += 1
            continue
        seen.add(key)
        expected = stable_body(json.dumps(result.to_dict()).encode())
        accepted.append(_request(rng, data, expected))
    return accepted[:hot_size], accepted[hot_size:], rejected


def request_stream(seed: int, hot: list[Request], cold: list[Request]):
    """Endless seeded sequence of requests over the two populations."""
    rng = random.Random(f"perfbench-stream-{seed}")
    while True:
        if rng.random() < COLD_SHARE:
            yield cold[rng.randrange(len(cold))]
        else:
            yield hot[rng.randrange(len(hot))]
