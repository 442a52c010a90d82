"""Shared fixtures.

The full corpus + pipeline run is expensive (~6 s), so it is built
once per session; module tests that only need a handful of records use
the small two-manufacturer corpus instead.
"""

from __future__ import annotations

import struct
from array import array

import pytest

from repro.pipeline import PipelineConfig, process_corpus
from repro.synth import generate_corpus

FULL_SEED = 2018
SMALL_SEED = 7


@pytest.fixture(scope="session")
def corpus():
    """The full calibrated corpus (all twelve manufacturers)."""
    return generate_corpus(seed=FULL_SEED)


@pytest.fixture(scope="session")
def pipeline_result(corpus):
    """The full end-to-end pipeline run over the session corpus."""
    return process_corpus(corpus, PipelineConfig(seed=FULL_SEED))


@pytest.fixture(scope="session")
def db(pipeline_result):
    """The consolidated failure database of the session run."""
    return pipeline_result.database


@pytest.fixture(scope="session")
def small_corpus():
    """A fast two-manufacturer corpus for unit tests."""
    return generate_corpus(
        seed=SMALL_SEED, manufacturers=["Nissan", "Volkswagen"])


@pytest.fixture(scope="session")
def small_db(small_corpus):
    """Pipeline output over the small corpus (OCR disabled: fast and
    deterministic for parser-level assertions)."""
    config = PipelineConfig(seed=SMALL_SEED, ocr_enabled=False,
                            dictionary_mode="seed")
    return process_corpus(small_corpus, config).database


@pytest.fixture
def unusable_db_paths(tmp_path):
    """Paths that exist but can never load as a database: a directory,
    a file that is not UTF-8, and a binary ``RPROCOL1`` blob of the
    kind the removed columnar backend wrote (magic, header length,
    JSON header, packed float64 columns)."""
    directory = tmp_path / "db-dir"
    directory.mkdir()
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"disengagements": ["caf\xe9"]}'
                         .encode("latin-1"))
    header = b'{"byteorder":"little","format":1,"tables":[]}'
    blob = tmp_path / "db.bin"
    blob.write_bytes(b"RPROCOL1" + struct.pack("<Q", len(header))
                     + header + array("d", [1234.5, 0.1]).tobytes())
    return {"directory": directory, "not_utf8": not_utf8,
            "blob": blob}
