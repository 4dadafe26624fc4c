"""Deterministic regression corpus: replay every committed fuzz case.

Each file under ``tests/corpus/`` is a case the fuzzer (or a hand-written
corner) pinned down — the differential harness re-runs it across the whole
configuration cube on every test run, no hypothesis required.  A shrunk
divergence found by ``repro fuzz`` gets committed here so it can never
regress silently; see docs/testing.md.
"""

from pathlib import Path

import pytest

from repro.fuzz import load_corpus_case, run_fuzz_case

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert len(CORPUS_FILES) >= 5


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_case_stays_clean(path):
    case = load_corpus_case(path)
    report = run_fuzz_case(case)
    # Every topology runs the 2 event/naive points: single-segment cases on
    # the single-engine topology only, multi-segment ones also on the
    # 2-engine mux and 2-engine x 2-channel crossbar topologies.
    expected = 2 if len(case.segments) == 1 else 6
    assert len(report.points) == expected
