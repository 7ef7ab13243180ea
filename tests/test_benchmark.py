"""One pass of each benchmark workload's per-word path, with its checks.

perfbench/workload.py is imported as it is, so a change to the package
that would end a benchmark run as incorrect or failed fails here first.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workload():
    sys.path.insert(0, str(PERFBENCH))  # workload imports its siblings
    try:
        import workload
    finally:
        sys.path.remove(str(PERFBENCH))
    return workload


@pytest.mark.parametrize("name", ["census", "long"])
def test_word_paths(workload, name):
    led = workload.Ledger()
    per_word = workload.census_word if name == "census" else workload.long_word
    for args in zip(*workload.make_inputs(name, seed=1)):
        per_word(led, *args)
    assert led.wrong == 0
    failures = Counter((stage, what) for stage, what, _, _ in led.failures)
    if name == "census":
        # perfbench's in_family ignores the end exponents, so it expects
        # angles for words that assign_angles rightly rejects.
        assert led.attempted == 929 and led.failed == 30
        assert failures == Counter({("assign_angles", "ValueError"): 30})
    else:
        assert led.attempted == 128 and led.failed == 0, failures


def test_survey_pass(workload):
    led = workload.Ledger()
    workload.survey_pass(led)
    assert led.wrong == 0 and led.failed == 0 and led.attempted == 1, led.failures
