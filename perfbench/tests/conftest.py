"""Make the benchmark's modules and the program importable in its tests."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from paths import ROOT, SRC  # noqa: E402

sys.path.insert(0, SRC)


@pytest.fixture(scope="session")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)
