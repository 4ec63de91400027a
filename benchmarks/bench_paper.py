"""The paper experiments, one parametrized test over the catalogue.

Each entry of :data:`repro.workloads.experiments.CATALOGUE` is run
once under pytest-benchmark timing, its table -- the paper's number
beside the measured one -- is printed on stderr, and its shape check
is asserted.  ``python -m repro experiment ID`` prints the same table
from the same definition.
"""

import sys

import pytest

from repro.analysis import format_table
from repro.workloads.experiments import CATALOGUE

from common import run_once


@pytest.mark.parametrize("experiment", CATALOGUE, ids=lambda e: e.id)
def test_paper_experiment(benchmark, experiment):
    result = run_once(benchmark, experiment.run)
    print(file=sys.stderr)
    print(
        format_table(experiment.headers, experiment.rows(result),
                     title=experiment.heading),
        file=sys.stderr,
    )
    experiment.check(result)
