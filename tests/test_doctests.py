"""Run the doctests of the public modules as part of the suite.

The docstring examples of the public API (replay, experiments, registry,
streaming engine, analysis) are executable documentation; this test keeps
them honest both locally and in the CI docs job.
"""

import doctest

import pytest

import repro.analysis.experiment
import repro.core.engine
import repro.experiments
import repro.experiments.runner
import repro.experiments.spec
import repro.registry
import repro.replay
import repro.replay.link
import repro.replay.metrics
import repro.replay.sources

#: (module, whether it is expected to carry at least one example).
MODULES = [
    (repro.analysis.experiment, True),
    (repro.core.engine, True),
    (repro.experiments, False),
    (repro.experiments.runner, False),
    (repro.experiments.spec, True),
    (repro.registry, True),
    (repro.replay, False),
    (repro.replay.link, False),
    (repro.replay.metrics, True),
    (repro.replay.sources, True),
]


@pytest.mark.parametrize(
    "module,has_examples",
    MODULES,
    ids=[module.__name__ for module, _ in MODULES],
)
def test_module_doctests(module, has_examples):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"
    if has_examples:
        assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
