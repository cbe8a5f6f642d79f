"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The criteria live in :mod:`qkalman.acceptance` (shared with the ``qkalman
verify`` CLI command); the shared random population is cached per process,
so the full module costs roughly the same as one ``verify`` run.
"""

import numpy as np
import pytest

from qkalman import SteadyState, acceptance, build_derived
from qkalman.acceptance import CRITERION_NAMES, run_criteria
from qkalman.closedform import Example2Params, example2_spec


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(name):
    results = run_criteria([name])
    assert len(results) >= 1
    result = next(r for r in results if r.name == name)
    print(result.line())
    assert result.passed, result.line()


def test_cross_solver_counts_flow_limit_fallbacks():
    # Population spec 741's steady state comes from the flow-limit fallback, so
    # the row has no Hamiltonian solution to hold the ODE route against there.
    entries = acceptance._population()
    fallbacks = [i for i, e in enumerate(entries) if e.steady is not None and e.steady.method != "hamiltonian"]
    assert fallbacks == [741]
    passed, detail = acceptance._crit_cross_solver(None)
    assert passed
    assert detail.startswith("999/1000 specs converged on both routes (1 fell back to the flow limit, ")


def test_population_rows_scale_slack_with_hbar(monkeypatch):
    # At hbar = 1e-34 an absolute slack would pass any det(V_inf).
    hbar = 1e-34
    model = build_derived(example2_spec(Example2Params(hbar=hbar)))

    def entry(det):
        steady = SteadyState(np.sqrt(det) * np.eye(2), 0.0, "hamiltonian", True)
        return acceptance._PopulationEntry(spec=model.spec, model=model, steady=steady)

    physical = [entry(hbar * hbar / 2.0)] * 200
    for name in ("theorem-bound-random", "heisenberg-floor-random"):
        monkeypatch.setitem(acceptance._population_cache, None, physical)
        assert run_criteria([name])[0].passed
        monkeypatch.setitem(acceptance._population_cache, None, physical + [entry(hbar * hbar / 16.0)])
        assert not run_criteria([name])[0].passed
