"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The criteria live in :mod:`qkalman.acceptance` (shared with the ``qkalman
verify`` CLI command); the shared random population is cached per process,
so the full module costs roughly the same as one ``verify`` run.
"""

import functools
import re

import mpmath as mp
import numpy as np
import pytest

from qkalman import SteadyState, acceptance, build_derived
from qkalman.acceptance import CRITERION_NAMES, run_criteria
from qkalman.bounds import _projected_identities
from qkalman.closedform import Example2Params, example2_spec
from qkalman.riccati import _newton_step, _sym


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_criterion(name):
    results = run_criteria([name])
    assert len(results) >= 1
    result = next(r for r in results if r.name == name)
    print(result.line())
    assert result.passed, result.line()


def test_cross_solver_counts_flow_limit_fallbacks():
    # Each method runs its own route only, so every population steady state
    # comes from the closed-form route and the row compares all 1000 specs
    # (spec 741 fell back to the flow limit before the closed form).
    entries = acceptance._population()
    fallbacks = [i for i, e in enumerate(entries) if e.steady is None or e.steady.method != "hamiltonian"]
    assert fallbacks == []
    passed, detail = acceptance._crit_cross_solver(None)
    assert passed
    assert detail.startswith("1000/1000 specs converged on both routes (0 failed on the ODE route), ")


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


def _mp_start(entry):
    """The promoted model of a population entry and its float64 steady triple."""
    a, d, n, cr, ci, eta, hbar = acceptance._promote(mp, entry.model)
    v = tuple(map(mp.mpf, _sym(entry.steady.V_inf.tolist())))
    return a, d, n, cr, ci, eta, hbar, v


def test_sixty_digit_reference_fails_closed(monkeypatch):
    entries = [e for e in acceptance._population() if e.steady is not None][:20]
    with mp.workdps(60):
        a, d, n, *_, v = _mp_start(entries[0])
        assert acceptance._refine_reference(a, d, n, v) is not None
        far = tuple(4 * x for x in v)
        assert acceptance._refine_reference(a, d, n, far, steps=1) is None

    # the row fails, and counts the specs, when a reference does not converge
    monkeypatch.setitem(acceptance._population_cache, None, entries)
    passed, detail = acceptance._crit_proof_identities(None)
    assert passed and "(0 without a 60-digit reference" in detail
    one_step = functools.partial(acceptance._refine_reference, steps=1)
    monkeypatch.setattr(acceptance, "_refine_reference", one_step)
    passed, detail = acceptance._crit_proof_identities(None)
    assert not passed
    assert int(re.search(r"\((\d+) without a 60-digit reference", detail)[1]) > 0


def test_sixty_digit_kernels_keep_mpf_precision():
    # A float(), math.sqrt or numpy call inside a shared kernel would drop
    # the 60-digit path to float64 and still pass the row's 1e-9 tolerances.
    entries = [e for e in acceptance._population() if e.steady is not None][:50]
    with mp.workdps(60):
        for e in entries:
            a, d, n, cr, ci, eta, hbar, v = _mp_start(e)
            assert all(isinstance(x, mp.mpf) for x in _newton_step(a, d, n, v))
            v = acceptance._refine_reference(a, d, n, v)
            rep = _projected_identities(cr, ci, a, d, v, eta, hbar, mp.sqrt)
            numbers = (
                *rep.v, *rep.a, *rep.d, rep.q, rep.det_V, rep.quotient,
                *rep.equation_residuals, rep.quotient_residual, rep.d1_residual,
            )
            assert all(isinstance(x, mp.mpf) for x in numbers)
            assert max(rep.equation_residuals) < 1e-30
            assert rep.quotient_residual < 1e-30
