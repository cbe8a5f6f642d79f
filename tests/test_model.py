import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkalman import (
    SIGMA,
    SpecValidationError,
    SystemSpec,
    build_derived,
    compute_kappa,
    load_spec_file,
    spec_from_dict,
    spec_to_dict,
    theorem_bound,
    validate_spec,
)
from qkalman.bounds import KAPPA_DEADBAND
from qkalman.closedform import Example1Params, Example2Params, example1_spec, example2_spec

from conftest import random_spec


class TestValidateSpec:
    def test_identity_like_accepted_unchanged(self):
        spec = validate_spec(
            {"G": [[1, 0], [0, 1]], "C_re": [1, 0], "C_im": [0, 0], "phi": 0, "eta": 1, "hbar": 1}
        )
        assert np.array_equal(spec.G, np.eye(2))
        assert np.array_equal(spec.C, np.array([1, 0], dtype=complex))
        assert (spec.phi, spec.eta, spec.hbar) == (0.0, 1.0, 1.0)

    def test_eta_zero_rejected(self):
        with pytest.raises(SpecValidationError, match="eta out of range"):
            SystemSpec(G=np.eye(2), C=np.array([1, 0]), eta=0.0)

    def test_eta_above_one_rejected(self):
        with pytest.raises(SpecValidationError, match="eta out of range"):
            SystemSpec(G=np.eye(2), C=np.array([1, 0]), eta=1.5)

    def test_near_symmetric_g_symmetrized(self):
        spec = SystemSpec(G=[[0, 1], [1 + 1e-12, 0]], C=np.array([1, 0]), eta=1)
        assert spec.G[0, 1] == spec.G[1, 0] == pytest.approx(1 + 5e-13, abs=1e-15)

    def test_large_asymmetry_rejected(self):
        with pytest.raises(SpecValidationError, match="not symmetric"):
            SystemSpec(G=[[0, 1], [1.001, 0]], C=np.array([1, 0]), eta=1)

    def test_nonpositive_hbar_rejected(self):
        with pytest.raises(SpecValidationError, match="hbar"):
            SystemSpec(G=np.eye(2), C=np.array([1, 0]), eta=1, hbar=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(SpecValidationError):
            SystemSpec(G=[[np.nan, 0], [0, 1]], C=np.array([1, 0]), eta=1)
        with pytest.raises(SpecValidationError):
            SystemSpec(G=np.eye(2), C=np.array([np.inf, 0]), eta=1)

    def test_mapping_defaults_and_unknown_keys(self):
        spec = validate_spec({"G": [[1, 0], [0, 1]], "C_re": [1, 0], "C_im": [0, 0], "eta": 0.5})
        assert spec.phi == 0.0 and spec.hbar == 1.0
        with pytest.raises(SpecValidationError, match="unknown spec keys"):
            validate_spec(
                {"G": [[1, 0], [0, 1]], "C_re": [1, 0], "C_im": [0, 0], "eta": 0.5, "bogus": 1}
            )
        with pytest.raises(SpecValidationError, match="missing required"):
            validate_spec({"G": [[1, 0], [0, 1]], "eta": 0.5})

    def test_spec_arrays_immutable(self):
        spec = SystemSpec(G=np.eye(2), C=np.array([1, 0]), eta=1)
        with pytest.raises(ValueError):
            spec.G[0, 0] = 2.0


class TestBuildDerived:
    def test_example1_canonical_matrices(self):
        # m = omega = 1, alpha = 1/2 gives C = (1, 0), G = I
        model = build_derived(example1_spec(Example1Params(m=1, omega=1, alpha=0.5)))
        assert np.allclose(model.A, [[0, 1], [-1, 0]], atol=1e-15)
        assert np.allclose(model.Ci, [0, 0], atol=1e-15)
        assert model.kappa == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(model.D, np.diag([0.0, 1.0]), atol=1e-15)

    def test_example2_kappa_is_gamma_squared(self):
        spec = example2_spec(Example2Params(beta=1.0, gamma=2.0, phi=1.3))
        assert compute_kappa(spec) == pytest.approx(4.0, rel=1e-14)
        assert build_derived(spec).kappa == pytest.approx(4.0, rel=1e-12)

    def test_kappa_direct_bilinear_form(self):
        # C = (1, 3i): Re C = (1, 0), Im C = (0, 3), kappa = (1,0) Sigma (0,3)^T
        spec = SystemSpec(G=np.eye(2), C=np.array([1.0, 3.0j]), eta=1.0)
        expected = np.array([1.0, 0.0]) @ SIGMA @ np.array([0.0, 3.0])
        assert expected == 3.0
        assert compute_kappa(spec) == pytest.approx(3.0, rel=1e-15)

    def test_zero_coupling(self):
        spec = SystemSpec(G=[[1, 0], [0, 1]], C=np.array([0, 0]), eta=0.7)
        model = build_derived(spec)
        assert np.allclose(model.A, SIGMA @ spec.G, atol=1e-15)
        assert np.all(model.D == 0) and np.all(model.Q == 0) and np.all(model.S == 0)
        assert model.kappa == 0.0
        assert model.R == spec.hbar

    def test_deterministic_bit_identical(self):
        spec = SystemSpec(G=[[1.1, 0.3], [0.3, -0.4]], C=np.array([0.7 + 0.2j, -1.1j]), phi=0.9, eta=0.6)
        m1, m2 = build_derived(spec), build_derived(spec)
        for name in ("Cr", "Ci", "A", "Aprime", "D", "M", "S", "Q"):
            a1, a2 = getattr(m1, name), getattr(m2, name)
            assert np.array_equal(a1, a2)
        assert m1.kappa == m2.kappa and m1.R == m2.R


class TestModelInvariants:
    def test_phase_invariance_kappa_A_Q(self, rng):
        phis = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        for _ in range(1000):
            spec = random_spec(rng)
            kappas = []
            As = []
            Qs = []
            for phi in phis:
                s = SystemSpec(G=spec.G, C=spec.C, phi=phi, eta=spec.eta)
                m = build_derived(s)
                kappas.append(m.kappa)
                As.append(m.A)
                Qs.append(m.Q)
            kappas = np.array(kappas)
            scale = 1.0 + np.abs(kappas).max()
            assert np.ptp(kappas) <= 1e-12 * scale
            assert np.abs(np.ptp(np.stack(As), axis=0)).max() <= 1e-12 * (1 + np.abs(As[0]).max())
            assert np.abs(np.ptp(np.stack(Qs), axis=0)).max() <= 1e-12 * (1 + np.abs(Qs[0]).max())

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
    def test_kappa_and_bound_phase_invariant(self, seed, phi):
        base = random_spec(np.random.default_rng(seed))
        spec = SystemSpec(G=base.G, C=base.C, phi=phi, eta=base.eta)
        kappa = compute_kappa(spec)
        c2 = float(np.sum(np.abs(spec.C) ** 2))
        tol = 1e-12 * (1.0 + c2)
        assume(abs(abs(kappa) - KAPPA_DEADBAND * c2) > tol)
        model = build_derived(spec)
        assert abs(model.kappa - kappa) <= tol
        assert theorem_bound(model) == theorem_bound(build_derived(base))

    def test_surrogate_consistency_identities(self, rng):
        for _ in range(500):
            m = build_derived(random_spec(rng))
            lhs_A = m.A - np.outer(m.S, m.M) / m.R
            assert np.abs(lhs_A - m.Aprime).max() <= 1e-12 * (1 + np.abs(m.Aprime).max())
            lhs_D = m.Q - np.outer(m.S, m.S) / m.R
            assert np.abs(lhs_D - m.D).max() <= 1e-12 * (1 + np.abs(m.D).max())

    def test_D_and_Q_psd(self, rng):
        for _ in range(500):
            m = build_derived(random_spec(rng))
            for X in (m.D, m.Q):
                w = np.linalg.eigvalsh(X)
                assert w.min() >= -1e-12 * max(1.0, np.abs(w).max())

    def test_A_equals_sigma_G_plus_im_outer(self, rng):
        # A from Cr/Ci must equal Sigma [G + Im(conj(C) C^T)] for all phases
        for _ in range(200):
            spec = random_spec(rng)
            m = build_derived(spec)
            im_outer = np.imag(np.outer(spec.C.conj(), spec.C))
            ref = SIGMA @ (spec.G + im_outer)
            assert np.abs(m.A - ref).max() <= 1e-12 * (1 + np.abs(ref).max())


class TestJsonSchema:
    def test_round_trip(self):
        spec = SystemSpec(G=[[1.5, 0.2], [0.2, 0.8]], C=np.array([0.3 - 0.1j, 1.2j]), phi=0.7, eta=0.9, hbar=2.0)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_load_spec_file(self, tmp_path):
        payload = {"G": [[0, 1], [1, 0]], "C_re": [1, 0], "C_im": [0, 1], "eta": 0.5}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(payload))
        spec = load_spec_file(str(path))
        assert spec.eta == 0.5 and spec.phi == 0.0 and spec.hbar == 1.0
        assert np.array_equal(spec.C, np.array([1, 1j]))

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SpecValidationError):
            load_spec_file(str(path))
