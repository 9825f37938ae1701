"""Scheme pipelines: configs, Hamiltonians, final states, derivatives."""

import numpy as np
import pytest

from twistsense import (
    ComplexOperator,
    DickeSpace,
    FockSpace,
    ProtocolConfig,
    collective_operators,
    final_state,
    hamiltonian,
    initial_state,
    overlap,
    propagate,
)
from twistsense.bosonic_limit import fock_mode
from twistsense.errors import ContractViolationError
from twistsense.protocols import run_pipeline

from _helpers import richardson_derivative


def make_config(**overrides):
    base = dict(
        scheme="B",
        n_spins=8,
        twist_strength=1.0,
        sensing_fraction=0.5,
        omega=0.0,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


class TestProtocolConfig:
    def test_valid_config_roundtrip(self):
        cfg = make_config(scheme="Cprime", twist_strength=2.5)
        assert cfg.scheme == "Cprime"
        assert cfg.space.n_spins == 8

    @pytest.mark.parametrize("scheme", ["a", "D", "bprime", "", "B "])
    def test_rejects_unknown_scheme(self, scheme):
        with pytest.raises(ValueError):
            make_config(scheme=scheme)

    @pytest.mark.parametrize("twist", [-0.1, np.nan, np.inf])
    def test_rejects_bad_twist(self, twist):
        with pytest.raises(ValueError):
            make_config(twist_strength=twist)

    @pytest.mark.parametrize("frac", [-0.01, 1.01, np.nan])
    def test_rejects_bad_sensing_fraction(self, frac):
        with pytest.raises(ValueError):
            make_config(sensing_fraction=frac)

    def test_rejects_non_finite_field(self):
        with pytest.raises(ValueError):
            make_config(omega=np.inf)

    @pytest.mark.parametrize("n", [0, -2, 1.5])
    def test_rejects_bad_spin_count(self, n):
        with pytest.raises(Exception):
            make_config(n_spins=n)


class TestHamiltonian:
    def test_field_two_spins(self):
        space = DickeSpace(2)
        H = hamiltonian(space, "field", 3.0)
        jy = collective_operators(space).Jy.matrix
        assert np.abs(H.matrix - 3.0 * jy / np.sqrt(2)).max() <= 1e-15

    def test_two_axis_twist_vanishes_for_single_spin(self):
        # J+^2 annihilates every state of a single spin 1/2.
        H = hamiltonian(DickeSpace(1), "tat", 5.0)
        assert np.abs(H.matrix).max() == 0.0

    def test_one_axis_twist_single_spin_is_scalar(self):
        # Jx^2 = I/4 for one spin, so the generator is a global phase.
        H = hamiltonian(DickeSpace(1), "oat", 2.0)
        assert np.abs(H.matrix - 0.5 * np.eye(2)).max() <= 1e-15

    @pytest.mark.parametrize("kind", ["field", "tat", "oat"])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_hermitian_by_construction(self, kind, n):
        H = hamiltonian(DickeSpace(n), kind, 1.7)
        assert np.abs(H.matrix - H.matrix.conj().T).max() == 0.0

    def test_two_axis_twist_matches_ladder_form(self):
        space = DickeSpace(6)
        ops = collective_operators(space)
        jp2 = ops.Jplus.matrix @ ops.Jplus.matrix
        expected = 1.2j * (jp2.conj().T - jp2) / 6
        H = hamiltonian(space, "tat", 1.2)
        assert np.abs(H.matrix - expected).max() <= 1e-14

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian(DickeSpace(2), "quadratic", 1.0)


class TestSchemeStates:
    def test_separable_scheme_state_and_derivative(self):
        # Scheme A at zero field leaves the spin-coherent state untouched
        # and the derivative is -i tau G acting on it.
        n = 9
        cfg = make_config(scheme="A", n_spins=n, twist_strength=0.0)
        state = final_state(cfg)
        psi0 = initial_state(cfg.space)
        assert np.abs(state.psi.amplitudes - psi0.amplitudes).max() == 0.0
        G = hamiltonian(cfg.space, "field", 1.0)
        expected = -1j * (G.matrix @ psi0.amplitudes)
        assert np.abs(state.dpsi.amplitudes - expected).max() <= 1e-14

    def test_sequential_full_sensing_reduces_to_separable(self):
        # Scheme B with all time spent sensing never twists, so psi and
        # dpsi agree with scheme A exactly.
        kwargs = dict(n_spins=7, twist_strength=2.0, sensing_fraction=1.0)
        seq = final_state(make_config(scheme="B", **kwargs))
        sep = final_state(make_config(scheme="A", **kwargs))
        assert np.abs(seq.psi.amplitudes - sep.psi.amplitudes).max() <= 1e-12
        assert np.abs(seq.dpsi.amplitudes - sep.dpsi.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("scheme,exposure", [("B", 0.35), ("C", 1.0)])
    def test_zero_twist_reduction(self, scheme, exposure):
        # Without twisting, the sequential scheme only sees the field for
        # the sensing window, while the concurrent scheme keeps it on for
        # the whole budget and degenerates to the separable protocol.
        n = 6
        s = 0.35
        cfg = make_config(scheme=scheme, n_spins=n, twist_strength=0.0,
                          sensing_fraction=s)
        state = final_state(cfg)
        psi0 = initial_state(cfg.space)
        G = hamiltonian(cfg.space, "field", 1.0)
        expected = -1j * exposure * (G.matrix @ psi0.amplitudes)
        assert np.abs(state.psi.amplitudes - psi0.amplitudes).max() <= 1e-12
        assert np.abs(state.dpsi.amplitudes - expected).max() <= 1e-12

    @pytest.mark.parametrize("scheme", ["Bprime", "Cprime"])
    def test_echo_cancels_twisting_at_zero_field(self, scheme):
        # The reversed second window undoes the first, so the final state
        # is the initial one up to numerical noise.
        cfg = make_config(scheme=scheme, n_spins=14, twist_strength=3.0,
                          sensing_fraction=0.4)
        state = final_state(cfg)
        psi0 = initial_state(cfg.space)
        assert np.abs(state.psi.amplitudes - psi0.amplitudes).max() <= 1e-12

    def test_sequential_echo_cancellation_is_exact(self):
        # Scheme B-echo applies U and U^dagger built from the same
        # eigendecomposition, so cancellation is exact to rounding.
        cfg = make_config(scheme="Bprime", n_spins=10, twist_strength=4.0,
                          sensing_fraction=0.2)
        state = final_state(cfg)
        psi0 = initial_state(cfg.space)
        assert np.abs(state.psi.amplitudes - psi0.amplitudes).max() <= 1e-13

    @pytest.mark.parametrize(
        "scheme,n,twist,s",
        [
            ("A", 5, 0.0, 0.5),
            ("B", 8, 1.5, 0.4),
            ("C", 12, 2.0, 0.3),
            ("Bprime", 9, 6.0, 0.6),
            ("Cprime", 11, 4.0, 0.25),
            # n = None runs the same pipelines on a 160-level Fock mode.
            ("A", None, 0.0, 0.5),
            ("B", None, 0.5, 0.4),
            ("C", None, 0.5, 0.3),
            ("Bprime", None, 4.0, 0.6),
            ("Cprime", None, 4.0, 0.25),
        ],
    )
    def test_derivative_matches_finite_difference(self, scheme, n, twist, s):
        def at_field(w):
            if n is None:
                mode = fock_mode(FockSpace(truncation_dim=160))
                return run_pipeline(mode, scheme, twist, s, w)
            return final_state(make_config(scheme=scheme, n_spins=n,
                                           twist_strength=twist,
                                           sensing_fraction=s, omega=w))

        state = at_field(0.0)
        fd = richardson_derivative(lambda w: at_field(w).psi.amplitudes)
        scale = max(np.linalg.norm(state.dpsi.amplitudes), 1.0)
        assert np.linalg.norm(state.dpsi.amplitudes - fd) / scale <= 1e-6

    @pytest.mark.parametrize(
        "scheme,twist,s",
        [
            ("A", 0.0, 0.5),
            ("B", 1.0, 0.5),
            ("C", 2.0, 0.4),
            ("Bprime", 3.0, 0.5),
            ("Cprime", 2.5, 0.6),
        ],
    )
    def test_derivative_overlap_is_imaginary(self, scheme, twist, s):
        # <psi|dpsi> must be purely imaginary for a normalized family.
        cfg = make_config(scheme=scheme, n_spins=13, twist_strength=twist,
                          sensing_fraction=s)
        state = final_state(cfg)
        assert abs(overlap(state.psi, state.dpsi).real) <= 1e-8

    def test_nonzero_field_evolves_single_spin_exactly(self):
        # One spin never twists. Scheme C keeps the field on for the full
        # budget; scheme B only during the sensing window.
        omega = 0.9
        s = 0.7
        space = DickeSpace(1)
        G = hamiltonian(space, "field", omega)
        concurrent = final_state(
            make_config(scheme="C", n_spins=1, twist_strength=2.0,
                        sensing_fraction=s, omega=omega)
        )
        expected = propagate(G, 1.0, initial_state(space))
        assert np.abs(
            concurrent.psi.amplitudes - expected.amplitudes
        ).max() <= 1e-10
        sequential = final_state(
            make_config(scheme="B", n_spins=1, twist_strength=2.0,
                        sensing_fraction=s, omega=omega)
        )
        expected = propagate(G, s, initial_state(space))
        assert np.abs(
            sequential.psi.amplitudes - expected.amplitudes
        ).max() <= 1e-10

    def test_nonzero_field_matches_zero_field_at_origin(self):
        cfg0 = make_config(scheme="Cprime", n_spins=6, twist_strength=1.5,
                           sensing_fraction=0.5, omega=0.0)
        eps = 1e-9
        cfg1 = make_config(scheme="Cprime", n_spins=6, twist_strength=1.5,
                           sensing_fraction=0.5, omega=eps)
        a = final_state(cfg0).psi.amplitudes
        b = final_state(cfg1).psi.amplitudes
        assert np.abs(a - b).max() <= 1e-7

    def test_states_are_normalized_across_schemes(self):
        for scheme in ("A", "B", "C", "Bprime", "Cprime"):
            cfg = make_config(scheme=scheme, n_spins=10, twist_strength=2.0,
                              sensing_fraction=0.3)
            state = final_state(cfg)
            assert abs(state.psi.norm - 1.0) <= 1e-10
            assert state.psi.normalized
            assert not state.dpsi.normalized

    def test_rejects_unnormalized_usage_signature(self):
        # SchemeState construction itself enforces the dimension contract.
        from twistsense import SchemeState, StateVector

        psi = initial_state(DickeSpace(3))
        bad = StateVector(np.zeros(5, dtype=complex), normalized=False)
        with pytest.raises(Exception):
            SchemeState(psi=psi, dpsi=bad)
