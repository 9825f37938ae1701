"""Acceptance gate: ten end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the test results.
"""

from contextlib import contextmanager
from math import e, sqrt

import numpy as np

from twistsense import (
    FockSpace,
    ProtocolConfig,
    StateVector,
    closed_form_optimum,
    collective_operators,
    enhancement_ratio,
    fidelity,
    final_state,
    find_threshold,
    fock_hamiltonian,
    momentum_quadrature,
    propagate,
    propagate_with_derivative,
    qfi_sensitivity,
    relative_difference,
    vacuum_state,
    variance,
)
from twistsense.validate import CHECKS, dense_propagator, random_banded_hermitian

from _helpers import (
    dense_hermitian,
    random_hermitian,
    random_state,
    richardson_derivative,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def passes(check_name):
    """Run one named check of the ``twistsense validate`` battery."""
    detail = dict(CHECKS)[check_name]()
    assert detail == "", f"{check_name}: {detail}"


def config(scheme, n, twist, s):
    return ProtocolConfig(
        scheme=scheme,
        n_spins=n,
        twist_strength=twist,
        sensing_fraction=s,
    )


def test_criterion_01_separable_benchmark():
    with criterion(1, "separable sensitivity is 1 for every N up to 100"):
        passes("metrology.benchmark_scheme_a")


def test_criterion_02_reduction_identities():
    with criterion(2, "degenerate pipelines collapse onto the separable state"):
        for n in (1, 2, 10, 50):
            target = final_state(config("A", n, 0.0, 0.5)).psi
            for scheme in ("B", "C"):
                full = final_state(config(scheme, n, 2.0, 1.0)).psi
                assert fidelity(full, target) >= 1.0 - 1e-10, (scheme, n, "t=1")
            for scheme in ("B", "C", "Bprime", "Cprime"):
                untwisted = final_state(config(scheme, n, 0.0, 0.4)).psi
                assert fidelity(untwisted, target) >= 1.0 - 1e-10, (scheme, n)


def test_criterion_03_echo_closed_form_equivalence():
    with criterion(3, "numeric one-axis-twist echo matches its closed form"):
        passes("metrology.echo_matches_closed_form")


def test_criterion_04_large_n_convergence():
    with criterion(4, "sequential scheme converges to e/2 as N grows"):
        target = e / 2.0
        errors = []
        for n in (50, 100, 200, 500):
            rec = qfi_sensitivity(config("B", n, 1.0, 0.5))
            errors.append(relative_difference(rec.sensitivity, target))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= 0.05, errors[-1]


def test_criterion_05_break_even_thresholds():
    with criterion(5, "finite-N and infinite-N break-even twist strengths"):
        spin_cases = (
            ("Bprime", 10, (1.0, 20.0), 11.5),
            ("Bprime", 100, (1.0, 20.0), 8.2),
            ("Cprime", 10, (1.0, 9.0), 5.0),
        )
        for scheme, n, interval, expected in spin_cases:
            thr = find_threshold(scheme, n, "spin", interval)
            assert abs(thr - expected) <= 0.5, (scheme, n, thr)
        closed_cases = (
            ("B", (0.01, 2.0), 0.5),
            ("Bprime", (2.0, 16.0), 8.0),
            ("Cprime", (1.0, 9.0), 4.0),
        )
        for scheme, interval, expected in closed_cases:
            thr = find_threshold(scheme, None, "closed_form", interval)
            assert abs(thr - expected) <= 1e-3, (scheme, thr)


def test_criterion_06_dominance_and_enhancement_ratio():
    with criterion(6, "concurrent dominates sequential; ratio saturates at e"):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            best_c = closed_form_optimum("C", x).value
            best_b = closed_form_optimum("B", x).value
            assert best_c >= best_b, x
        assert relative_difference(enhancement_ratio(5.0), e) <= 0.01
        assert relative_difference(enhancement_ratio(1e-3), 1.0) <= 1e-3


def test_criterion_07_echo_variance_identity():
    with criterion(7, "echoed probes keep the coherent readout spread"):
        for scheme in ("Bprime", "Cprime"):
            for n in (2, 5, 10, 50):
                for chi_tau in (1.0, 4.0, 11.5, 50.0):
                    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                        cfg = config(scheme, n, chi_tau, s)
                        psi = final_state(cfg).psi
                        jy = collective_operators(cfg.space).Jy
                        spread = sqrt(variance(jy, psi))
                        assert abs(spread - sqrt(n) / 2.0) <= 1e-9, (
                            scheme, n, chi_tau, s,
                        )
        space = FockSpace(truncation_dim=400)
        H = fock_hamiltonian(space, "oat")
        t_prime = (1.0 - 0.5) / 2.0
        echoed = propagate(
            H, -8.0 * t_prime, propagate(H, 8.0 * t_prime, vacuum_state(space))
        )
        spread = sqrt(variance(momentum_quadrature(space), echoed))
        assert abs(spread - 1.0) <= 1e-6, spread


def test_criterion_08_moment_oracle_agreement():
    with criterion(8, "closed-form spin moment matches dense matrix algebra"):
        passes("metrology.moment_oracle_matrix")


def test_criterion_09_fock_closed_form_triangle():
    with criterion(9, "bosonic simulation and analytic limits agree"):
        passes("bosonic.fock_triangle")


def test_criterion_10_derivative_engine():
    with criterion(10, "eigenbasis propagator derivatives match finite differences"):
        rng = np.random.default_rng(2026)
        for case in range(50):
            dim = int(rng.integers(2, 22))
            H0 = random_banded_hermitian(rng, dim)
            G = dense_hermitian(random_hermitian(rng, dim))
            psi = StateVector(random_state(rng, dim))
            duration = float(rng.uniform(0.1, 2.0))
            # The engine differentiates along the field angle w * duration.
            _, along_angle = propagate_with_derivative(H0, G, duration, psi)
            dphi = duration * along_angle.amplitudes

            def along(w):
                mixed = H0.matrix + w * G.matrix
                return dense_propagator(mixed, duration) @ psi.amplitudes

            fd = richardson_derivative(along)
            err = np.linalg.norm(dphi - fd) / max(np.linalg.norm(dphi), 1.0)
            assert err <= 1e-6, (case, dim, err)
