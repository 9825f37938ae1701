"""Acceptance gate: ten end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the test results.
"""

from contextlib import contextmanager

from twistsense import find_threshold
from twistsense.validate import CHECKS


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


def test_criterion_01_separable_benchmark():
    with criterion(1, "separable sensitivity is 1 for every N up to 100"):
        passes("metrology.benchmark_scheme_a")


def test_criterion_02_reduction_identities():
    with criterion(2, "degenerate pipelines collapse onto the separable state"):
        passes("protocols.full_sensing_reduction")
        passes("protocols.zero_twist_reduction")


def test_criterion_03_echo_closed_form_equivalence():
    with criterion(3, "numeric one-axis-twist echo matches its closed form"):
        passes("metrology.echo_matches_closed_form")


def test_criterion_04_large_n_convergence():
    with criterion(4, "sequential scheme converges to e/2 as N grows"):
        passes("metrology.large_n_convergence")


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
        passes("sweep.closed_form_thresholds")


def test_criterion_06_dominance_and_enhancement_ratio():
    with criterion(6, "concurrent dominates sequential; ratio saturates at e"):
        passes("metrology.dominance_c_over_b")
        passes("bosonic.enhancement_ratio_bounds")


def test_criterion_07_echo_variance_identity():
    with criterion(7, "echoed probes keep the coherent readout spread"):
        passes("metrology.echo_variance_identity")


def test_criterion_08_moment_oracle_agreement():
    with criterion(8, "closed-form spin moment matches dense matrix algebra"):
        passes("metrology.moment_oracle_matrix")


def test_criterion_09_fock_closed_form_triangle():
    with criterion(9, "bosonic simulation and analytic limits agree"):
        passes("bosonic.fock_triangle")


def test_criterion_10_derivative_engine():
    with criterion(10, "eigenbasis propagator derivatives match finite differences"):
        passes("spin_core.derivative_vs_finite_difference")
