"""Shared fixtures."""

import pytest

from twistsense import spin_core


@pytest.fixture
def solved_blocks(monkeypatch):
    """The sizes of the real tridiagonal blocks solved from now on, one entry
    per ``spin_core._tridiagonal_eigh`` call, whichever solver it takes."""
    sizes = []
    solve = spin_core._tridiagonal_eigh

    def counted(diagonal, off):
        sizes.append(len(diagonal))
        return solve(diagonal, off)

    monkeypatch.setattr(spin_core, "_tridiagonal_eigh", counted)
    return sizes
