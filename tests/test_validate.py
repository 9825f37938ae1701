"""The runtime invariant battery of ``twistsense validate``, one test per check."""

import pytest

from twistsense.validate import CHECKS


def test_check_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[n for n, _ in CHECKS])
def test_check_passes(check):
    detail = check()
    assert detail == "", detail
