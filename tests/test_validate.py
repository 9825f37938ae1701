"""The runtime invariant battery of ``twistsense validate``: one test per
check, or per case of a check stated over cases."""

import io
from functools import partial

import pytest

from twistsense import validate
from twistsense.validate import CHECKS, Cases, over


def battery():
    for name, check in CHECKS:
        if isinstance(check, Cases):
            for case in check.cases:
                case_id = "-".join(str(arg).replace(" ", "") for arg in case)
                yield pytest.param(partial(check.one, *case), id=f"{name}-{case_id}")
        else:
            yield pytest.param(check, id=name)


def test_check_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("check", battery())
def test_check_passes(check):
    detail = check()
    assert detail == "", detail


def test_a_check_over_cases_fails_on_its_first_failing_case():
    seen = []

    @over([(1,), (2,), (3,), (4,)])
    def odd(k):
        seen.append(k)
        return f"{k} is even" if k % 2 == 0 else ""

    assert odd.cases == ((1,), (2,), (3,), (4,))
    assert odd() == "2 is even"
    assert seen == [1, 2]
    assert over([(1,), (3,)])(odd.one)() == ""


def test_a_failing_or_raising_check_fails_the_run(monkeypatch):
    # A check fails by returning a detail or by raising; either is one FAIL
    # line, the summary counts the passes, and the run exits 1.
    def raises():
        raise ValueError("bad input")

    checks = (
        ("a.passes", lambda: ""),
        ("a.fails", lambda: "off by 1"),
        ("a.raises", raises),
    )
    monkeypatch.setattr(validate, "CHECKS", checks)
    out = io.StringIO()
    assert validate.run_validation(stream=out) == 1
    assert out.getvalue().splitlines() == [
        "PASS a.passes",
        "FAIL a.fails: off by 1",
        "FAIL a.raises: raised ValueError: bad input",
        "1/3 checks passed",
    ]
