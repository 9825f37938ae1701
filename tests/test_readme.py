"""The README's library example runs and prints the documented numbers."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

# What the example prints, line by line, as recorded when it was written.
RECORDED = (
    (2.6582985852694105,),
    (2.74415997347574,),
    (2.74415997347574,),
    (0.5195022354462187, 1.3686118375738037, "interior"),
    (8.24755859375,),
)


def test_readme_python_example_prints_the_recorded_values(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(block, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(RECORDED)
    for line, expected in zip(lines, RECORDED):
        words = line.split()
        assert len(words) == len(expected)
        for word, value in zip(words, expected):
            if isinstance(value, str):
                assert word == value
            else:
                assert float(word) == pytest.approx(value, rel=1e-12, abs=0)
