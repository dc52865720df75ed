"""The README's Python examples run, and print the numbers they quote.

Every ```python block in README.md runs in a fresh namespace.  A line of the
form ``expression  # number ...`` quotes the expression's value: it must
round to that number at the digits shown (``0.916`` to three decimals,
``2.0e-3`` to two significant digits).
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                    re.MULTILINE | re.DOTALL)
QUOTED = re.compile(r"^(\S.*?)\s+#\s*([-+]?\d+\.\d+(?:e[-+]?\d+)?)\b",
                    re.MULTILINE)


def _at_shown_digits(value: float, shown: str) -> float:
    mantissa, _, exponent = shown.partition("e")
    digits = len(mantissa.partition(".")[2])
    return float(f"{value:.{digits}{'e' if exponent else 'f'}}")


def test_readme_has_quoted_numbers():
    # the four numbers the quick start quotes, at least
    assert sum(len(QUOTED.findall(block)) for block in BLOCKS) >= 4


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_readme_python_block(block):
    source = BLOCKS[block]
    namespace = {}
    exec(compile(source, f"README.md python block {block}", "exec"),
         namespace)
    for line in source.splitlines():
        match = QUOTED.match(line)
        if match is None:
            continue
        expression, shown = match.groups()
        value = eval(expression, namespace)
        assert _at_shown_digits(value, shown) == float(shown), \
            f"{expression} is {value!r}, README shows {shown}"
