"""The README's Python API example runs as written."""

import os
import re
import warnings

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_api_block() -> str:
    with open(README) as fh:
        text = fh.read()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example_runs():
    code = python_api_block()
    assert "rows(" in code and 'check_minkowski(psi, 64)["pass"]' in code
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, "README.md", "exec"), {})
