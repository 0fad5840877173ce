"""The README's Python API example and CLI examples run as written."""

import os
import re
import shlex
import subprocess
import sys
import warnings

from test_cli import child_env

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def section_block(section, language) -> str:
    """The first ``language`` code block of the README's ``## section``."""
    with open(README) as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_python_api_example_runs():
    code = section_block("Python API", "python")
    assert "rows(" in code and 'check_minkowski(psi, 64)["pass"]' in code
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, "README.md", "exec"), {})


def test_cli_examples_run(tmp_path):
    """Each ``projflat ...`` command of the CLI section's sh block, its
    continuation lines joined, exits 0 as ``python -m projflat ...``, and
    the CSVs it names are written."""
    lines = section_block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("projflat ")]
    assert len(commands) == 6
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "projflat", *argv], cwd=tmp_path,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv, done.stderr)
    for name in ("funk.csv", "traj.csv"):
        with open(tmp_path / name) as fh:
            assert len(fh.readlines()) > 1, name  # a header and at least one row
