import pathlib
import re

import qwalk


def test_version_matches_pyproject():
    # a regular expression, not tomllib: the package supports Python 3.10
    text = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert qwalk.__version__ == match.group(1)
