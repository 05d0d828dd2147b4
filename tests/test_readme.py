"""The library quickstart of README.md runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    text = README.read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md quickstart", "exec"), scope)
    fs, op = scope["fs"], scope["op"]
    assert scope["err"] < 1e-6 * fs.m_norm(op, scope["ref"])
    assert len(scope["outs"]) == len(scope["stats"]) == 2
    assert scope["outs"][0].coeffs.tolist() == scope["u"].coeffs.tolist()
