import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written(capsys):
    # the README's documented API, run verbatim, so it cannot drift from the library
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    assert float(capsys.readouterr().out) == ns["res"].total_cost
    assert np.isclose(ns["dist"].mass.sum(), 1.0)
    assert ns["bounds"].lb <= ns["bounds"].ub
