import os
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README quick start", "exec"), namespace)
    report = namespace["report"]
    assert np.isfinite(report.fhat)
    assert report.ci[0] < report.fhat < report.ci[1]
    assert str(report.fhat) in capsys.readouterr().out
