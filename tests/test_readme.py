import pathlib
import re
import warnings

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_without_warnings():
    # Every ``python`` block of the README runs as written, and any warning
    # (a two-channel fit's non-uniqueness, a numpy deprecation) fails it.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    runs = []
    for block in blocks:
        namespace = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(block, str(README), "exec"), namespace)
        runs.append(namespace)
    # The quick start's commented values.
    quick = runs[0]
    assert quick["q"].prob((1, 1, 1)) == pytest.approx(0.06576, abs=1e-15)
    aligned = quick["result"].p_hat.probs[quick["tau"].source_indices()]
    np.testing.assert_allclose(aligned, [0.127, 0.873], atol=5e-4)
