import contextlib
import io
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

from depcomp.cli import main

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


def test_cli_block_runs(tmp_path, monkeypatch):
    # Each ``depcomp`` line of the "Command line" block exits 0, in order,
    # in a fresh directory.
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for line in block.group(1).splitlines() if line.startswith("depcomp ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(line)[1:]) == 0, line
