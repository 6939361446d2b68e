"""README's examples run as written and give the results their comments state."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import anglekit

README = (Path(__file__).parents[1] / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    # The first ```lang block after the heading.
    start = README.index(f"```{lang}\n", README.index(heading)) + len(lang) + 4
    return README[start:README.index("```", start)]


def test_library_quick_start_gives_its_commented_results():
    code = block("## Library quick start", "python")
    namespace = {}
    exec(code, namespace)
    target = namespace["target"]
    assert (target.class_index, target.class_vector) == (1, (0.0, 1.0, 0.0))
    assert target.residual_target == math.sqrt(13.5)
    # Each bare expression line holds its result as the comment.
    checked = 0
    for line in code.splitlines():
        expression, _, comment = line.partition("#")
        if comment and "=" not in expression:
            assert eval(expression, namespace) == pytest.approx(eval(comment), rel=1e-12)
            checked += 1
    assert checked == 2  # decode(pred, config) is 73.5 and rotated_iou(a, b) 1/3


def test_cli_lines_run_from_the_source_tree():
    env = dict(os.environ, PYTHONPATH=str(Path(anglekit.__file__).parents[1]))
    outputs = {}
    for line in block("## CLI", "bash").splitlines():
        command, *args = shlex.split(line)[1:]
        if command in ("encode", "decode", "iou", "thickness"):
            run = subprocess.run([sys.executable, "-m", "anglekit.cli", command, *args],
                                 capture_output=True, text=True, env=env, check=False)
            assert run.returncode == 0, (line, run.stderr)
            outputs[command] = json.loads(run.stdout)
    assert sorted(outputs) == ["decode", "encode", "iou", "thickness"]
    assert outputs["decode"] == {"theta": 73.5}
