"""The README's examples run as written."""

import re
from pathlib import Path

import pytest

from geoctrl.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def run_block(code):
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    return namespace


@pytest.fixture(scope="module")
def python_blocks():
    found = blocks("python")
    assert len(found) == 2  # the library quick start and the pvtol study
    return found


def test_quick_start_plan_is_realizable(python_blocks, capsys):
    ns = run_block(python_blocks[0])
    assert ns["rec"].max_residual < 1e-6
    assert capsys.readouterr().out  # it prints the end point and the residual


def test_pvtol_tracking_error_is_first_order(python_blocks, capsys):
    ns = run_block(python_blocks[1])
    assert 0.9 <= ns["study"].slope <= 1.1
    assert capsys.readouterr().out


def test_cli_example_config_validates(tmp_path, capsys):
    (config,) = blocks("yaml")
    path = tmp_path / "motion.yaml"
    path.write_text(config)
    assert main(["validate", str(path)]) == 0
    assert '"ok": true' in capsys.readouterr().out
