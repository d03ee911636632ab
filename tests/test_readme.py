"""README: the library quick start and the example config run as documented."""

import re
from pathlib import Path

from eisopt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.S | re.M)


def test_quick_start_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    # the fit converges, and the last two lines are the loop's final
    # normalized volume and sweep time
    assert printed[0].startswith("True ")
    assert float(printed[-3]) < 1.0
    assert float(printed[-2]) > 0.0


def test_example_config_is_accepted(tmp_path):
    # a documented key that the CLI rejects would exit 2
    blocks = _blocks("json")
    assert len(blocks) == 1
    cfg = tmp_path / "config.json"
    cfg.write_text(blocks[0], encoding="utf-8")
    rc = main(["design", "--config", str(cfg), "--max-iterations", "0",
               "--output-dir", str(tmp_path)])
    assert rc == 0
