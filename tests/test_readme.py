"""README: the library quick start, the example config and the command-line
examples run as documented."""

import re
from pathlib import Path

from eisopt.cli import ENV_OUTPUT_DIR, main

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


def test_command_line_examples_run(tmp_path, monkeypatch):
    # every `eisopt ...` line of the sh block, in order, in one directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    lines = [line.split("#")[0].split() for block in _blocks("sh")
             for line in block.splitlines() if line.startswith("eisopt ")]
    assert [argv[1] for argv in lines] == ["synth", "fit", "crlb-sweep", "design", "report"]
    for _, *argv in lines:
        if argv[0] == "design":
            argv += ["--max-iterations", "2"]  # not the default 60: keeps the suite fast
        assert main(argv) == 0, argv
