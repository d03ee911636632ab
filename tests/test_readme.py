"""README: the library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    # the fit converges, and the last two lines are the loop's final
    # normalized volume and sweep time
    assert printed[0].startswith("True ")
    assert float(printed[-3]) < 1.0
    assert float(printed[-2]) > 0.0
