import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    # the README's one python block, run as written, keeps its API current
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    assert "digraph invariant" in capsys.readouterr().out
