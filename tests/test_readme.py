import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
