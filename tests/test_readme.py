"""The README's Python examples run as written."""
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_examples_run():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
