"""The README's library quick tour runs against the library as it is, so
the docs cannot keep naming an API that is gone."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(quick_tour(), f"{README.name} quick tour", "exec"), {})
