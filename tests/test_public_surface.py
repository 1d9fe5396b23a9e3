"""The package's top-level names are the list the README states, so a
test-only reference cannot come back into ``import subsage`` unnoticed."""

import re
import types
from pathlib import Path

import subsage

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_surface() -> list[str]:
    section = README.read_text(encoding="utf-8").split("### Public surface\n", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S)
    return block.group(1).split()


def test_top_level_names_match_readme():
    names = [
        name for name, value in vars(subsage).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    stated = readme_surface()
    assert len(stated) == len(set(stated))
    assert sorted(names) == sorted(stated)
