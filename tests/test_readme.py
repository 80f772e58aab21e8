import re
from pathlib import Path

import pairlock

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library use section has no python block"
    return match.group(1)


def test_readme_library_use_runs(capsys):
    exec(compile(_library_use_block(), str(README), "exec"), {})
    out = capsys.readouterr().out
    s_value = float(re.search(r"^S\s+= ([-\d.]+)", out, re.MULTILINE).group(1))
    assert 2.0 < s_value < 2 ** 1.5


def test_every_exported_name_resolves():
    assert len(set(pairlock.__all__)) == len(pairlock.__all__)
    for name in pairlock.__all__:
        assert hasattr(pairlock, name), name
