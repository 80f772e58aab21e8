import re
from dataclasses import fields
from pathlib import Path

import pairlock
from pairlock.sync import CorrelatorConfig

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


def test_readme_correlator_block_lists_every_key():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^\[correlator\]\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert block, "README's config example has no [correlator] block"
    keys = re.findall(r"^(\w+) =", block.group(1), re.MULTILINE)
    assert sorted(keys) == sorted(f.name for f in fields(CorrelatorConfig))
