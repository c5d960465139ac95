"""The README's library example runs as written against a mock script."""

from __future__ import annotations

import re
from pathlib import Path

from helpers import build_pipeline_script, make_records, write_script
from tagevol.records import write_dataset

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs_verbatim(tmp_path, monkeypatch):
    records = make_records(4, prefix="seed")
    write_dataset(records, tmp_path / "seed.jsonl")
    write_script(tmp_path / "script.json", build_pipeline_script(records, [1, 3, 5], master_seed=42))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert namespace["report"].failures == []
    assert namespace["result"].failures == []
    assert [len(round_records) for round_records in namespace["result"].rounds] == [4, 4, 4]
    assert len(namespace["merged"]) == 12
    assert sorted(path.name for path in tmp_path.iterdir()) == ["script.json", "seed.jsonl"]
