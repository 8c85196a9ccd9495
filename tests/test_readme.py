"""README's library sketch runs as written."""

import random
import re
from pathlib import Path

from samsami import naive_count

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    rng = random.Random(0x5EAD)
    words = [b"hay", b"stack", b"needle", b"in", b"a", b"straw", b"\n"]
    corpus = bytearray()
    while len(corpus) < 20000:
        corpus += rng.choice(words) + b" "
        if rng.random() < 0.01:
            corpus += b"needle in a hay "
    corpus = bytes(corpus)
    (tmp_path / "corpus.txt").write_bytes(corpus)
    monkeypatch.chdir(tmp_path)
    sketch = _sketch()
    exec(compile(sketch, str(README), "exec"), {})
    assert (tmp_path / "corpus.ssmi").is_file()
    needle = re.search(r'needle = (b".*?")', sketch).group(1)
    expect = naive_count(corpus, eval(needle))
    assert expect > 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(name, int(n)) for name, n, _ in rows] == [
        ("samsami", expect), ("spasa", expect), ("sa", expect)]
