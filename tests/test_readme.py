"""The README's "Library sketch" runs as written, and its key table is the
config's."""

from pathlib import Path

import pytest

from pnp_upscale.config import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    """The one Python block of the README's "Library sketch" section."""
    section = README.read_text().split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    return blocks[0].split("```", 1)[0]


def test_the_library_sketch_runs_as_written():
    scope: dict = {}
    exec(compile(library_sketch(), "README.md", "exec"), scope)
    cfg = scope["cfg"]
    assert len(scope["rows"]) == len(scope["dns_rows"]) == cfg.n_steps == 10
    assert [s.t for s in scope["snapshots"]] == [pytest.approx(0.005)]
    assert scope["final"].t == scope["dns"].t == pytest.approx(cfg.t_end)
    assert scope["dom"].s == 0.5


def test_the_key_table_lists_every_config_key():
    section = README.read_text().split("\n### Configuration\n", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(KEYS)
