from __future__ import annotations

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circuitsmith"
FILES = sorted(
    p for p in PACKAGE.rglob("*") if p.is_file() and "__pycache__" not in p.parts
)


def test_package_has_sources():
    assert any(p.suffix == ".py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_source_is_ascii(path):
    path.read_bytes().decode("ascii")
