"""The package's public surface is exactly what the README documents."""

import re
from pathlib import Path

import quadform

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_public_name_appears_in_the_readme():
    missing = [
        name for name in quadform.__all__ if not re.search(rf"\b{re.escape(name)}\b", README)
    ]
    assert missing == []
