"""The trace targets of ``perfbench/spans.py`` against the library's names.

A traced run wraps each target where the calling module looks it up.  A target
that no longer resolves is skipped, and its per-layer metrics read 0.  The
stale set below names the targets known to be stale; it may only shrink.
``spans.py`` is read as source and run, never imported or edited.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The statistics factor the Wald kernel by eigh and call no pinv, and the
# hypothesis module reaches rank decisions through linalg._echelon alone.
STALE = {
    ("quadform.statistics", "pinv"),
    ("quadform.hypothesis", "pinv"),
    ("quadform.hypothesis", "rank"),
    ("quadform.hypothesis", "projection"),
    ("quadform.hypothesis", "rref"),
}


def _resolves(module: str, attr: str) -> bool:
    return hasattr(importlib.import_module(module), attr)


def test_every_unresolved_trace_target_is_known_stale():
    spans = runpy.run_path(str(SPANS))
    targets = spans["CLI_TARGETS"]
    assert set(spans["LIBRARY_TARGETS"]) <= set(targets)
    unresolved = {(module, attr) for module, attr, _, _ in targets if not _resolves(module, attr)}
    assert unresolved <= STALE


def test_the_linalg_rank_operations_resolve_where_they_are_defined():
    for attr in ("rref", "rank", "projection"):
        assert _resolves("quadform.linalg", attr)
