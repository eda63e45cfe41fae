"""Locations the benchmark works with, all inside the checkout it runs in.

The benchmark measures the `qchain` sources of the checkout (`src/qchain`),
never an installed copy, and writes its outputs under `.perfbench/`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench"


class SourceMissing(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path.

    Raises SourceMissing when the checkout has no qchain sources, so that a
    copy of the benchmark alone fails instead of measuring something else.
    """
    if not (SRC / "qchain" / "__init__.py").is_file():
        raise SourceMissing(f"no qchain sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qchain

    if Path(qchain.__file__).resolve().parent != (SRC / "qchain").resolve():
        raise SourceMissing(f"qchain imported from {qchain.__file__}, not from {SRC}")
