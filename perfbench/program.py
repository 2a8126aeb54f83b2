"""Load the package under test from this checkout's ``src`` directory."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "qreliab"


class ProgramMissing(Exception):
    pass


def load():
    """Import ``qreliab`` from ``src/``, never from an installed copy."""
    if not (PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no package at {PACKAGE}")
    sys.path.insert(0, str(SRC))
    import qreliab

    if Path(qreliab.__file__).resolve().parent != PACKAGE:
        raise ProgramMissing(f"qreliab imported from {qreliab.__file__}, not {PACKAGE}")
    return qreliab
