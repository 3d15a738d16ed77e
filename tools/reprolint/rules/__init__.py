"""Rule registry: every rule family reprolint ships."""

from __future__ import annotations

from typing import List

from ..engine import Rule
from . import batchparity, cachekey, determinism, imports, locks, obs

ALL_RULES: List[Rule] = [
    *determinism.RULES,
    *cachekey.RULES,
    *locks.RULES,
    *batchparity.RULES,
    *obs.RULES,
    *imports.RULES,
]

RULES_BY_ID = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID"]
