"""Parse-result caching.

Body-pass models depend on the global declaration table (receiver
types come from headers), so the cache key for a file combines its own
content hash with a digest over *all* files' declaration-relevant
content.  A header edit therefore invalidates every body model —
correct, and still cheap: the tree is ~60 files and a cold parse is
about a second.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Optional

CACHE_VERSION = 3


class ParseCache:
    def __init__(self, root: str, enabled: bool = True):
        self.root = root
        self.enabled = enabled
        if enabled:
            os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def digest(*parts: bytes) -> str:
        h = hashlib.sha256()
        for p in parts:
            h.update(p)
            h.update(b"\x00")
        return h.hexdigest()

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key[:32]}.pickle")

    def get(self, kind: str, key: str) -> Optional[object]:
        if not self.enabled:
            return None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                version, value = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            self.misses += 1
            return None
        if version != CACHE_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, kind: str, key: str, value: object) -> None:
        if not self.enabled:
            return
        path = self._path(kind, key)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump((CACHE_VERSION, value), fh)
            os.replace(tmp, path)
        except OSError:
            pass  # caching is best-effort
