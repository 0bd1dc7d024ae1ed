"""Content-hash result cache for the lint engine.

Per-file rule results depend only on the file's bytes, its path, the
set of enabled rules and, for a package ``__init__``, the names of its
direct submodules (RPR006 checks lazy-export targets against them) — so
a cache keyed by the SHA-256 of exactly those inputs can skip parsing
and rule dispatch entirely for unchanged files.
The engine consults the cache before fanning files out to the process
pool (:meth:`repro.quality.engine.LintEngine.run`), which keeps
``repro lint src/repro`` fast as the rule set grows: on a warm cache
only edited files are re-analyzed.

Only *per-file* results are cached.  Project-scoped rules (RPR009–RPR012)
see the whole program at once — any file's change can create or remove a
cross-module finding in another file — so their findings are recomputed
on every run.

The on-disk format is one JSON object ``{"version": 1, "entries":
{key: {"findings": [...], "suppressed": n}}}``; unknown versions and
corrupt files are discarded wholesale (a cache is always safe to lose).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from .findings import Finding, Severity

__all__ = ["LintCache"]

_FORMAT_VERSION = 1


def _finding_to_dict(finding: Finding) -> dict[str, object]:
    return finding.to_dict()


def _finding_from_dict(data: dict[str, object]) -> Finding:
    return Finding(
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[call-overload]
        col=int(data["col"]),  # type: ignore[call-overload]
        rule_id=str(data["rule"]),
        message=str(data["message"]),
        severity=Severity(str(data["severity"])),
        hint=str(data.get("hint", "")),
    )


class LintCache:
    """Keyed store of per-file lint results, persisted as JSON.

    ``get``/``put`` operate on keys produced by :meth:`key`; ``save``
    writes the store back only when something changed.  A missing,
    corrupt, or version-mismatched cache file degrades to an empty
    cache — never to an error.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._entries: dict[str, dict[str, object]] = {}
        if self.path.exists():
            try:
                data = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                return
            if (
                isinstance(data, dict)
                and data.get("version") == _FORMAT_VERSION
                and isinstance(data.get("entries"), dict)
            ):
                self._entries = data["entries"]

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(
        path: str,
        source: str,
        rule_ids: tuple[str, ...],
        submodules: Iterable[str] = (),
    ) -> str:
        """Cache key: SHA-256 over path, enabled rules, content, and the
        package's submodule names (pass them for ``__init__`` files)."""
        digest = hashlib.sha256()
        digest.update(path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(",".join(rule_ids).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(",".join(sorted(submodules)).encode("utf-8"))
        return digest.hexdigest()

    def get(self, key: str) -> tuple[list[Finding], int] | None:
        """Cached ``(findings, suppressed_count)`` for ``key``, if any."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        try:
            raw = entry["findings"]
            if not isinstance(raw, list):
                raise TypeError("findings must be a list")
            findings = [_finding_from_dict(item) for item in raw]
            suppressed = int(entry["suppressed"])  # type: ignore[call-overload]
        except (KeyError, TypeError, ValueError):
            # A malformed entry is dropped, not trusted.
            del self._entries[key]
            self._dirty = True
            self.misses += 1
            return None
        self.hits += 1
        return findings, suppressed

    def put(
        self, key: str, findings: list[Finding], suppressed: int
    ) -> None:
        """Record results for ``key`` (persisted on :meth:`save`)."""
        self._entries[key] = {
            "findings": [_finding_to_dict(f) for f in findings],
            "suppressed": suppressed,
        }
        self._dirty = True

    def save(self) -> None:
        """Write the store back if anything changed since loading."""
        if not self._dirty:
            return
        payload = {"version": _FORMAT_VERSION, "entries": self._entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # function-scope import: quality (layer 2) may not depend on
        # io_utils (layer 3) at module scope (RPR011); the cache is
        # disposable, so skip the fsyncs (atomicity only)
        from ..io_utils.atomic import atomic_write_text

        atomic_write_text(
            self.path, json.dumps(payload, sort_keys=True), durable=False
        )
        self._dirty = False
