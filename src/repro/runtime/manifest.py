"""Append-only JSONL progress journals for ``sweep``.

A long sweep that dies at point 180 of 200 must not lose the first
179.  The manifest is the crash-safe record that makes ``--resume``
possible: one JSON *header* line describing the invocation, then one
JSON *point* line per completed grid point (its identity hash, final
status and label).  ``run`` keeps no journal: it resumes through the
result cache.

Durability contract
-------------------
* The header is published atomically (written to a temp file, then
  ``os.replace``) — a manifest either exists with a valid header or
  not at all.
* Point records are ``O_APPEND`` writes of whole lines: each batch of
  records is one ``os.write`` of ``\\n``-terminated lines, so
  concurrent appenders interleave at line granularity and a crash can
  tear at most the final line.
* :meth:`Manifest.load` detects a torn final line (no trailing
  newline, or un-parsable JSON in the last line) and *drops* it — the
  point simply counts as pending and is re-run.  A malformed line
  anywhere else means the file is not a manifest; that raises
  :class:`ManifestError` rather than silently resuming from garbage.

Resume safety
-------------
A ``done`` record alone never skips work.  ``sweep`` skips only
points that also have a ``done`` row in its store under the current
code version (:func:`repro.runtime.sweep.run_plan`), so a resume after
a code edit re-runs the point instead of serving a stale result.
Skipping is therefore bit-identical to an uninterrupted run by
construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.runtime.cache import canonical_kwargs

#: Bump when the journal schema changes.
MANIFEST_VERSION = 1

#: Statuses a point record may carry.
STATUSES = ("done", "failed", "error")


class ManifestError(ValueError):
    """A manifest file cannot be used (missing/invalid header, wrong
    experiment, malformed interior line)."""


def point_id(experiment: str, kwargs: Mapping[str, object]) -> str:
    """Stable identity hash of one grid point.

    Content-addressed over ``(experiment, canonical kwargs)`` — the
    same canonicalisation the result cache uses, so a point's identity
    never depends on kwarg order, numpy scalar types, or the code
    version (resume across code edits re-*runs* points but still
    recognises them).
    """
    blob = json.dumps(
        {"experiment": experiment, "kwargs": canonical_kwargs(kwargs)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class PointRecord:
    """One journal line: the outcome of one grid point."""

    point_id: str
    status: str
    label: str = ""
    cache_key: Optional[str] = None
    error: Optional[str] = None

    def to_json(self) -> str:
        """The single journal line for this record (no newline)."""
        payload = {"kind": "point", "point_id": self.point_id,
                   "status": self.status, "label": self.label}
        if self.cache_key is not None:
            payload["cache_key"] = self.cache_key
        if self.error is not None:
            payload["error"] = self.error
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))


class Manifest:
    """One progress journal: a header plus point records, last wins."""

    def __init__(self, path: os.PathLike, header: Dict[str, object],
                 records: Optional[Dict[str, PointRecord]] = None) -> None:
        self.path = pathlib.Path(path)
        self.header = header
        self.records: Dict[str, PointRecord] = dict(records or {})

    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike, command: str, experiment: str,
               invocation: Optional[Mapping[str, object]] = None) -> "Manifest":
        """Start a fresh journal at ``path`` (atomic header publish).

        An existing file at ``path`` is replaced — starting a run
        without ``--resume`` deliberately abandons the old journal.
        """
        header = {
            "kind": "header",
            "manifest_version": MANIFEST_VERSION,
            "command": command,
            "experiment": experiment,
            "invocation": canonical_kwargs(invocation or {}),
        }
        target = pathlib.Path(path)
        if target.parent != pathlib.Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(header, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        os.replace(tmp, target)
        return cls(target, header)

    @classmethod
    def load(cls, path: os.PathLike) -> "Manifest":
        """Parse a journal for resumption.

        Drops a torn final line (the one kind of damage a crash can
        cause, given the append discipline); any other malformed
        content raises :class:`ManifestError`.
        """
        target = pathlib.Path(path)
        try:
            data = target.read_bytes()
        except OSError as exc:
            raise ManifestError(
                f"cannot read manifest {target}: {exc}") from exc
        lines = data.split(b"\n")
        # A well-formed file ends with a newline, so the split leaves
        # an empty tail fragment; anything else there is a torn final
        # line — drop it either way.
        if lines:
            lines.pop()
        rows = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                if index == len(lines) - 1:
                    # Torn final line *with* a trailing newline from a
                    # partially flushed append — drop it too.
                    continue
                raise ManifestError(
                    f"manifest {target} line {index + 1} is not JSON "
                    "(not a manifest, or damaged beyond a torn tail)")
        if not rows or rows[0].get("kind") != "header":
            raise ManifestError(
                f"manifest {target} has no header line")
        header = rows[0]
        if header.get("manifest_version") != MANIFEST_VERSION:
            raise ManifestError(
                f"manifest {target} has version "
                f"{header.get('manifest_version')!r}; this build reads "
                f"version {MANIFEST_VERSION}")
        records: Dict[str, PointRecord] = {}
        for row in rows[1:]:
            if row.get("kind") != "point":
                raise ManifestError(
                    f"manifest {target} has an unknown record kind "
                    f"{row.get('kind')!r}")
            status = row.get("status")
            if status not in STATUSES:
                raise ManifestError(
                    f"manifest {target} has an unknown point status "
                    f"{status!r}")
            record = PointRecord(
                point_id=str(row["point_id"]), status=str(status),
                label=str(row.get("label", "")),
                cache_key=row.get("cache_key"),
                error=row.get("error"))
            records[record.point_id] = record
        return cls(target, header, records)

    # ------------------------------------------------------------------

    def require(self, command: str, experiment: str) -> None:
        """Check this journal belongs to the resuming invocation."""
        if self.header.get("command") != command \
                or self.header.get("experiment") != experiment:
            raise ManifestError(
                f"manifest {self.path} records "
                f"'{self.header.get('command')} "
                f"{self.header.get('experiment')}', not "
                f"'{command} {experiment}' — refusing to resume")

    def record_many(self, records: List[PointRecord]) -> None:
        """Append point records in one ``O_APPEND`` write.

        The sweep engine journals one execution *window* at a time;
        writing a batch's lines as a single ``os.write`` keeps the
        per-point journaling cost out of the hot loop and preserves
        the line-granular durability contract — a crash can tear at
        most the final line of the final batch.
        """
        records = list(records)
        for record in records:
            if record.status not in STATUSES:
                raise ValueError(
                    f"unknown point status {record.status!r}")
        if not records:
            return
        blob = "".join(record.to_json() + "\n"
                       for record in records).encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, blob)
        finally:
            os.close(fd)
        for record in records:
            self.records[record.point_id] = record

    def get(self, pid: str) -> Optional[PointRecord]:
        """The latest record for a point id, or ``None`` if pending."""
        return self.records.get(pid)

    def counts(self) -> Dict[str, int]:
        """Record tally by status (progress reporting)."""
        out = {status: 0 for status in STATUSES}
        for record in self.records.values():
            out[record.status] += 1
        return out
