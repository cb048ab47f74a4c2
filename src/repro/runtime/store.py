"""Columnar result store for dense parameter sweeps.

A million-point sweep cannot afford one JSON cache file (plus one
fsync) per point.  :class:`SweepStore` is the sink of ``repro sweep``
(``--store DIR``, by default ``<cache dir>/sweeps/<experiment>``):
results are buffered in memory and flushed in *chunks* — one columnar
file per execution window — with an append-only JSONL index recording
which points each chunk holds.

Format tiers
------------
Chunks are Apache Parquet when ``pyarrow`` is importable and
compressed ``.npz`` column bundles otherwise — the same graceful
degradation contract as the jit tier (:mod:`repro.sim.jit`):
:func:`available` answers whether the parquet tier can run,
:func:`unavailable_reason` says why not, and the ``_FORCE_AVAILABLE``
hook lets tests exercise both branches regardless of what this
machine has installed.  Both formats hold the identical logical table,
so every query works the same either way.

Schema
------
One row per executed sweep point.  Fixed columns:

``point_id``   the manifest identity hash (:func:`repro.runtime.manifest.point_id`)
``label``      the human point label (``"a=1, b=2"``)
``status``     ``done`` / ``failed`` / ``error``
``elapsed_s``  wall-clock of the point's execution
``error``      the exception string for errored points (else ``""``)
``payload``    the full ``ExperimentResult.to_dict()`` as canonical JSON

plus one column per swept parameter (declared at :meth:`SweepStore.create`
time; the schema is fixed for the lifetime of the store).  The payload
column preserves bit-identical round-trips — ``store.payload(pid)``
rebuilds exactly the result a standalone ``repro run`` at that point
returns — while the parameter/status columns make "give me the metric
over the grid" a columnar scan that never parses payloads.

Durability
----------
The same discipline as :mod:`repro.runtime.manifest`: a chunk file is
published atomically (temp file + ``os.replace``) *before* its index
line is appended (single ``O_APPEND`` write), so a crash leaves either
a fully indexed chunk or an invisible orphan file — never a torn
table.  A torn final index line is detected and dropped on open; the
points it described simply count as pending and re-run.  Duplicate
rows for a point (written by a crashed-then-resumed sweep) are
resolved last-chunk-wins on read.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import sys
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Set, Tuple)

import numpy as np

from repro.analysis.results import ExperimentResult
from repro.runtime.cache import code_version

#: Bump when the store layout or schema changes.
STORE_VERSION = 1

#: Name of the JSONL index file inside a store directory.
INDEX_NAME = "index.jsonl"

#: Columns every store carries, regardless of the swept parameters.
FIXED_COLUMNS = ("point_id", "label", "status", "elapsed_s", "error",
                 "payload")

#: Test hook: force :func:`available` to a fixed answer (``None`` =
#: answer honestly) so both format tiers are testable on any machine.
_FORCE_AVAILABLE: Optional[bool] = None

try:  # pyarrow is an optional accelerator, never a requirement
    import pyarrow as _pyarrow
    import pyarrow.parquet as _parquet
except ImportError:  # pragma: no cover - exercised on pyarrow-free CI
    _pyarrow = None
    _parquet = None


def available() -> bool:
    """Whether the parquet tier can actually run.

    Consults ``sys.modules`` (not just the import result) so a test
    hiding pyarrow via ``sys.modules`` monkeypatching flips the answer
    without reloading this module.
    """
    if _FORCE_AVAILABLE is not None:
        return bool(_FORCE_AVAILABLE)
    if _pyarrow is None:
        return False
    return sys.modules.get("pyarrow") is not None


def unavailable_reason() -> Optional[str]:
    """Why the parquet tier cannot run (``None`` when it can)."""
    return None if available() else "pyarrow not installed"


class StoreError(ValueError):
    """A store directory cannot be used (missing/invalid index,
    schema mismatch, or a format this environment cannot read)."""


def _dump_index_line(payload: Mapping[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class SweepStore:
    """One append-only chunked columnar store (see module docstring)."""

    def __init__(self, root: os.PathLike, header: Dict[str, object],
                 chunks: Optional[List[Dict[str, object]]] = None) -> None:
        self.root = pathlib.Path(root)
        self.header = header
        self.chunks: List[Dict[str, object]] = list(chunks or [])
        self._buffer: List[Dict[str, object]] = []

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, root: os.PathLike, experiment: str,
               params: Sequence[str],
               fmt: Optional[str] = None) -> "SweepStore":
        """Start a fresh store at ``root`` (a directory).

        Existing chunk/index files there are removed — starting a sweep
        without ``--resume`` deliberately abandons the old store, the
        same contract as :meth:`Manifest.create`.  ``fmt`` defaults to
        ``parquet`` when pyarrow is importable, ``npz`` otherwise.
        """
        fmt = fmt or ("parquet" if available() else "npz")
        if fmt not in ("parquet", "npz"):
            raise StoreError(f"unknown store format {fmt!r}")
        if fmt == "parquet" and not available():
            raise StoreError(
                f"cannot create a parquet store: {unavailable_reason()}")
        params = [str(name) for name in params]
        clash = sorted(set(params) & set(FIXED_COLUMNS))
        if clash:
            raise StoreError(
                f"swept parameter(s) {', '.join(clash)} collide with "
                "the store's fixed columns")
        root = pathlib.Path(root)
        root.mkdir(parents=True, exist_ok=True)
        for stale in list(root.glob("chunk-*.parquet")) \
                + list(root.glob("chunk-*.npz")) \
                + list(root.glob(f"{INDEX_NAME}*")):
            stale.unlink()
        header = {
            "kind": "header", "store_version": STORE_VERSION,
            "experiment": experiment, "format": fmt,
            "params": params,
        }
        index = root / INDEX_NAME
        tmp = index.with_name(f"{index.name}.{os.getpid()}.tmp")
        tmp.write_text(_dump_index_line(header) + "\n")
        os.replace(tmp, index)
        return cls(root, header)

    @classmethod
    def open(cls, root: os.PathLike) -> "SweepStore":
        """Open an existing store for appending and querying.

        Drops a torn final index line (the one kind of damage a crash
        can cause given the append discipline); any other malformed
        content raises :class:`StoreError`.  Opening a parquet store
        on a pyarrow-free machine raises with the structured reason.
        """
        root = pathlib.Path(root)
        index = root / INDEX_NAME
        try:
            data = index.read_bytes()
        except OSError as exc:
            raise StoreError(
                f"cannot read store index {index}: {exc}") from exc
        lines = data.split(b"\n")
        if lines:
            lines.pop()  # empty tail after a clean trailing newline
        rows: List[Dict[str, object]] = []
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                if position == len(lines) - 1:
                    continue  # torn tail with a trailing newline
                raise StoreError(
                    f"store index {index} line {position + 1} is not "
                    "JSON (not a sweep store, or damaged beyond a "
                    "torn tail)")
        if not rows or rows[0].get("kind") != "header":
            raise StoreError(f"store index {index} has no header line")
        header = rows[0]
        if header.get("store_version") != STORE_VERSION:
            raise StoreError(
                f"store {root} has version "
                f"{header.get('store_version')!r}; this build reads "
                f"version {STORE_VERSION}")
        if header.get("format") == "parquet" and not available():
            raise StoreError(
                f"store {root} holds parquet chunks but "
                f"{unavailable_reason()}")
        chunks = []
        for row in rows[1:]:
            if row.get("kind") != "chunk":
                raise StoreError(
                    f"store index {index} has an unknown record kind "
                    f"{row.get('kind')!r}")
            # An indexed chunk whose file is missing (crash between
            # nothing — publish precedes indexing — or manual damage)
            # is dropped: its points count as pending and re-run.
            if (root / str(row["file"])).exists():
                chunks.append(row)
        return cls(root, header, chunks)

    # -- properties ----------------------------------------------------

    @property
    def format(self) -> str:
        """``parquet`` or ``npz``."""
        return str(self.header["format"])

    @property
    def experiment(self) -> str:
        """The experiment this store's rows belong to."""
        return str(self.header["experiment"])

    @property
    def params(self) -> List[str]:
        """The swept parameter columns (fixed at create time)."""
        return [str(name) for name in self.header["params"]]

    @property
    def columns(self) -> List[str]:
        """All queryable columns: fixed ones plus the parameters."""
        return list(FIXED_COLUMNS) + self.params

    # -- writing -------------------------------------------------------

    def append(self, rows: Iterable[Mapping[str, object]]) -> None:
        """Buffer rows for the next :meth:`flush`.

        Each row must carry every schema column (``error`` defaults to
        ``""``); unknown keys are rejected so a schema drift fails at
        the write, not as a silent column loss on read.
        """
        for row in rows:
            staged: Dict[str, object] = {"error": ""}
            staged.update(row)
            missing = [c for c in self.columns if c not in staged]
            unknown = [c for c in staged if c not in self.columns]
            if missing or unknown:
                raise StoreError(
                    f"row does not match the store schema "
                    f"(missing: {missing}, unknown: {unknown})")
            self._buffer.append(staged)

    def flush(self) -> Optional[pathlib.Path]:
        """Publish buffered rows as one chunk (atomic), index it.

        Returns the chunk path, or ``None`` when the buffer was empty.
        The chunk file is fully published *before* its index line is
        appended, so a crash between the two leaves an orphan file the
        index never mentions — invisible, and re-run on resume.
        """
        if not self._buffer:
            return None
        serial = len(self.chunks)
        while True:
            name = f"chunk-{serial:05d}.{self.format}"
            if not (self.root / name).exists():
                break
            serial += 1
        path = self.root / name
        columns = {column: [row[column] for row in self._buffer]
                   for column in self.columns}
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        if self.format == "parquet":
            self._write_parquet(tmp, columns)
        else:
            self._write_npz(tmp, columns)
        os.replace(tmp, path)
        entry = {
            "kind": "chunk", "file": name,
            "count": len(self._buffer),
            "code_version": code_version(),
            "point_ids": [str(row["point_id"]) for row in self._buffer],
            "statuses": [str(row["status"]) for row in self._buffer],
        }
        line = (_dump_index_line(entry) + "\n").encode()
        fd = os.open(self.root / INDEX_NAME,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self.chunks.append(entry)
        self._buffer = []
        return path

    def close(self) -> None:
        """Flush any buffered rows (stores need no other teardown)."""
        self.flush()

    def _write_parquet(self, path: pathlib.Path,
                       columns: Dict[str, List[object]]) -> None:
        table = _pyarrow.table(
            {name: _column_array(name, values, self.params)
             for name, values in columns.items()})
        _parquet.write_table(table, path)

    def _write_npz(self, path: pathlib.Path,
                   columns: Dict[str, List[object]]) -> None:
        arrays = {name: _column_array(name, values, self.params)
                  for name, values in columns.items()}
        # np.savez_compressed appends ``.npz`` to names that lack it;
        # write through a buffer so the temp path stays exactly ours.
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        path.write_bytes(buffer.getvalue())

    # -- reading -------------------------------------------------------

    def completed(self, version: Optional[str] = None) -> Set[str]:
        """Point ids safe to skip on resume.

        A point counts as completed only when its latest row is
        ``done`` *and* was written under the given code version
        (default: the current one) — a resume after a code edit
        re-runs every point instead of serving stale results, the same
        triple-check discipline the JSON-cache resume path uses.  The
        answer comes entirely from the index; no chunk is read.
        """
        version = version if version is not None else code_version()
        latest: Dict[str, Tuple[str, str]] = {}
        for chunk in self.chunks:
            chunk_version = str(chunk.get("code_version", ""))
            for pid, status in zip(chunk["point_ids"],
                                   chunk["statuses"]):
                latest[str(pid)] = (str(status), chunk_version)
        return {pid for pid, (status, chunk_version) in latest.items()
                if status == "done" and chunk_version == version}

    def point_ids(self) -> Set[str]:
        """Every point id with at least one row (any status)."""
        return {str(pid) for chunk in self.chunks
                for pid in chunk["point_ids"]}

    def frame(self, columns: Optional[Sequence[str]] = None,
              where: Optional[Mapping[str, object]] = None
              ) -> Dict[str, np.ndarray]:
        """Columnar view of the store: ``column -> ndarray``.

        ``columns`` projects (default: every column); ``where`` is an
        equality filter over any columns (``{"cross_rate_bps": 4e6}``).
        Duplicate rows for a point id — a crashed-then-resumed sweep
        re-executing its torn tail — resolve last-chunk-wins, so the
        frame always has one row per point.  The result converts
        directly: ``pandas.DataFrame(store.frame())``.
        """
        wanted = list(columns) if columns is not None else self.columns
        unknown = [c for c in wanted if c not in self.columns]
        if unknown:
            raise StoreError(f"unknown column(s) {unknown}; "
                             f"store has {self.columns}")
        where = dict(where or {})
        bad = [c for c in where if c not in self.columns]
        if bad:
            raise StoreError(f"unknown filter column(s) {bad}; "
                             f"store has {self.columns}")
        read = sorted(set(wanted) | set(where) | {"point_id"})
        pools: Dict[str, List[object]] = {name: [] for name in read}
        for chunk in self.chunks:
            arrays = self._read_chunk(str(chunk["file"]), read)
            for name in read:
                pools[name].extend(arrays[name].tolist())
        keep: Dict[str, int] = {}
        for position, pid in enumerate(pools["point_id"]):
            keep[str(pid)] = position  # later rows win
        order = sorted(keep.values())
        order = [position for position in order
                 if all(pools[c][position] == value
                        for c, value in where.items())]
        return {name: np.asarray([pools[name][position]
                                  for position in order])
                for name in wanted}

    def rows(self, columns: Optional[Sequence[str]] = None,
             where: Optional[Mapping[str, object]] = None
             ) -> List[Dict[str, object]]:
        """:meth:`frame` as a list of per-point dicts."""
        frame = self.frame(columns, where)
        names = list(frame)
        length = len(frame[names[0]]) if names else 0
        return [{name: frame[name][i].item()
                 if hasattr(frame[name][i], "item") else frame[name][i]
                 for name in names} for i in range(length)]

    def payload(self, pid: str) -> Optional[ExperimentResult]:
        """Rebuild the full result stored for one point id.

        ``None`` when the store has no row for the point.  The round
        trip is bit-identical: the payload column holds the exact
        ``to_dict()`` JSON of the result the point's execution
        produced.
        """
        frame = self.frame(columns=["point_id", "payload"])
        for row_pid, blob in zip(frame["point_id"], frame["payload"]):
            if str(row_pid) == pid and str(blob):
                return ExperimentResult.from_dict(json.loads(str(blob)))
        return None

    def _read_chunk(self, name: str,
                    columns: Sequence[str]) -> Dict[str, np.ndarray]:
        path = self.root / name
        if self.format == "parquet":
            table = _parquet.read_table(path, columns=list(columns))
            return {column: np.asarray(table.column(column).to_pylist())
                    for column in columns}
        with np.load(path, allow_pickle=False) as bundle:
            return {column: bundle[column] for column in columns}

    # -- accounting ----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Entry counts and disk usage (``repro cache stats``)."""
        size = 0
        for child in self.root.iterdir():
            if child.is_file():
                size += child.stat().st_size
        total_rows = sum(int(chunk["count"]) for chunk in self.chunks)
        return {
            "path": str(self.root), "format": self.format,
            "experiment": self.experiment,
            "chunks": len(self.chunks), "rows": total_rows,
            "points": len(self.point_ids()),
            "size_bytes": size,
        }


def _column_array(name: str, values: List[object],
                  params: Sequence[str]) -> np.ndarray:
    """One schema column as a homogeneous numpy array.

    Fixed string columns are always unicode; ``elapsed_s`` is float;
    parameter columns stay numeric when every value is a plain number
    and degrade to strings on any mix (a swept ``backend=...`` next to
    numeric rates) — both chunk formats require homogeneous columns,
    and string-ification is lossless for filtering/labelling purposes.
    """
    if name == "elapsed_s":
        return np.asarray([float(v) for v in values], dtype=float)
    if name in params:
        if all(isinstance(v, bool) or isinstance(v, (int, float))
               for v in values):
            return np.asarray(values)
        return np.asarray([str(v) for v in values])
    return np.asarray(["" if v is None else str(v) for v in values])
