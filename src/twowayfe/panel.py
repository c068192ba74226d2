"""Linked employer-employee panel: data model, delimited-file ingestion, validation.

A panel is an immutable collection of worker-period observations. External
worker and firm identifiers are arbitrary strings; internally both are mapped
to dense zero-based indices (assigned in sorted external-id order, so the
mapping does not depend on row order). Observations are stored sorted by
(worker, period) and the pair (worker, period) is unique: one employer per
worker and period.

The layer works on integer codes and column arrays, not per-row records:

- `load_panel` reads the file in one pass, `CHUNK_ROWS` physical lines at a
  time, and drops blank lines as csv.reader does. Each chunk is parsed by one
  `np.loadtxt` call in numpy's C text parser; each run of equal ids is
  stripped and coded once. loadtxt parses floats with `PyOS_string_to_double`,
  the parser of `float()`, and rejects the inputs on which they differ
  (underscores, non-ASCII digits, a missing field, a whitespace-only line).
  The period is kept when every value is finite and inside int64. A chunk
  that fails either check, or holds one of the ASCII separators \\x1c-\\x1f
  (which loadtxt strips around a number and `float()` rejects), is re-parsed
  by csv.reader and a row loop, to drop just its failing rows. From the first
  chunk that holds a quote on, csv.reader splits the rest of the file into
  records, so a quoted field may span lines. A chunk of records takes the
  same C parse, its used fields joined again by the delimiter, when no such
  field holds the delimiter or a line break; otherwise the row loop. Memory
  holds one chunk of text plus the numeric columns. Drop checks and
  duplicate detection are vectorized; sorted rows skip the sort.
- `restrict_panel` re-indexes the kept rows in O(n + W + F): a subset of
  sorted, unique rows with ids renumbered monotonically stays sorted and
  unique, so ids and rows are never re-sorted or re-checked.
- `write_panel` writes `CHUNK_ROWS` rows at a time, each chunk one grid of
  Python objects (ids gathered from the id tuples, each distinct period
  formatted once, floats) formatted by one `%` operation in C, floats as %r.
  csv.writer writes the grid's rows instead when it would quote a field: an
  id holds the delimiter, a quote or a line break, or the delimiter can occur
  in a number.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import itemgetter

import numpy as np

from .errors import ConfigError, DataError

MANDATORY_COLUMNS = ("worker", "firm", "period", "log_wage")
# Physical lines per chunk read by `load_panel` (records, once csv.reader reads
# the rest of a quoted file) and rows per chunk written by `write_panel`:
# memory holds one chunk of text rows, not the whole file.
CHUNK_ROWS = 16384


@dataclass(frozen=True)
class Observation:
    """One worker-period row: who, where, when, log wage, covariates."""

    worker: str
    firm: str
    period: int
    log_wage: float
    covariates: tuple[float, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    """Ingestion accounting: every row read is either kept or dropped with a reason."""

    rows_read: int
    rows_kept: int
    rows_dropped: int
    duplicate_worker_periods: int
    non_finite_values: int
    unparsable_rows: int
    column_summaries: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        assert self.rows_read == self.rows_kept + self.rows_dropped

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_dropped": self.rows_dropped,
            "duplicate_worker_periods": self.duplicate_worker_periods,
            "non_finite_values": self.non_finite_values,
            "unparsable_rows": self.unparsable_rows,
            "columns": self.column_summaries,
            "warnings": list(self.warnings),
        }


class Panel:
    """Immutable, validated panel with dense internal worker/firm indices.

    Attributes
    ----------
    worker_idx, firm_idx : int64 arrays, one entry per observation
    period : int64 array
    log_wage : float64 array
    covariates : float64 array of shape (n_obs, covariate_count)
    worker_ids, firm_ids : tuples mapping dense index -> external id
    covariate_names : tuple of column names for the covariates
    """

    __slots__ = (
        "worker_idx",
        "firm_idx",
        "period",
        "log_wage",
        "covariates",
        "worker_ids",
        "firm_ids",
        "covariate_names",
        "_worker_index",
        "_firm_index",
    )

    def __init__(self, worker, firm, period, log_wage, covariates=None, covariate_names=()):
        worker = np.asarray(worker, dtype=object)
        firm = np.asarray(firm, dtype=object)
        period = np.asarray(period, dtype=np.int64)
        log_wage = np.asarray(log_wage, dtype=np.float64)
        n = worker.shape[0]
        if n == 0:
            raise DataError("panel has no observations")
        if covariates is None:
            covariates = np.empty((n, 0), dtype=np.float64)
        covariates = np.asarray(covariates, dtype=np.float64).reshape(n, -1)
        if len(covariate_names) != covariates.shape[1]:
            covariate_names = tuple(f"x{k}" for k in range(covariates.shape[1]))
        if not np.all(np.isfinite(log_wage)):
            raise DataError("panel contains a non-finite log wage")
        if covariates.size and not np.all(np.isfinite(covariates)):
            raise DataError("panel contains a non-finite covariate value")

        worker_ids, widx = _factorize(worker)
        firm_ids, fidx = _factorize(firm)

        order = np.lexsort((period, widx))
        widx, period = widx[order], period[order]
        if np.any((widx[1:] == widx[:-1]) & (period[1:] == period[:-1])):
            raise DataError("duplicate (worker, period) observation")
        self._set(
            worker_ids, firm_ids, widx, fidx[order], period,
            log_wage[order], covariates[order], covariate_names,
        )

    @classmethod
    def _from_sorted(cls, *columns):
        """Build from validated columns: rows sorted by a unique (worker, period)
        and indices dense into sorted id tuples. Nothing is checked or re-sorted."""
        panel = cls.__new__(cls)
        panel._set(*columns)
        return panel

    def _set(self, worker_ids, firm_ids, worker_idx, firm_idx, period, log_wage,
             covariates, covariate_names):
        self.worker_idx = worker_idx
        self.firm_idx = firm_idx
        self.period = period
        self.log_wage = log_wage
        self.covariates = covariates
        self.worker_ids = worker_ids
        self.firm_ids = firm_ids
        self.covariate_names = tuple(covariate_names)
        self._worker_index = self._firm_index = None  # built on first lookup
        for arr in (worker_idx, firm_idx, period, log_wage, covariates):
            arr.setflags(write=False)

    # -- size accessors -------------------------------------------------
    @property
    def n_obs(self) -> int:
        return self.worker_idx.shape[0]

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @property
    def n_firms(self) -> int:
        return len(self.firm_ids)

    @property
    def n_periods(self) -> int:
        return int(np.unique(self.period).size)

    @property
    def covariate_count(self) -> int:
        return self.covariates.shape[1]

    # -- id mapping ------------------------------------------------------
    def worker_index(self, worker_id: str) -> int:
        if self._worker_index is None:
            self._worker_index = dict(zip(self.worker_ids, range(self.n_workers)))
        try:
            return self._worker_index[worker_id]
        except KeyError:
            raise DataError(f"unknown worker id {worker_id!r}") from None

    def firm_index(self, firm_id: str) -> int:
        if self._firm_index is None:
            self._firm_index = dict(zip(self.firm_ids, range(self.n_firms)))
        try:
            return self._firm_index[firm_id]
        except KeyError:
            raise DataError(f"unknown firm id {firm_id!r}") from None

    def observations(self):
        """Iterate observations in (worker, period) order."""
        for k in range(self.n_obs):
            yield Observation(
                worker=self.worker_ids[self.worker_idx[k]],
                firm=self.firm_ids[self.firm_idx[k]],
                period=int(self.period[k]),
                log_wage=float(self.log_wage[k]),
                covariates=tuple(self.covariates[k]),
            )

    def __eq__(self, other):
        if not isinstance(other, Panel):
            return NotImplemented
        return (
            self.worker_ids == other.worker_ids
            and self.firm_ids == other.firm_ids
            and self.covariate_names == other.covariate_names
            and np.array_equal(self.worker_idx, other.worker_idx)
            and np.array_equal(self.firm_idx, other.firm_idx)
            and np.array_equal(self.period, other.period)
            and np.array_equal(self.log_wage, other.log_wage)
            and np.array_equal(self.covariates, other.covariates)
        )

    def __repr__(self):
        return (
            f"Panel(n_obs={self.n_obs}, n_workers={self.n_workers}, "
            f"n_firms={self.n_firms}, n_periods={self.n_periods}, "
            f"covariates={self.covariate_count})"
        )


def _code(values: np.ndarray, index: dict, strip: bool = False) -> np.ndarray:
    """Integer codes of the ids in the object array `values`, stripped if
    `strip`; unseen ids join the running dict `index`. Runs share a lookup."""
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    runs = starts.size < values.size  # else every row heads a run: no gather, no repeat
    heads = (values[starts] if runs else values).tolist()
    heads = list(map(str.strip, heads)) if strip else heads
    fresh = [v for v in dict.fromkeys(heads) if v not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    codes = np.fromiter(map(index.__getitem__, heads), dtype=np.int64, count=len(heads))
    return np.repeat(codes, np.diff(starts, append=values.size)) if runs else codes


def _rank(index: dict, codes: np.ndarray):
    """Sorted ids that `codes` use, and each code's position among them."""
    keys = list(index)
    used = np.zeros(len(keys), dtype=bool)
    used[codes] = True
    ids = sorted(compress(keys, used))
    rank = np.empty(len(keys), dtype=np.int64)
    rank[[index[k] for k in ids]] = np.arange(len(ids))
    return tuple(map(str, ids)), rank[codes]


def _factorize(values):
    """Sorted distinct ids and the dense index of each value (Python `<` order)."""
    index: dict = {}
    return _rank(index, _code(values, index))


def _redensify(ids: tuple, idx: np.ndarray):
    """Drop the ids no row uses and renumber the rest, keeping their order."""
    used = np.zeros(len(ids), dtype=bool)
    used[idx] = True
    return tuple(compress(ids, used)), np.cumsum(used, dtype=np.int64)[idx] - 1


# Reasons a row is dropped, in the order the checks apply; 0 keeps the row.
_UNPARSABLE, _EMPTY_ID, _NON_FINITE, _DUPLICATE = 1, 2, 3, 4
_DROP_MESSAGES = {
    _UNPARSABLE: "unparsable row dropped",
    _EMPTY_ID: "empty worker or firm id",
    _NON_FINITE: "non-finite value dropped",
    _DUPLICATE: "duplicate (worker, period) dropped",
}
# A short row raises IndexError; int() of inf and int64 of a period out of
# range raise OverflowError.
_PARSE_ERRORS = (ValueError, OverflowError, IndexError)
# numpy strips these ASCII separators around a number as whitespace; float()
# does not, so a chunk that holds one is parsed row by row.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_INT64_BOUND = 2.0**63


def _check_delimiter(delimiter) -> None:
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n':
        raise ConfigError(
            f"delimiter must be one character other than '\"', CR or LF, got {delimiter!r}"
        )


def _convert_lines(lines, text, delimiter, positions):
    """Parse one chunk of unquoted, non-blank lines (joined: `text`) in numpy's
    C text parser; None when the text holds a separator, a line is rejected,
    or a period is not finite or outside int64."""
    if any(c in text for c in _SEPARATORS):
        return None
    dtype = [("worker", "O"), ("firm", "O"), ("period", "f8"), ("values", "f8", len(positions) - 3)]
    try:
        table = np.loadtxt(
            lines, dtype=dtype, delimiter=delimiter, comments=None, usecols=positions, ndmin=1
        )
    except ValueError:
        return None
    period = table["period"]
    if not np.all((period >= -_INT64_BOUND) & (period < _INT64_BOUND)):  # NaN fails both
        return None
    return (
        table["worker"],
        table["firm"],
        period.astype(np.int64),
        np.ascontiguousarray(table["values"]),
        np.zeros(len(lines), dtype=bool),
    )


def _convert_rows(records, positions):
    """Parse one chunk of csv records row by row, flagging the rows that fail."""
    getters = [itemgetter(k) for k in positions]
    placeholder = ("", "", 0, *[0.0] * (len(getters) - 3))
    parsed, bad = [], []
    for rec in records:
        try:
            worker, firm, period, *floats = [g(rec) for g in getters]
            period = np.int64(int(float(period)))
            parsed.append((worker, firm, period, *map(float, floats)))
            bad.append(False)
        except _PARSE_ERRORS:
            parsed.append(placeholder)
            bad.append(True)
    worker, firm, period, *floats = zip(*parsed)
    return (
        np.array(worker, dtype=object),
        np.array(firm, dtype=object),
        np.array(period, dtype=np.int64),
        np.column_stack([np.array(c, dtype=np.float64) for c in floats]),
        np.array(bad),
    )


def _convert_records(records, delimiter, positions):
    """Parse one chunk of csv records. Their used fields, joined by the
    delimiter, take the C parse when no field holds the delimiter or a line
    break, so that each joined line splits back into the same fields."""
    try:
        lines = list(map(delimiter.join, map(itemgetter(*positions), records)))
    except IndexError:  # a short record
        return _convert_rows(records, positions)
    text = "".join(lines)
    splits_back = text.count(delimiter) == len(lines) * (len(positions) - 1)
    if splits_back and "\r" not in text and "\n" not in text:
        parsed = _convert_lines(lines, text, delimiter, list(range(len(positions))))
        if parsed is not None:
            return parsed
    return _convert_rows(records, positions)


def _read_records(reader, offset, delimiter, positions):
    """Yield (line of each record, parsed columns) per chunk of at most
    CHUNK_ROWS csv records; a record's line is the last physical line it
    spans, `offset` lines on."""
    while True:
        records, lines = [], []
        for rec in reader:
            if rec:  # csv.DictReader skips blank lines too
                records.append(rec)
                lines.append(reader.line_num + offset)
                if len(records) == CHUNK_ROWS:
                    break
        if not records:
            return
        yield np.array(lines, dtype=np.int64), _convert_records(records, delimiter, positions)


def _read_chunks(fh, line, delimiter, positions):
    """Yield (line of each record, parsed columns) per chunk of CHUNK_ROWS
    physical lines after line `line`. From the first chunk that holds a quote
    on, csv.reader splits the rest of the file, so a quoted field may span
    lines."""
    while raw := list(islice(fh, CHUNK_ROWS)):
        text = "".join(raw)
        if '"' in text:
            reader = csv.reader(chain(raw, fh), delimiter=delimiter)
            yield from _read_records(reader, line, delimiter, positions)
            return
        # A line is blank when a line break opens it: at the start of the chunk
        # or right after another line break ("\r\n" is one break).
        if text[0] in "\r\n" or "\n\n" in text or "\n\r" in text or "\r\r" in text:
            kept = [r not in ("\n", "\r", "\r\n") for r in raw]
            numbers = np.flatnonzero(kept) + line + 1
            lines = list(compress(raw, kept))
        else:
            numbers, lines = np.arange(line + 1, line + 1 + len(raw)), raw
        line += len(raw)
        if lines:
            parsed = _convert_lines(lines, text, delimiter, positions)
            if parsed is None:
                parsed = _convert_rows(list(csv.reader(lines, delimiter=delimiter)), positions)
            yield numbers, parsed


def load_panel(path, schema=None, delimiter=",") -> tuple[Panel, ValidationReport]:
    """Read a delimited text file with a header row into a validated Panel.

    Parameters
    ----------
    path : file path
    schema : mapping with keys "worker", "firm", "period", "log_wage" naming the
        columns, plus optional "covariates": list of covariate column names.
        Defaults to the identity mapping with no covariates.
    delimiter : field separator, default comma.

    Returns the Panel plus a ValidationReport enumerating dropped rows. Rows
    are dropped (never repaired) when a value fails to parse (a period must
    fit int64), an id is empty, a wage or covariate is non-finite, or the
    (worker, period) pair repeats; for duplicates the first occurrence wins.
    Warnings name the physical line of the row and come in line order.
    """
    _check_delimiter(delimiter)
    schema = dict(schema or {})
    colmap = {k: schema.get(k, k) for k in MANDATORY_COLUMNS}
    cov_cols = list(schema.get("covariates", []))

    if not os.path.exists(path):
        raise ConfigError(f"panel file not found: {path}")

    worker_index: dict = {}
    firm_index: dict = {}
    chunks = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        # name -> position; the last of duplicate names wins, as in csv.DictReader
        position = {name: k for k, name in enumerate(next(reader, []))}
        for key, col in colmap.items():
            if col not in position:
                raise ConfigError(f"missing mandatory column {col!r} (maps to {key!r})")
        for col in cov_cols:
            if col not in position:
                raise ConfigError(f"missing covariate column {col!r}")
        positions = [position[c] for c in (*colmap.values(), *cov_cols)]
        for numbers, (worker, firm, period, values, bad) in _read_chunks(
            fh, reader.line_num, delimiter, positions
        ):
            wcode, fcode = _code(worker, worker_index, True), _code(firm, firm_index, True)
            chunks.append((numbers, bad, wcode, fcode, period, values))

    if not chunks:
        raise DataError(f"no valid rows in {path}")
    line, bad, wcode, fcode, period, values = (np.concatenate(c) for c in zip(*chunks))
    del chunks

    status = np.zeros(line.size, dtype=np.int8)
    status[~np.isfinite(values).all(axis=1)] = _NON_FINITE
    status[(wcode == worker_index.get("", -1)) | (fcode == firm_index.get("", -1))] = _EMPTY_ID
    status[bad] = _UNPARSABLE
    ok = np.flatnonzero(status == 0)
    if not ok.size:
        raise DataError(f"no valid rows in {path}")

    # Every worker of a valid row keeps its first row, so workers are ranked
    # before duplicates go. The stable sort puts that first row first; on rows
    # already in (worker, period) order it is the identity, so it is skipped.
    worker_ids, widx = _rank(worker_index, wcode[ok])
    rows, kept_period, step = ok, period[ok], np.diff(widx)
    if np.any((step < 0) | (step == 0) & (kept_period[1:] < kept_period[:-1])):
        order = np.lexsort((kept_period, widx))
        rows, widx = ok[order], widx[order]
    dup = np.zeros(rows.size, dtype=bool)
    dup[1:] = (widx[1:] == widx[:-1]) & (period[rows[1:]] == period[rows[:-1]])
    status[rows[dup]] = _DUPLICATE
    rows, widx = rows[~dup], widx[~dup]
    firm_ids, fidx = _rank(firm_index, fcode[rows])

    panel = Panel._from_sorted(
        worker_ids, firm_ids, widx, fidx, period[rows],
        values[rows, 0], values[rows, 1:], cov_cols,
    )

    summaries = {"log_wage": _summary(panel.log_wage)}
    for k, name in enumerate(panel.covariate_names):
        summaries[name] = _summary(panel.covariates[:, k])

    dropped = np.flatnonzero(status)
    counts = np.bincount(status, minlength=len(_DROP_MESSAGES) + 1)
    report = ValidationReport(
        rows_read=line.size,
        rows_kept=rows.size,
        rows_dropped=dropped.size,
        duplicate_worker_periods=int(counts[_DUPLICATE]),
        non_finite_values=int(counts[_NON_FINITE]),
        unparsable_rows=int(counts[_UNPARSABLE] + counts[_EMPTY_ID]),
        column_summaries=summaries,
        warnings=tuple(
            f"line {n}: {_DROP_MESSAGES[s]}"
            for n, s in zip(line[dropped].tolist(), status[dropped].tolist())
        ),
    )
    return panel, report


def _summary(values: np.ndarray) -> dict:
    return {
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


def write_panel(panel: Panel, path, delimiter=",") -> None:
    """Write a Panel back to delimited text, CHUNK_ROWS rows at a time. Floats
    use repr-precision so a write/load round trip reproduces values bit-for-bit.
    Each chunk is one grid of Python objects, a row per observation: the ids
    gathered from the id tuples, each distinct period formatted once, the
    floats. It is formatted by one `%` operation (floats as %r, which is
    float.__repr__) unless csv.writer would quote a field: an id holding the
    delimiter, a quote or a line break, or a delimiter that can occur in a
    number. csv.writer then writes the grid's rows (str of a float is its
    repr)."""
    _check_delimiter(delimiter)
    worker_ids = np.array(panel.worker_ids, dtype=object)
    firm_ids = np.array(panel.firm_ids, dtype=object)
    ids = "".join(panel.worker_ids) + "".join(panel.firm_ids)
    quoted = any(c in ids for c in (delimiter, '"', "\r", "\n"))
    plain = not (quoted or delimiter.isalnum() or delimiter in "+-.")
    width = 4 + panel.covariate_count
    row = delimiter.replace("%", "%%").join(["%s"] * 3 + ["%r"] * (width - 3)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["worker", "firm", "period", "log_wage", *panel.covariate_names])
        for start in range(0, panel.n_obs, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            periods, at = np.unique(panel.period[rows], return_inverse=True)
            grid = np.empty((at.size, width), dtype=object)
            grid[:, 0] = worker_ids[panel.worker_idx[rows]]
            grid[:, 1] = firm_ids[panel.firm_idx[rows]]
            grid[:, 2] = np.array(list(map(str, periods.tolist())), dtype=object)[at]
            grid[:, 3] = panel.log_wage[rows]  # float64 -> float objects
            grid[:, 4:] = panel.covariates[rows]
            if plain:
                fh.write((row * at.size) % tuple(grid.ravel().tolist()))
            else:
                writer.writerows(grid.tolist())


def restrict_panel(panel: Panel, keep_workers, keep_firms) -> Panel:
    """Restrict to observations whose worker AND firm are both kept.

    `keep_workers` and `keep_firms` are sets of external ids. Internal indices
    are re-densified; external ids are preserved. Raises DataError when the
    restriction is empty. Costs O(n + W + F): the kept rows stay sorted and
    the kept ids stay in order, so nothing is re-sorted or re-checked.
    """
    keep_workers = set(keep_workers)
    keep_firms = set(keep_firms)
    if not keep_workers or not keep_firms:
        raise ConfigError("keep sets must be nonempty")

    wmask = np.fromiter(map(keep_workers.__contains__, panel.worker_ids), bool, panel.n_workers)
    fmask = np.fromiter(map(keep_firms.__contains__, panel.firm_ids), bool, panel.n_firms)
    mask = wmask[panel.worker_idx] & fmask[panel.firm_idx]
    if not mask.any():
        raise DataError("restriction produced an empty panel")

    worker_ids, widx = _redensify(panel.worker_ids, panel.worker_idx[mask])
    firm_ids, fidx = _redensify(panel.firm_ids, panel.firm_idx[mask])
    return Panel._from_sorted(
        worker_ids, firm_ids, widx, fidx, panel.period[mask],
        panel.log_wage[mask], panel.covariates[mask], panel.covariate_names,
    )
