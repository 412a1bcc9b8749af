"""The columnar event log behind :class:`~repro.obs.recorder.TraceRecorder`.

A traced run emits about a dozen events per query, so the log stores
each event as one row across typed NumPy columns instead of one Python
object: the type code, time, server, query, interned class name,
fanout, deadline and slack.  Two *value columns* hold up to two numeric
extras per row — the ``queue_len``, ``reorder_depth``, ``duration``,
``latency`` and ``slot`` that task events carry, and the like — and a
per-row *shape* code records their keys, in order, with each value's
int/float/bool kind.  Rows whose extras do not fit (a string
``reason``, three or more keys, a value of another type) keep their
dict in a sparse *side table*.  Every key's order and type survive, so
a JSONL export is byte-identical to one written from the original
dicts.

Emission is buffered: :meth:`TraceRecorder.emit` appends a plain tuple
to :attr:`EventLog.pending`, and :meth:`EventLog.flush` writes each
:data:`CHUNK_ROWS` of them into the columns.  A column grows by an
eighth when full: in place until :meth:`EventLog.columns` hands out
views of it, by a copy after that, so no view a reader holds ever
dangles.

Readers come in two kinds:

* :meth:`EventLog.columns` flushes and returns read-only views of the
  filled rows — attribution, SLO accounting, counts and merges read
  these with NumPy;
* :class:`EventView` (``TraceRecorder.events``) is a lazy sequence of
  :class:`~repro.obs.events.TraceEvent` built on demand; its ``len()``
  reads the row count and builds nothing.

A log that has been read stays writable, and arrays a reader still
holds stay valid.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.events import EVENT_TYPES, TraceEvent

#: Rows buffered as tuples before a flush writes them into the columns.
CHUNK_ROWS = 2048

#: The columns, in row-tuple order, with their dtypes.
COLUMNS: Tuple[Tuple[str, Any], ...] = (
    ("type_code", np.uint8),
    ("time", np.float64),
    ("server_id", np.int32),
    ("query_id", np.int64),
    ("class_code", np.uint16),
    ("fanout", np.int32),
    ("deadline", np.float64),
    ("slack", np.float64),
    ("shape", np.uint8),
    ("value0", np.float64),
    ("value1", np.float64),
)
#: Extras a row can keep in the value columns.
N_VALUES = 2

#: Shape code of a row without extras, and of a row in the side table.
NO_EXTRA = 0
SIDE = 255

#: Value kinds the value columns hold exactly (a NumPy float is written
#: as the Python float it equals); ints only up to 2**53.
_KINDS = {int: int, float: float, bool: bool, np.float64: float}
_EXACT_INT = 2 ** 53
#: The known types take fixed codes, so two logs agree on them.
_KNOWN_TYPES = tuple(sorted(EVENT_TYPES))


def _decode_extra(tables, row: int, shape: int, value0: float,
                  value1: float) -> Optional[Dict[str, Any]]:
    """The ``extra`` dict of ``row`` from its shape code and value
    columns, read through the shape and side tables of ``tables`` (an
    :class:`EventLog` or :class:`EventColumns`)."""
    if shape == NO_EXTRA:
        return None
    if shape == SIDE:
        return tables.side[row]
    return {key: kind(value) for key, kind, value in zip(
        tables.shape_keys[shape], tables.shape_kinds[shape],
        (value0, value1))}


class EventLog:
    """Typed columns of lifecycle events, plus the code tables."""

    def __init__(self) -> None:
        #: Emitted rows not yet flushed: ``(type code, time, server_id,
        #: query_id, class_name, fanout, deadline, slack, extra)``.
        self.pending: List[tuple] = []
        self.type_codes: Dict[str, int] = {
            name: code for code, name in enumerate(_KNOWN_TYPES)}
        self.type_names: List[str] = list(_KNOWN_TYPES)
        self.class_codes: Dict[str, int] = {"": 0}
        self.class_names: List[str] = [""]
        #: Per shape code: the extras' keys and their value kinds.
        self.shape_keys: List[tuple] = [()]
        self.shape_kinds: List[tuple] = [()]
        #: ``(*keys, *value types)`` -> shape code (SIDE when the
        #: extras do not fit the value columns).
        self._shape_codes: Dict[tuple, int] = {}
        #: The flush's fast path: keys -> ``(code, type of the first
        #: value, type of the second or None)`` of a shape seen before.
        self._by_keys: Dict[tuple, tuple] = {}
        #: Row -> extra dict, for rows of shape SIDE.
        self.side: Dict[int, Dict[str, Any]] = {}
        #: The columns; rows past ``_rows`` are spare capacity.
        self._arrays: Dict[str, np.ndarray] = {
            name: np.zeros(0, dtype) for name, dtype in COLUMNS}
        self._rows = 0
        #: Whether :meth:`columns` has handed out views of the arrays.
        self._viewed = False

    def __len__(self) -> int:
        return self._rows + len(self.pending)

    # ------------------------------------------------------------------
    def intern_type(self, name: str, strict: bool = False) -> int:
        """The code of event type ``name``, added when new (``strict``
        refuses types outside :data:`EVENT_TYPES`)."""
        if strict and name not in EVENT_TYPES:
            raise ConfigurationError(f"unknown event type {name!r}")
        code = self.type_codes.get(name)
        if code is None:
            code = len(self.type_names)
            if code > np.iinfo(np.uint8).max:
                raise ConfigurationError(
                    f"more than {code} distinct event types in one trace")
            self.type_codes[name] = code
            self.type_names.append(name)
        return code

    def _intern_class(self, name: str) -> int:
        code = self.class_codes.get(name)
        if code is None:
            code = len(self.class_names)
            if code > np.iinfo(np.uint16).max:
                raise ConfigurationError(
                    f"more than {code} distinct class names in one trace")
            self.class_codes[name] = code
            self.class_names.append(name)
        return code

    def _intern_shape(self, keys: tuple, kinds: tuple) -> int:
        """The code of a shape whose value kinds come from
        :data:`_KINDS` (SIDE once the codes run out)."""
        for code, shape in enumerate(zip(self.shape_keys, self.shape_kinds)):
            if shape == (keys, kinds):
                return code
        if len(self.shape_keys) == SIDE:
            return SIDE
        self.shape_keys.append(keys)
        self.shape_kinds.append(kinds)
        return len(self.shape_keys) - 1

    def _shape_of(self, extra: Dict[str, Any]) -> int:
        """The shape code of an ``extra`` dict, cached by its keys and
        value types."""
        values = tuple(extra.values())
        signature = (*extra, *map(type, values))
        code = self._shape_codes.get(signature)
        if code is None:
            kinds = tuple(_KINDS.get(type(value)) for value in values)
            if len(values) > N_VALUES or None in kinds:
                code = SIDE
            else:
                code = self._intern_shape(tuple(extra), kinds)
            if code != SIDE:
                types = tuple(map(type, values)) + (None,)
                self._by_keys.setdefault(tuple(extra), (code, *types[:2]))
            self._shape_codes[signature] = code
        return code

    # ------------------------------------------------------------------
    def _reserve(self, k: int) -> None:
        """Make room for ``k`` more rows in every column."""
        need = self._rows + k
        capacity = len(self._arrays["time"])
        if need <= capacity:
            return
        capacity = max(need, capacity + capacity // 8, CHUNK_ROWS)
        arrays = self._arrays
        for name, array in arrays.items():
            if self._viewed or not array.flags.owndata:
                # A reader may hold views of these arrays, or an
                # unpickled array may borrow its buffer: leave them be
                # and continue in copies.
                grown = np.zeros(capacity, array.dtype)
                grown[:self._rows] = array[:self._rows]
                arrays[name] = grown
            else:
                array.resize(capacity, refcheck=False)
        self._viewed = False

    def flush(self) -> None:
        """Write the pending rows into the columns."""
        rows = self.pending
        if not rows:
            return
        k = len(rows)
        base = self._rows
        (types, times, servers, queries, classes, fanouts, deadlines,
         slacks, extras) = zip(*rows)
        class_codes = self.class_codes
        for name in set(classes).difference(class_codes):
            self._intern_class(name)
        shape = bytearray(k)
        value0 = [0.0] * k
        value1 = [0.0] * k
        by_keys = self._by_keys
        for i, extra in enumerate(extras):
            if not extra:
                continue
            known = by_keys.get(tuple(extra))
            if known is not None:
                code, type0, type1 = known
                if type1 is None:
                    (first,) = extra.values()
                    if type(first) is type0:
                        shape[i] = code
                        value0[i] = first
                        continue
                else:
                    first, second = extra.values()
                    if type(first) is type0 and type(second) is type1:
                        shape[i] = code
                        value0[i] = first
                        value1[i] = second
                        continue
            code = shape[i] = self._shape_of(extra)
            if code == SIDE:
                self.side[base + i] = extra
                continue
            values = tuple(extra.values())
            value0[i] = values[0]
            if len(values) > 1:
                value1[i] = values[1]
        self._reserve(k)
        end = base + k
        arrays = self._arrays
        arrays["type_code"][base:end] = np.array(types, np.uint8)
        arrays["time"][base:end] = np.fromiter(times, np.float64, k)
        arrays["server_id"][base:end] = np.array(servers, np.int32)
        arrays["query_id"][base:end] = np.array(queries, np.int64)
        arrays["class_code"][base:end] = np.fromiter(
            map(class_codes.__getitem__, classes), np.uint16, k)
        arrays["fanout"][base:end] = np.array(fanouts, np.int32)
        arrays["deadline"][base:end] = np.fromiter(deadlines, np.float64, k)
        arrays["slack"][base:end] = np.fromiter(slacks, np.float64, k)
        self._write_values(base, shape, value0, value1, extras)
        arrays["shape"][base:end] = shape
        self._rows = end
        rows.clear()

    def _write_values(self, base: int, shape: bytearray, value0: list,
                      value1: list, extras: tuple) -> None:
        """Write the value columns, moving any int a float64 cannot
        hold exactly to the side table."""
        end = base + len(shape)
        for name, values in (("value0", value0), ("value1", value1)):
            try:
                column = np.array(values, np.float64)
                wide = np.flatnonzero(np.abs(column) >= _EXACT_INT)
            except OverflowError:
                wide = np.arange(len(values))
            for i in wide.tolist():
                value = values[i]
                if type(value) is int and not (
                        -_EXACT_INT <= value <= _EXACT_INT):
                    shape[i] = SIDE
                    self.side[base + i] = extras[i]
                    values[i] = 0.0
            if len(wide):
                column = np.array(values, np.float64)
            self._arrays[name][base:end] = column

    def columns(self) -> "EventColumns":
        """Every row as read-only NumPy columns (flushes first)."""
        self.flush()
        self._viewed = True
        return EventColumns(self)

    def extend(self, other: "EventLog", server_id_offset: int = 0,
               query_id_map: Optional[Any] = None) -> None:
        """Append every row of ``other``, shifting server ids by
        ``server_id_offset`` and mapping query ids through
        ``query_id_map`` (sentinel ``-1`` ids stay as they are)."""
        cols = other.columns()
        n = len(cols)
        if not n:
            return
        self.flush()
        base = self._rows
        type_lut = np.array([self.intern_type(name)
                             for name in cols.type_names], np.uint8)
        class_lut = np.array([self._intern_class(name)
                              for name in cols.class_names], np.uint16)
        shape_lut = np.full(SIDE + 1, SIDE, np.uint8)
        for code, shape in enumerate(zip(cols.shape_keys, cols.shape_kinds)):
            shape_lut[code] = self._intern_shape(*shape)
        shape = shape_lut[cols.shape]
        for row, extra in other.side.items():
            self.side[base + row] = extra
        # A shape this log has no code left for moves to the side table.
        for row in np.flatnonzero((shape == SIDE)
                                  & (cols.shape != SIDE)).tolist():
            self.side[base + row] = cols.extra_dict(row)
        self._reserve(n)
        end = base + n
        arrays = self._arrays
        for name, _ in COLUMNS:
            arrays[name][base:end] = getattr(cols, name)
        arrays["type_code"][base:end] = type_lut[cols.type_code]
        arrays["class_code"][base:end] = class_lut[cols.class_code]
        arrays["shape"][base:end] = shape
        if server_id_offset:
            sid = cols.server_id
            arrays["server_id"][base:end] = np.where(
                sid >= 0, sid + server_id_offset, sid)
        if query_id_map is not None:
            qid = cols.query_id
            known = np.flatnonzero(qid >= 0)
            arrays["query_id"][base + known] = (
                np.asarray(query_id_map)[qid[known]])
        self._rows = end

    # ------------------------------------------------------------------
    def event(self, row: int) -> TraceEvent:
        """The event at ``row`` (``0 <= row < len(self)``)."""
        if row >= self._rows:
            (code, time, sid, qid, class_name, fanout, deadline, slack,
             extra) = self.pending[row - self._rows]
            return TraceEvent(row, self.type_names[code], time, sid, qid,
                              class_name, fanout, deadline, slack,
                              extra or None)
        (code, time, sid, qid, cls, fanout, deadline, slack, shape, value0,
         value1) = [self._arrays[name][row].item() for name, _ in COLUMNS]
        return TraceEvent(row, self.type_names[code], time, sid, qid,
                          self.class_names[cls], fanout, deadline, slack,
                          _decode_extra(self, row, shape, value0, value1))

    def iter_events(self) -> Iterator[TraceEvent]:
        """Build the events in row order, a block at a time.  Rows
        emitted after the call starts are not visited."""
        arrays = dict(self._arrays)
        rows = self._rows
        pending = list(self.pending)
        type_names, class_names = self.type_names, self.class_names
        for lo in range(0, rows, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, rows)
            block = [arrays[name][lo:hi].tolist() for name, _ in COLUMNS]
            for row, (code, time, sid, qid, cls, fanout, deadline, slack,
                      shape, value0, value1) in enumerate(zip(*block), lo):
                yield TraceEvent(row, type_names[code], time, sid, qid,
                                 class_names[cls], fanout, deadline, slack,
                                 _decode_extra(self, row, shape, value0,
                                               value1) if shape else None)
        for row, (code, time, sid, qid, class_name, fanout, deadline, slack,
                  extra) in enumerate(pending, rows):
            yield TraceEvent(row, type_names[code], time, sid, qid,
                             class_name, fanout, deadline, slack,
                             extra or None)


class EventColumns:
    """A log's rows as read-only NumPy arrays, one per column of
    :data:`COLUMNS`, with the tables that decode the codes."""

    def __init__(self, log: EventLog) -> None:
        for name, array in log._arrays.items():
            view = array[:log._rows]
            view.flags.writeable = False
            setattr(self, name, view)
        self.type_names = tuple(log.type_names)
        self.class_names = tuple(log.class_names)
        self.shape_keys = tuple(log.shape_keys)
        self.shape_kinds = tuple(log.shape_kinds)
        self.side = log.side

    def __len__(self) -> int:
        return len(self.time)

    def rows(self, *types: str) -> np.ndarray:
        """Row indices of the events of the given types, in order."""
        codes = [self.type_names.index(name) for name in types
                 if name in self.type_names]
        if len(codes) == 1:
            return np.flatnonzero(self.type_code == codes[0])
        return np.flatnonzero(np.isin(self.type_code, codes))

    def extra_dict(self, row: int) -> Optional[Dict[str, Any]]:
        """The ``extra`` dict of one row, as it was emitted."""
        return _decode_extra(self, row, int(self.shape[row]),
                             self.value0[row].item(),
                             self.value1[row].item())

    def extra_values(self, key: str, rows: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(present, values)`` of extra ``key`` at ``rows``: whether
        each row carries a non-``None`` value, and that value as a
        float (NaN where absent)."""
        position = np.full(SIDE + 1, -1, np.int8)
        for code, keys in enumerate(self.shape_keys):
            if key in keys:
                position[code] = keys.index(key)
        shape = self.shape[rows]
        at = position[shape]
        present = at >= 0
        values = np.where(at == 0, self.value0[rows],
                          np.where(at == 1, self.value1[rows], np.nan))
        for i in np.flatnonzero(shape == SIDE).tolist():
            value = self.side[int(rows[i])].get(key)
            if value is not None:
                present[i] = True
                values[i] = value
        return present, values


class EventView(Sequence):
    """``TraceRecorder.events``: a read-only lazy sequence of
    :class:`~repro.obs.events.TraceEvent`.  ``len()`` and truthiness
    read the row count; items and iteration build events on demand."""

    __slots__ = ("_log",)

    def __init__(self, log: EventLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        n = len(self._log)
        if isinstance(index, slice):
            return [self._log.event(row) for row in range(*index.indices(n))]
        row = operator.index(index)
        if row < 0:
            row += n
        if not 0 <= row < n:
            raise IndexError("event index out of range")
        return self._log.event(row)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self._log.iter_events()

    def __repr__(self) -> str:
        return f"<EventView of {len(self._log)} events>"
