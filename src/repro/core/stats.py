"""Per-partition column statistics — the pruning metadata model.

This is the information content of Snowflake's metadata service entries /
Apache Iceberg manifest column stats: per micro-partition, per column, the
(min, max) over non-null values plus a null count, and a partition-level
row count.  All pruning decisions in :mod:`repro.core` consume only this.

Two shapes of the same information live here: :class:`PartitionStats`,
one record per partition (the manifest's on-disk and in-memory model),
and :class:`StatsTable`, a cached columnar view over a list of them —
per column, numpy arrays of min, max and null flags, in the spirit of
Small Materialized Aggregates (Moerkotte, VLDB 1998).  The compile-time
pruners evaluate predicates over whole columns of that view at once.
"""
from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

#: Scalar value types that may appear in column stats.
Value = Any  # int | float | str | datetime.date


@dataclass(frozen=True)
class ColStats:
    """min/max/null statistics of a single column within one partition.

    ``min``/``max`` are computed over *non-null* values only and are
    ``None`` iff every value in the partition is null.
    """

    min: Optional[Value]
    max: Optional[Value]
    null_count: int = 0

    @property
    def all_null(self) -> bool:
        """True iff the column holds no non-null value in this partition."""
        return self.min is None and self.max is None

    def has_nulls(self) -> bool:
        return self.null_count > 0


@dataclass(frozen=True)
class PartitionStats:
    """Statistics of one micro-partition: row count + per-column stats."""

    row_count: int
    columns: Dict[str, ColStats] = field(default_factory=dict)

    def col(self, name: str) -> Optional[ColStats]:
        """Stats for ``name``, or ``None`` when the column is untracked.

        Untracked columns force conservative (MAYBE) pruning decisions.
        """
        return self.columns.get(name)


def _encode_value(v: Optional[Value]) -> Any:
    """JSON-encode a stats value, tagging dates so they round-trip."""
    if isinstance(v, _dt.date) and not isinstance(v, _dt.datetime):
        return {"$date": v.isoformat()}
    if isinstance(v, _dt.datetime):
        return {"$datetime": v.isoformat()}
    return v


def _decode_value(v: Any) -> Optional[Value]:
    if isinstance(v, dict):
        if "$date" in v:
            return _dt.date.fromisoformat(v["$date"])
        if "$datetime" in v:
            return _dt.datetime.fromisoformat(v["$datetime"])
    return v


def col_stats_to_json(cs: ColStats) -> dict:
    return {
        "min": _encode_value(cs.min),
        "max": _encode_value(cs.max),
        "null_count": cs.null_count,
    }


def col_stats_from_json(d: dict) -> ColStats:
    return ColStats(
        min=_decode_value(d["min"]),
        max=_decode_value(d["max"]),
        null_count=int(d.get("null_count", 0)),
    )


def partition_stats_to_json(ps: PartitionStats) -> dict:
    return {
        "row_count": ps.row_count,
        "columns": {c: col_stats_to_json(s) for c, s in ps.columns.items()},
    }


def partition_stats_from_json(d: dict) -> PartitionStats:
    return PartitionStats(
        row_count=int(d["row_count"]),
        columns={c: col_stats_from_json(s) for c, s in d["columns"].items()},
    )


# --------------------------------------------------------------------------
# Columnar view
# --------------------------------------------------------------------------

#: Value kinds of a column of the columnar view.  Each native kind has a
#: numpy representation whose ``<`` and ``==`` agree with Python's on the
#: original values: ``int`` (int64; bools included), ``float`` (float64),
#: ``str`` (object array: numpy's ``U`` dtype drops trailing NULs),
#: ``date`` (int64 ordinals) and ``datetime`` (naive, int64 microseconds).
#: ``obj`` holds the Python values themselves (mixed or other types);
#: ``none`` marks a column with no bounded entry at all.
INT, FLOAT, STR, DATE, DATETIME, OBJ, NONE = (
    "int", "float", "str", "date", "datetime", "obj", "none"
)

_DT0 = _dt.datetime(1, 1, 1)
_US = _dt.timedelta(microseconds=1)


def _kind_of(values: Iterable[Any]) -> str:
    types = {type(v) for v in values}
    types.discard(type(None))
    if not types:
        return NONE
    if types <= {int, bool}:
        return INT
    if types == {float}:
        return FLOAT
    if types == {str}:
        return STR
    if types == {_dt.date}:
        return DATE
    if types == {_dt.datetime} and all(
        v is None or v.tzinfo is None for v in values
    ):
        return DATETIME
    return OBJ


def _objects(values: Iterable[Any], n: int) -> np.ndarray:
    return np.fromiter(values, dtype=object, count=n)


def encode_values(values: Sequence[Any]) -> Tuple[str, np.ndarray]:
    """Kind and native array of ``values``; ``None`` entries get a filler
    that is valid for the kind (callers mask them out)."""
    kind = _kind_of(values)
    if kind == INT:
        try:
            return kind, np.array([0 if v is None else v for v in values],
                                  dtype=np.int64)
        except OverflowError:
            kind = OBJ
    if kind == FLOAT:
        return kind, np.array([0.0 if v is None else v for v in values],
                              dtype=np.float64)
    if kind == DATE:
        return kind, np.array([1 if v is None else v.toordinal() for v in values],
                              dtype=np.int64)
    if kind == DATETIME:
        return kind, np.array([0 if v is None else (v - _DT0) // _US for v in values],
                              dtype=np.int64)
    if kind == STR:
        return kind, _objects(("" if v is None else v for v in values), len(values))
    if kind == NONE:
        return kind, np.zeros(len(values), dtype=np.float64)
    return kind, _objects(values, len(values))


def decode_values(kind: str, arr: np.ndarray) -> np.ndarray:
    """Object array of the Python values a native array stands for."""
    if kind in (STR, OBJ):
        return arr
    if kind == DATE:
        return _objects(map(_dt.date.fromordinal, arr.tolist()), len(arr))
    if kind == DATETIME:
        return _objects((_DT0 + x * _US for x in arr.tolist()), len(arr))
    return arr.astype(object)


@dataclass(frozen=True)
class StatsColumn:
    """One column of a :class:`StatsTable`: per-partition arrays.

    ``has_lo``/``has_hi`` say whether ``min``/``max`` is a value (not
    ``None``); entries of ``lo``/``hi`` where they are False are filler.
    ``present`` is False where the partition has no stats for the column.
    """

    kind: str
    lo: np.ndarray
    hi: np.ndarray
    has_lo: np.ndarray
    has_hi: np.ndarray
    present: np.ndarray
    null_count: np.ndarray

    @property
    def all_null(self) -> np.ndarray:
        """Mirror of :attr:`ColStats.all_null` (stats present, no min/max)."""
        return self.present & ~self.has_lo & ~self.has_hi

    @property
    def may_null(self) -> np.ndarray:
        """May the column hold a NULL (no stats, all-null, or nulls counted)?"""
        return ~self.present | self.all_null | (self.null_count > 0)

    def take(self, idx: np.ndarray) -> "StatsColumn":
        return StatsColumn(
            self.kind, self.lo[idx], self.hi[idx], self.has_lo[idx],
            self.has_hi[idx], self.present[idx], self.null_count[idx],
        )

    @classmethod
    def build(cls, stats: Sequence[PartitionStats], name: str) -> "StatsColumn":
        cols = [s.columns.get(name) for s in stats]
        n = len(cols)
        los = [None if c is None else c.min for c in cols]
        his = [None if c is None else c.max for c in cols]
        kind, both = encode_values(los + his)
        return cls(
            kind=kind,
            lo=both[:n],
            hi=both[n:],
            has_lo=np.array([v is not None for v in los], dtype=bool),
            has_hi=np.array([v is not None for v in his], dtype=bool),
            present=np.array([c is not None for c in cols], dtype=bool),
            null_count=np.array([0 if c is None else c.null_count for c in cols],
                                dtype=np.int64),
        )


class StatsTable:
    """Columnar view of the stats of a sequence of partitions.

    Holds the row-count array and builds each column's arrays on first
    use.  :meth:`take` gives the view of a subset of the partitions,
    whose columns are gathered from this table's on demand.
    """

    def __init__(self, stats: Sequence[PartitionStats],
                 parent: Optional[Tuple["StatsTable", np.ndarray]] = None):
        self._stats = stats
        self._parent = parent
        if parent is None:
            self.row_count = np.array([s.row_count for s in stats], dtype=np.int64)
        else:
            self.row_count = parent[0].row_count[parent[1]]
        self.n = len(self.row_count)
        self._columns: Dict[str, StatsColumn] = {}
        #: Arrays derived from this table's columns, cached by evaluators.
        self.memo: Dict[Any, Any] = {}

    def column(self, name: str) -> StatsColumn:
        c = self._columns.get(name)
        if c is None:
            if self._parent is not None:
                parent, idx = self._parent
                c = parent.column(name).take(idx)
            else:
                c = StatsColumn.build(self._stats, name)
            self._columns[name] = c
        return c

    def take(self, idx: np.ndarray) -> "StatsTable":
        """View of the partitions at positions ``idx``."""
        return StatsTable((), parent=(self, idx))


class PartitionList(list):
    """A list of partitions (objects with ``.stats``) that owns a cached
    :class:`StatsTable` over them.

    ``Manifest`` keeps its partitions in one, and the pruners return
    their scan sets as sub-lists made by :meth:`take`, which share the
    table through an index array, so a manifest's stats are converted
    to columns once, however many pruning steps read them.  Any in-place
    change to the list drops the cached table.
    """

    _table: Optional[StatsTable] = None
    _items: Optional[np.ndarray] = None

    @classmethod
    def of(cls, partitions: Iterable) -> "PartitionList":
        """``partitions`` itself if it is a PartitionList, else a new one."""
        return partitions if isinstance(partitions, cls) else cls(partitions)

    @property
    def table(self) -> StatsTable:
        if self._table is None:
            self._table = StatsTable([p.stats for p in self])
        return self._table

    def take(self, idx: np.ndarray) -> "PartitionList":
        """The partitions at positions ``idx``, sharing this list's table."""
        if self._items is None:
            self._items = _objects(self, len(self))
        items = self._items[idx]
        out = PartitionList(items.tolist())
        out._table, out._items = self.table.take(idx), items
        return out


def _dropping_table(name: str):
    method = getattr(list, name)

    def wrapper(self, *args, **kwargs):
        self._table = self._items = None
        return method(self, *args, **kwargs)

    wrapper.__name__ = name
    return wrapper


for _name in ("append", "extend", "insert", "pop", "remove", "clear", "sort",
              "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__"):
    setattr(PartitionList, _name, _dropping_table(_name))
del _name
