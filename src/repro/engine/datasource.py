"""``lakescan``: a Python DataSource V2 with min/max pruning pushdown.

The repro-guidance asks for the paper's filter pruning to run inside
Catalyst where possible.  PySpark 4.1's Python Data Source API exposes
exactly the needed hook: during optimization Spark offers the scan's
predicates to :meth:`LakeScanReader.pushFilters`; we translate the
supported ones into the `repro.core` expression AST, prune the manifest
partition list, and report *every* filter back as unsupported so Spark
still applies them post-scan — pruning must affect only which files are
read, never the rows produced (no-false-negatives contract).

Usage::

    spark.dataSource.register(LakeScanDataSource)
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    df = spark.read.format("lakescan").option("path", table_dir).load()

Each retained micro-partition becomes one ``InputPartition``; workers
read the Parquet file via pyarrow and return record batches.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from pyspark.sql.datasource import (
    DataSource,
    DataSourceReader,
    EqualTo,
    Filter,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    InputPartition,
    IsNotNull,
    IsNull,
    LessThan,
    LessThanOrEqual,
    Not,
    StringStartsWith,
)
from pyspark.sql.types import StructType

from repro.core import expr as E
from repro.core.filter_pruning import prune_scan_set
from repro.lake.manifest import Manifest


def _filter_to_expr(f: Filter) -> Optional[E.Expr]:
    """Translate one Spark DSv2 filter into the pruning AST.

    Returns ``None`` for shapes we cannot prune on — those simply do not
    narrow the scan set.  Nested attributes (len(path) > 1) are skipped.
    """
    def c(flt) -> Optional[E.Col]:
        return E.col(flt.attribute[0]) if len(flt.attribute) == 1 else None

    if isinstance(f, EqualTo):
        base = c(f)
        return None if base is None else E.Cmp("=", base, E.lit(f.value))
    if isinstance(f, GreaterThan):
        base = c(f)
        return None if base is None else E.Cmp(">", base, E.lit(f.value))
    if isinstance(f, GreaterThanOrEqual):
        base = c(f)
        return None if base is None else E.Cmp(">=", base, E.lit(f.value))
    if isinstance(f, LessThan):
        base = c(f)
        return None if base is None else E.Cmp("<", base, E.lit(f.value))
    if isinstance(f, LessThanOrEqual):
        base = c(f)
        return None if base is None else E.Cmp("<=", base, E.lit(f.value))
    if isinstance(f, In):
        base = c(f)
        return None if base is None else E.isin(base, list(f.value))
    if isinstance(f, IsNull):
        base = c(f)
        return None if base is None else E.isnull(base)
    if isinstance(f, IsNotNull):
        base = c(f)
        return None if base is None else E.not_(E.isnull(base))
    if isinstance(f, StringStartsWith):
        base = c(f)
        return None if base is None else E.startswith(base, f.value)
    if isinstance(f, Not):
        inner = _filter_to_expr(f.child)
        return None if inner is None else E.not_(inner)
    return None


def filters_to_pred(filters: List[Filter]) -> Optional[E.Expr]:
    """Conjunction of all translatable filters (Spark pushes a CNF list)."""
    parts = [e for e in (_filter_to_expr(f) for f in filters) if e is not None]
    if not parts:
        return None
    return E.and_(*parts)


@dataclass
class _FilePartition(InputPartition):
    path: str


class LakeScanReader(DataSourceReader):
    """Batch reader with manifest-based partition pruning."""

    def __init__(self, schema: StructType, options: dict):
        self._schema = schema
        path = options.get("path")
        if path is None:
            raise ValueError("lakescan requires option 'path'")
        self.manifest = Manifest.load(f"{path}/manifest.json")
        self.pred: Optional[E.Expr] = None

    def pushFilters(self, filters: List[Filter]) -> Iterator[Filter]:
        """Catalyst pushdown hook: prune the scan set, keep all filters.

        Yielding every filter back marks them "unsupported", so Spark
        re-applies them to the rows we produce — pruning stays a pure
        scan-set optimization and can never drop qualifying rows.
        """
        self.pred = filters_to_pred(filters)
        yield from filters

    def partitions(self) -> List[InputPartition]:
        parts = self.manifest.partitions
        if self.pred is not None:
            parts = prune_scan_set(parts, self.pred).retained
        else:
            parts = [p for p in parts if p.row_count > 0]
        return [_FilePartition(p.path) for p in parts]

    def read(self, partition: Optional[_FilePartition]):
        import pyarrow.parquet as pq

        if partition is None:
            # Pruning removed every partition: Spark still plans one
            # read task, with no partition to read.
            return
        table = pq.read_table(partition.path)
        # Align column order with the declared schema.
        table = table.select([f.name for f in self._schema.fields])
        yield from table.to_batches()


class LakeScanDataSource(DataSource):
    """Spark-facing entry point for the lake format."""

    @classmethod
    def name(cls) -> str:
        return "lakescan"

    def schema(self) -> StructType:
        import json

        m = Manifest.load(f"{self.options['path']}/manifest.json")
        return StructType.fromJson(json.loads(m.schema_json))

    def reader(self, schema: StructType) -> LakeScanReader:
        return LakeScanReader(schema, dict(self.options))
