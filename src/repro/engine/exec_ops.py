"""Spark execution of a planned query.

The planner (`repro.core.flow.run_pruning_flow`) decides every scan set,
filter → join → LIMIT → top-k as in §7.  :func:`execute` then runs the
query's SQL in Spark over exactly those scan sets.  Without a plan it
reads every micro-partition: unpruned Spark, the reference a pruned
execution must agree with.
"""
from __future__ import annotations

from typing import Dict, Optional

from pyspark.sql import DataFrame, SparkSession

from repro.core.flow import FlowResult
from repro.core.query import QuerySpec


def execute(
    spark: SparkSession,
    tables: Dict[str, object],  # name -> LakeTable
    spec: QuerySpec,
    plan: Optional[FlowResult],
) -> DataFrame:
    """``spark.sql(spec.to_sql())`` over the plan's final scan sets.

    Each table the spec scans is bound as a temp view named after it:
    ``LakeTable.scan`` of the plan's final scan set, or ``LakeTable.full``
    when ``plan`` is None.
    """
    scans = {spec.table: None if plan is None else plan.final_main_scan}
    if spec.join is not None:
        scans[spec.join.build_table] = (
            None if plan is None else plan.final_build_scan
        )
    for name, parts in scans.items():
        t = tables[name]
        df = t.full(spark) if parts is None else t.scan(spark, parts)
        df.createOrReplaceTempView(name)
    return spark.sql(spec.to_sql())
