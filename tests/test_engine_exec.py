"""End-to-end execution: Spark over the planned scan sets must return
what Spark over every partition returns (``execute(..., None)``).

Results are compared as the ``query_mix`` benchmark compares them: top-k
as a multiset of order values, LIMIT by row count, anything else as rows
in any order.
"""
import datetime as dt

import pytest

from repro.core import query as q
from repro.core.expr import and_, between, col
from repro.core.flow import run_pruning_flow
from repro.core.topk_pruning import PlanOp
from repro.engine.exec_ops import execute
from repro.lake import LakeTable


def _key(row):
    return tuple((v is None, v) for v in row)


def run_both(spark, tables, spec):
    """(plan, pruned rows, unpruned rows) for one query."""
    plan = run_pruning_flow(spec, tables)
    got = execute(spark, tables, spec, plan).collect()
    ref = execute(spark, tables, spec, None).collect()
    if spec.qtype == q.LIMIT:
        assert len(got) == len(ref)
    elif spec.qtype == q.TOPK:
        def order_vals(rows):
            return sorted(
                (r[spec.order_col] for r in rows), key=lambda v: (v is None, v)
            )
        assert order_vals(got) == order_vals(ref)
    else:
        assert sorted(map(tuple, got), key=_key) == sorted(
            map(tuple, ref), key=_key
        )
    return plan, got, ref


def topk(order_col, k, *, desc=True, pred=None, table="events"):
    return q.QuerySpec(
        qtype=q.TOPK, table=table, pred=pred, k=k, order_col=order_col,
        desc=desc, plan_ops=(PlanOp("filter"),) if pred is not None else (),
    )


def join(build_table, key, build_pred, select_cols=()):
    return q.QuerySpec(
        qtype=q.SELECT, table="events", select_cols=select_cols,
        join=q.JoinSpec(build_table=build_table, build_key=key,
                        probe_key=key, build_pred=build_pred),
    )


class TestFilteredScan:
    def test_pruned_scan_matches_oracle(self, spark, prod_lake):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events", select_cols=("event_id", "amount"),
            pred=col("ts") >= dt.date(2025, 1, 1),
        )
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["filter"].pruned > 0, "clustered date filter must prune"
        assert got

    def test_range_pred_matches_oracle(self, spark, prod_lake):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events", select_cols=("event_id",),
            pred=between(col("ts"), dt.date(2024, 3, 1), dt.date(2024, 4, 15)),
        )
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["filter"].pruned > 0
        assert got

    def test_conjunction_with_unclustered(self, spark, prod_lake):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events", select_cols=("event_id",),
            pred=and_(col("ts") >= dt.date(2024, 12, 1),
                      col("etype").eq("purchase")),
        )
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["filter"].pruned > 0
        assert got

    def test_no_predicate(self, spark, prod_lake):
        spec = q.QuerySpec(qtype=q.SELECT, table="events",
                           select_cols=("event_id",))
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert len(got) == prod_lake["events"].manifest.total_rows
        assert plan.overall_ratio == 0.0


class TestTopKExecute:
    @pytest.mark.parametrize("desc", [True, False], ids=["desc", "asc"])
    def test_topk_values_match_oracle(self, spark, prod_lake, desc):
        _, got, _ = run_both(spark, prod_lake, topk("amount", 25, desc=desc))
        assert len(got) == 25

    def test_topk_on_clustered_col_prunes(self, spark, prod_lake):
        plan, got, _ = run_both(spark, prod_lake, topk("ts", 10))
        assert plan.techniques["topk"].ratio > 0.7
        assert len(got) == 10

    def test_topk_with_predicate(self, spark, prod_lake):
        spec = topk("ts", 15, pred=col("etype").eq("error"))
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["topk"].applied
        assert len(got) == 15

    def test_pruned_equals_unpruned(self, spark, prod_lake):
        # k spans several partitions, ASC, with a predicate.
        spec = topk("ts", 600, desc=False, pred=col("etype").eq("click"))
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["topk"].applied
        assert len(got) == 600


class TestLimit:
    def test_limit_row_count(self, spark, prod_lake):
        spec = q.QuerySpec(
            qtype=q.LIMIT, table="events", k=10,
            pred=between(col("ts"), dt.date(2024, 3, 1), dt.date(2024, 6, 1)),
        )
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["limit"].applied
        assert len(got) == 10


class TestPrunedHashJoin:
    def test_correlated_join_prunes_and_matches(self, spark, prod_lake):
        spec = join("incidents", "event_id", col("severity") >= 3)
        plan, got, _ = run_both(spark, prod_lake, spec)
        jt = plan.techniques["join"]
        assert jt.after < jt.before
        assert got

    def test_join_matches_oracle(self, spark, prod_lake):
        spec = join("incidents", "event_id", col("severity") >= 4,
                    select_cols=("amount", "severity"))
        _, got, _ = run_both(spark, prod_lake, spec)
        assert got and all(r["severity"] >= 4 for r in got)

    def test_empty_build_side(self, spark, prod_lake):
        spec = join("incidents", "event_id", col("severity") >= 99)
        plan, got, _ = run_both(spark, prod_lake, spec)
        assert plan.techniques["join"].after == 0
        assert got == []

    def test_uncorrelated_join_correct(self, spark, prod_lake):
        spec = join("users", "user_id", between(col("user_id"), 100, 160))
        _, got, _ = run_both(spark, prod_lake, spec)
        assert got


class TestTopKOverJoin:
    def test_matches_unpruned(self, spark, tmp_path):
        """Rows that do not join must not set the top-k boundary."""
        events = spark.range(400).selectExpr("id AS event_id", "id AS ts")
        incidents = spark.createDataFrame(
            [(5,), (390,), (395,), (399,)], "event_id long")
        tables = {
            "events": LakeTable.write(events, tmp_path / "events",
                                      n_partitions=8, cluster_by=["event_id"]),
            "incidents": LakeTable.write(incidents, tmp_path / "incidents",
                                         n_partitions=1),
        }
        spec = q.QuerySpec(
            qtype=q.TOPK, table="events", k=3, order_col="ts", desc=False,
            join=q.JoinSpec(build_table="incidents", build_key="event_id",
                            probe_key="event_id"),
            plan_ops=(PlanOp("join", order_col_from_probe=True),),
        )
        _, got, _ = run_both(spark, tables, spec)
        assert sorted(r["ts"] for r in got) == [5, 390, 395]
