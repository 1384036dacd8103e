"""Execution layer: pruned scan sets → Spark DataFrames.

``datasource`` registers the ``lakescan`` Python DataSource whose
``pushFilters`` hook performs manifest min/max pruning inside Catalyst's
pushdown phase; ``exec_ops.execute`` runs a query's SQL in Spark over
the scan sets ``repro.core.flow.run_pruning_flow`` planned.
"""
