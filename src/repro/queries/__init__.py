"""Continual-query workload substrate (range CQs, spatial distributions)."""

from repro.queries.batch import BatchMeasurement, QueryEvalKernel, stack_bounds
from repro.queries.range_query import RangeQuery, evaluate_queries
from repro.queries.workload import QueryDistribution, generate_workload

__all__ = [
    "BatchMeasurement",
    "QueryDistribution",
    "QueryEvalKernel",
    "RangeQuery",
    "evaluate_queries",
    "stack_bounds",
    "generate_workload",
]
