"""Measurement and reporting utilities for the evaluation harness."""

from repro.analysis.metrics import percentile, summarize_latencies
from repro.analysis.tables import format_table

__all__ = [
    "percentile",
    "summarize_latencies",
    "format_table",
]
