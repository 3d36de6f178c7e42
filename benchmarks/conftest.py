"""Benchmark-suite configuration.

Every bench regenerates one table/figure of the paper: it runs the
corresponding experiment once under pytest-benchmark timing, prints the
same rows/series the paper reports, and asserts the qualitative shape.
Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see the
tables).
"""

#: Frame count for the benchmark-sized experiment runs.  Smaller than the
#: canonical 16 frames of the experiment modules so that the whole bench
#: suite finishes in a few minutes; large enough for the shapes to hold.
BENCH_FRAMES = 8
BENCH_SEED = 7


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under benchmark timing and return its
    result (these are experiment harnesses, not microbenchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
