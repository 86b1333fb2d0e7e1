"""Names and units of every metric the benchmark reports.

Shared by the entry point (``run.py``), the measuring child (``child.py``)
and the self-test; it imports nothing from rssim so ``run.py`` can use it
before it knows whether the package is present.
"""

WORKLOADS = ("power_sweep", "low_pilot", "large_array", "validate")

# Printed and gated from the untraced run (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "point_s_max": "s",
    "peak_rss_mib": "MiB",
    "sum_se_mean": "bit/s/Hz",
}

# Printed from the traced run (--trace 1) on every workload.
PER_LAYER = {
    "power.busy_s": "s",
    "power.calls": "count",
    "power.iterations": "count",
    "power.nonconverged": "count",
    "power.converged_ratio": "ratio",
    "estimation.busy_s": "s",
    "estimation.calls": "count",
    "estimation.peak_mib": "MiB",
    "estimation.model_mib": "MiB",
    "moments.mr_busy_s": "s",
    "moments.common_busy_s": "s",
    "moments.calls": "count",
    "precoding.problem_busy_s": "s",
    "precoding.lp_busy_s": "s",
    "precoding.lp_calls": "count",
    "scenario.busy_s": "s",
    "scenario.calls": "count",
    "link.busy_s": "s",
    "link.calls": "count",
    "runner.busy_s": "s",
    "runner.write_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}

# Per-layer metrics of the oracle suite.  Only the validate workload calls
# it, so they are printed there and kept out of the result line, whose
# metric set is the same for every workload.
VALIDATION_LAYER = {
    "validation.vote_busy_s": "s",
    "validation.mc_moments_busy_s": "s",
    "validation.mc_estimation_busy_s": "s",
}

# Printed with every untraced result but not gated: error_share is 0 when
# the program is correct, and the result line carries it as failed/attempted.
UNGATED = {
    "error_share": "ratio",
}
