"""The Section 5 reproduction.

* :mod:`repro.experiments.figures` -- one function per paper figure or
  table, and the report formatting all of them;
* :mod:`repro.experiments.harness` -- measured-vs-estimated depth and
  buffer experiments over generated workloads (Figures 13-15) and the
  depth-propagation pipeline (Figure 4).
* :mod:`repro.experiments.report` -- ASCII tables and error metrics.
"""

from repro.experiments.harness import (
    DepthMeasurement,
    build_hrjn_pipeline,
    measure_depths,
    measure_pipeline_depths,
)
from repro.experiments.report import format_table, relative_error

__all__ = [
    "DepthMeasurement",
    "build_hrjn_pipeline",
    "format_table",
    "measure_depths",
    "measure_pipeline_depths",
    "relative_error",
]
