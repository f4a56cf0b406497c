"""Experiment rigs and result formatting for the paper's evaluation.

Figure/table drivers live in the sibling modules:

* :mod:`repro.harness.microbench`     — Figure 6 (a, b)
* :mod:`repro.harness.compilebench`   — Figures 7, 8(a), 8(b), 10 + §5.1.1
* :mod:`repro.harness.appbench`       — Figure 9, Table 1
* :mod:`repro.harness.exposurebench`  — Figure 11, §5.1.4, §5.2, bandwidth
* :mod:`repro.harness.reportgen`      — regenerates EXPERIMENTS.md
* :mod:`repro.harness.chartify`       — ASCII charts for the sweep figures
"""

from repro.harness.experiment import (
    BaselineRig,
    KeypadRig,
    build_encfs_rig,
    build_ext3_rig,
    build_keypad_rig,
    build_nfs_rig,
)
from repro.harness.results import (
    ResultTable,
    transport_metrics_row,
)

__all__ = [
    "KeypadRig",
    "BaselineRig",
    "build_keypad_rig",
    "build_encfs_rig",
    "build_ext3_rig",
    "build_nfs_rig",
    "ResultTable",
    "transport_metrics_row",
]
