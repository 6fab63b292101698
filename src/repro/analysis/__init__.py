"""Analysis tools: the Figure 8 limit study, global slack, suite reports.

The global-slack collector (:mod:`repro.analysis.global_slack`) and the
suite reports (:mod:`repro.analysis.report`) are imported from their
modules; the package imports only the limit study.
"""

from .limit_study import (
    LimitStudyResult, SubsetPoint, run_limit_study, top_nonoverlapping_sites,
)

__all__ = ["LimitStudyResult", "SubsetPoint", "run_limit_study",
           "top_nonoverlapping_sites"]
