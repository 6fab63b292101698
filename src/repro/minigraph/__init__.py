"""Mini-graph processing: candidates, templates, selection, serialization
models, slack profiling, and the outlining transform."""

from .candidates import Candidate, enumerate_candidates
from .delay_model import DelayAssessment, assess
from .dynamic import MiniGraphPolicy, SlackDynamicPolicy
from .schedule import SchedulingError, reschedule, schedule_block, \
    verify_equivalence
from .selection import MiniGraphPlan, empty_plan, select
from .selectors import (
    FixedSetSelector, Selector, SlackDynamicSelector, SlackProfileSelector,
    StructAll, StructBounded, StructNone, make_plan,
)
from .serialization import SerializationClass, classify
from .slack import ProfileEntry, SlackCollector, SlackProfile
from .templates import MGSite, MGTemplate, MiniGraphTable, build_templates
from .transform import (
    FoldedTrace, MGHandleRecord, TransformedBinary, fold_records, fold_trace,
)

__all__ = [
    "Candidate",
    "DelayAssessment",
    "FixedSetSelector",
    "FoldedTrace",
    "MGHandleRecord",
    "MGSite",
    "MGTemplate",
    "MiniGraphPlan",
    "MiniGraphPolicy",
    "MiniGraphTable",
    "ProfileEntry",
    "SchedulingError",
    "Selector",
    "SerializationClass",
    "SlackCollector",
    "SlackDynamicPolicy",
    "SlackDynamicSelector",
    "SlackProfile",
    "SlackProfileSelector",
    "StructAll",
    "StructBounded",
    "StructNone",
    "TransformedBinary",
    "assess",
    "build_templates",
    "classify",
    "empty_plan",
    "enumerate_candidates",
    "fold_records",
    "fold_trace",
    "make_plan",
    "reschedule",
    "schedule_block",
    "select",
    "verify_equivalence",
]
