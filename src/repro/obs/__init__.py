"""Observability subsystem: metrics, run telemetry, delay attribution.

Three post-hoc layers over the whole stack (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — a namespaced registry of counters and
  gauges the simulator's counters (RunStats, activity, caches/TLBs,
  branch unit, store sets), the compiled kernel and the artifact store
  are harvested into, with a JSON exporter (``repro metrics``);
* :mod:`repro.obs.telemetry` — Chrome trace-event–compatible JSONL spans
  and instants, headed by a run manifest (git SHA, config digest, seed,
  code-version salt), behind ``--telemetry`` on ``experiments`` /
  ``limit-study`` / ``bench``;
* :mod:`repro.obs.attribution` — per-mini-graph observed serialization
  delay joined against the delay model's predictions
  (``repro attribution``).

Hard contract: with observability off, the timing core's C-kernel
eligibility and the golden matrix stay bit-identical; attaching any
observer is explicit, post-hoc, and bounded in overhead (the CI
bench-gates job measures it).
"""

from .attribution import (  # noqa: F401
    ATTRIBUTION_SELECTORS, AttributionCollector, PointAttribution,
    SiteAttribution, attribute_point, render_table, run_attribution,
)
from .metrics import (  # noqa: F401
    METRICS_SCHEMA, Counter, Gauge, MetricsError, MetricsRegistry,
    collect_activity, collect_branch, collect_ckern, collect_core,
    collect_hierarchy, collect_run, collect_store, collect_storesets,
    run_registry, validate_metrics,
)
from .telemetry import (  # noqa: F401
    TELEMETRY_SCHEMA, TelemetryError, TelemetryWriter,
    attach_store_telemetry, config_digest, git_sha, run_manifest,
    scheduler_telemetry, validate_file, validate_telemetry,
)
