"""Durable execution: checkpoint and resume for long sweeps.

- :mod:`repro.dist.ledger` — a JSONL :class:`~repro.dist.ledger.RunLedger`
  journaling DAG node completion, plus the ``assert_skippable`` lint.
- :mod:`repro.dist.resume` — ``repro resume``: rebuild a killed
  ``experiments``/``limit-study`` run from its ledger and schedule only
  the nodes whose durable outputs are missing from the artifact store.

See ``docs/distributed.md`` for the durability invariant the resume
path enforces.
"""

from repro.dist.ledger import LedgerError, RunLedger

__all__ = ["LedgerError", "RunLedger"]
