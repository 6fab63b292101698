"""Slack-Dynamic: run-time serialization monitoring and disabling (§4.4).

The hardware monitor tracks, per static mini-graph site:

* whether an instance's *last-arriving* external operand was a serializing
  operand (input to a non-first constituent) **and** the handle issued the
  moment it arrived — actual serialization delay;
* whether that delayed output in turn delayed a consumer — propagation.

A saturating-counter hysteresis scheme disables sites whose serialization
repeatedly propagates, and resurrects them after a quiet period. Disabled
sites execute in outlined form — the two extra jumps of the encoding are
the "outlining penalty" (§5.3) unless the idealized variant is used.

The timing core calls :meth:`MiniGraphPolicy.enabled` per fetched instance,
:meth:`on_issue` per issued handle, and :meth:`on_consumer_delay` when the
propagation condition is observed. For an exact
:class:`SlackDynamicPolicy` the compiled kernel runs the same monitor:
:meth:`SlackDynamicPolicy.kernel_state` hands it the parameters and
starting state and :meth:`SlackDynamicPolicy.load_kernel_state` adopts the
final state, so the policy reads the same whichever loop ran.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence, Tuple

from ..pipeline import ckern


class MiniGraphPolicy:
    """Base policy: every mini-graph permanently enabled."""

    #: Disabled instances execute with the two outlining jumps.
    outlining_penalty = True

    def enabled(self, site) -> bool:
        """Base policy never disables a site."""
        return True

    def on_issue(self, site, serialized: bool, sial: bool) -> None:
        """Issue events are ignored by the base policy."""
        pass

    def on_consumer_delay(self, site) -> None:
        """Propagation events are ignored by the base policy."""
        pass


class _SiteState:
    __slots__ = ("counter", "disabled", "quiet")

    def __init__(self):
        self.counter = 0
        self.disabled = False
        self.quiet = 0


class SlackDynamicPolicy(MiniGraphPolicy):
    """The Slack-Dynamic monitor with its Figure 7 ablation variants.

    Parameters
    ----------
    mode:
        ``"full"`` — disable on *propagated* serialization delay (the
        complete model: delay + consumer impact);
        ``"delay"`` — disable on serialization delay alone
        (Ideal-Slack-Dynamic-Delay);
        ``"sial"`` — disable whenever a serializing operand arrives last,
        regardless of actual delay (Ideal-Slack-Dynamic-SIAL).
    outlining_penalty:
        When False, disabled instances execute inline without the two
        jumps (the Ideal-* variants of §5.3).
    threshold:
        Saturating-counter value at which a site is disabled.
    decay_interval:
        Benign issues needed to decrement the counter by one (hysteresis
        against rash disabling).
    resurrect_interval:
        Disabled instances fetched before the site is re-enabled on
        probation (counter one below threshold).
    """

    def __init__(self, mode: str = "full", outlining_penalty: bool = True,
                 threshold: int = 4, decay_interval: int = 64,
                 resurrect_interval: int = 256):
        if mode not in ("full", "delay", "sial"):
            raise ValueError(f"unknown Slack-Dynamic mode {mode!r}")
        self.mode = mode
        self.outlining_penalty = outlining_penalty
        self.threshold = threshold
        self.decay_interval = decay_interval
        self.resurrect_interval = resurrect_interval
        self._sites: Dict[int, _SiteState] = {}
        self._benign: Dict[int, int] = {}
        self.disable_events = 0
        self.resurrect_events = 0

    def _state(self, site) -> _SiteState:
        state = self._sites.get(site.id)
        if state is None:
            state = _SiteState()
            self._sites[site.id] = state
        return state

    # -- core callbacks -----------------------------------------------------

    def enabled(self, site) -> bool:
        """Fetch-time query; counts quiet instances toward resurrection."""
        state = self._state(site)
        if not state.disabled:
            return True
        state.quiet += 1
        if state.quiet >= self.resurrect_interval:
            state.disabled = False
            state.quiet = 0
            state.counter = self.threshold - 1
            self.resurrect_events += 1
            return True
        return False

    def _harmful(self, site) -> None:
        state = self._state(site)
        if state.disabled:
            return
        state.counter += 1
        if state.counter >= self.threshold:
            state.disabled = True
            state.quiet = 0
            self.disable_events += 1

    def _benign_issue(self, site) -> None:
        state = self._state(site)
        if state.disabled or state.counter == 0:
            return
        count = self._benign.get(site.id, 0) + 1
        if count >= self.decay_interval:
            state.counter -= 1
            count = 0
        self._benign[site.id] = count

    def on_issue(self, site, serialized: bool, sial: bool) -> None:
        """Classify an issued instance as harmful or benign per the mode."""
        if self.mode == "sial":
            if sial:
                self._harmful(site)
            else:
                self._benign_issue(site)
            return
        if self.mode == "delay":
            if serialized:
                self._harmful(site)
            else:
                self._benign_issue(site)
            return
        # Full mode waits for propagation (on_consumer_delay); an issue
        # without serialization is benign evidence.
        if not serialized:
            self._benign_issue(site)

    def on_consumer_delay(self, site) -> None:
        """Propagated serialization: harmful evidence in full mode."""
        if self.mode == "full":
            self._harmful(site)

    # -- compiled kernel ----------------------------------------------------

    def kernel_state(self, site_ids: Sequence[int]
                     ) -> Optional[Tuple[array, array]]:
        """The parameters and the starting state of ``site_ids``, packed
        as the ``(header, sites)`` policy pair of a
        :func:`repro.pipeline.ckern.run_batch` descriptor; None when a
        parameter is not an integer or the mode is unknown (the Python
        loop runs)."""
        mode = ckern.POLICY_MODES.get(self.mode)
        params = (self.threshold, self.decay_interval,
                  self.resurrect_interval, self.disable_events,
                  self.resurrect_events)
        if mode is None or not all(isinstance(v, int) for v in params):
            return None
        header = array("q", bytes(8 * ckern.PP_WORDS))
        header[ckern.PP_MODE] = mode
        header[ckern.PP_OUTLINED] = 1 if self.outlining_penalty else 0
        header[ckern.PP_THRESHOLD] = self.threshold
        header[ckern.PP_DECAY] = self.decay_interval
        header[ckern.PP_RESURRECT] = self.resurrect_interval
        header[ckern.PP_DISABLE_EVENTS] = self.disable_events
        header[ckern.PP_RESURRECT_EVENTS] = self.resurrect_events
        sites = array("q", bytes(8 * ckern.PS_WORDS * len(site_ids)))
        for i, site_id in enumerate(site_ids):
            row = i * ckern.PS_WORDS
            state = self._sites.get(site_id)
            if state is None:
                sites[row + ckern.PS_ENTRY] = -1
            else:
                sites[row + ckern.PS_COUNTER] = state.counter
                sites[row + ckern.PS_DISABLED] = 1 if state.disabled else 0
                sites[row + ckern.PS_QUIET] = state.quiet
            benign = self._benign.get(site_id)
            if benign is None:
                sites[row + ckern.PS_BENIGN_ENTRY] = -1
            else:
                sites[row + ckern.PS_BENIGN] = benign
        return header, sites

    def load_kernel_state(self, site_ids: Sequence[int], header: array,
                          sites: array) -> None:
        """Adopt a kernel run's final state (see :meth:`kernel_state`).

        Existing entries are updated in place and new ones inserted in
        the order the run created them, as the Python callbacks would.
        """
        created = []
        benign_created = []
        for i, site_id in enumerate(site_ids):
            row = i * ckern.PS_WORDS
            seq = sites[row + ckern.PS_ENTRY]
            if seq >= 0:
                state = self._sites[site_id] if seq == 0 else _SiteState()
                state.counter = sites[row + ckern.PS_COUNTER]
                state.disabled = bool(sites[row + ckern.PS_DISABLED])
                state.quiet = sites[row + ckern.PS_QUIET]
                if seq > 0:
                    created.append((seq, site_id, state))
            seq = sites[row + ckern.PS_BENIGN_ENTRY]
            if seq == 0:
                self._benign[site_id] = sites[row + ckern.PS_BENIGN]
            elif seq > 0:
                benign_created.append((seq, site_id,
                                       sites[row + ckern.PS_BENIGN]))
        for _, site_id, state in sorted(created, key=lambda e: e[0]):
            self._sites[site_id] = state
        for _, site_id, count in sorted(benign_created, key=lambda e: e[0]):
            self._benign[site_id] = count
        self.disable_events = header[ckern.PP_DISABLE_EVENTS]
        self.resurrect_events = header[ckern.PP_RESURRECT_EVENTS]

    # -- reporting ------------------------------------------------------------

    def is_disabled(self, site) -> bool:
        """Is ``site`` disabled right now? A read-only query: unlike
        :meth:`enabled` it counts no quiet instance and never resurrects."""
        state = self._sites.get(site.id)
        return state is not None and state.disabled

    def disabled_sites(self) -> int:
        """Number of sites currently disabled."""
        return sum(1 for state in self._sites.values() if state.disabled)
