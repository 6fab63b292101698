"""Slack-Dynamic policy: hysteresis, disabling, resurrection, variants."""

import pytest

from repro.minigraph.dynamic import MiniGraphPolicy, SlackDynamicPolicy


class FakeSite:
    def __init__(self, site_id):
        self.id = site_id


def test_base_policy_always_enabled():
    policy = MiniGraphPolicy()
    site = FakeSite(1)
    assert policy.enabled(site)
    policy.on_issue(site, True, True)
    policy.on_consumer_delay(site)
    assert policy.enabled(site)


def test_full_mode_needs_consumer_delay():
    policy = SlackDynamicPolicy(mode="full", threshold=2)
    site = FakeSite(1)
    # Serialized issues alone never disable in full mode.
    for _ in range(20):
        policy.on_issue(site, True, True)
    assert policy.enabled(site)
    # Propagated delay does.
    policy.on_consumer_delay(site)
    policy.on_consumer_delay(site)
    assert not policy.enabled(site)
    assert policy.disable_events == 1


def test_delay_mode_disables_on_serialization():
    policy = SlackDynamicPolicy(mode="delay", threshold=3,
                                outlining_penalty=False)
    site = FakeSite(1)
    for _ in range(3):
        policy.on_issue(site, True, True)
    assert not policy.enabled(site)


def test_sial_mode_uses_arrival_order_only():
    policy = SlackDynamicPolicy(mode="sial", threshold=2)
    site = FakeSite(1)
    # serialized=False but sial=True still counts against the site.
    policy.on_issue(site, False, True)
    policy.on_issue(site, False, True)
    assert not policy.enabled(site)


def test_hysteresis_decay():
    policy = SlackDynamicPolicy(mode="delay", threshold=2, decay_interval=2)
    site = FakeSite(1)
    policy.on_issue(site, True, True)      # counter 1
    policy.on_issue(site, False, False)    # benign
    policy.on_issue(site, False, False)    # benign -> counter decays to 0
    policy.on_issue(site, True, True)      # counter 1 again
    assert policy.enabled(site)            # never reached the threshold


def test_resurrection_after_quiet_period():
    policy = SlackDynamicPolicy(mode="delay", threshold=1,
                                resurrect_interval=3)
    site = FakeSite(1)
    policy.on_issue(site, True, True)
    assert not policy.enabled(site)        # quiet 1
    assert not policy.enabled(site)        # quiet 2
    assert policy.enabled(site)            # resurrected on probation
    assert policy.resurrect_events == 1
    # Probation: one more harmful event re-disables immediately.
    policy.on_issue(site, True, True)
    assert not policy.enabled(site)


def test_is_disabled_reads_without_counting():
    """A site one quiet instance short of resurrection reads as disabled,
    and the query changes neither its state nor the event count (the
    fetch-time ``enabled`` would resurrect it)."""
    policy = SlackDynamicPolicy(mode="delay", threshold=1,
                                resurrect_interval=4)
    site = FakeSite(1)
    policy.on_issue(site, True, True)
    for _ in range(3):
        assert not policy.enabled(site)
    state = policy._sites[site.id]
    assert (state.disabled, state.quiet) == (True, 3)
    for _ in range(2):
        assert policy.is_disabled(site)
    assert (state.counter, state.disabled, state.quiet) == (1, True, 3)
    assert policy.resurrect_events == 0
    assert not policy.is_disabled(FakeSite(2))
    assert 2 not in policy._sites


def test_sites_tracked_independently():
    policy = SlackDynamicPolicy(mode="delay", threshold=1)
    bad = FakeSite(1)
    good = FakeSite(2)
    policy.on_issue(bad, True, True)
    assert not policy.enabled(bad)
    assert policy.enabled(good)
    assert policy.disabled_sites() == 1


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        SlackDynamicPolicy(mode="wrong")


def test_outlining_penalty_flag():
    assert SlackDynamicPolicy().outlining_penalty is True
    assert SlackDynamicPolicy(outlining_penalty=False).outlining_penalty \
        is False
