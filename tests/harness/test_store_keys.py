"""Store keys are pinned: every ``Runner.*_params`` builder, run through
``ArtifactStore.key`` under a fixed salt, gives the digest recorded
here. Traces, candidate lists and plans are no store artifacts, so
they have no builder and no pinned key.

A key is the SHA-256 of ``kind|salt|canonical params``. The canonical
text is ``json.dumps(params, sort_keys=True, separators=(",", ":"))``,
however it is assembled, so a change to how keys are built that moved a
single byte would miss every artifact a user's store already holds.
The digests were taken before machine configs carried their own
encoding, and must not move.
"""

import pytest

from repro.exec.store import ArtifactStore
from repro.harness import Runner
from repro.minigraph import StructAll
from repro.minigraph.selectors import FixedSetSelector
from repro.pipeline import full_config, reduced_config
from repro.pipeline.config import CacheConfig

SALT = "pinned-store-keys"


def _scaled():
    return reduced_config().scaled(issue_queue=12, phys_regs=96,
                                   dl1=CacheConfig(8 * 1024, 2, 32, 3))


def _cases():
    plain = Runner(store=ArtifactStore(salt=SALT))
    knobs = Runner(budget=256, max_mg_size=3, warm_caches=False,
                   max_insts=60_000, store=ArtifactStore(salt=SALT))
    full, reduced, scaled = full_config(), reduced_config(), _scaled()
    fixed = FixedSetSelector({42, 3, 17}).spec()
    return {
        "baseline-full": ("baseline",
                          plain.baseline_params("crc32", full, "train")),
        "baseline-reduced": ("baseline", knobs.baseline_params(
            "adpcm", reduced, "tiny")),
        "profile-scaled-global": ("profile", plain.profile_params(
            "gzip", scaled, "ref", True)),
        "run-full": ("run", plain.run_params(
            "crc32", StructAll().spec(), full, "train", reduced, "train",
            False, None)),
        "run-fixed-set-scaled-label": ("run", knobs.run_params(
            "adpcm", fixed, scaled, "tiny", reduced, "tiny", False,
            "fixed-subset")),
        "subset": ("subset", plain.subset_params(
            "adpcm", "tiny", reduced, 10, 64, 64, 1.2345678901234567)),
        "run-dynamic-kwargs": ("run-dynamic", plain.dynamic_params(
            "crc32", reduced, "train", "sial", False,
            {"threshold": 8, "decay_interval": 32})),
        "run-dynamic-scaled": ("run-dynamic", knobs.dynamic_params(
            "mcf", scaled, "ref", "full", True, {})),
    }


#: SHA-256 store key of each case under :data:`SALT`.
PINNED = {
    "baseline-full":
        "844e2a0459b3204457e187bc4d3d41d59d36c8861936f4091c0bb8dfa819b4b1",
    "baseline-reduced":
        "83a37f3e56cb0eacac8d5d1e0007f5b261d239c40e8f8a243b9c78e5c358fd22",
    "profile-scaled-global":
        "2135c24abedb70ce230001c7f18f506855b3ec12a3ed498a1cbcd6b1c5215eb2",
    "run-dynamic-kwargs":
        "af64a4b1aac1d15f160dbb3d9c9de94ae13dc92c41763c1530443693e9bac032",
    "run-dynamic-scaled":
        "690497686b0087969e6a973d346b04d596d636811cb3fd54eb95a64bc7aa6cc6",
    "run-fixed-set-scaled-label":
        "915b7b60c0445805c4f2b08febe2229ac68fb8b3dc13a63c050cca07c23fb83e",
    "run-full":
        "102d47c2206377b09aba084c44c05d76afd59bf83dba010e199857571dbfc6c9",
    "subset":
        "74892634bb62031af19dfa80096218dcad78a452d9c2008461033ab78cd7404d",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_store_key_is_pinned(name):
    kind, params = _cases()[name]
    assert ArtifactStore(salt=SALT).key(kind, params) == PINNED[name]


def test_every_case_is_pinned():
    assert sorted(_cases()) == sorted(PINNED)
