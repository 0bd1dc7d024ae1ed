"""``generate_fleet`` draws every string's stream for all strings at once.

The vectorized pass in :mod:`repro.workload.fleet` must reproduce, byte
for byte, the per-string ``Generator`` loop it replaced.  That loop
lives on here as the reference; golden digests pin the output on the
shipped scenarios, and the reference is compared field by field on
edge scenarios that exercise every draw-free and conditional branch.
"""

import hashlib

import numpy as np
import pytest

from repro.workload import fleet as fleet_mod
from repro.workload.fleet import (
    FLEET_SCENARIOS,
    FLEET_SMOKE,
    FleetString,
    FleetWorkload,
    generate_fleet,
)
from repro.workload.parameters import ScenarioParameters


def reference_generate_fleet(scenario, seed):
    """The scalar loop: one ``Generator`` per string, draws one by one."""
    seed = int(seed)
    scn = scenario
    params = scn.base
    zone_rng = np.random.default_rng(
        np.random.SeedSequence((seed, fleet_mod._FLEET_TAG, fleet_mod._TAG_ZONE))
    )
    perm = zone_rng.permutation(scn.n_machines)
    zone_of = np.empty(scn.n_machines, dtype=np.int64)
    start = 0
    for zone, size in enumerate(fleet_mod._zone_sizes(scn.n_machines, scn.n_zones)):
        zone_of[perm[start : start + size]] = zone
        start += size

    inv_w_est = fleet_mod._inv_bandwidth_estimate(scn)
    n_lo, n_hi = params.apps_per_string
    strings = []
    for k in range(scn.n_strings):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (seed, fleet_mod._FLEET_TAG, fleet_mod._TAG_STRING, k)
            )
        )
        n_apps = int(rng.integers(n_lo, n_hi + 1))
        t_base = rng.uniform(*params.comp_time_range, size=n_apps)
        u_base = rng.uniform(*params.cpu_util_range, size=n_apps)
        output_sizes = rng.uniform(*params.output_size_range, size=n_apps - 1)
        worth = float(rng.choice(params.worth_choices))
        mu_latency = float(rng.uniform(*params.latency_mu))
        mu_period = float(rng.uniform(*params.period_mu))
        home_zone = int(rng.integers(scn.n_zones))
        peer_zone = home_zone
        if scn.n_zones > 1 and float(rng.uniform()) < scn.cross_zone_rate:
            peer_zone = int(
                (home_zone + 1 + rng.integers(scn.n_zones - 1)) % scn.n_zones
            )
        transfer_av = output_sizes * inv_w_est
        max_latency = mu_latency * float(t_base.sum() + transfer_av.sum())
        stage_times = np.concatenate([t_base, transfer_av])
        period = mu_period * float(stage_times.max())
        strings.append(
            FleetString(
                string_id=k,
                n_apps=n_apps,
                worth=worth,
                period=period,
                max_latency=max_latency,
                t_base=t_base,
                u_base=u_base,
                output_sizes=output_sizes,
                home_zone=home_zone,
                peer_zone=peer_zone,
            )
        )
    return FleetWorkload(
        scenario=scn, seed=seed, zone_of=zone_of, strings=tuple(strings)
    )


def digest(workload):
    """sha256 over ``zone_of`` and every ``FleetString`` field."""
    h = hashlib.sha256()
    h.update(workload.zone_of.tobytes())
    for s in workload.strings:
        scalars = (
            s.string_id,
            s.n_apps,
            s.worth.hex(),
            s.period.hex(),
            s.max_latency.hex(),
            s.home_zone,
            s.peer_zone,
        )
        h.update(repr(scalars).encode())
        for arr in (s.t_base, s.u_base, s.output_sizes):
            h.update(arr.tobytes())
    return h.hexdigest()


#: Captured from the per-string loop (``reference_generate_fleet``).
GOLDEN = {
    ("fleet-smoke", 1): "9c21f3f11ffd1cd89b893a2ca09d5324705e25d42fc60c6c66f73a8434dc15a7",
    ("fleet-smoke", 1009): "561c0b41a592b349514ba523b8e4c1b430c389ccfb02a34155c49b6c8f3facfc",
    ("fleet-bench", 1): "69f430482102fcdb3d1d0352ca424f25fe006c248380a93630c9be248a8fe0d2",
    ("fleet-bench", 1009): "35d9f221a8d87eb9743e1950c285da2862fd5555e9bd793ad75690970dbb1554",
    ("fleet-large", 1): "3b776ee6825476b41fb24adcbc9a152f09430ddeb909bda96c650ad2b974de8f",
    ("fleet-large", 1009): "a62d32281a823812c9675f7b56125bd136751d56096f7d9cb08f0d3be707b359",
    ("fleet-smoke", 0): "96415cc7d702f9809e1887245494e271690ab727a38c6bccbd2deaace32c20ec",
    ("fleet-smoke", 2**63 - 1): "1595be2e1a823f9dd4115deb1115bea3863c60e402802a3a10b5c73aa6797b60",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_golden_digest(name, seed):
    assert digest(generate_fleet(FLEET_SCENARIOS[name], seed)) == GOLDEN[(name, seed)]


def _base(**overrides):
    fields = dict(
        name="edge",
        description="edge-case per-string ranges",
        n_strings=1,
        latency_mu=(4.0, 6.0),
        period_mu=(3.0, 4.5),
    )
    fields.update(overrides)
    return ScenarioParameters(**fields)


EDGE_SCENARIOS = {
    "one-zone": FLEET_SMOKE.scaled(n_zones=1),
    "two-zones": FLEET_SMOKE.scaled(n_zones=2, cross_zone_rate=0.5),
    "never-cross": FLEET_SMOKE.scaled(cross_zone_rate=0.0),
    "always-cross": FLEET_SMOKE.scaled(cross_zone_rate=1.0),
    "one-app": FLEET_SMOKE.scaled(base=_base(apps_per_string=(1, 1))),
    "ten-apps": FLEET_SMOKE.scaled(base=_base(apps_per_string=(10, 10))),
    "one-worth": FLEET_SMOKE.scaled(base=_base(worth_choices=(7,))),
    # More strings than one vectorized pass draws.
    "two-chunks": FLEET_SMOKE.scaled(n_strings=1029),
}


@pytest.mark.parametrize("name", sorted(EDGE_SCENARIOS))
@pytest.mark.parametrize("seed", [3, 2**40 + 11])
def test_matches_reference_loop(name, seed):
    scn = EDGE_SCENARIOS[name]
    got = generate_fleet(scn, seed)
    want = reference_generate_fleet(scn, seed)
    assert np.array_equal(got.zone_of, want.zone_of)
    assert len(got.strings) == len(want.strings)
    for a, b in zip(got.strings, want.strings):
        for field in ("string_id", "n_apps", "home_zone", "peer_zone"):
            assert getattr(a, field) == getattr(b, field), (a.string_id, field)
        for field in ("worth", "period", "max_latency"):
            assert getattr(a, field).hex() == getattr(b, field).hex(), (
                a.string_id,
                field,
            )
        for field in ("t_base", "u_base", "output_sizes"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), (a.string_id, field)
            assert not x.flags.writeable
    assert digest(got) == digest(want)
