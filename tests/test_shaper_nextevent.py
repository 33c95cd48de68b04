"""Next-event timing contract of :class:`BinShaper`.

Two latent bugs broke the shaper's "earliest next event" answers and
had to be fixed before the cycle-skipping engine could trust them:

* a jitter hold armed against pre-replenish credits used to survive a
  replenishment boundary, delaying (or raising against) releases drawn
  from the freshly reloaded registers;
* :meth:`BinShaper.earliest_real_release` ignored both the strict
  exact-bin rule and an armed jitter hold, so it could name a cycle
  where :meth:`BinShaper.can_release_real` still answered ``False``.

The tests here pin the fixed semantics: the hold is cleared on every
boundary crossing, and ``earliest_real_release`` is a true lower bound
on the first releasable cycle — exact whenever jitter is off or the
hold is already armed.

:class:`TestStationContract` then checks the same contract one level
up, once, over every release policy: a station ticked only when its
``next_event_cycle`` (or a submission) says so is indistinguishable
from one ticked every cycle — the station-level twin of
``tests/test_engine_equivalence.py``.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRng
from repro.core.bins import BinConfiguration, BinSpec
from repro.core.epoch_shaper import EpochRatePolicy, RateSet
from repro.core.request_shaper import RequestCamouflage
from repro.core.response_shaper import ResponseCamouflage
from repro.core.shaper import BinShaper, Passthrough
from repro.memctrl.transaction import MemoryTransaction, TransactionType

SPEC = BinSpec(edges=(2, 4, 8, 16), replenish_period=64)


class _FixedRng:
    """Stub jitter source with a deterministic, inspectable draw."""

    def __init__(self, value: int) -> None:
        self.value = value

    def randint(self, low: int, high: int) -> int:
        return min(max(self.value, low), high)


class TestJitterHoldClearedAtBoundary:
    def _armed_past_boundary(self):
        """A shaper whose jitter hold straddles the first boundary."""
        shaper = BinShaper(
            SPEC, BinConfiguration((1, 1, 1, 1)), jitter_rng=_FixedRng(10)
        )
        # Delta 60 makes the top bin (width 16) eligible; the draw of
        # 10 arms a hold until cycle 70, past the boundary at 64.
        assert not shaper.can_release_real(60)
        assert shaper._jitter_hold_until == 70
        return shaper

    def test_boundary_crossing_clears_hold(self):
        shaper = self._armed_past_boundary()
        assert shaper.replenish_if_due(64) == 1
        assert shaper._jitter_hold_until is None

    def test_release_rearms_from_fresh_credits(self):
        """The new period's first release draws a fresh hold instead of
        inheriting the stale one (which would expire at 70)."""
        shaper = self._armed_past_boundary()
        shaper.replenish_if_due(64)
        # First eligibility query after the boundary re-arms at 64+10.
        assert not shaper.can_release_real(64)
        assert shaper._jitter_hold_until == 74
        assert not shaper.can_release_real(70)  # stale hold would say yes
        assert shaper.can_release_real(74)
        assert shaper.release_real(74) == SPEC.num_bins - 1

    def test_multi_boundary_catchup_clears_hold(self):
        """Skipped-cycle catch-up over several periods resets the latch."""
        shaper = self._armed_past_boundary()
        assert shaper.replenish_if_due(3 * 64) == 3
        assert shaper._jitter_hold_until is None


CREDITS = st.lists(
    st.integers(min_value=0, max_value=2), min_size=4, max_size=4
).filter(lambda c: sum(c) > 0)


def _prepare(credits, strict, jitter_seed, releases):
    """Drive a shaper through ``releases`` real releases cycle by cycle
    so the property is checked from realistic mid-period states."""
    shaper = BinShaper(
        SPEC,
        BinConfiguration(tuple(credits)),
        strict=strict,
        jitter_rng=(
            DeterministicRng(jitter_seed) if jitter_seed is not None else None
        ),
    )
    cycle = 0
    done = 0
    while done < releases and cycle < 3 * SPEC.replenish_period:
        shaper.replenish_if_due(cycle)
        if shaper.can_release_real(cycle):
            shaper.release_real(cycle)
            done += 1
        cycle += 1
    shaper.replenish_if_due(cycle)
    return shaper, cycle


def _first_releasable(shaper, cycle):
    """Ground truth: scan a copy cycle by cycle, exactly as the
    per-cycle loop would, up to (not across) the next boundary."""
    probe = copy.deepcopy(shaper)
    for c in range(cycle, probe.next_replenish_cycle):
        if probe.can_release_real(c):
            return c
    return None


class TestEarliestRealReleaseProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        credits=CREDITS,
        strict=st.booleans(),
        jitter_seed=st.one_of(st.none(), st.integers(0, 200)),
        releases=st.integers(0, 4),
        offset=st.integers(0, 30),
    )
    def test_lower_bound_and_exactness(
        self, credits, strict, jitter_seed, releases, offset
    ):
        shaper, cycle = _prepare(credits, strict, jitter_seed, releases)
        cycle = min(cycle + offset, shaper.next_replenish_cycle - 1)
        shaper.replenish_if_due(cycle)

        predicted = shaper.earliest_real_release(cycle)
        truth = _first_releasable(shaper, cycle)

        if predicted is None or predicted >= shaper.next_replenish_cycle:
            # No release before the boundary; the engine waits on
            # next_replenish_cycle instead.
            assert truth is None
            return
        if jitter_seed is None or shaper._jitter_hold_until is not None:
            # Exact: no jitter, or the hold is already latched.
            assert truth == predicted
        else:
            # Unarmed jitter: ``predicted`` is the arming cycle, a hard
            # lower bound; the draw may push the release later (or past
            # the boundary entirely).
            assert truth is None or truth >= predicted
            # No eligibility — jitter aside — strictly before it.
            last = shaper._last_release
            for c in range(cycle, predicted):
                assert shaper._eligible_bin(shaper._credits, c - last) is None

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        credits=CREDITS,
        strict=st.booleans(),
        releases=st.integers(1, 6),
        offset=st.integers(0, 30),
    )
    def test_fake_release_exact(self, credits, strict, releases, offset):
        """Fake releases never jitter: the bound is always exact."""
        shaper, cycle = _prepare(credits, strict, None, releases)
        # Cross one boundary so the unused registers are populated.
        cycle = shaper.next_replenish_cycle + offset
        shaper.replenish_if_due(cycle)

        predicted = shaper.earliest_fake_release(cycle)
        probe = copy.deepcopy(shaper)
        truth = next(
            (
                c
                for c in range(cycle, probe.next_replenish_cycle)
                if probe.can_release_fake(c)
            ),
            None,
        )
        if predicted is None or predicted >= shaper.next_replenish_cycle:
            assert truth is None
        else:
            assert truth == predicted


# -- the station contract, once, over policies ------------------------------


class _ScriptedLink:
    """The two calls a station makes on its link, with backpressure on
    scripted cycles and a log of what was injected when."""

    def __init__(self, blocked=()):
        self.blocked = frozenset(blocked)
        self.cycle = 0
        self.injections = []  # (cycle, is_fake)

    def can_inject(self, port):
        return self.cycle not in self.blocked

    def inject(self, port, txn):
        self.injections.append(
            (self.cycle, txn.kind is TransactionType.FAKE_READ)
        )


EPOCH = 64  # replenish period of SPEC and epoch length, so runs cross several

POLICIES = {
    "bins": lambda: BinShaper(SPEC, BinConfiguration((1, 2, 1, 1))),
    "strict-bins": lambda: BinShaper(
        SPEC, BinConfiguration((1, 2, 1, 1)), strict=True
    ),
    "jittered-bins": lambda: BinShaper(
        SPEC, BinConfiguration((1, 2, 1, 1)), jitter_rng=DeterministicRng(9)
    ),
    "epoch-rate": lambda: EpochRatePolicy(RateSet((4, 8, 16)), EPOCH),
    "passthrough": Passthrough,
}

VARIANTS = [
    (policy, direction)
    for policy in POLICIES
    for direction in ("request", "response")
    if (policy, direction) != ("epoch-rate", "response")  # request-only
]


def _make_station(policy, direction, blocked=()):
    link = _ScriptedLink(blocked)
    if direction == "request":
        station = RequestCamouflage(
            0, POLICIES[policy](), link, 0, DeterministicRng(3),
            buffer_capacity=4,
        )
        return station, link, station.submit, lambda: station.can_accept()
    station = ResponseCamouflage(
        0, POLICIES[policy](), link, 0, buffer_capacity=4
    )
    return station, link, station.push_response, station.can_accept


def _drive(policy, direction, schedule, blocked, every_cycle):
    """Feed ``schedule[c]`` transactions at cycle ``c`` and tick either
    every cycle or only when fed or due, the way the engines do."""
    station, link, feed, can_accept = _make_station(
        policy, direction, blocked
    )
    horizon = station.next_event_cycle(0)
    for cycle, arrivals in enumerate(schedule):
        link.cycle = cycle
        fed = False
        for _ in range(arrivals):
            if can_accept():
                feed(
                    MemoryTransaction(
                        core_id=0, address=0x40 * cycle,
                        kind=TransactionType.READ, created_cycle=cycle,
                    ),
                    cycle,
                )
                fed = True
        if every_cycle or fed or horizon <= cycle:
            station.tick(cycle)
            horizon = station.next_event_cycle(cycle + 1)
    if direction == "request":
        station.settle(len(schedule))
    return station, link


SCHEDULES = st.lists(
    st.sampled_from([0, 0, 0, 0, 0, 1, 1, 2]),
    min_size=EPOCH, max_size=5 * EPOCH,
)


class TestStationContract:
    @pytest.mark.parametrize("policy, direction", VARIANTS)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        schedule=SCHEDULES,
        blocked=st.sets(st.integers(0, 5 * EPOCH), max_size=40),
    )
    def test_event_ticked_twin_is_indistinguishable(
        self, policy, direction, schedule, blocked
    ):
        oracle, oracle_link = _drive(
            policy, direction, schedule, blocked, every_cycle=True
        )
        twin, twin_link = _drive(
            policy, direction, schedule, blocked, every_cycle=False
        )
        assert twin_link.injections == oracle_link.injections
        assert (twin.real_sent, twin.fake_sent) == (
            oracle.real_sent, oracle.fake_sent
        )
        assert twin.occupancy == oracle.occupancy
        assert twin.shaped_histogram.counts == oracle.shaped_histogram.counts
        assert (
            twin.intrinsic_histogram.counts
            == oracle.intrinsic_histogram.counts
        )
        if direction == "request":
            assert twin.stall_cycles == oracle.stall_cycles

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(schedule=st.lists(st.integers(0, 2),
                             min_size=EPOCH, max_size=EPOCH))
    def test_epoch_release_cycles_ignore_the_schedule(self, schedule):
        """Demand independence, where it is exact: inside an epoch the
        epoch-rate policy releases on a fixed grid (real or fake),
        whatever the program submits — only the *next* epoch's rate may
        depend on it."""
        _, link = _drive("epoch-rate", "request", schedule, (), True)
        _, idle_link = _drive("epoch-rate", "request", [0] * EPOCH, (), True)
        cycles = [cycle for cycle, _ in link.injections]
        assert cycles == [cycle for cycle, _ in idle_link.injections]
        assert cycles == list(range(16, EPOCH, 16))
