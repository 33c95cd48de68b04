"""An independent DRAM command-trace validator.

The simulator's own legality predicate and its readiness both live
in ``repro.dram.system`` and read the same registers, so neither can
tell whether a scheduling change broke a JEDEC rule.  This checker
does not import them: it replays the
``dram.ACT/PRE/RD/WR/REF`` events ``DramSystem.issue`` emits against
:class:`DramTiming` alone, then runs over the machines the perf
benchmark and the paper's baselines use, under both engines, and pins
each machine's report digest.
"""

from collections import defaultdict

import pytest

from repro import (
    BinSpec, RequestShapingPlan, ResponseShapingPlan, SystemBuilder,
    uniform_config,
)
from repro.dram.organization import DramOrganization
from repro.dram.timing import DramTiming
from repro.obs.events import CATEGORY_DRAM
from repro.obs.tracer import EventTracer
from repro.sim.stats import report_digest
from repro.workloads import make_trace

NEVER = -(10 ** 9)


class _Bank:
    def __init__(self):
        self.row = None
        self.act = self.pre = self.rd = self.wr = NEVER


def validate(log, timing):
    """Violations in ``log``: (cycle, kind, channel, rank, bank, row)
    tuples in issue order."""
    t = timing
    wr_recovery = t.tCWL + t.tBURST + t.tWR
    banks = defaultdict(_Bank)
    acts = defaultdict(list)  # rank -> ACT cycles
    last_col = defaultdict(lambda: NEVER)  # rank -> column cycle
    wr_end = defaultdict(lambda: NEVER)  # rank -> write burst end
    ref_until = defaultdict(lambda: NEVER)  # rank -> REF + tRFC
    last_cmd = {}  # channel -> cycle
    bus = {}  # channel -> (burst end, rank)
    errors = []

    for cycle, kind, ch, rk, bk, row in log:
        rank, b = (ch, rk), banks[(ch, rk, bk)]

        def need(ok, what):
            if not ok:
                errors.append(f"{kind}@{cycle} ch{ch} rk{rk} bk{bk}: {what}")

        need(last_cmd.get(ch, NEVER) < cycle, "second command this cycle")
        last_cmd[ch] = cycle
        need(cycle >= ref_until[rank], "inside tRFC")
        if kind == "ACT":
            need(b.row is None, "ACT to an open bank")
            need(cycle >= b.pre + t.tRP, "tRP")
            need(cycle >= b.act + t.tRC, "tRC")
            history = acts[rank]
            need(not history or cycle >= history[-1] + t.tRRD, "tRRD")
            need(len(history) < 4 or cycle >= history[-4] + t.tFAW, "tFAW")
            history.append(cycle)
            b.row, b.act = row, cycle
        elif kind == "PRE":
            need(b.row is not None, "PRE to a closed bank")
            need(cycle >= b.act + t.tRAS, "tRAS")
            need(cycle >= b.rd + t.tRTP, "tRTP")
            need(cycle >= b.wr + wr_recovery, "write recovery")
            b.row, b.pre = None, cycle
        elif kind in ("RD", "WR"):
            need(b.row is not None and b.row == row, "column to a row not open")
            need(cycle >= b.act + t.tRCD, "tRCD")
            need(cycle >= last_col[rank] + t.tCCD, "tCCD")
            last_col[rank] = cycle
            start = cycle + (t.tCAS if kind == "RD" else t.tCWL)
            end, last_rank = bus.get(ch, (NEVER, rank))
            gap = t.tRTRS if last_rank != rank else 0
            need(start >= end + gap, "data-burst overlap / tRTRS")
            bus[ch] = (start + t.tBURST, rank)
            if kind == "RD":
                need(cycle >= wr_end[rank] + t.tWTR, "tWTR")
                b.rd = cycle
            else:
                wr_end[rank] = start + t.tBURST
                b.wr = cycle
        elif kind == "REF":
            for (c2, r2, _), other in banks.items():
                if (c2, r2) == rank:
                    need(other.row is None, "REF with an open bank")
                    need(cycle >= other.pre + t.tRP, "REF inside tRP")
                    need(cycle >= other.act + t.tRC, "REF inside tRC")
            ref_until[rank] = cycle + t.tRFC
        else:
            errors.append(f"unknown command {kind}@{cycle}")
    return errors


def command_log(tracer):
    assert tracer.dropped == 0
    log = []
    for event in tracer.events_in(CATEGORY_DRAM):
        args = dict(event.args)
        log.append((
            event.cycle, event.name.split(".", 1)[1], args["channel"],
            args["rank"], args["bank"], args["row"],
        ))
    return log


# -- the simulator's command stream ------------------------------------------

PROGRAMS = ("mcf", "astar", "gcc", "apache")
CYCLES = 30_000


def _mix(shaped=False, scheduler=None, **scheduler_kwargs):
    builder = SystemBuilder(seed=42)
    config = uniform_config(BinSpec(), 2)
    for slot, name in enumerate(PROGRAMS):
        trace = make_trace(name, 4000, seed=42 + slot, base_address=slot << 26)
        if shaped:
            builder.add_core(
                trace,
                request_shaping=RequestShapingPlan(config),
                response_shaping=ResponseShapingPlan(config),
            )
        else:
            builder.add_core(trace)
    if scheduler is not None:
        builder.with_scheduler(scheduler, **scheduler_kwargs)
    return builder


# name -> (builder, report digest at CYCLES, WR commands by CYCLES).
# Dirty write-backs reach DRAM after ~22k cycles; the throttled
# machines (shaped, TP, FS) get there later than CYCLES.
MACHINES = {
    # RespC warnings upgrade FR-FCFS to the priority scheduler.
    "bdc-priority": (lambda: _mix(shaped=True), "3380544051ae9e28", 0),
    "open-frfcfs": (lambda: _mix(), "f4b7d35dee429b1e", 26),
    "tp": (
        lambda: _mix(scheduler="tp", turn_length=96), "103a1c23bc2818c8", 0
    ),
    "fs-bank-partitioned": (
        lambda: _mix(scheduler="fs", interval=48).with_bank_partitioning(),
        "d1ba8a6064141301", 0,
    ),
    "two-channels-two-ranks": (
        lambda: _mix().with_dram(
            organization=DramOrganization(channels=2, ranks_per_channel=2)
        ),
        "927d21c55139e02b", 74,
    ),
}


@pytest.mark.parametrize("engine", ["cycle", "columnar"])
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_simulated_command_stream_is_legal(machine, engine):
    build, digest, writes = MACHINES[machine]
    system = build().build()
    dram = system.controller.dram
    dram.tracer = EventTracer(limit=1 << 17, categories=[CATEGORY_DRAM])
    report = system.run(CYCLES, stop_when_done=False, engine=engine)
    log = command_log(dram.tracer)
    kinds = {entry[1] for entry in log}
    assert {"ACT", "RD", "REF"} <= kinds
    assert sum(1 for entry in log if entry[1] == "WR") == writes
    assert validate(log, dram.timing) == []
    assert report_digest(report) == digest


# -- the checker has teeth ----------------------------------------------------

T = DramTiming()


def test_act_one_cycle_inside_trrd_is_rejected():
    log = [(0, "ACT", 0, 0, 0, 5), (T.tRRD - 1, "ACT", 0, 0, 1, 5)]
    errors = validate(log, T)
    assert len(errors) == 1 and "tRRD" in errors[0]
    log[1] = (T.tRRD, "ACT", 0, 0, 1, 5)
    assert validate(log, T) == []


@pytest.mark.parametrize("log, rule", [
    ([(0, "ACT", 0, 0, 0, 1), (T.tRCD, "RD", 0, 0, 0, 2)], "not open"),
    ([(0, "ACT", 0, 0, 0, 1), (T.tRCD - 1, "RD", 0, 0, 0, 1)], "tRCD"),
    ([(0, "ACT", 0, 0, 0, 1), (T.tRAS - 1, "PRE", 0, 0, 0, 0)], "tRAS"),
    ([(0, "ACT", 0, 0, 0, 1), (T.tRCD, "RD", 0, 0, 0, 1),
      (T.tRCD + T.tCCD - 1, "RD", 0, 0, 0, 1)], "tCCD"),
    ([(0, "ACT", 0, 0, 0, 1), (T.tRCD, "WR", 0, 0, 0, 1),
      (T.tRCD + T.tCCD, "RD", 0, 0, 0, 1)], "tWTR"),
    ([(0, "ACT", 0, 0, 0, 1), (1, "REF", 0, 0, 0, 0)], "open bank"),
    ([(0, "REF", 0, 0, 0, 0), (T.tRFC - 1, "ACT", 0, 0, 0, 1)], "tRFC"),
    ([(c, "ACT", 0, 0, b, 1) for b, c in enumerate(
        [0, T.tRRD, 2 * T.tRRD, 3 * T.tRRD, T.tFAW - 1])], "tFAW"),
])
def test_hand_built_violations_are_rejected(log, rule):
    assert any(rule in error for error in validate(log, T))
