"""Interprocedural flow checkers (RL007–RL009) and the taint engine.

Fixture policy mirrors ``test_lint_checkers.py``: every checker gets
at least one true positive (including a two-call-hop flow) and one
clean negative, plus the engine-level unit suite (sanitizer
precedence, cycle-robust fixed point, the clean-attr and arity
escape hatches).

The seeded-mutation tests at the bottom are the PR's demonstration
that RL007 catches a *real* secret→timing defect: they take the
shipped ``RequestCamouflage`` source, route the real-queue occupancy
through a helper into ``next_event_cycle``, and assert the checker
reports the full source→sink path — while the unmutated tree stays
clean.
"""

import pathlib
import textwrap

from repro.lint import LintConfig, lint_paths, lint_source
from repro.lint.checkers import SecretIndependenceChecker
from repro.lint.flow import FlowProject
from repro.lint.flow.taint import TaintSpec, run_taint

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

CORE_PATH = "src/repro/core/demo.py"


def findings_for(code, path=CORE_PATH, select=None, config=None):
    return lint_source(textwrap.dedent(code), path, config, select=select)


def ids_of(findings):
    return [f.checker_id for f in findings]


def project_of(*named_sources, config=None):
    sources = [(p, textwrap.dedent(s)) for p, s in named_sources]
    return FlowProject.from_sources(sources, config=config or LintConfig())


# -- RL007 secret independence ---------------------------------------------


TWO_HOP_FLOW = """
    class RealQueue:
        def __init__(self):
            self._buffer = []

        def occ(self):
            return len(self._buffer)

    class Shaper:
        def __init__(self, queue):
            self.queue = queue

        def _pressure(self):
            return self.queue.occ()

        def next_event_cycle(self, cycle):
            return cycle + self._pressure()
    """


class TestRL007:
    def test_two_hop_flow_flagged_with_path(self):
        findings = findings_for(TWO_HOP_FLOW, select=["RL007"])
        assert ids_of(findings) == ["RL007"]
        finding = findings[0]
        assert "next_event_cycle" in finding.message
        # The witness chain walks source → sink across both hops.
        notes = [step.note for step in finding.flow]
        assert any("demand-derived" in n for n in notes)
        assert any("_pressure" in n for n in notes)
        assert "returned from" in notes[-1]
        rendered = finding.as_text()
        assert "source:" in rendered and "sink:" in rendered

    def test_control_dependence_is_clean(self):
        findings = findings_for(
            """
            class Shaper:
                def __init__(self, queue):
                    self.queue = queue

                def next_event_cycle(self, cycle):
                    if self.queue.occupancy:
                        return cycle
                    return cycle + 1
            """,
            select=["RL007"],
        )
        assert findings == []

    def test_sanitizer_pragma_launders_the_flow(self):
        findings = findings_for(
            """
            class Shaper:
                def __init__(self):
                    self._buffer = []

                # repro-lint: sanitizer=RL007
                def _credit_gate(self):
                    return len(self._buffer)

                def next_event_cycle(self, cycle):
                    return cycle + self._credit_gate()
            """,
            select=["RL007"],
        )
        assert findings == []

    def test_flow_table_sanitizers_are_unioned(self):
        config = LintConfig(
            checker_options={"flow": {"sanitizers": ["*.Shaper._pressure"]}}
        )
        findings = findings_for(
            TWO_HOP_FLOW, select=["RL007"], config=config
        )
        assert findings == []

    def test_cross_module_flow(self):
        project = project_of(
            (
                "src/repro/core/demo_queue.py",
                """
                class RealQueue:
                    def __init__(self):
                        self._buffer = []

                    def occ(self):
                        return len(self._buffer)
                """,
            ),
            (
                "src/repro/core/demo_shaper.py",
                """
                from repro.core.demo_queue import RealQueue

                class DemoShaper:
                    def __init__(self):
                        self.queue = RealQueue()

                    def next_event_cycle(self, cycle):
                        return cycle + self.queue.occ()
                """,
            ),
        )
        findings = list(
            SecretIndependenceChecker().check_project(project)
        )
        assert ids_of(findings) == ["RL007"]
        assert findings[0].path == "src/repro/core/demo_shaper.py"
        paths = {step.path for step in findings[0].flow}
        assert "src/repro/core/demo_queue.py" in paths

    def test_sink_attr_write_is_class_qualified(self):
        # A scheduler-internal `_next_slot` register is not shaper
        # surface; only the shaper classes' registers are sinks.
        findings = findings_for(
            """
            class FixedServiceScheduler:
                def __init__(self, queue):
                    self.queue = queue
                    self._next_slot = 0

                def arm(self):
                    self._next_slot = len(self.queue._buffer)
            """,
            path="src/repro/memctrl/demo_sched.py",
            select=["RL007"],
        )
        assert findings == []
        findings = findings_for(
            """
            class BinShaper:
                def __init__(self, queue):
                    self.queue = queue
                    self._next_replenish = 0

                def arm(self):
                    self._next_replenish = len(self.queue._buffer)
            """,
            select=["RL007"],
        )
        assert ids_of(findings) == ["RL007"]


PROFILED_SHAPER = """
    class EngineProfiler:
        def __init__(self):
            self.station_ticks = {}
            self.station_skips = {}

        def record_station(self, station, ticks=0, skips=0):
            if ticks:
                self.station_ticks[station] = (
                    self.station_ticks.get(station, 0) + ticks
                )
            if skips:
                self.station_skips[station] = (
                    self.station_skips.get(station, 0) + skips
                )

    class Shaper:
        def __init__(self, profiler):
            self._buffer = []
            self._prof = profiler

        def tick(self, cycle):
            if self._prof is not None:
                self._prof.record_station("shaper", ticks=1)
            return cycle + 1

        def next_event_cycle(self, cycle):
            if self._prof is not None:
                self._prof.record_station("shaper", skips=1)
            return cycle + 1
    """


class TestRL007ProfilerTaps:
    """The engine self-profiler's station taps sit inside shaper hot
    paths (``tick``/``next_event_cycle``); they record *that* work
    happened, never how much demand is queued, so the flow checker must
    stay quiet — and must still fire if a tap starts forwarding
    demand-derived state into a timing decision."""

    def test_constant_taps_in_hot_paths_are_clean(self):
        assert findings_for(PROFILED_SHAPER, select=["RL007"]) == []

    def test_tap_laundering_occupancy_into_timing_is_flagged(self):
        findings = findings_for(
            """
            class Shaper:
                def __init__(self, profiler):
                    self._buffer = []
                    self._prof = profiler

                def _tap(self):
                    depth = len(self._buffer)
                    self._prof.record_station("shaper", ticks=depth)
                    return depth

                def next_event_cycle(self, cycle):
                    return cycle + self._tap()
            """,
            select=["RL007"],
        )
        assert ids_of(findings) == ["RL007"]
        assert any("_tap" in step.note for step in findings[0].flow)


# -- RL008 dirty-mark completeness -----------------------------------------


COLUMNAR_PATH = "src/repro/sim/columnar.py"


class TestRL008:
    def test_unpaired_mutation_flagged(self):
        findings = findings_for(
            """
            class Engine:
                def poke(self, i, cycle):
                    self.stations[i].tick(cycle)
            """,
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert ids_of(findings) == ["RL008"]
        assert "tick" in findings[0].message

    def test_intraprocedural_mark_pairs(self):
        findings = findings_for(
            """
            class Engine:
                def poke(self, i, cycle):
                    self.stations[i].tick(cycle)
                    self.dirty[i] = True
            """,
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert findings == []

    def test_mark_in_direct_caller_pairs(self):
        findings = findings_for(
            """
            class Engine:
                def _mutate(self, i, cycle):
                    self.stations[i].tick(cycle)

                def step(self, i, cycle):
                    self._mutate(i, cycle)
                    self.dirty[i] = True
            """,
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert findings == []

    def test_clearing_the_flag_does_not_pair(self):
        findings = findings_for(
            """
            class Engine:
                def poke(self, i, cycle):
                    self.stations[i].tick(cycle)
                    self.dirty[i] = False
            """,
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert ids_of(findings) == ["RL008"]

    def test_out_of_scope_path_ignored(self):
        findings = findings_for(
            """
            class Engine:
                def poke(self, i, cycle):
                    self.stations[i].tick(cycle)
            """,
            path="src/repro/sim/system.py",
            select=["RL008"],
        )
        assert findings == []

    def test_device_mutation_past_issue_flagged(self):
        """A station mutated past the engine's stepped path (a response
        delivered, a link ticked through the system) is flagged."""
        findings = findings_for(
            """
            class Engine:
                def _drain(self, txn, cycle):
                    self.system._deliver(txn, cycle)
            """,
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert ids_of(findings) == ["RL008"]
        assert "_deliver" in findings[0].message
        assert "dirty flag" in findings[0].hint
        # The same bypass through an attribute chain: the link is one
        # attribute away from the engine's system.
        findings = findings_for(
            """
            class Engine:
                def _advance_link(self, cycle):
                    self.system.response_link.tick(cycle)
            """,
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert ids_of(findings) == ["RL008"]
        assert "self.system.response_link.tick" in findings[0].message

    def test_issue_resets_the_memo_and_pairs(self):
        """A call to the mark-all helper re-polls every cached horizon,
        so it pairs a mutation; without it the same body is flagged."""
        source = """
            class Engine:
                def _run_injector(self, cycle):
                    self.system.injector.tick(cycle)
                    {mark}
            """
        findings = findings_for(
            source.format(mark="self._mark_all_dirty()"),
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert findings == []
        findings = findings_for(
            source.format(mark="pass"),
            path=COLUMNAR_PATH,
            select=["RL008"],
        )
        assert ids_of(findings) == ["RL008"]

    def test_device_internals_are_out_of_scope(self):
        """The DRAM device keeps no cache (readiness is read live from
        its registers), so no ledger covers it: neither ``issue``
        writing registers nor the controller reaching a device object
        is a finding."""
        for path, source in [
            (
                "src/repro/dram/rank.py",
                """
                class Rank:
                    def precharge(self, bank_index, cycle):
                        self.banks[bank_index].precharge(cycle)
                """,
            ),
            (
                "src/repro/dram/system.py",
                """
                class DramSystem:
                    def issue(self, kind, target, cycle):
                        target.channel.activate(0, 0, 0, cycle)
                """,
            ),
            (
                "src/repro/memctrl/controller.py",
                """
                class MemoryController:
                    def _close_row(self, txn, cycle):
                        txn._target.bank.precharge(cycle)
                """,
            ),
        ]:
            assert findings_for(source, path=path, select=["RL008"]) == []


# -- RL009 RNG stream discipline -------------------------------------------


class TestRL009:
    def test_helper_using_global_random_flagged(self):
        findings = findings_for(
            """
            import random

            def jitter_helper():
                return random.random()
            """,
            path="src/repro/analysis/helper.py",
            select=["RL009"],
        )
        assert ids_of(findings) == ["RL009"]

    def test_module_level_rng_flagged(self):
        findings = findings_for(
            """
            import random

            _RNG = random.Random(7)
            """,
            path="src/repro/analysis/helper.py",
            select=["RL009"],
        )
        assert ids_of(findings) == ["RL009"]

    def test_deterministic_rng_internals_allowed(self):
        findings = findings_for(
            """
            import random

            class DeterministicRng:
                def __init__(self, seed):
                    self._random = random.Random(seed)
            """,
            path="src/repro/common/rng.py",
            select=["RL009"],
        )
        assert findings == []

    def test_wrapper_helper_rl001_file_allow_misses(self):
        # RL001's allow list is file-granular, so a stray module-level
        # helper inside rng.py sails past it; RL009's allow list is
        # function-granular and still catches it.
        code = """
            import random

            def fresh_stream():
                return random.Random()

            class DeterministicRng:
                def substream(self, label):
                    return fresh_stream()
            """
        findings = findings_for(
            code,
            path="src/repro/common/rng.py",
            select=["RL001", "RL009"],
        )
        assert ids_of(findings) == ["RL009"]


# -- taint engine unit suite -----------------------------------------------


class TestTaintEngine:
    def test_sanitizer_beats_source_on_the_same_call(self):
        project = project_of(
            (
                CORE_PATH,
                """
                class S:
                    def next_event_cycle(self, cycle):
                        return cycle + read_secret()
                """,
            )
        )
        spec = TaintSpec(
            checker_id="RL007",
            source_calls=["*read_secret"],
            sink_returns=["*.next_event_cycle"],
        )
        assert len(run_taint(project, spec)) == 1
        laundered = TaintSpec(
            checker_id="RL007",
            source_calls=["*read_secret"],
            sink_returns=["*.next_event_cycle"],
            sanitizers=["*read_secret"],
        )
        assert run_taint(project, laundered) == []

    def test_fixed_point_terminates_on_recursion(self):
        project = project_of(
            (
                CORE_PATH,
                """
                def ping(x):
                    return pong(x)

                def pong(x):
                    return ping(x) + x

                def entry(q, cycle):
                    return cycle + ping(q.secret_val)
                """,
            )
        )
        spec = TaintSpec(
            checker_id="RL007",
            source_attrs=["*.secret_val"],
            sink_returns=["*.entry"],
        )
        hits = run_taint(project, spec)
        assert [h.kind for h in hits] == ["return"]
        # The witness chain is finite even though the call graph cycles.
        assert 0 < len(hits[0].flow) <= 24

    def test_clean_attrs_break_the_hub(self):
        project = project_of(
            (
                CORE_PATH,
                """
                class Clock:
                    def advance(self, q):
                        self.current_cycle = q.secret_val

                class S:
                    def next_event_cycle(self, clk):
                        return clk.current_cycle
                """,
            )
        )
        spec = TaintSpec(
            checker_id="RL007",
            source_attrs=["*.secret_val"],
            sink_returns=["*.next_event_cycle"],
        )
        assert len(run_taint(project, spec)) == 1
        spec_clean = TaintSpec(
            checker_id="RL007",
            source_attrs=["*.secret_val"],
            sink_returns=["*.next_event_cycle"],
            clean_attrs=["*.current_cycle"],
        )
        assert run_taint(project, spec_clean) == []

    def test_arity_filter_rejects_impossible_dispatch(self):
        # `handle.write(x)` (one argument) cannot dispatch to
        # Bank.write(self, cycle, row); without the arity filter the
        # CHA fallback would bind the tainted trace line into `cycle`.
        bank = """
            class Bank:
                def __init__(self):
                    self._next = 0

                def write(self, cycle, row):
                    self._next = cycle
            """
        spec = TaintSpec(
            checker_id="RL007",
            source_attrs=["*.secret_val"],
            sink_attr_writes=["Bank._next"],
        )
        incompatible = project_of(
            (
                CORE_PATH,
                bank
                + """
            def dump(handle, q):
                handle.write(q.secret_val)
            """,
            )
        )
        assert run_taint(incompatible, spec) == []
        compatible = project_of(
            (
                CORE_PATH,
                bank
                + """
            def dump(bank, q):
                bank.write(q.secret_val, 3)
            """,
            )
        )
        assert [h.kind for h in run_taint(compatible, spec)] == [
            "attr-write"
        ]


# -- lint_paths: the flow pass over files on disk ---------------------------


FIXTURE_FILES = {
    "pkg_queue.py": """\
class RealQueue:
    def __init__(self):
        self._buffer = []

    def occ(self):
        return len(self._buffer)
""",
    "pkg_shaper.py": """\
from pkg_queue import RealQueue


class Shaper:
    def __init__(self):
        self.queue = RealQueue()

    def next_event_cycle(self, cycle):
        return cycle + self.queue.occ()
""",
}


def test_cross_module_flow_on_disk_follows_edits_to_the_source_module(
    tmp_path,
):
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    for name, body in FIXTURE_FILES.items():
        (core / name).write_text(body)
    config = LintConfig(project_root=str(tmp_path))
    first = lint_paths([str(tmp_path / "src")], config)
    assert [(f.checker_id, f.path) for f in first.findings] == [
        ("RL007", "src/repro/core/pkg_shaper.py")
    ]
    # Fix the flow in the *source* module; the finding sat in the
    # shaper module, which is untouched.
    (core / "pkg_queue.py").write_text(
        FIXTURE_FILES["pkg_queue.py"].replace(
            "return len(self._buffer)", "return 0"
        )
    )
    assert lint_paths([str(tmp_path / "src")], config).findings == []


# -- self-clean ------------------------------------------------------------


def test_src_has_no_unbaselined_flow_findings():
    result = lint_paths(
        [str(REPO_ROOT / "src")],
        LintConfig(project_root=str(REPO_ROOT)),
        select=["RL007", "RL008", "RL009"],
    )
    assert result.findings == [], "\n".join(
        f.as_text() for f in result.findings
    )


# -- seeded in-tree mutation -----------------------------------------------


REQUEST_SHAPER = REPO_ROOT / "src" / "repro" / "core" / "request_shaper.py"

_HELPER = (
    "    def _pressure_hint(self) -> int:\n"
    "        return len(self._buffer)\n"
    "\n"
)


def _mutated_request_shaper():
    source = REQUEST_SHAPER.read_text()
    anchor = "    @property\n    def occupancy"
    assert anchor in source
    mutated = source.replace(anchor, _HELPER + anchor, 1)
    sink = "        return max(cycle, event)\n"
    assert sink in mutated
    mutated = mutated.replace(
        sink,
        "        return max(cycle, event + self._pressure_hint())\n",
        1,
    )
    assert mutated != source
    return mutated


EPOCH_SHAPER = REPO_ROOT / "src" / "repro" / "core" / "epoch_shaper.py"


def _mutated_epoch_policy():
    """The queue depth added into the slot register, in ``advance``."""
    source = EPOCH_SHAPER.read_text()
    anchor = "        if queued > 1:\n"
    assert source.count(anchor) == 1
    return source.replace(
        anchor, "        self._next_slot += queued\n" + anchor, 1
    )


def _core_sources(mutated=None):
    """``repro.core`` as (path, text) pairs, ``mutated`` ({file: text})
    standing in for the files on disk."""
    mutated = mutated or {}
    sources = []
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").glob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        sources.append((rel, mutated.get(path) or path.read_text()))
    return sources


def test_seeded_occupancy_flow_is_caught_with_full_path():
    project = FlowProject.from_sources(
        _core_sources({REQUEST_SHAPER: _mutated_request_shaper()}),
        config=LintConfig(project_root=str(REPO_ROOT)),
    )
    findings = [
        f
        for f in SecretIndependenceChecker().check_project(project)
        if "RequestCamouflage" in f.key
    ]
    assert findings, "seeded secret→timing flow was not detected"
    finding = findings[0]
    assert finding.key.startswith(
        "repro.core.request_shaper.RequestCamouflage.next_event_cycle"
    )
    notes = [step.note for step in finding.flow]
    assert any("_buffer" in n for n in notes)  # the source end
    assert any("_pressure_hint" in n for n in notes)  # the helper hop
    assert "returned from" in notes[-1]  # the sink end


def test_seeded_queue_depth_into_epoch_slot_register_is_caught():
    """``EpochRatePolicy.advance`` is the one place demand (the queue
    depth) enters a policy, and it writes the slot register: it must
    stay open to the analysis — a sanitizer entry or pragma on it
    would make this very mutation invisible."""
    project = FlowProject.from_sources(
        _core_sources({EPOCH_SHAPER: _mutated_epoch_policy()}),
        config=LintConfig(project_root=str(REPO_ROOT)),
    )
    findings = list(SecretIndependenceChecker().check_project(project))
    write = [
        f for f in findings
        if f.key == "repro.core.epoch_shaper.EpochRatePolicy.advance"
        ".attr-write._next_slot"
    ]
    assert write, "\n".join(f.as_text() for f in findings)
    notes = [step.note for step in write[0].flow]
    assert any("_buffer" in n for n in notes)  # the source end
    assert any("queued" in n for n in notes)  # across the protocol
    # ... and on through the register to the station's timing answer.
    downstream = [
        f for f in findings
        if f.key.startswith(
            "repro.core.request_shaper.RequestCamouflage.next_event_cycle"
        )
    ]
    assert downstream
    assert any(
        "_next_slot" in step.note for step in downstream[0].flow
    )


def test_unmutated_core_is_clean_through_sanctioned_interfaces():
    # The sanctioned credit/bin/epoch path: the very same modules,
    # unmutated, produce zero RL007 findings — demand crosses only
    # through the sanitizer interfaces.
    project = FlowProject.from_sources(
        _core_sources(), config=LintConfig(project_root=str(REPO_ROOT))
    )
    findings = list(SecretIndependenceChecker().check_project(project))
    assert findings == [], "\n".join(f.as_text() for f in findings)
