"""Checkpoint/restore: envelope validation and bit-identical resume.

The headline guarantee (docs/resilience.md): a run interrupted at any
cycle and resumed from its snapshot is **bit-identical** to the
uninterrupted run — same :class:`SystemReport`, same obs event stream,
same monitor samples — under both execution engines.  The fast cases
cover each shaping feature once; the ``slow`` sweep drives randomized
configurations and cut points.
"""

import contextlib
import io
import json
import pickle
import random
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.errors import ReproError, SnapshotError
from repro.core.bins import BinSpec, uniform_config
from repro.ga.online import OnlineGaTuner, TunerConfig, resume_tuner
from repro.memctrl.transaction import txn_id_watermark
from repro.resilience import (
    ResilienceConfig,
    read_snapshot_info,
    restore_system,
    snapshot_system,
)
from repro.resilience.snapshot import (
    KIND_SYSTEM,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    dump_snapshot,
    load_snapshot,
    parse_snapshot,
    save_snapshot,
)
from repro.sim.stats import report_digest
from repro.sim.system import (
    EpochShapingPlan,
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

from tests.test_ga_online import build_tunable_system

SPEC = BinSpec()
HEADER = b"REPROSNAP v%d\n" % SNAPSHOT_VERSION


# -- envelope validation ---------------------------------------------------


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        meta = save_snapshot(path, {"x": [1, 2, 3]}, "system", 42)
        assert meta["kind"] == "system"
        assert meta["cycle"] == 42
        obj, loaded_meta = load_snapshot(path)
        assert obj == {"x": [1, 2, 3]}
        assert loaded_meta == meta

    def test_bad_magic(self):
        with pytest.raises(SnapshotError, match="magic"):
            parse_snapshot(b"NOTASNAP v1\n{}\npayload")

    def test_bad_version_field(self):
        with pytest.raises(SnapshotError, match="version"):
            parse_snapshot(b"REPROSNAP one\n{}\npayload")

    def test_unsupported_version(self):
        with pytest.raises(SnapshotError, match="v99"):
            parse_snapshot(b'REPROSNAP v99\n{"kind": "system"}\npayload')

    def test_previous_version_fails_at_the_envelope(self):
        """A v1 file pickles station classes that no longer exist; it
        must be turned away before anything is unpickled, by a message
        naming both versions."""
        assert SNAPSHOT_VERSION == 8
        with pytest.raises(
            SnapshotError, match=r"format v1 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v1\n{"kind": "system"}\nnot-a-pickle')

    def test_v2_controller_layout_fails_at_the_envelope(self):
        """A v2 graph lacks the controller's committed-slot counts and
        the DRAM refresh field: it would unpickle and then die at the
        first tick with an ``AttributeError``.  It is refused here."""
        with pytest.raises(
            SnapshotError, match=r"format v2 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v2\n{"kind": "system"}\nnot-a-pickle')

    def test_v3_controller_layout_fails_at_the_envelope(self):
        """A v3 graph still carries the controller's write queue and
        page policy and the mapping's rank mask; it is refused here."""
        with pytest.raises(
            SnapshotError, match=r"format v3 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v3\n{"kind": "system"}\nnot-a-pickle')

    def test_v4_obs_layout_fails_at_the_envelope(self):
        """A v4 graph names the observability ring class and the
        monitor's two violation classes, none of which exist now."""
        with pytest.raises(
            SnapshotError, match=r"format v4 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v4\n{"kind": "system"}\nnot-a-pickle')

    def test_v5_transaction_layout_fails_at_the_envelope(self):
        """A v5 graph has no resolved targets on queued transactions
        and no burst deadline on the controller; it is refused here."""
        with pytest.raises(
            SnapshotError, match=r"format v5 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v5\n{"kind": "system"}\nnot-a-pickle')

    def test_v6_dram_layout_fails_at_the_envelope(self):
        """A v6 graph pickles a dataclass ``DecodedAddress``, a DRAM
        ready-cycle memo and a rank ACT gate that holds only tRRD (it
        would unpickle and then let a fifth ACTIVATE through the tFAW
        window); it is refused here."""
        with pytest.raises(
            SnapshotError, match=r"format v6 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v6\n{"kind": "system"}\nnot-a-pickle')

    def test_v7_trace_layout_fails_at_the_envelope(self):
        """A v7 graph pickles every trace as a list of ``TraceRecord``s,
        which a core no longer reads by index; it is refused here."""
        with pytest.raises(
            SnapshotError, match=r"format v7 .*\(expected v8\)"
        ):
            parse_snapshot(b'REPROSNAP v7\n{"kind": "system"}\nnot-a-pickle')

    def test_corrupt_metadata(self):
        with pytest.raises(SnapshotError, match="metadata"):
            parse_snapshot(HEADER + b"not-json\npayload")

    def test_metadata_must_have_kind(self):
        with pytest.raises(SnapshotError, match="kind"):
            parse_snapshot(HEADER + b'{"cycle": 1}\npayload')

    def test_truncated_payload(self):
        with pytest.raises(SnapshotError, match="truncated"):
            parse_snapshot(HEADER + b'{"kind": "system"}\n')

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        save_snapshot(path, [1], "tuner", 0)
        with pytest.raises(SnapshotError, match="tuner"):
            load_snapshot(path, expect_kind=KIND_SYSTEM)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(str(tmp_path / "nope.snap"))
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot_info(str(tmp_path / "nope.snap"))

    def test_unpicklable_object(self):
        with pytest.raises(SnapshotError, match="serialisable"):
            dump_snapshot(lambda: None, "system", 0)

    def test_read_info_skips_payload(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        save_snapshot(path, list(range(100_000)), "system", 7,
                      extra_meta={"note": "big"})
        info = read_snapshot_info(path)
        assert info["cycle"] == 7
        assert info["note"] == "big"

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "obj.snap"
        save_snapshot(str(path), [1], "system", 0)
        assert path.exists()
        assert not (tmp_path / "obj.snap.tmp").exists()

    def test_watermark_recorded_and_advanced(self, tmp_path):
        path = str(tmp_path / "obj.snap")
        meta = save_snapshot(path, [1], "system", 0)
        assert meta["txn_watermark"] == txn_id_watermark()
        load_snapshot(path)
        assert txn_id_watermark() >= meta["txn_watermark"]


_SIMPLE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_NO_NEWLINE = st.binary(max_size=24).map(lambda b: b.replace(b"\n", b""))
_MAGIC = st.sampled_from([SNAPSHOT_MAGIC, b"NOTASNAP", b""]) | _NO_NEWLINE
_VERSION = st.sampled_from(
    [b"v%d" % SNAPSHOT_VERSION, b"v3", b"v", b"vx", b"%d" % SNAPSHOT_VERSION]
) | _NO_NEWLINE
_META = st.builds(
    lambda kind, cycle: json.dumps({"kind": kind, "cycle": cycle}).encode(),
    st.sampled_from(["system", "tuner"]) | st.text(max_size=6),
    st.integers(min_value=0, max_value=10 ** 6),
) | st.sampled_from([b"[]", b"{}", b"null", b'"system"']) | _NO_NEWLINE
_PAYLOAD = st.builds(pickle.dumps, _SIMPLE) | st.binary(max_size=64)


class TestEnvelopeFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(magic=_MAGIC, version=_VERSION, meta=_META, payload=_PAYLOAD)
    def test_every_failure_is_typed(
        self, tmp_path, magic, version, meta, payload
    ):
        """No envelope built from these parts holds a System or a
        tuner, so every loader refuses it with a ``repro`` error and
        ``repro resume`` exits 2 with one ``error:`` line."""
        path = str(tmp_path / "fuzz.snap")
        with open(path, "wb") as fh:
            fh.write(magic + b" " + version + b"\n" + meta + b"\n" + payload)
        for restore in (restore_system, resume_tuner):
            with pytest.raises(ReproError):
                restore(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["resume", path, "--until", "10"])
        assert status == 2
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1


# -- bit-identical interrupted resume --------------------------------------


def _observed_resilient_builder(
    seed=7,
    traces=(("gcc", 250), ("astar", 250)),
    response=True,
    jitter=False,
    epoch=False,
    resilience=None,
):
    """A shaped system with tracing, sampling, monitoring and (optionally)
    run-loop checkpointing attached — the full artifact surface the
    bit-identical guarantee covers."""
    config = uniform_config(SPEC, 2)
    builder = SystemBuilder(seed=seed)
    for index, (name, accesses) in enumerate(traces):
        builder.add_core(
            make_trace(name, accesses, seed=seed + index),
            request_shaping=(
                EpochShapingPlan() if epoch
                else RequestShapingPlan(config, jitter=jitter)
            ),
            response_shaping=(
                ResponseShapingPlan(config, jitter=jitter)
                if response else None
            ),
        )
    builder.with_observability(
        trace=True, sample_interval=1024, monitor=True, monitor_interval=2048
    )
    if resilience is not None:
        builder.with_resilience(resilience)
    return builder


def _obs_artifacts(system):
    obs = system.observability
    return (
        obs.tracer.events,
        obs.tracer.counts,
        obs.sampler.samples,
        obs.monitor.history,
        obs.monitor.violations,
    )


def _assert_resume_identical(make_builder, cut, cycles, engine, tmp_path):
    """run(cut); snapshot; restore; run(rest) ≡ run(cycles) straight.

    No leg stops early when the cores finish: the first leg must reach
    ``cut`` even when the program is done before it, so the straight
    run and the resumed leg run their full cycle counts too."""
    straight = make_builder().build()
    report_straight = straight.run(cycles, stop_when_done=False, engine=engine)

    interrupted = make_builder().build()
    interrupted.run(cut, stop_when_done=False, engine=engine)
    snap = str(tmp_path / f"cut-{engine}.snap")
    meta = snapshot_system(interrupted, snap)
    assert meta["cycle"] == cut
    del interrupted  # the "crash": only the snapshot file survives

    resumed = restore_system(snap)
    assert resumed.current_cycle == cut
    report_resumed = resumed.run(
        cycles - cut, stop_when_done=False, engine=engine
    )

    assert report_straight == report_resumed
    assert report_digest(report_straight) == report_digest(report_resumed)
    assert _obs_artifacts(straight) == _obs_artifacts(resumed)


class TestResumeIdentical:
    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_bdc(self, engine, tmp_path):
        _assert_resume_identical(
            _observed_resilient_builder, 9_000, 25_000, engine, tmp_path
        )

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_bdc_jitter(self, engine, tmp_path):
        _assert_resume_identical(
            lambda: _observed_resilient_builder(jitter=True),
            9_000, 25_000, engine, tmp_path,
        )

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_epoch_shaping(self, engine, tmp_path):
        _assert_resume_identical(
            lambda: _observed_resilient_builder(epoch=True),
            9_000, 25_000, engine, tmp_path,
        )

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_queued_and_in_flight_transactions(self, engine, tmp_path):
        """A cut with the controller's queue and burst list both
        occupied: queued transactions come back resolved to the
        restored device's banks, and the run goes on bit for bit."""
        def builder():
            return _observed_resilient_builder(
                traces=(("mcf", 400), ("gcc", 400))
            )

        cut = 8_205
        system = builder().build()
        system.run(cut, stop_when_done=False, engine=engine)
        assert len(system.controller.queue) >= 3
        assert system.controller._in_flight
        snap = str(tmp_path / f"queued-{engine}.snap")
        snapshot_system(system, snap)
        resumed = restore_system(snap)
        controller = resumed.controller
        for txn in controller.queue:
            assert txn._target.bank is controller.dram.target(txn.decoded).bank
        _assert_resume_identical(builder, cut, 20_000, engine, tmp_path)

    def test_cross_engine_resume(self, tmp_path):
        """A snapshot written under one engine resumes under the other."""
        straight = _observed_resilient_builder().build()
        digest = report_digest(straight.run(25_000, engine="cycle"))

        system = _observed_resilient_builder().build()
        system.run(9_000, stop_when_done=False, engine="columnar")
        snap = str(tmp_path / "cross.snap")
        snapshot_system(system, snap)
        resumed = restore_system(snap)
        assert digest == report_digest(
            resumed.run(16_000, engine="cycle")
        )


class TestRunLoopCheckpointing:
    """``checkpoint_every`` in the run loop itself, both engines."""

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_periodic_checkpoints_land_on_boundaries(self, engine, tmp_path):
        builder = _observed_resilient_builder(
            resilience=ResilienceConfig(
                checkpoint_every=4_000,
                checkpoint_dir=str(tmp_path / engine),
                checkpoint_keep=2,
            ),
        )
        system = builder.build()
        system.run(17_000, stop_when_done=False, engine=engine)
        res = system.resilience
        assert res.checkpoints_taken == 4
        snaps = sorted((tmp_path / engine).glob("checkpoint-*.snap"))
        assert len(snaps) == 2  # keep policy pruned the older two
        assert [read_snapshot_info(str(s))["cycle"] for s in snaps] == [
            12_000, 16_000,
        ]

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_resume_from_periodic_checkpoint(self, engine, tmp_path):
        def build(tag):
            return _observed_resilient_builder(
                resilience=ResilienceConfig(
                    checkpoint_every=6_000,
                    checkpoint_dir=str(tmp_path / tag),
                ),
            ).build()

        straight = build(f"straight-{engine}")
        report_straight = straight.run(
            20_000, stop_when_done=False, engine=engine
        )

        interrupted = build(f"interrupted-{engine}")
        interrupted.run(9_000, stop_when_done=False, engine=engine)
        snap = interrupted.resilience.last_checkpoint_path
        assert read_snapshot_info(snap)["cycle"] == 6_000
        del interrupted

        resumed = restore_system(snap)
        report_resumed = resumed.run(
            14_000, stop_when_done=False, engine=engine
        )
        assert report_straight == report_resumed
        assert _obs_artifacts(straight) == _obs_artifacts(resumed)


    def test_checkpoint_inside_a_private_span(self, tmp_path, monkeypatch):
        """A boundary that falls where the skipper owes a core its
        private ticks: the snapshot settles first, so its bytes are
        the oracle's."""
        from repro.memctrl import transaction
        from repro.resilience.runtime import ResilienceRuntime

        owed = {}  # engine -> most core ticks unapplied at a boundary
        take_checkpoint = ResilienceRuntime.take_checkpoint

        def spying(runtime, system):
            owed[engine] = max(
                [owed.get(engine, 0)]
                + [system.current_cycle - c._clock
                   for c in system.cores if not c.done]
            )
            return take_checkpoint(runtime, system)

        monkeypatch.setattr(ResilienceRuntime, "take_checkpoint", spying)
        directory = tmp_path / "checkpoints"
        # Transaction ids come from a process-global counter; rebase it
        # so both runs mint the same ids (each is its own process in
        # production).
        base = transaction.txn_id_watermark()
        blobs = {}
        try:
            for engine in ("cycle", "columnar"):
                transaction._next_txn_id = base
                builder = SystemBuilder(seed=5)
                builder.add_core(
                    make_trace("h264ref", 150, seed=5),
                    request_shaping=RequestShapingPlan(
                        uniform_config(SPEC, 2)
                    ),
                )
                builder.add_core(make_trace("gcc", 150, seed=6))
                builder.with_resilience(ResilienceConfig(
                    checkpoint_every=997,
                    checkpoint_dir=str(directory),
                    checkpoint_keep=100,
                ))
                builder.build().run(
                    12_000, stop_when_done=False, engine=engine
                )
                blobs[engine] = [
                    path.read_bytes()
                    for path in sorted(directory.glob("*.snap"))
                ]
                shutil.rmtree(directory)
        finally:
            transaction.advance_txn_id_watermark(base + 1_000_000)
        assert owed["cycle"] == 0  # the oracle runs every tick
        assert owed["columnar"] > 0  # a boundary inside a private span
        assert len(blobs["cycle"]) == 12
        assert blobs["cycle"] == blobs["columnar"]


# -- GA tuner checkpointing ------------------------------------------------


class TestTunerCheckpoint:
    def test_interrupted_tuning_resumes_identically(
        self, tmp_path, monkeypatch
    ):
        config = TunerConfig(
            epoch_cycles=400, profile_cycles=200,
            population_size=4, generations=3,
        )
        system, handles = build_tunable_system()
        straight = OnlineGaTuner(system, handles, config=config).tune()

        # Checkpoint after every generation, keeping a copy of each so
        # the "interruption after generation 1" state stays available.
        import repro.ga.online as online

        real_save = online.save_tuner
        per_generation = []

        def capturing_save(tuner, path):
            real_save(tuner, path)
            copy = f"{path}.gen{len(per_generation)}"
            shutil.copyfile(path, copy)
            per_generation.append(copy)

        monkeypatch.setattr(online, "save_tuner", capturing_save)
        system2, handles2 = build_tunable_system()
        OnlineGaTuner(system2, handles2, config=config).tune(
            checkpoint_path=str(tmp_path / "tuner.snap")
        )
        monkeypatch.undo()
        assert len(per_generation) >= 4  # 3 generations + the final save

        resumed_tuner = resume_tuner(per_generation[0])
        resumed = resumed_tuner.tune()
        assert resumed.best_genome == straight.best_genome
        assert resumed.best_fitness == straight.best_fitness
        assert resumed.fitness_history == straight.fitness_history

    def test_resume_tuner_rejects_system_snapshot(self, tmp_path):
        system = _observed_resilient_builder().build()
        snap = str(tmp_path / "sys.snap")
        snapshot_system(system, snap)
        with pytest.raises(SnapshotError, match="system"):
            resume_tuner(snap)


# -- randomized sweep ------------------------------------------------------


TRACE_NAMES = ["gcc", "astar", "h264ref", "libquantum", "apache", "sjeng"]


def _random_builder(seed):
    def build():
        rng = random.Random(seed)
        builder = SystemBuilder(seed=seed)
        builder.with_scheduler(rng.choice(["frfcfs", "priority", "tp"]))
        for index in range(rng.randint(1, 3)):
            name = rng.choice(TRACE_NAMES)
            style = rng.choice(["none", "reqc", "respc", "bdc", "epoch"])
            jitter = rng.random() < 0.5
            config = uniform_config(SPEC, rng.randint(1, 4))
            builder.add_core(
                make_trace(name, 200, seed=seed + index),
                request_shaping=(
                    RequestShapingPlan(config, jitter=jitter)
                    if style in ("reqc", "bdc")
                    else EpochShapingPlan() if style == "epoch" else None
                ),
                response_shaping=(
                    ResponseShapingPlan(config, jitter=jitter)
                    if style in ("respc", "bdc") else None
                ),
            )
        builder.with_observability(
            trace=True, sample_interval=1024,
            monitor=True, monitor_interval=2048,
        )
        return builder

    return build


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["cycle", "columnar"])
@pytest.mark.parametrize("seed", range(8))
def test_randomized_resume_bit_identical(seed, engine, tmp_path):
    cut = random.Random(seed ^ 0x5EED).randrange(2_000, 28_000)
    _assert_resume_identical(
        _random_builder(seed), cut, 30_000, engine, tmp_path
    )
