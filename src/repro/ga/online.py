"""The online GA tuner — the paper's Figure 8 protocol.

One reconfiguration consists of a CONFIG phase followed by a RUN
phase.  The CONFIG phase iterates generations; each generation begins
with a *highest-priority-mode* (HPM) profiling pass — every program
briefly owns the memory scheduler so its no-interference service rate
can be measured — followed by one live evaluation window per child
configuration, scored with the MISE average-slowdown model.  The best
configuration found is then installed for the RUN phase.

The tuner drives a live :class:`~repro.sim.System` whose scheduler is
a :class:`~repro.memctrl.schedulers.PriorityFrFcfsScheduler` (needed
for HPM) and whose protected cores carry Camouflage shapers exposed as
:class:`ShaperHandle`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, SnapshotError
from repro.common.rng import DeterministicRng
from repro.common.util import fold_sum
from repro.core.bins import BinConfiguration, MAX_CREDITS_PER_BIN
from repro.ga.genetic import GaConfig, GeneticAlgorithm, Genome
from repro.ga.mise import mise_slowdown
from repro.memctrl.schedulers import PriorityFrFcfsScheduler
from repro.sim.system import System


@dataclass(frozen=True)
class ShaperHandle:
    """One tunable shaper: a genome segment maps onto its bins."""

    name: str
    num_bins: int
    reconfigure: Callable[[BinConfiguration], None]


@dataclass(frozen=True)
class TunerConfig:
    """Online-tuning knobs (paper defaults: 20k-cycle children)."""

    epoch_cycles: int = 20000
    profile_cycles: int = 4000
    settle_cycles: int = 4096
    max_gene: int = 64
    population_size: int = 20
    generations: int = 20
    mutation_rate: float = 0.15
    crossover_rate: float = 0.8
    elite_count: int = 2

    def __post_init__(self) -> None:
        if self.epoch_cycles <= 0 or self.profile_cycles <= 0:
            raise ConfigurationError("cycle windows must be positive")
        if self.settle_cycles < 0:
            raise ConfigurationError("settle_cycles must be non-negative")
        if self.max_gene > MAX_CREDITS_PER_BIN:
            raise ConfigurationError(
                f"max_gene exceeds the 10-bit credit register "
                f"({self.max_gene} > {MAX_CREDITS_PER_BIN})"
            )


@dataclass
class TuningResult:
    """Outcome of one CONFIG phase."""

    best_genome: Genome
    best_fitness: float
    fitness_history: List[float] = field(default_factory=list)
    config_phase_cycles: int = 0


class OnlineGaTuner:
    """Drives the Figure 8 CONFIG phase against a live system."""

    def __init__(
        self,
        system: System,
        handles: Sequence[ShaperHandle],
        config: Optional[TunerConfig] = None,
        seed: int = 99,
        alone_ipcs: Optional[Sequence[float]] = None,
    ) -> None:
        """``alone_ipcs`` switches the objective from the online MISE
        estimate to direct average slowdown against pre-measured
        unshaped-alone IPCs.  MISE (the paper's online objective) is
        blind to slowdown the shapers themselves introduce — it
        compares highest-priority and shared *service rates*, which a
        tight config depresses equally — so experiments that already
        know the alone IPCs (Figure 13) get a sharper search by
        providing them.
        """
        if not handles:
            raise ConfigurationError("at least one shaper handle is required")
        if not isinstance(system.scheduler, PriorityFrFcfsScheduler):
            raise ConfigurationError(
                "online tuning needs a priority-capable scheduler "
                "(build the system with with_scheduler('priority'))"
            )
        self.system = system
        self.handles = list(handles)
        self.config = config or TunerConfig()
        self._rng = DeterministicRng(seed)
        self._alone_rates: List[float] = [0.0] * system.num_cores
        self._alone_ipcs = list(alone_ipcs) if alone_ipcs is not None else None
        if self._alone_ipcs is not None and len(
            self._alone_ipcs
        ) != system.num_cores:
            raise ConfigurationError("need one alone IPC per core")
        self._evaluations = 0
        # In-progress CONFIG phase (non-None only mid-tune): pickled
        # with the tuner by save_tuner so a checkpointed search resumes
        # at the generation it stopped after.
        self._ga: Optional[GeneticAlgorithm] = None
        self._tune_start_cycle = 0

    # -- genome mapping ----------------------------------------------------

    @property
    def genome_length(self) -> int:
        return sum(h.num_bins for h in self.handles)

    def apply_genome(self, genome: Genome) -> None:
        """Split the genome into per-shaper segments and install them."""
        if len(genome) != self.genome_length:
            raise ConfigurationError(
                f"genome length {len(genome)} != expected {self.genome_length}"
            )
        offset = 0
        for handle in self.handles:
            segment = list(genome[offset : offset + handle.num_bins])
            offset += handle.num_bins
            if sum(segment) == 0:
                # A dead shaper would deadlock its core; give the
                # largest bin one credit (slowest legal configuration).
                segment[-1] = 1
            handle.reconfigure(BinConfiguration(tuple(segment)))

    # -- measurement ---------------------------------------------------------

    def _measure_window(self, cycles: int):
        """Run ``cycles``; per-core (service_rate, alpha, ipc) deltas."""
        sys = self.system
        before_delivered = [sys.delivered_count(c) for c in range(sys.num_cores)]
        before_stall = [core.memory_stall_cycles for core in sys.cores]
        before_cycles = [core.cycles for core in sys.cores]
        before_retired = [core.retired_instructions for core in sys.cores]
        sys.run(cycles, stop_when_done=False)
        rates, alphas, ipcs = [], [], []
        for c in range(sys.num_cores):
            delivered = sys.delivered_count(c) - before_delivered[c]
            rates.append(delivered / cycles)
            active = sys.cores[c].cycles - before_cycles[c]
            stalls = sys.cores[c].memory_stall_cycles - before_stall[c]
            alphas.append(stalls / active if active else 0.0)
            retired = sys.cores[c].retired_instructions - before_retired[c]
            ipcs.append(retired / cycles)
        return rates, alphas, ipcs

    def _profile_alone_rates(self) -> None:
        """HPM pass: each core gets exclusive priority for a window."""
        scheduler = self.system.scheduler
        assert isinstance(scheduler, PriorityFrFcfsScheduler)
        for core_id in range(self.system.num_cores):
            scheduler.set_exclusive(core_id)
            rates, _alphas, _ipcs = self._measure_window(
                self.config.profile_cycles
            )
            self._alone_rates[core_id] = rates[core_id]
        scheduler.set_exclusive(None)

    def _evaluate(self, genome: Genome) -> float:
        """One child window: install, run, score by average slowdown."""
        if self._alone_ipcs is None and (
            self._evaluations % self.config.population_size == 0
        ):
            self._profile_alone_rates()
        self._evaluations += 1
        self.apply_genome(genome)
        if self.config.settle_cycles:
            # Let the new configuration reach steady state first: the
            # fake-traffic generator lags one replenishment period, so
            # measuring immediately flatters configurations whose fake
            # load has not arrived yet.
            self.system.run(self.config.settle_cycles, stop_when_done=False)
        rates, alphas, ipcs = self._measure_window(self.config.epoch_cycles)
        if self._alone_ipcs is not None:
            slowdowns = [
                alone / ipc if ipc > 0 else 1e6
                for alone, ipc in zip(self._alone_ipcs, ipcs)
                if alone > 0
            ]
        else:
            slowdowns = [
                mise_slowdown(alpha, alone, shared)
                for alpha, alone, shared in zip(
                    alphas, self._alone_rates, rates
                )
            ]
        return fold_sum(slowdowns) / len(slowdowns)

    # -- entry point ---------------------------------------------------------------

    def tune(
        self,
        seed_genomes: Optional[Sequence[Genome]] = None,
        checkpoint_path: Optional[str] = None,
    ) -> TuningResult:
        """Run the CONFIG phase and install the winning configuration.

        ``checkpoint_path`` persists the whole tuner — live system, GA
        population, RNG streams, evaluation counters — after every
        generation (atomic snapshot envelope, kind ``"tuner"``).  A run
        killed mid-search restarts with :func:`resume_tuner` and calls
        :meth:`tune` again: the completed generations are not redone
        and ``seed_genomes`` is ignored, the search simply continues.
        """
        cfg = self.config
        if self._ga is None:
            self._ga = GeneticAlgorithm(
                GaConfig(
                    genome_length=self.genome_length,
                    max_gene=cfg.max_gene,
                    population_size=cfg.population_size,
                    generations=cfg.generations,
                    mutation_rate=cfg.mutation_rate,
                    crossover_rate=cfg.crossover_rate,
                    elite_count=cfg.elite_count,
                ),
                self._rng.fork(1),
            )
            self._tune_start_cycle = self.system.current_cycle
        best_genome, best_fitness = self._ga.evolve(
            self._evaluate, seed_genomes,
            on_generation=(
                (lambda _ga: save_tuner(self, checkpoint_path))
                if checkpoint_path else None
            ),
        )
        self.apply_genome(best_genome)
        result = TuningResult(
            best_genome=best_genome,
            best_fitness=best_fitness,
            fitness_history=list(self._ga.history),
            config_phase_cycles=(
                self.system.current_cycle - self._tune_start_cycle
            ),
        )
        self._ga = None  # CONFIG phase complete; next tune() starts fresh
        if checkpoint_path:
            # The final snapshot records the finished state (RUN-phase
            # ready), so a post-completion resume does not re-search.
            save_tuner(self, checkpoint_path)
        return result


def save_tuner(tuner: OnlineGaTuner, path: str) -> None:
    """Atomically snapshot a tuner (and its live system) to ``path``."""
    from repro.resilience.snapshot import KIND_TUNER, save_snapshot

    generation = tuner._ga.generation if tuner._ga is not None else -1
    save_snapshot(
        path, tuner, KIND_TUNER, tuner.system.current_cycle,
        extra_meta={"generation": generation},
    )


def resume_tuner(path: str) -> OnlineGaTuner:
    """Restore a tuner checkpoint written by :func:`save_tuner`."""
    from repro.resilience.snapshot import KIND_TUNER, load_snapshot

    tuner, _ = load_snapshot(path, expect_kind=KIND_TUNER)
    if not isinstance(tuner, OnlineGaTuner):
        raise SnapshotError(
            f"snapshot {path!r} holds a {type(tuner).__name__}, "
            "not an OnlineGaTuner"
        )
    return tuner
