"""Generic integer-vector genetic algorithm.

Minimization GA over fixed-length vectors of bounded non-negative
integers — the natural encoding of Camouflage bin configurations.
Deliberately dependency-free so it can also be unit-tested against
analytic objectives.

Operators:

* **Selection** — tournament of size 2 over the evaluated population.
* **Crossover** — uniform (per-gene coin flip) with probability
  ``crossover_rate``, otherwise clone of the first parent.
* **Mutation** — each gene independently resampled near its current
  value (geometric-scale step) with probability ``mutation_rate``.
* **Elitism** — the best ``elite_count`` individuals survive verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng

Genome = Tuple[int, ...]


@dataclass(frozen=True)
class GaConfig:
    """Hyper-parameters of the search (paper: 20-30 children, 20 gens)."""

    genome_length: int
    max_gene: int
    population_size: int = 20
    generations: int = 20
    mutation_rate: float = 0.15
    crossover_rate: float = 0.8
    elite_count: int = 2

    def __post_init__(self) -> None:
        if self.genome_length <= 0:
            raise ConfigurationError("genome_length must be positive")
        if self.max_gene <= 0:
            raise ConfigurationError("max_gene must be positive")
        if self.population_size < 2:
            raise ConfigurationError("population_size must be at least 2")
        if self.generations <= 0:
            raise ConfigurationError("generations must be positive")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must be a probability")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError("crossover_rate must be a probability")
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigurationError(
                "elite_count must be smaller than the population"
            )


class GeneticAlgorithm:
    """Evolve integer genomes to minimize a fitness callback.

    The search state (population, generation counter, best-so-far,
    RNG) lives on the instance and the whole object pickles, so an
    in-progress search can be checkpointed after any generation and
    resumed bit-identically (see repro.resilience / docs/resilience.md).
    Drive it either with :meth:`evolve` (the whole search in one call)
    or :meth:`initialize` + repeated :meth:`step` for external loops
    that checkpoint between generations.
    """

    def __init__(self, config: GaConfig, rng: DeterministicRng) -> None:
        self.config = config
        self._rng = rng
        self.history: List[float] = []  # best fitness per generation
        self._population: List[Genome] = []
        self._generation = 0
        self._best: Optional[Tuple[Genome, float]] = None

    # -- genome helpers -------------------------------------------------

    def random_genome(self) -> Genome:
        """A fresh random genome with at least one non-zero gene."""
        cfg = self.config
        genome = tuple(
            self._rng.randint(0, cfg.max_gene) for _ in range(cfg.genome_length)
        )
        return self._repair(genome)

    def _repair(self, genome: Genome) -> Genome:
        """Ensure validity: at least one positive gene (no dead shaper)."""
        if any(g > 0 for g in genome):
            return genome
        index = self._rng.randint(0, len(genome) - 1)
        fixed = list(genome)
        fixed[index] = 1
        return tuple(fixed)

    def mutate(self, genome: Genome) -> Genome:
        """Per-gene geometric-scale perturbation."""
        cfg = self.config
        out = list(genome)
        for i, gene in enumerate(out):
            if self._rng.random() < cfg.mutation_rate:
                # Step size proportional to the gene's magnitude keeps
                # exploration meaningful at both ends of the range.
                span = max(1, gene // 2, cfg.max_gene // 16)
                out[i] = max(0, min(cfg.max_gene,
                                    gene + self._rng.randint(-span, span)))
        return self._repair(tuple(out))

    def crossover(self, a: Genome, b: Genome) -> Genome:
        """Uniform crossover (falls back to cloning parent ``a``)."""
        if self._rng.random() >= self.config.crossover_rate:
            return a
        child = tuple(
            x if self._rng.random() < 0.5 else y for x, y in zip(a, b)
        )
        return self._repair(child)

    def _tournament(
        self, scored: Sequence[Tuple[Genome, float]]
    ) -> Genome:
        a = self._rng.choice(scored)
        b = self._rng.choice(scored)
        return a[0] if a[1] <= b[1] else b[0]

    # -- main loop ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Generations fully evaluated and bred so far."""
        return self._generation

    @property
    def best(self) -> Optional[Tuple[Genome, float]]:
        """Best (genome, fitness) found so far, or None before step 1."""
        return self._best

    @property
    def done(self) -> bool:
        return self._generation >= self.config.generations

    def initialize(
        self, seed_population: Optional[Sequence[Genome]] = None
    ) -> None:
        """(Re)build the starting population; resets search state."""
        cfg = self.config
        population: List[Genome] = list(seed_population or [])
        for genome in population:
            if len(genome) != cfg.genome_length:
                raise ConfigurationError(
                    "seed genome length does not match the configuration"
                )
        while len(population) < cfg.population_size:
            population.append(self.random_genome())
        self._population = population[: cfg.population_size]
        self._generation = 0
        self._best = None
        self.history = []

    def step(
        self, evaluate: Callable[[Genome], float]
    ) -> Tuple[Genome, float]:
        """Evaluate and breed one generation; returns best-so-far.

        The unit of checkpointing: after any completed step the whole
        instance can be pickled and the search resumed later with
        further :meth:`step` calls — the remaining generations are
        bit-identical to an uninterrupted run.
        """
        if not self._population:
            raise ConfigurationError(
                "step() before initialize(): no population"
            )
        cfg = self.config
        scored = [(genome, evaluate(genome)) for genome in self._population]
        scored.sort(key=lambda pair: pair[1])
        if self._best is None or scored[0][1] < self._best[1]:
            self._best = scored[0]
        self.history.append(scored[0][1])

        next_population: List[Genome] = [
            genome for genome, _ in scored[: cfg.elite_count]
        ]
        while len(next_population) < cfg.population_size:
            parent_a = self._tournament(scored)
            parent_b = self._tournament(scored)
            child = self.mutate(self.crossover(parent_a, parent_b))
            next_population.append(child)
        self._population = next_population
        self._generation += 1
        assert self._best is not None
        return self._best

    def evolve(
        self,
        evaluate: Callable[[Genome], float],
        seed_population: Optional[Sequence[Genome]] = None,
        on_generation: Optional[Callable[["GeneticAlgorithm"], None]] = None,
    ) -> Tuple[Genome, float]:
        """Run the search to completion; returns (best genome, fitness).

        ``evaluate`` maps a genome to a cost (lower is better) and is
        called once per individual per generation — for the online
        tuner each call is a live simulation window, so the total
        budget is ``population_size × generations`` windows.

        ``on_generation`` is invoked with the instance after each
        generation (checkpoint hook).  On a fresh instance the
        population is initialized from ``seed_population``; on one
        restored mid-search the remaining generations run and
        ``seed_population`` is ignored.
        """
        if self._generation == 0 and not self._population:
            self.initialize(seed_population)
        best = self._best
        while not self.done:
            best = self.step(evaluate)
            if on_generation is not None:
                on_generation(self)
        assert best is not None
        return best
