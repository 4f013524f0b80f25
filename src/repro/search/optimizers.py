"""Seeded black-box optimizers over a :class:`~repro.search.space.SearchSpace`.

All optimizers speak one generation-oriented protocol: :meth:`ask`
proposes a batch of points, the driver evaluates the whole batch as one
dense lockstep batch through the kernel, and :meth:`tell` feeds the
scores back (higher is better).  Four implementations:

* :class:`GridSearch` — exhaustive product-grid enumeration in a fixed
  order; this *is* the Table IV-style sweep and serves as the baseline
  the adaptive optimizers are measured against.
* :class:`RandomSearch` — uniform seeded sampling (the paper's
  Random-ST+DUR analogue in search form).
* :class:`HillClimb` — coordinate hill-climbing with step decay and
  random restarts.
* :class:`CrossEntropy` — a small CEM: sample a Gaussian in unit space,
  refit it on the elite fraction each generation.

Determinism contract: an optimizer's proposals are a pure function of
``(space, seed, generation_size)`` and the sequence of ``tell`` calls —
never of wall-clock, evaluation order within a generation, or how the
driver executed the simulations.  The search driver relies on this for
*resume by replay*: a rerun on the run cache of an interrupted search
replays ask/tell against the cached results, reproducing the
interrupted run's trajectory exactly.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.search.space import Point, SearchSpace


@dataclass(frozen=True)
class Told:
    """One evaluated proposal reported back to the optimizer."""

    point: Point
    score: float


class Optimizer:
    """Base class: seeded RNG plus the ask/tell protocol."""

    #: Registry name (also used in search results and experiment rows).
    name: str = "abstract"

    def __init__(self, space: SearchSpace, seed: int = 0, generation_size: int = 8):
        if generation_size < 1:
            raise ValueError("generation_size must be >= 1")
        self.space = space
        self.seed = seed
        self.generation_size = generation_size
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, space.ndim]))

    def ask(self) -> List[Point]:
        """Propose the next generation of points."""
        raise NotImplementedError

    def tell(self, told: Sequence[Told]) -> None:
        """Report the scores of (a subset of) the last generation."""
        raise NotImplementedError


class GridSearch(Optimizer):
    """Exhaustive enumeration of the space's product grid.

    The non-adaptive baseline: proposals are consecutive chunks of
    :meth:`SearchSpace.grid`, independent of every ``tell``.
    """

    name = "grid"

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        generation_size: int = 8,
        steps: int = 4,
    ):
        super().__init__(space, seed, generation_size)
        self.steps = steps
        self._grid: Iterator[Point] = space.grid(steps)

    def ask(self) -> List[Point]:
        generation = []
        for point in self._grid:
            generation.append(point)
            if len(generation) == self.generation_size:
                break
        return generation

    def tell(self, told: Sequence[Told]) -> None:
        pass


class RandomSearch(Optimizer):
    """Uniform seeded random sampling."""

    name = "random"

    def ask(self) -> List[Point]:
        return [self.space.random_point(self.rng) for _ in range(self.generation_size)]

    def tell(self, told: Sequence[Told]) -> None:
        pass


class HillClimb(Optimizer):
    """Coordinate hill-climb with step decay and random restarts.

    Each generation perturbs one coordinate of the current incumbent per
    proposal (plus an ``explore_fraction`` of uniform samples); when a
    generation brings no improvement the step halves, and after
    ``patience`` stale generations the climb restarts from fresh random
    points.  The globally best evaluation is tracked by the
    :class:`~repro.search.driver.SearchDriver`, not here — a restart
    deliberately abandons the incumbent.
    """

    name = "hill-climb"

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        generation_size: int = 8,
        initial_step: float = 0.25,
        patience: int = 3,
        explore_fraction: float = 0.25,
    ):
        super().__init__(space, seed, generation_size)
        self.initial_step = initial_step
        self.patience = patience
        self.explore_fraction = explore_fraction
        self._step = initial_step
        self._stale = 0
        self._current: Optional[Told] = None

    def ask(self) -> List[Point]:
        rng = self.rng
        space = self.space
        if self._current is None:
            return [space.random_point(rng) for _ in range(self.generation_size)]
        generation: List[Point] = []
        for _ in range(self.generation_size):
            if rng.random() < self.explore_fraction:
                generation.append(space.random_point(rng))
                continue
            coordinates = list(self._current.point)
            axis = int(rng.integers(space.ndim))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            magnitude = self._step * float(rng.uniform(0.25, 1.0))
            coordinates[axis] = min(1.0, max(0.0, coordinates[axis] + sign * magnitude))
            generation.append(space.quantize(coordinates))
        return generation

    def tell(self, told: Sequence[Told]) -> None:
        improved = False
        for item in told:
            if self._current is None or item.score > self._current.score:
                self._current = item
                improved = True
        if improved:
            self._stale = 0
            return
        self._stale += 1
        self._step = max(self._step * 0.5, 1.0 / self.space.resolution)
        if self._stale >= self.patience:
            # Restart the climb from scratch; ask() resamples uniformly.
            self._current = None
            self._step = self.initial_step
            self._stale = 0


class CrossEntropy(Optimizer):
    """Cross-entropy method: Gaussian proposal refit on the elites.

    The proposal distribution is an axis-aligned Gaussian on the unit
    cube (categoricals participate through their continuous relaxation —
    the decoder buckets the coordinate).  Each ``tell`` refits mean and
    std on the top ``elite_fraction`` of the generation, smoothed towards
    the previous parameters, with a std floor that keeps exploration
    alive.
    """

    name = "cem"

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        generation_size: int = 8,
        elite_fraction: float = 0.25,
        smoothing: float = 0.7,
        std_floor: float = 0.03,
    ):
        super().__init__(space, seed, generation_size)
        if not 0.0 < elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        self.elite_fraction = elite_fraction
        self.smoothing = smoothing
        self.std_floor = std_floor
        self._mean = np.full(space.ndim, 0.5)
        self._std = np.full(space.ndim, 0.3)

    def ask(self) -> List[Point]:
        samples = self.rng.normal(
            self._mean, self._std, size=(self.generation_size, self.space.ndim)
        )
        np.clip(samples, 0.0, 1.0, out=samples)
        return [self.space.quantize(row) for row in samples]

    def tell(self, told: Sequence[Told]) -> None:
        if not told:
            return
        elite_count = max(1, int(round(self.elite_fraction * len(told))))
        # Deterministic ranking: score descending, point tuple as the
        # tie-break so equal scores order identically everywhere.
        ranked = sorted(told, key=lambda item: (-item.score, item.point))
        elites = np.array([item.point for item in ranked[:elite_count]])
        new_mean = elites.mean(axis=0)
        new_std = elites.std(axis=0)
        smoothing = self.smoothing
        self._mean = smoothing * new_mean + (1.0 - smoothing) * self._mean
        self._std = np.maximum(
            smoothing * new_std + (1.0 - smoothing) * self._std, self.std_floor
        )


OptimizerFactory = Callable[[SearchSpace], Optimizer]

_OPTIMIZERS: Dict[str, type] = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    HillClimb.name: HillClimb,
    CrossEntropy.name: CrossEntropy,
}


def optimizer_names() -> List[str]:
    """Registry names, adaptive optimizers first, baseline last."""
    return [RandomSearch.name, HillClimb.name, CrossEntropy.name, GridSearch.name]


def make_optimizer(
    name: str, space: SearchSpace, seed: int = 0, generation_size: int = 8, **kwargs
) -> Optimizer:
    """Construct an optimizer from its registry name."""
    try:
        cls = _OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_OPTIMIZERS))
        raise KeyError(f"unknown optimizer {name!r}; known optimizers: {known}") from None
    return cls(space, seed=seed, generation_size=generation_size, **kwargs)
