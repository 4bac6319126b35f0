"""Declarative description of one multi-site optimisation run.

A :class:`Scenario` pins down everything the two-step algorithm needs --
the SOC (by registered benchmark name or as a :class:`~repro.soc.soc.Soc`
object), the :class:`~repro.api.testcell.TestCell` and the
:class:`~repro.optimize.config.OptimizationConfig` -- as one immutable,
hashable value.  Two scenarios that describe the same run compare equal and
hash identically even when one references its SOC by name and the other by
object, which is what lets the :class:`~repro.api.engine.Engine` memoise
results across call sites.

:meth:`Scenario.sweep` expands cartesian parameter grids (benchmarks x
channels x depths x sites x broadcast x solvers x objectives) into
scenario lists for batch execution; it is a thin materialising shim over the lazy
:class:`~repro.api.grid.SweepGrid`, which is the streaming-campaign form
of the same grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

from repro.api.testcell import TestCell
from repro.core.exceptions import ConfigurationError
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.optimize.config import OptimizationConfig
from repro.soc.soc import Soc
from repro.solvers.registry import DEFAULT_SOLVER


#: Instance-dict slot the computed :attr:`Scenario.digest` is cached in.
#: The digest is a plain hex string -- process-independent -- so unlike
#: the structural fingerprints of :mod:`repro.core.fingerprint` it is
#: deliberately *kept* when a scenario is pickled to pool workers.
_DIGEST_SLOT = "_digest"


def digest_of_key(key: tuple) -> str:
    """SHA-256 hex digest of an already-computed canonical key.

    Exactly :attr:`Scenario.digest`, minus the canonical-key walk -- the
    engine's streaming path holds the key for dedup anyway and uses this
    to derive store addresses without re-resolving the scenario.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def cached_digest(scenario: "Scenario", key: tuple) -> str:
    """Digest of ``scenario`` given its known canonical ``key``, cached.

    Seeds the same per-instance cache :attr:`Scenario.digest` reads, so
    every later ``scenario.digest`` access on the instance is free.
    """
    cached = scenario.__dict__.get(_DIGEST_SLOT)
    if cached is None:
        cached = digest_of_key(key)
        object.__setattr__(scenario, _DIGEST_SLOT, cached)
    return cached


def resolve_soc(soc: Soc | str) -> Soc:
    """Resolve a SOC reference: a :class:`Soc` object or a catalog name.

    String references are resolved through the SOC catalog
    (:mod:`repro.soc.catalog`): registered ITC'02 benchmarks, ``pnx8550``,
    parametric synthetic specs (``synthetic:<seed>:<modules>``) and any
    SOC registered via :func:`~repro.soc.catalog.register_catalog_soc`.

    Raises
    ------
    ConfigurationError
        When a string reference names nothing the catalog can resolve.
    """
    if isinstance(soc, Soc):
        return soc
    # Imported lazily so that building scenario lists does not parse any
    # benchmark file until the SOC is actually needed.
    from repro.soc.catalog import resolve_catalog_soc

    return resolve_catalog_soc(soc)


def normalize_solver_options(options: object) -> tuple:
    """Normalise solver options into a canonical name-sorted tuple of pairs.

    Accepts a mapping, an iterable of ``(name, value)`` pairs, or an
    already-normalised tuple.  Values are restricted to plain scalars
    (bool/int/float/str) so option tuples stay hashable, reprable and
    JSON-round-trippable -- the canonical key and the store depend on all
    three.

    Raises
    ------
    ConfigurationError
        On non-pair items, empty/duplicate/non-string names, or
        non-scalar values.
    """
    if isinstance(options, dict):
        items = list(options.items())
    else:
        try:
            items = [tuple(item) for item in options]  # type: ignore[union-attr]
        except TypeError:
            raise ConfigurationError(
                "solver options must be a mapping or (name, value) pairs, "
                f"got {type(options).__name__}"
            ) from None
    pairs = []
    for item in items:
        if len(item) != 2:
            raise ConfigurationError(
                f"solver option items must be (name, value) pairs, got {item!r}"
            )
        name, value = item
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"solver option names must be non-empty strings, got {name!r}"
            )
        if not isinstance(value, (bool, int, float, str)):
            raise ConfigurationError(
                f"solver option {name!r} must be a scalar (bool/int/float/str), "
                f"got {type(value).__name__}"
            )
        pairs.append((name, value))
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate solver option names in {sorted(names)}")
    return tuple(sorted(pairs))


@dataclass(frozen=True, eq=False)
class Scenario:
    """One declarative optimisation run: SOC + test cell + config.

    Attributes
    ----------
    soc:
        The SOC under test, either as an object or as a reference string
        (a registered ITC'02 benchmark name, or ``"pnx8550"``).
    test_cell:
        The fixed wafer-test cell the run targets.
    config:
        Variant switches of the optimisation (broadcast, abort-on-fail,
        objective, yields, site clamps).
    solver:
        Name of the registered solver backend that executes the scenario
        (see :mod:`repro.solvers`); defaults to the paper's greedy two-step
        heuristic (``"goel05"``).  The name is validated when the scenario
        is run, so declaring scenarios never imports the backends.
    objective:
        Name of the registered objective (:mod:`repro.objectives`) the
        solver optimises; defaults to the paper's throughput
        (``"throughput"``).  Like the solver, the name is validated at run
        time, so declaring scenarios never imports the backends.
    solver_options:
        Backend-specific tuning knobs, e.g. the simulated-annealing
        schedule (``temperature``, ``cooling``, ``moves_per_temp``,
        ``restarts``).  Accepts a mapping or an iterable of ``(name,
        value)`` pairs and is normalised to a name-sorted tuple of pairs,
        so two scenarios passing the same knobs in different forms or
        orders compare equal.  Option names are interpreted by the solver
        backend; unknown options are rejected when the scenario runs.
        Like the objective, the options enter the canonical key (and
        therefore digests and store records) **only when non-empty**, so
        every pre-existing scenario key stays valid.
    """

    soc: Soc | str
    test_cell: TestCell
    config: OptimizationConfig = OptimizationConfig()
    solver: str = DEFAULT_SOLVER
    objective: str = DEFAULT_OBJECTIVE
    solver_options: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.soc, (Soc, str)):
            raise ConfigurationError(
                f"scenario SOC must be a Soc or a benchmark name, got {type(self.soc).__name__}"
            )
        if isinstance(self.soc, str) and not self.soc:
            raise ConfigurationError("scenario SOC reference must be non-empty")
        if not isinstance(self.solver, str) or not self.solver:
            raise ConfigurationError("scenario solver must be a non-empty backend name")
        if not isinstance(self.objective, str) or not self.objective:
            raise ConfigurationError("scenario objective must be a non-empty name")
        object.__setattr__(
            self, "solver_options", normalize_solver_options(self.solver_options)
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def soc_name(self) -> str:
        """Name of the referenced SOC without resolving benchmark files."""
        return self.soc if isinstance(self.soc, str) else self.soc.name

    def resolve(self) -> Soc:
        """Resolve the SOC reference into a :class:`Soc` object."""
        return resolve_soc(self.soc)

    def canonical_key(self) -> tuple:
        """Canonical identity of this scenario.

        The key is built from the *resolved* SOC contents, so referencing a
        benchmark by name and by loaded object yields the same key (and
        therefore the same engine cache entry).  Fields that cannot change
        the optimisation outcome are ignored: the cosmetic ``name`` labels
        of the ATE and probe station, and the cell's ``pricing`` model (it
        only feeds cost reporting) -- two experiments sweeping the same
        operating point under different labels or pricing share one cache
        entry.  The solver name *is* part of the key: two backends may find
        different designs for the same operating point.  So is the
        objective name -- the same backend finds different designs when it
        optimises a different objective -- but only when it deviates from
        the default: scenarios running the paper's throughput objective
        keep the exact keys (and digests, and store records) they had
        before the objective registry existed.
        """
        cell = self.test_cell
        cell = replace(
            cell,
            ate=replace(cell.ate, name=""),
            probe_station=replace(cell.probe_station, name=""),
            pricing=None,
        )
        key = (self.resolve(), cell, self.config, self.solver)
        if self.objective != DEFAULT_OBJECTIVE:
            key += (self.objective,)
        if self.solver_options:
            # Appended only when set, and as a tuple (the objective above
            # appends a string), so option-free scenarios keep their
            # pre-solver-options keys and the two extensions cannot
            # collide.
            key += (self.solver_options,)
        return key

    @property
    def digest(self) -> str:
        """Full SHA-256 hex digest of the canonical key.

        This is the scenario's content address: the persistent
        :class:`~repro.store.PackedResultStore` indexes its records by it,
        so any process that builds an equal scenario -- by benchmark name
        or by loaded object, under any cosmetic labels -- reads and writes
        the same record.

        Computed once per instance and cached (the canonical-key walk
        resolves the SOC and hashes its full repr -- too hot to repeat
        for every store probe of a million-scenario campaign).
        """
        cached = self.__dict__.get(_DIGEST_SLOT)
        if cached is None:
            cached = digest_of_key(self.canonical_key())
            object.__setattr__(self, _DIGEST_SLOT, cached)
        return cached

    @property
    def key(self) -> str:
        """Short (16 hex chars) form of :attr:`digest`, used in exported records."""
        return self.digest[:16]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    # ------------------------------------------------------------------
    # Derived scenarios
    # ------------------------------------------------------------------
    def with_soc(self, soc: Soc | str) -> "Scenario":
        """Return a copy targeting a different SOC (object or catalog name)."""
        return replace(self, soc=soc)

    def with_channels(self, channels: int) -> "Scenario":
        """Return a copy whose ATE has ``channels`` channels."""
        return replace(self, test_cell=self.test_cell.with_channels(channels))

    def with_depth(self, depth: int) -> "Scenario":
        """Return a copy whose ATE has a vector-memory depth of ``depth``."""
        return replace(self, test_cell=self.test_cell.with_depth(depth))

    def with_config(self, config: OptimizationConfig) -> "Scenario":
        """Return a copy with a different optimisation config."""
        return replace(self, config=config)

    def with_solver(self, solver: str) -> "Scenario":
        """Return a copy executed by a different solver backend."""
        return replace(self, solver=solver)

    def with_objective(self, objective: str) -> "Scenario":
        """Return a copy optimising a different registered objective."""
        return replace(self, objective=objective)

    def with_solver_options(self, **options: object) -> "Scenario":
        """Return a copy with the given backend knobs (none: reset to default).

        ``scenario.with_solver_options(temperature=2.0, restarts=2)`` tunes
        the backend; the knob names are validated by the solver when the
        scenario runs.
        """
        return replace(self, solver_options=tuple(options.items()))

    def with_sites(self, max_sites: int | None) -> "Scenario":
        """Return a copy with a different equipment limit on the site count."""
        return replace(self, config=self.config.with_site_limit(max_sites))

    def describe(self) -> str:
        """One-line summary used by reports and logs.

        The solver and the objective are mentioned only when they deviate
        from their defaults (the objective under the ``optimize=`` label,
        to keep it apart from the config's D_th/D^u_th ``objective=``
        switch), so reports of default runs read exactly as before the
        solver and objective layers existed.
        """
        solver = "" if self.solver == DEFAULT_SOLVER else f", solver={self.solver}"
        objective = (
            "" if self.objective == DEFAULT_OBJECTIVE else f", optimize={self.objective}"
        )
        options = ""
        if self.solver_options:
            knobs = " ".join(f"{name}={value}" for name, value in self.solver_options)
            options = f", options[{knobs}]"
        return (
            f"scenario[{self.soc_name} @ {self.test_cell.ate.channels}ch x "
            f"{self.test_cell.ate.depth} vectors, "
            f"{self.config.describe()}{solver}{objective}{options}]"
        )

    # ------------------------------------------------------------------
    # Sweep expansion
    # ------------------------------------------------------------------
    @classmethod
    def sweep(
        cls,
        socs: Soc | str | Sequence[Soc | str],
        test_cell: TestCell,
        *,
        channels: Sequence[int] | None = None,
        depths: Sequence[int] | None = None,
        broadcast: Sequence[bool] | bool | None = None,
        max_sites: Sequence[int | None] | None = None,
        config: OptimizationConfig | None = None,
        solvers: Sequence[str] | str | None = None,
        objectives: Sequence[str] | str | None = None,
    ) -> list["Scenario"]:
        """Expand a cartesian parameter grid into a scenario list.

        Every axis is optional; an omitted axis keeps the corresponding value
        of ``test_cell`` / ``config`` (and the default solver and
        objective).  The expansion order is deterministic: SOCs vary
        slowest, then channels, depths, broadcast, site limits, solvers,
        and objectives.

        >>> from repro.api.testcell import reference_test_cell
        >>> cell = reference_test_cell(channels=256, depth_m=0.0625)
        >>> grid = Scenario.sweep("d695", cell, channels=[128, 256], broadcast=[False, True])
        >>> len(grid)
        4
        >>> len(Scenario.sweep("d695", cell, solvers=["goel05", "restart"]))
        2
        """
        # The grid layer owns expansion now; this shim materialises it so
        # the classic list-returning signature keeps working unchanged.
        from repro.api.grid import SweepGrid

        return list(
            SweepGrid(
                socs,
                test_cell,
                channels=channels,
                depths=depths,
                broadcast=broadcast,
                max_sites=max_sites,
                config=config,
                solvers=solvers,
                objectives=objectives,
            )
        )
