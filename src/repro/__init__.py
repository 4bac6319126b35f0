"""repro -- reproduction of Goel & Marinissen, DATE 2005.

On-chip test infrastructure design for optimal multi-site testing of system
chips: module wrappers (COMBINE), TAM / channel-group design, chip-level
E-RPCT wrappers, the multi-site throughput cost model, and the two-step
algorithm that maximises wafer-test throughput on a fixed ATE.

Typical usage -- describe a run as a :class:`Scenario` and execute it with
an :class:`Engine`::

    from repro import Engine, Scenario, reference_test_cell

    cell = reference_test_cell(channels=256, depth_m=0.0625)  # 256 ch x 64 K
    outcome = Engine().run(Scenario(soc="d695", test_cell=cell))
    print(outcome.result.describe())

Scenarios are declarative and hashable: :meth:`Scenario.sweep
<repro.api.scenario.Scenario.sweep>` expands cartesian parameter grids
(benchmarks x channels x depths x broadcast x site limits x solvers), and
``Engine.run_batch(scenarios, workers=4)`` runs them in parallel with an
in-process result cache::

    grid = Scenario.sweep("d695", cell, channels=[128, 256, 512],
                          broadcast=[False, True])
    results = Engine().run_batch(grid, workers=4)

For campaign-scale sweeps the same grids exist in lazy form
(:class:`SweepGrid <repro.api.grid.SweepGrid>`): they iterate scenarios on
demand, shard into disjoint slices for distributed runs, and stream
through ``Engine.run_iter``, which yields results as they complete and
persists each one immediately -- so an interrupted sweep resumes from its
store, recomputing only what never finished::

    from repro import SweepGrid, synthetic_family

    grid = SweepGrid(["d695", "pnx8550", *synthetic_family(42, 10, 8)],
                     cell, channels=[128, 256])
    for outcome in Engine(store="~/.cache/repro-store").run_iter(
            grid.shard(0, 4), workers=4):
        print(outcome.describe())

The SOC axis is name-addressable through the catalog
(:mod:`repro.soc.catalog`): ITC'02 benchmarks, ``pnx8550``, parametric
synthetic families (``"synthetic:<seed>:<modules>"``) and anything
registered via :func:`register_catalog_soc
<repro.soc.catalog.register_catalog_soc>`.  The CLI form is ``python -m
repro sweep``, which streams JSONL records with ``--shard I/N`` and
store-backed ``--resume``.

The optimisation strategy itself is pluggable (:mod:`repro.solvers`): the
paper's greedy two-step is the ``"goel05"`` backend, ``"exhaustive"`` is an
exact oracle for small SOCs, and ``"restart"`` is a deterministic
multi-start greedy that can beat the paper's ordering.  Pick one per
scenario or sweep the backend like any other axis::

    outcome = Engine().run(Scenario(soc="d695", test_cell=cell,
                                    solver="restart"))
    duel = Engine().run_batch(
        Scenario.sweep("d695", cell, solvers=["goel05", "restart"]))

So is *what* gets optimised (:mod:`repro.objectives`): every solver
backend optimises any registered objective -- the paper's ``"throughput"``
(default), ``"test_time"``, ``"cost_per_good_die"`` (Section-7 street
prices) or ``"channel_budget"`` -- through the shared evaluation kernel::

    cheapest = Engine().run(Scenario(soc="d695", test_cell=cell,
                                     objective="cost_per_good_die"))
    grid = SweepGrid("d695", cell, channels=[128, 256],
                     objectives=["throughput", "cost_per_good_die"])

``python -m repro solvers`` / ``objectives`` list the registered backends.
Campaign artifacts -- store directories and sweep JSONL files -- analyse
back into tables with :mod:`repro.analysis` (``python -m repro analyze``):
group-by summaries, best-per-SOC selection and 2-D Pareto fronts
(e.g. test time vs employed ATE capital).  Results can be
persisted across processes with the content-addressed on-disk store
(:mod:`repro.store`): attach one to an engine and equal scenarios are
solved once per *store directory* instead of once per process::

    from repro import Engine

    engine = Engine(store="~/.cache/repro-store")

(or pass ``--store DIR`` to the CLI).  ``python -m repro bench`` times the
registered experiments, solver backends and the d695 sweep, and writes the
machine-readable ``BENCH_<tag>.json`` telemetry record.

The classic free functions remain fully supported as thin entry points::

    from repro import load_benchmark, reference_ate, optimize_multisite

    soc = load_benchmark("d695")
    ate = reference_ate(channels=256, depth_m=0.0625)
    result = optimize_multisite(soc, ate)          # solver="goel05"

The layering of the sub-packages (and where to add a new solver,
experiment or store backend) is documented in ARCHITECTURE.md; the CLI
reference lives in docs/cli.md.  The most commonly used entry points are
re-exported here.
"""

from repro.api import (
    CacheInfo,
    Engine,
    FilteredGrid,
    Grid,
    GridShard,
    GridUnion,
    PlanChunk,
    Scenario,
    ScenarioResult,
    SweepGrid,
    SweepPlan,
    TestCell,
    batch_throughput_series,
    optimize_scenario,
    reference_test_cell,
    resolve_soc,
)
from repro.solvers import (
    DEFAULT_SOLVER,
    SolverSolution,
    TestInfraProblem,
    get_solver,
    list_solvers,
    make_problem,
    register_solver,
    solver_names,
)
from repro.analysis import AnalysisRecord, best_per_soc, load_records, pareto_front
from repro.ate import AteSpec, ProbeStation, AtePricing, reference_ate, reference_probe_station
from repro.objectives import (
    DEFAULT_OBJECTIVE,
    ObjectiveSpec,
    get_objective,
    list_objectives,
    objective_names,
    register_objective,
)
from repro.itc02 import load_benchmark, list_benchmarks, parse_soc_file, write_soc_file
from repro.multisite import MultiSiteScenario, TestTiming, throughput_per_hour
from repro.optimize import (
    Objective,
    OptimizationConfig,
    Step1Result,
    TwoStepResult,
    design_step1_only,
    optimize_multisite,
)
from repro.soc import (
    CatalogEntry,
    Module,
    ScanChain,
    Soc,
    SocBuilder,
    catalog_names,
    list_catalog,
    make_module,
    make_pnx8550,
    make_synthetic_soc,
    register_catalog_soc,
    synthetic_family,
    synthetic_soc_name,
)
from repro.schedule import TestSchedule, build_schedule
from repro.store import (
    PackedResultStore,
    StoreEntry,
    StoreInfo,
    migrate_store,
    open_store,
)
from repro.tam import TestArchitecture, design_architecture
from repro.wrapper import WrapperDesign, design_wrapper, module_test_time

__version__ = "1.9.0"

__all__ = [
    "CacheInfo",
    "Engine",
    "FilteredGrid",
    "Grid",
    "GridShard",
    "GridUnion",
    "PlanChunk",
    "Scenario",
    "ScenarioResult",
    "SweepGrid",
    "SweepPlan",
    "TestCell",
    "batch_throughput_series",
    "optimize_scenario",
    "reference_test_cell",
    "resolve_soc",
    "DEFAULT_SOLVER",
    "SolverSolution",
    "TestInfraProblem",
    "get_solver",
    "list_solvers",
    "make_problem",
    "register_solver",
    "solver_names",
    "DEFAULT_OBJECTIVE",
    "ObjectiveSpec",
    "get_objective",
    "list_objectives",
    "objective_names",
    "register_objective",
    "AnalysisRecord",
    "best_per_soc",
    "load_records",
    "pareto_front",
    "AteSpec",
    "ProbeStation",
    "AtePricing",
    "reference_ate",
    "reference_probe_station",
    "load_benchmark",
    "list_benchmarks",
    "parse_soc_file",
    "write_soc_file",
    "MultiSiteScenario",
    "TestTiming",
    "throughput_per_hour",
    "Objective",
    "OptimizationConfig",
    "Step1Result",
    "TwoStepResult",
    "design_step1_only",
    "optimize_multisite",
    "CatalogEntry",
    "Module",
    "ScanChain",
    "Soc",
    "SocBuilder",
    "catalog_names",
    "list_catalog",
    "make_module",
    "make_pnx8550",
    "make_synthetic_soc",
    "register_catalog_soc",
    "synthetic_family",
    "synthetic_soc_name",
    "TestSchedule",
    "build_schedule",
    "PackedResultStore",
    "StoreEntry",
    "StoreInfo",
    "migrate_store",
    "open_store",
    "TestArchitecture",
    "design_architecture",
    "WrapperDesign",
    "design_wrapper",
    "module_test_time",
    "__version__",
]
