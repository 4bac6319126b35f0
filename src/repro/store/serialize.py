"""JSON codec for optimisation results (frozen dataclasses in, JSON out).

The persistent :class:`~repro.store.packed.PackedResultStore` keeps one
JSON record per solved scenario, whose payload is a
:class:`~repro.optimize.result.TwoStepResult`.  This module converts such
results (and any other registered dataclass graph) to and from
JSON-compatible data **exactly**: every ``int``/``float``/``str``/``bool``
field round-trips bit-identically (Python's ``json`` encodes floats via
``repr``, which round-trips), so a result read back from disk is equal to
the result that was written.

It has two layers.

**The graph codec** (:func:`encode_graph` / :func:`decode_graph`) walks
nested frozen dataclasses (architectures, channel groups, modules,
wrappers, scenarios) plus tuples and one enum:

* **Type allowlist.**  Only classes registered with
  :func:`register_storable` are encoded/decoded (the whole result graph is
  pre-registered).  Decoding never imports arbitrary code paths from the
  payload -- an unknown type name raises :class:`~repro.core.exceptions.
  StoreError`, which the store treats as a corrupt record.
* **Interning.**  Identical sub-objects are emitted once and back-referenced
  afterwards, so the SOC an architecture carries is written once per
  payload however many architectures share it.
* **Encode plans.**  The encoder dispatches on the exact type of each node:
  scalars and plain tuples exit first, and every storable class gets a
  plan -- its registered name, its init field names and whether it is an
  enum -- built the first time it is encoded (after its allowlist check)
  and reused for every later instance, so the per-node
  :func:`dataclasses.fields` walk runs once per class, not once per node.

**The Step-2 column layout** (store format 2) is what
:func:`encode_result` writes for a ``TwoStepResult``.  Step 2 searches the
site count from ``n_max`` down, widening the Step-1 architecture each
time, so a result holds one ``SitePoint`` per site count but only a few
distinct widened architectures, all sharing Step 1's SOC, group indices
and modules.  The payload is therefore tagged ``__two_step__`` and holds:

* ``step1`` -- the :class:`~repro.optimize.result.Step1Result`, once,
  through the graph codec (the SOC embedded once);
* the per-result constants -- ``top`` (the first point's site count),
  ``index_s``, ``contact_s``, ``contact_yield``, ``manufacturing_yield``
  and ``depth`` (the widened architectures' design depth);
* one row per distinct widened architecture -- ``widths`` (its group
  widths, in Step-1 group order) and ``mtime`` (its manufacturing test
  time in seconds);
* one entry per point -- ``arch`` (its architecture row) and ``thr`` (its
  objective value) -- plus ``best``, the index of the best point.

:func:`decode_result` rebuilds every architecture row as one shared
:class:`~repro.tam.architecture.TestArchitecture` and every point's
``TestTiming``/``MultiSiteScenario``/``SitePoint`` through their own
constructors (which re-validate them); ``sites`` counts down from ``top``
and ``channels_per_site`` is the row architecture's ``ate_channels``.  No
solver or kernel call is made.  The encoder checks every assumption the
layout relies on (contiguous descending sites, Step 1's SOC, group indices
and modules in every point, one timing/yield/depth set per result, one
manufacturing time per width row, ``best`` among ``points``); a result
that breaks any of them is written whole through the graph codec instead,
whose root node (``__dataclass__: TwoStepResult``) tags it, so no result
is refused or rebuilt wrong.

The codec is deliberately independent of the scenario layer: it serialises
*results*; scenario identity is handled by the store via the scenario's
canonical digest.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any

from repro.core.exceptions import StoreError

#: Reserved marker keys of the wire format.  Encoded dataclasses are tagged
#: ``__dataclass__`` (+ ``__id__`` for back-references), tuples
#: ``__tuple__``, enums ``__enum__``, repeated objects ``__ref__``, and a
#: Step-2 result in the column layout ``__two_step__``.
MARKER_KEYS = ("__dataclass__", "__enum__", "__tuple__", "__ref__", "__id__", "__two_step__")

#: The column-layout marker key.
TWO_STEP = "__two_step__"

_STORABLE: dict[str, type] = {}


def register_storable(cls: type) -> type:
    """Register ``cls`` (a dataclass or :class:`~enum.Enum`) as storable.

    Registration is by class name, which therefore must be unique among
    storable types.  Returns ``cls`` so it can be used as a decorator by
    extensions that persist their own result types.
    """
    name = cls.__name__
    registered = _STORABLE.get(name)
    if registered is not None and registered is not cls:
        raise StoreError(f"storable type name {name!r} is already registered")
    _STORABLE[name] = cls
    return cls


def _ensure_builtin_storables() -> None:
    """Register the full result graph (imported lazily to avoid cycles)."""
    if "TwoStepResult" in _STORABLE:
        return
    from repro.ate.probe_station import ProbeStation
    from repro.ate.spec import AteSpec
    from repro.multisite.cost_model import TestTiming
    from repro.multisite.throughput import MultiSiteScenario
    from repro.optimize.config import Objective, OptimizationConfig
    from repro.optimize.result import SitePoint, Step1Result, TwoStepResult
    from repro.rpct.wrapper import ErpctWrapper
    from repro.soc.module import Module, ScanChain
    from repro.soc.soc import Soc
    from repro.tam.architecture import TestArchitecture
    from repro.tam.channel_group import ChannelGroup

    for cls in (
        AteSpec,
        ChannelGroup,
        ErpctWrapper,
        Module,
        MultiSiteScenario,
        Objective,
        OptimizationConfig,
        ProbeStation,
        ScanChain,
        SitePoint,
        Soc,
        Step1Result,
        TestArchitecture,
        TestTiming,
        TwoStepResult,
    ):
        register_storable(cls)


def storable_names() -> tuple[str, ...]:
    """Names of every registered storable type, sorted."""
    _ensure_builtin_storables()
    return tuple(sorted(_STORABLE))


#: Types whose instances encode as themselves.
_SCALAR_TYPES = frozenset({type(None), bool, int, float, str})

#: Per-class encode plans: ``(registered name, init field names, is enum)``.
#: Built lazily on a class's first encode, and only once the class passed
#: the allowlist check -- an unregistered type never gets a plan, so it
#: raises on every encode.
_PLANS: dict[type, tuple[str, tuple[str, ...], bool]] = {}


def _plan_for(cls: type) -> tuple[str, tuple[str, ...], bool]:
    """Build, allowlist-check and cache the encode plan of ``cls``."""
    name = cls.__name__
    if issubclass(cls, Enum):
        if _STORABLE.get(name) is not cls:
            raise StoreError(f"enum type {name!r} is not registered as storable")
        plan = (name, (), True)
    elif dataclasses.is_dataclass(cls):
        if _STORABLE.get(name) is not cls:
            raise StoreError(f"type {name!r} is not registered as storable")
        fields = tuple(field.name for field in dataclasses.fields(cls) if field.init)
        plan = (name, fields, False)
    else:
        raise StoreError(f"cannot encode object of type {name}")
    _PLANS[cls] = plan
    return plan


class _Encoder:
    """One encoding pass; owns the interning memo."""

    def __init__(self) -> None:
        self._ids: dict[int, int] = {}
        # Keeps encoded objects alive so CPython cannot recycle an id()
        # for a different object within this pass.
        self._keepalive: list[Any] = []

    def encode(self, obj: Any) -> Any:
        cls = type(obj)
        if cls in _SCALAR_TYPES:
            return obj
        if cls is tuple:
            return {"__tuple__": [self.encode(item) for item in obj]}
        plan = _PLANS.get(cls)
        if plan is None:
            # Subclasses of the scalar and tuple types (str- or int-valued
            # enums among them) encode like their base, as they always have.
            if isinstance(obj, (bool, int, str, float)):
                return obj
            if isinstance(obj, tuple):
                return {"__tuple__": [self.encode(item) for item in obj]}
            plan = _plan_for(cls)
        name, fields, is_enum = plan
        if is_enum:
            return {"__enum__": name, "value": obj.value}
        ref = self._ids.get(id(obj))
        if ref is not None:
            return {"__ref__": ref}
        ident = len(self._ids)
        self._ids[id(obj)] = ident
        self._keepalive.append(obj)
        encode = self.encode
        return {
            "__dataclass__": name,
            "__id__": ident,
            "fields": {field: encode(getattr(obj, field)) for field in fields},
        }


class _Decoder:
    """One decoding pass; resolves back-references as they appear."""

    def __init__(self) -> None:
        self._table: dict[int, Any] = {}

    def decode(self, data: Any) -> Any:
        if data is None or isinstance(data, (bool, int, float, str)):
            return data
        if not isinstance(data, dict):
            raise StoreError(f"malformed payload node of type {type(data).__name__}")
        if "__ref__" in data:
            ref = data["__ref__"]
            if ref not in self._table:
                raise StoreError(f"dangling back-reference {ref!r}")
            return self._table[ref]
        if "__tuple__" in data:
            items = data["__tuple__"]
            if not isinstance(items, list):
                raise StoreError("malformed tuple payload")
            return tuple(self.decode(item) for item in items)
        if "__enum__" in data:
            cls = _STORABLE.get(data["__enum__"])
            if cls is None or not issubclass(cls, Enum):
                raise StoreError(f"unknown enum type {data.get('__enum__')!r}")
            try:
                return cls(data["value"])
            except (KeyError, ValueError) as error:
                raise StoreError(f"invalid enum payload: {error}") from error
        if "__dataclass__" in data:
            cls = _STORABLE.get(data["__dataclass__"])
            if cls is None or not dataclasses.is_dataclass(cls):
                raise StoreError(f"unknown storable type {data.get('__dataclass__')!r}")
            fields = data.get("fields")
            if not isinstance(fields, dict):
                raise StoreError(f"malformed fields payload for {cls.__name__}")
            try:
                obj = cls(**{name: self.decode(value) for name, value in fields.items()})
            except TypeError as error:
                raise StoreError(f"cannot rebuild {cls.__name__}: {error}") from error
            if "__id__" in data:
                self._table[data["__id__"]] = obj
            return obj
        raise StoreError(f"malformed payload node with keys {sorted(data)!r}")


def encode_graph(obj: Any) -> Any:
    """Encode a registered dataclass graph into JSON-compatible data.

    Raises
    ------
    StoreError
        When the graph contains an object whose type is not registered.
    """
    _ensure_builtin_storables()
    return _Encoder().encode(obj)


def decode_graph(data: Any) -> Any:
    """Rebuild a graph encoded by :func:`encode_graph`.

    Dataclass invariants are re-validated on construction (every storable
    type is a frozen dataclass with ``__post_init__`` checks), so a tampered
    payload fails with :class:`~repro.core.exceptions.StoreError` or the
    library's own validation errors -- both of which the store treats as
    corruption, never as a valid hit.
    """
    _ensure_builtin_storables()
    return _Decoder().decode(data)


def _is_int(value: Any) -> bool:
    return type(value) is int


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _encode_two_step(result: Any) -> dict | None:
    """The column layout of a Step-2 result, or ``None`` when it does not fit.

    ``None`` means some assumption of the layout fails for this result;
    the caller then stores it through the graph codec.
    """
    from repro.multisite.cost_model import TestTiming
    from repro.multisite.throughput import MultiSiteScenario
    from repro.optimize.result import SitePoint
    from repro.tam.architecture import TestArchitecture
    from repro.tam.channel_group import ChannelGroup

    base = result.step1.architecture
    soc = base.soc
    base_groups = base.groups
    points = result.points
    if type(points) is not tuple or not points or type(points[0]) is not SitePoint:
        return None
    first = points[0].scenario
    if type(first) is not MultiSiteScenario or type(first.timing) is not TestTiming:
        return None
    top = points[0].sites
    depth = points[0].architecture.depth
    index_s = first.timing.index_time_s
    contact_s = first.timing.contact_test_time_s
    contact_yield = first.contact_yield
    manufacturing_yield = first.manufacturing_yield
    if not (_is_int(top) and _is_int(depth)):
        return None
    if not all(
        _is_number(value)
        for value in (index_s, contact_s, contact_yield, manufacturing_yield)
    ):
        return None

    # Rows by architecture identity (points of one width share one object)
    # and by width vector (equal architectures built separately).
    row_of_object: dict[int, tuple[int, int]] = {}
    row_of_widths: dict[tuple[int, ...], int] = {}
    widths: list[list[int]] = []
    mtimes: list[float] = []
    arch: list[int] = []
    thr: list[float] = []
    best = result.best
    best_index = -1
    for position, point in enumerate(points):
        if type(point) is not SitePoint or point.sites != top - position:
            return None
        scenario = point.scenario
        if type(scenario) is not MultiSiteScenario:
            return None
        timing = scenario.timing
        if (
            type(timing) is not TestTiming
            or scenario.sites != point.sites
            or timing.index_time_s != index_s
            or timing.contact_test_time_s != contact_s
            or scenario.contact_yield != contact_yield
            or scenario.manufacturing_yield != manufacturing_yield
        ):
            return None
        architecture = point.architecture
        known = row_of_object.get(id(architecture))
        if known is None:
            if (
                type(architecture) is not TestArchitecture
                or architecture.depth != depth
                or (architecture.soc is not soc and architecture.soc != soc)
                or len(architecture.groups) != len(base_groups)
            ):
                return None
            for group, origin in zip(architecture.groups, base_groups):
                if (
                    type(group) is not ChannelGroup
                    or not _is_int(group.width)
                    or group.index != origin.index
                    or (group.modules is not origin.modules and group.modules != origin.modules)
                ):
                    return None
            key = tuple(group.width for group in architecture.groups)
            row = row_of_widths.get(key)
            if row is None:
                mtime = timing.manufacturing_test_time_s
                if not _is_number(mtime):
                    return None
                row = len(widths)
                row_of_widths[key] = row
                widths.append(list(key))
                mtimes.append(mtime)
            known = (row, architecture.ate_channels)
            row_of_object[id(architecture)] = known
        row, channels = known
        throughput = point.throughput
        if (
            timing.manufacturing_test_time_s != mtimes[row]
            or point.channels_per_site != channels
            or scenario.channels_per_site != channels
            or not _is_number(throughput)
        ):
            return None
        if point is best:
            best_index = position
        arch.append(row)
        thr.append(throughput)
    if best_index < 0:
        best_index = next(
            (position for position, point in enumerate(points) if point == best), -1
        )
        if best_index < 0:
            return None
    return {
        TWO_STEP: {
            "step1": _Encoder().encode(result.step1),
            "top": top,
            "index_s": index_s,
            "contact_s": contact_s,
            "contact_yield": contact_yield,
            "manufacturing_yield": manufacturing_yield,
            "depth": depth,
            "widths": widths,
            "mtime": mtimes,
            "arch": arch,
            "thr": thr,
            "best": best_index,
        }
    }


def _decode_two_step(data: Any) -> Any:
    """Rebuild a Step-2 result from its column layout; raises on any defect."""
    from repro.multisite.cost_model import TestTiming
    from repro.multisite.throughput import MultiSiteScenario
    from repro.optimize.result import SitePoint, Step1Result, TwoStepResult
    from repro.tam.architecture import TestArchitecture
    from repro.tam.channel_group import ChannelGroup

    if not isinstance(data, dict):
        raise StoreError("malformed two-step payload")
    try:
        step1 = _Decoder().decode(data["step1"])
        top, depth, best = data["top"], data["depth"], data["best"]
        constants = (
            data["index_s"], data["contact_s"],
            data["contact_yield"], data["manufacturing_yield"],
        )
        widths, mtimes, arch, thr = data["widths"], data["mtime"], data["arch"], data["thr"]
    except KeyError as error:
        raise StoreError(f"two-step payload has no {error.args[0]!r} column") from error
    if type(step1) is not Step1Result:
        raise StoreError(f"two-step payload step1 is a {type(step1).__name__}")
    if not (_is_int(top) and _is_int(depth) and _is_int(best)):
        raise StoreError("two-step payload top/depth/best must be integers")
    if not all(_is_number(value) for value in constants):
        raise StoreError("two-step payload timing and yields must be numbers")
    if not all(isinstance(column, list) for column in (widths, mtimes, arch, thr)):
        raise StoreError("two-step payload columns must be lists")
    if not widths or len(mtimes) != len(widths):
        raise StoreError("two-step payload widths/mtime columns differ in length")
    if not arch or len(thr) != len(arch):
        raise StoreError("two-step payload arch/thr columns differ in length")
    if top - len(arch) < 0:
        raise StoreError("two-step payload site range runs below one site")
    if not 0 <= best < len(arch):
        raise StoreError(f"two-step payload best index {best} is out of range")
    index_s, contact_s, contact_yield, manufacturing_yield = constants

    base = step1.architecture
    soc = base.soc
    base_groups = base.groups
    # Groups whose width a row leaves unchanged are shared, fills and all.
    group_cache = {
        (position, group.width): group for position, group in enumerate(base_groups)
    }
    rows = []
    for row_widths, mtime in zip(widths, mtimes):
        if not isinstance(row_widths, list) or len(row_widths) != len(base_groups):
            raise StoreError("two-step payload width row does not match the Step-1 groups")
        if not _is_number(mtime):
            raise StoreError("two-step payload manufacturing time must be a number")
        groups = []
        for position, width in enumerate(row_widths):
            if not _is_int(width):
                raise StoreError("two-step payload widths must be integers")
            group = group_cache.get((position, width))
            if group is None:
                origin = base_groups[position]
                group = ChannelGroup(index=origin.index, width=width, modules=origin.modules)
                group_cache[(position, width)] = group
            groups.append(group)
        architecture = TestArchitecture(soc=soc, groups=tuple(groups), depth=depth)
        timing = TestTiming(
            index_time_s=index_s,
            contact_test_time_s=contact_s,
            manufacturing_test_time_s=mtime,
        )
        rows.append((architecture, timing, architecture.ate_channels))

    points = []
    for offset, (row, throughput) in enumerate(zip(arch, thr)):
        if not _is_int(row) or not 0 <= row < len(rows):
            raise StoreError(f"two-step payload architecture index {row!r} is out of range")
        if not _is_number(throughput):
            raise StoreError("two-step payload objective values must be numbers")
        architecture, timing, channels = rows[row]
        sites = top - offset
        points.append(
            SitePoint(
                sites=sites,
                channels_per_site=channels,
                architecture=architecture,
                scenario=MultiSiteScenario(
                    sites=sites,
                    timing=timing,
                    channels_per_site=channels,
                    contact_yield=contact_yield,
                    manufacturing_yield=manufacturing_yield,
                ),
                throughput=throughput,
            )
        )
    return TwoStepResult(step1=step1, points=tuple(points), best=points[best])


def encode_result(obj: Any) -> Any:
    """Encode a result into JSON-compatible data.

    A :class:`~repro.optimize.result.TwoStepResult` is written in the
    Step-2 column layout when it fits (see the module docstring) and
    through the graph codec otherwise; any other registered object goes
    through the graph codec.

    Raises
    ------
    StoreError
        When the graph contains an object whose type is not registered.
    """
    _ensure_builtin_storables()
    if type(obj) is _STORABLE["TwoStepResult"]:
        columns = _encode_two_step(obj)
        if columns is not None:
            return columns
    return _Encoder().encode(obj)


def decode_result(data: Any) -> Any:
    """Rebuild a result encoded by :func:`encode_result`.

    Both layouts are re-validated through the result types' own
    constructors, so a tampered payload fails with
    :class:`~repro.core.exceptions.StoreError` or the library's own
    validation errors -- both of which the store treats as corruption,
    never as a valid hit.
    """
    _ensure_builtin_storables()
    if isinstance(data, dict) and TWO_STEP in data:
        return _decode_two_step(data[TWO_STEP])
    return _Decoder().decode(data)
