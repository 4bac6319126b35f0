"""JSON codec for optimisation results (frozen dataclasses in, JSON out).

The persistent :class:`~repro.store.packed.PackedResultStore` keeps one
JSON record per solved scenario.  The record payload is the full
:class:`~repro.optimize.result.TwoStepResult` graph -- nested frozen
dataclasses (architectures, channel groups, modules, wrappers, scenarios)
plus tuples and one enum.  This module converts that graph to and from
JSON-compatible data **exactly**: every ``int``/``float``/``str``/``bool``
field round-trips bit-identically (Python's ``json`` encodes floats via
``repr``, which round-trips), so a result read back from disk is equal to
the result that was written.

Three design points:

* **Type allowlist.**  Only classes registered with
  :func:`register_storable` are encoded/decoded (the whole result graph is
  pre-registered).  Decoding never imports arbitrary code paths from the
  payload -- an unknown type name raises :class:`~repro.core.exceptions.
  StoreError`, which the store treats as a corrupt record.
* **Interning.**  Identical sub-objects are emitted once and back-referenced
  afterwards.  A Step-2 result carries one architecture per evaluated site
  count and each architecture carries the full SOC; interning keeps the
  record small (tens of KB instead of MBs for a d695 result) and makes
  decoding fast enough that a warm store read is far cheaper than re-solving.
* **Encode plans.**  The encoder dispatches on the exact type of each node:
  scalars and plain tuples exit first, and every storable class gets a
  plan -- its registered name, its init field names and whether it is an
  enum -- built the first time it is encoded (after its allowlist check)
  and reused for every later instance, so the per-node
  :func:`dataclasses.fields` walk runs once per class, not once per node.

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
#: ``__tuple__``, enums ``__enum__``, and repeated objects ``__ref__``.
MARKER_KEYS = ("__dataclass__", "__enum__", "__tuple__", "__ref__", "__id__")

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


def encode_result(obj: Any) -> Any:
    """Encode a result graph into JSON-compatible data.

    Raises
    ------
    StoreError
        When the graph contains an object whose type is not registered.
    """
    _ensure_builtin_storables()
    return _Encoder().encode(obj)


def decode_result(data: Any) -> Any:
    """Rebuild a result graph encoded by :func:`encode_result`.

    Dataclass invariants are re-validated on construction (every storable
    type is a frozen dataclass with ``__post_init__`` checks), so a tampered
    payload fails with :class:`~repro.core.exceptions.StoreError` or the
    library's own validation errors -- both of which the store treats as
    corruption, never as a valid hit.
    """
    _ensure_builtin_storables()
    return _Decoder().decode(data)
