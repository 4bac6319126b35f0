"""Unit tests for the result-store JSON codec (repro.store.serialize)."""

import dataclasses
import json

import pytest

from repro.api.scenario import Scenario
from repro.api.testcell import TestCell, reference_test_cell
from repro.core.exceptions import StoreError
from repro.optimize.config import Objective, OptimizationConfig
from repro.optimize.result import TwoStepResult
from repro.optimize.two_step import optimize_multisite
from repro.soc.catalog import resolve_catalog_soc
from repro.store import serialize
from repro.store.serialize import (
    decode_result,
    encode_result,
    register_storable,
    storable_names,
)


# Module-scoped copies of the conftest SOC/ATE (those are function-scoped),
# so the optimisation below runs once for the whole module.
@pytest.fixture(scope="module")
def tiny_soc():
    from repro.soc.builder import SocBuilder

    return (
        SocBuilder("tiny", functional_pins=64)
        .add_module("alpha", inputs=8, outputs=8, bidirs=0,
                    scan_lengths=[100, 100, 90], patterns=50)
        .add_module("beta", inputs=16, outputs=4, bidirs=2,
                    scan_lengths=[200, 150], patterns=120)
        .add_module("gamma", inputs=5, outputs=7, bidirs=0,
                    scan_lengths=[], patterns=30)
        .build()
    )


@pytest.fixture(scope="module")
def small_ate():
    from repro.ate.spec import AteSpec
    from repro.core.units import kilo_vectors

    return AteSpec(channels=64, depth=kilo_vectors(32), frequency_hz=10e6, name="ate-small")


@pytest.fixture(scope="module")
def tiny_result(tiny_soc, small_ate) -> TwoStepResult:
    """A full two-step result on the tiny three-module SOC."""
    return optimize_multisite(tiny_soc, small_ate)


class TestRoundTrip:
    def test_result_round_trips_exactly(self, tiny_result):
        encoded = encode_result(tiny_result)
        rebuilt = decode_result(encoded)
        assert rebuilt == tiny_result
        assert rebuilt is not tiny_result

    def test_round_trip_survives_json_text(self, tiny_result):
        text = json.dumps(encode_result(tiny_result))
        rebuilt = decode_result(json.loads(text))
        assert rebuilt == tiny_result
        # Floats must round-trip bit-exactly through the JSON text.
        assert repr(rebuilt.optimal_throughput) == repr(tiny_result.optimal_throughput)

    def test_enum_and_config_round_trip(self, tiny_result):
        config = OptimizationConfig(objective=Objective.UNIQUE_THROUGHPUT, broadcast=True)
        rebuilt = decode_result(encode_result(config))
        assert rebuilt == config
        assert rebuilt.objective is Objective.UNIQUE_THROUGHPUT

    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "text"):
            assert decode_result(encode_result(value)) == value


class TestInterning:
    def test_shared_soc_encoded_once(self, tiny_result):
        text = json.dumps(encode_result(tiny_result))
        # The SOC appears in every architecture of every site point, but the
        # encoded record must contain it exactly once; later occurrences are
        # back-references.
        assert text.count('"__dataclass__": "Soc"') == 1
        assert text.count('"__dataclass__": "Module"') == len(tiny_result.step1.architecture.soc.modules)

    def test_back_references_restore_identity(self, tiny_result):
        rebuilt = decode_result(encode_result(tiny_result))
        socs = {id(point.architecture.soc) for point in rebuilt.points}
        assert len(socs) == 1


class TestErrors:
    def test_unregistered_type_rejected(self):
        class NotRegistered:
            pass

        with pytest.raises(StoreError):
            encode_result(NotRegistered())

    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Rogue:
            x: int

        with pytest.raises(StoreError):
            encode_result(Rogue(x=1))

    def test_unknown_type_name_rejected_on_decode(self):
        with pytest.raises(StoreError):
            decode_result({"__dataclass__": "NoSuchClass", "__id__": 0, "fields": {}})

    def test_dangling_reference_rejected(self):
        with pytest.raises(StoreError):
            decode_result({"__ref__": 42})

    def test_malformed_node_rejected(self):
        with pytest.raises(StoreError):
            decode_result({"unexpected": 1})
        with pytest.raises(StoreError):
            decode_result([1, 2, 3])

    def test_tampered_fields_fail_validation(self, tiny_result):
        encoded = json.loads(json.dumps(encode_result(tiny_result)))
        # Corrupt the E-RPCT wrapper into a structurally invalid value; the
        # dataclass __post_init__ validation must reject it on decode.
        encoded["fields"]["step1"]["fields"]["erpct"]["fields"]["external_inputs"] = -5
        with pytest.raises(Exception):
            decode_result(encoded)

    def test_register_storable_name_collision(self):
        class TwoStepResult:  # noqa: F811 - deliberate name collision
            pass

        with pytest.raises(StoreError):
            register_storable(TwoStepResult)


class TestRegistry:
    def test_builtin_graph_registered(self):
        names = storable_names()
        for expected in ("TwoStepResult", "Step1Result", "SitePoint", "Soc",
                         "Module", "Objective", "TestArchitecture"):
            assert expected in names

    def test_register_storable_is_idempotent(self):
        from repro.optimize.result import TwoStepResult as real

        assert register_storable(real) is real


class TestScenarioDigest:
    def test_digest_prefix_is_key(self, tiny_soc, small_ate):
        scenario = Scenario(soc=tiny_soc, test_cell=TestCell(ate=small_ate))
        assert scenario.digest.startswith(scenario.key)
        assert len(scenario.digest) == 64
        assert len(scenario.key) == 16

    def test_digest_solver_aware(self, tiny_soc, small_ate):
        base = Scenario(soc=tiny_soc, test_cell=TestCell(ate=small_ate))
        assert base.digest != base.with_solver("restart").digest


class _ReferenceEncoder:
    """The recursive encoder the plan-driven one replaced, kept as an oracle.

    Walks an ``isinstance`` chain and calls :func:`dataclasses.fields` on
    every dataclass node; the shipped encoder must produce the same bytes.
    """

    def __init__(self):
        self._ids = {}
        self._keepalive = []

    def encode(self, obj):
        from enum import Enum

        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, float):
            return obj
        if isinstance(obj, tuple):
            return {"__tuple__": [self.encode(item) for item in obj]}
        if isinstance(obj, Enum):
            name = type(obj).__name__
            if serialize._STORABLE.get(name) is not type(obj):
                raise StoreError(f"enum type {name!r} is not registered as storable")
            return {"__enum__": name, "value": obj.value}
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            name = type(obj).__name__
            if serialize._STORABLE.get(name) is not type(obj):
                raise StoreError(f"type {name!r} is not registered as storable")
            ref = self._ids.get(id(obj))
            if ref is not None:
                return {"__ref__": ref}
            ident = len(self._ids)
            self._ids[id(obj)] = ident
            self._keepalive.append(obj)
            fields = {
                field.name: self.encode(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
                if field.init
            }
            return {"__dataclass__": name, "__id__": ident, "fields": fields}
        raise StoreError(f"cannot encode object of type {type(obj).__name__}")


def _wire(data):
    return json.dumps(data, separators=(",", ":"))


class TestEncodePlans:
    @pytest.mark.parametrize(
        "soc_name, channels, depth_m, config",
        [
            ("d695", 256, 0.0625, OptimizationConfig()),
            ("d695", 128, 0.125, OptimizationConfig(broadcast=True)),
            (
                "d695",
                256,
                0.0625,
                OptimizationConfig(
                    objective=Objective.UNIQUE_THROUGHPUT,
                    abort_on_fail=True,
                    manufacturing_yield=0.8,
                ),
            ),
            ("synthetic:42:8", 256, 2.0, OptimizationConfig()),
            ("synthetic:7:12", 512, 4.0, OptimizationConfig(broadcast=True)),
        ],
    )
    def test_bytes_match_reference_encoder(self, soc_name, channels, depth_m, config):
        cell = reference_test_cell(channels=channels, depth_m=depth_m)
        result = optimize_multisite(
            resolve_catalog_soc(soc_name), cell.ate, cell.probe_station, config
        )
        # Twice: the first encode builds the plans, the second reuses them.
        for _ in range(2):
            assert _wire(encode_result(result)) == _wire(_ReferenceEncoder().encode(result))

    def test_scalars_tuples_and_enums_match_reference_encoder(self):
        value = (1, 2.5, "x", None, True, (Objective.THROUGHPUT, ()), OptimizationConfig())
        assert _wire(encode_result(value)) == _wire(_ReferenceEncoder().encode(value))

    def test_unregistered_dataclass_raises_on_every_encode(self):
        @dataclasses.dataclass(frozen=True)
        class Rogue:
            x: int

        for _ in range(2):
            with pytest.raises(StoreError, match="not registered"):
                encode_result(Rogue(x=1))

    def test_impostor_sharing_a_registered_name_raises(self, tiny_result):
        # Encoding a real result first caches the genuine Soc plan; a
        # different class named Soc must still be rejected, every time.
        encode_result(tiny_result)

        @dataclasses.dataclass(frozen=True)
        class Soc:
            name: str

        for _ in range(2):
            with pytest.raises(StoreError, match="not registered"):
                encode_result(Soc(name="impostor"))
