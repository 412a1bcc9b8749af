"""Unit tests for workload assembly, load math and trace I/O."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.types import ServiceClass
from repro.workloads import (
    PoissonArrivals,
    Workload,
    arrival_rate_for_load,
    generate_queries,
    get_workload,
    inverse_proportional_fanout,
    load_trace,
    offered_load,
    save_trace,
    single_class_mix,
    uniform_class_mix,
)
from repro.workloads.generator import QueryStream


@pytest.fixture
def workload():
    bench = get_workload("masstree")
    return Workload(
        name="test",
        arrivals=PoissonArrivals(2.0),
        fanout=inverse_proportional_fanout([1, 10, 100]),
        class_mix=single_class_mix(ServiceClass("single", 1.0)),
        service_time=bench.service_time,
    )


class TestLoadMath:
    def test_rate_load_roundtrip(self):
        rate = arrival_rate_for_load(0.4, 100, 0.176, 2.7)
        assert offered_load(rate, 100, 0.176, 2.7) == pytest.approx(0.4)

    def test_rate_scales_with_servers(self):
        small = arrival_rate_for_load(0.4, 10, 0.2, 2.0)
        large = arrival_rate_for_load(0.4, 100, 0.2, 2.0)
        assert large == pytest.approx(10 * small)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            arrival_rate_for_load(0.0, 100, 0.2, 2.0)
        with pytest.raises(ConfigurationError):
            arrival_rate_for_load(0.4, 0, 0.2, 2.0)
        for load in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                arrival_rate_for_load(load, 100, 0.2, 2.0)

    def test_workload_at_load(self, workload):
        rated = workload.at_load(0.5, 100)
        assert rated.load(100) == pytest.approx(0.5)
        # Original untouched (frozen dataclass semantics).
        assert workload.arrivals.rate == 2.0


class TestGenerateQueries:
    def test_count_and_ordering(self, workload, rng):
        specs = generate_queries(workload, 500, rng)
        assert len(specs) == 500
        times = [s.arrival_time for s in specs]
        assert times == sorted(times)

    def test_ids_sequential(self, workload, rng):
        specs = generate_queries(workload, 10, rng)
        assert [s.query_id for s in specs] == list(range(10))

    def test_reproducible_with_seed(self, workload):
        a = generate_queries(workload, 100, np.random.default_rng(5))
        b = generate_queries(workload, 100, np.random.default_rng(5))
        assert a == b

    def test_fanouts_from_support(self, workload, rng):
        specs = generate_queries(workload, 1000, rng)
        assert {s.fanout for s in specs} <= {1, 10, 100}

    def test_zero_queries(self, workload, rng):
        assert generate_queries(workload, 0, rng) == []


class TestQueryStream:
    def test_stream_monotone_ids_and_times(self, workload, rng):
        stream = QueryStream(workload, rng, block=16)
        specs = [next(stream) for _ in range(50)]
        assert [s.query_id for s in specs] == list(range(50))
        times = [s.arrival_time for s in specs]
        assert times == sorted(times)


class TestTraces:
    def test_save_load_roundtrip(self, workload, rng, tmp_path):
        specs = generate_queries(workload, 50, rng)
        path = tmp_path / "trace.jsonl"
        save_trace(specs, path)
        loaded = load_trace(path)
        assert loaded == specs

    def test_multiclass_roundtrip(self, rng, tmp_path):
        bench = get_workload("shore")
        classes = [ServiceClass("a", 4.0, priority=0),
                   ServiceClass("b", 6.0, priority=1)]
        workload = Workload("multi", PoissonArrivals(1.0),
                            inverse_proportional_fanout([1, 10]),
                            uniform_class_mix(classes), bench.service_time)
        specs = generate_queries(workload, 40, rng)
        path = tmp_path / "trace.jsonl"
        save_trace(specs, path)
        loaded = load_trace(path)
        assert loaded == specs

    def test_servers_preserved(self, tmp_path):
        cls = ServiceClass("a", 1.0)
        specs = [
            QuerySpecWith(servers=(3, 1), cls=cls, qid=0),
        ]
        path = tmp_path / "trace.jsonl"
        save_trace(specs, path)
        assert load_trace(path)[0].servers == (3, 1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_conflicting_class_definitions_rejected(self, tmp_path):
        from repro.types import QuerySpec

        specs = [
            QuerySpec(0, 1.0, 1, ServiceClass("x", 1.0)),
            QuerySpec(1, 2.0, 1, ServiceClass("x", 2.0)),
        ]
        with pytest.raises(ConfigurationError):
            save_trace(specs, tmp_path / "bad.jsonl")


def QuerySpecWith(servers, cls, qid):
    from repro.types import QuerySpec

    return QuerySpec(query_id=qid, arrival_time=1.0, fanout=len(servers),
                     service_class=cls, servers=servers)
