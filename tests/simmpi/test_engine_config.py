"""EngineConfig: the one picklable object that fully describes a run."""

import pickle

import pytest

from repro.simmpi import Engine, EngineConfig, ScheduleTrace, run_program


def _ping_pong(ctx):
    if ctx.rank == 0:
        yield from ctx.comm.isend(b"x" * 64, dest=1, tag=3)
        reply = yield from ctx.comm.recv(source=1, tag=4)
        return reply
    payload = yield from ctx.comm.recv(source=0, tag=3)
    yield from ctx.comm.isend(payload, dest=0, tag=4)
    return payload


class TestConstruction:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.pool_capacity == 512
        assert cfg.schedule is None
        assert cfg.failure_ranks == frozenset()
        assert not cfg.track_recv_counts

    def test_equality_and_hash(self):
        assert EngineConfig() == EngineConfig()
        assert hash(EngineConfig()) == hash(EngineConfig())
        assert EngineConfig(track_recv_counts=True) != EngineConfig()
        trace = ScheduleTrace(((0, (1, 0)),))
        assert hash(EngineConfig(schedule=trace)) == hash(
            EngineConfig(schedule=ScheduleTrace(((0, (1, 0)),)))
        )

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().pool_capacity = 7

    def test_failure_ranks_coerced_to_frozenset(self):
        cfg = EngineConfig(failure_ranks=[3, 1, 3])
        assert cfg.failure_ranks == frozenset({1, 3})
        assert isinstance(cfg.failure_ranks, frozenset)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(pool_capacity=0)
        with pytest.raises(ValueError):
            EngineConfig(schedule="not-an-int")
        with pytest.raises(ValueError):
            EngineConfig(schedule=((0, (1, 0)),))  # entries, not a ScheduleTrace
        with pytest.raises(ValueError):
            EngineConfig(failure_ranks=[-1])


class TestPickling:
    @pytest.mark.parametrize(
        "cfg",
        [
            EngineConfig(),
            EngineConfig(track_recv_counts=True, pool_capacity=16),
            EngineConfig(schedule=42, failure_ranks=(2, 5)),
            EngineConfig(schedule=ScheduleTrace(((3, (2, 0, 1)),))),
        ],
    )
    def test_round_trip(self, cfg):
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert hash(clone) == hash(cfg)


class TestEngineIntegration:
    def test_config_is_primary_constructor(self):
        cfg = EngineConfig(pool_capacity=4, track_recv_counts=True)
        engine = Engine(2, config=cfg)
        assert engine.config is cfg
        assert engine.pool.capacity == 4 and engine.track_recv_counts
        assert Engine(2).config == EngineConfig()
        assert engine.run([_ping_pong] * 2) == Engine(2).run([_ping_pong] * 2)

    def test_config_and_legacy_kwargs_conflict(self):
        """Every knob lives on the config: any loose keyword is a TypeError,
        with or without a config beside it."""
        for loose in (
            {"pool_capacity": 9},
            {"schedule": 1},
            {"track_recv_counts": True},
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                Engine(2, **loose)
            with pytest.raises(TypeError, match="unexpected keyword"):
                Engine(2, config=EngineConfig(), **loose)

    def test_run_program_takes_only_a_config(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_program(_ping_pong, 2, schedule=1)
        assert run_program(
            _ping_pong, 2, config=EngineConfig(schedule=1)
        ) == run_program(_ping_pong, 2)
