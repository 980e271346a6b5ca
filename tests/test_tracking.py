"""Tests for the particle filter and the Likelihood channel feature (§3.2)."""

import random

import pytest

from repro.core import Kind, PerPos
from repro.core.component import ApplicationSink, SourceComponent
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.geo.grid import GridPosition
from repro.model.demo import demo_building
from repro.processing.gps_features import HdopFeature
from repro.processing.pipelines import build_gps_pipeline
from repro.sensors.gps import GpsReceiver, SUBURBAN, constant_environment
from repro.sensors.trajectory import Waypoint, WaypointTrajectory
from repro.tracking.likelihood import LikelihoodFeature
from repro.tracking.motion import PedestrianMotionModel
from repro.tracking.particle_filter import ParticleFilterComponent


class TestMotionModel:
    def test_step_moves_bounded_distance(self):
        model = PedestrianMotionModel(max_speed_mps=2.0, position_jitter_m=0.0)
        rng = random.Random(0)
        start = GridPosition(0.0, 0.0)
        for _ in range(50):
            new, _heading = model.step(rng, start, 0.0, dt=1.0)
            assert start.distance_to(new) <= 2.0 + 1e-9

    def test_floor_preserved(self):
        model = PedestrianMotionModel()
        rng = random.Random(0)
        new, _ = model.step(rng, GridPosition(0, 0, floor=2), 0.0, 1.0)
        assert new.floor == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PedestrianMotionModel(max_speed_mps=0.0)


class TestParticleFilterStandalone:
    def build(self, **kwargs):
        building = demo_building()
        kwargs.setdefault("num_particles", 300)
        kwargs.setdefault("seed", 42)
        pf = ParticleFilterComponent(building, **kwargs)
        graph = ProcessingGraph()
        source = SourceComponent("positions", (Kind.POSITION_WGS84,))
        sink = ApplicationSink("app", (Kind.POSITION_WGS84,))
        graph.add(source)
        graph.add(pf)
        graph.add(sink)
        graph.connect("positions", pf.name)
        graph.connect(pf.name, "app")
        return building, pf, source, sink

    def observe(self, building, x, y, t, accuracy=5.0):
        wgs = building.grid.to_wgs84(GridPosition(x, y))
        wgs = type(wgs)(
            wgs.latitude_deg, wgs.longitude_deg, 0.0, accuracy, t
        )
        return Datum(Kind.POSITION_WGS84, wgs, t, "positions")

    def test_validation(self):
        building = demo_building()
        with pytest.raises(ValueError):
            ParticleFilterComponent(building, num_particles=0)

    def test_initialises_on_first_observation(self):
        building, pf, source, sink = self.build()
        assert not pf.initialised()
        source.inject(self.observe(building, 15.0, 7.5, 0.0))
        assert pf.initialised()
        assert len(pf.particles) == 300
        assert len(sink.received) == 1

    def test_estimate_tracks_observations(self):
        building, pf, source, _sink = self.build()
        for i in range(10):
            source.inject(self.observe(building, 10.0 + i, 7.5, float(i)))
        estimate, _spread = pf.estimate()
        truth = GridPosition(19.0, 7.5)
        assert truth.distance_to(estimate) < 5.0

    def test_estimate_requires_initialisation(self):
        _b, pf, _s, _sink = self.build()
        with pytest.raises(RuntimeError):
            pf.estimate()

    def test_resampling_happens(self):
        building, pf, source, _sink = self.build(resample_threshold=0.9)
        for i in range(15):
            source.inject(self.observe(building, 10.0 + i, 7.5, float(i)))
        assert pf.resamples > 0

    def test_wall_vetoes_counted(self):
        building, pf, source, _sink = self.build()
        for i in range(10):
            source.inject(self.observe(building, 15.0, 7.5, float(i)))
        assert pf.wall_vetoes > 0

    def test_statistics_surface(self):
        building, pf, source, _sink = self.build()
        source.inject(self.observe(building, 15.0, 7.5, 0.0))
        stats = pf.statistics()
        assert stats["particles"] == 300
        assert pf.effective_sample_size() > 0

    def test_particles_stay_mostly_within_walls(self):
        """The location-model constraint keeps hypotheses out of rooms the
        target never entered: observe only corridor positions."""
        building, pf, source, _sink = self.build(num_particles=400)
        for i in range(20):
            source.inject(
                self.observe(building, 5.0 + i, 7.5, float(i), accuracy=4.0)
            )
        in_corridor = sum(
            1
            for p in pf.particles
            if building.room_at(p.position) is not None
            and building.room_at(p.position).room_id == "CORR"
        )
        assert in_corridor / len(pf.particles) > 0.5


class TestLikelihoodFeatureIntegration:
    """Fig. 5 wiring: HDOP component feature + Likelihood channel feature
    + particle filter consuming the likelihood per delivered position."""

    def build_system(self, seed=3):
        building = demo_building()
        grid = building.grid
        outdoor_path = WaypointTrajectory(
            [
                Waypoint(0.0, grid.to_wgs84(GridPosition(-50.0, 7.5))),
                Waypoint(120.0, grid.to_wgs84(GridPosition(-50.0, 180.0))),
            ]
        )
        middleware = PerPos()
        gps = GpsReceiver(
            "gps-dev",
            outdoor_path,
            constant_environment(SUBURBAN),
            seed=seed,
        )
        pipeline = build_gps_pipeline(middleware, gps)
        parser = middleware.graph.component(pipeline.parser)
        parser.attach_feature(HdopFeature())
        pf = ParticleFilterComponent(
            building, pcl=middleware.pcl, num_particles=200, seed=seed
        )
        middleware.graph.add(pf)
        middleware.graph.connect(pipeline.interpreter, pf.name)
        provider = middleware.create_provider(
            "tracker", accepts=(Kind.POSITION_WGS84,)
        )
        middleware.graph.connect(pf.name, provider.sink.name)
        likelihood = LikelihoodFeature()
        channel = middleware.pcl.channel_delivering(
            pf.name, pipeline.interpreter
        )
        channel.attach_feature(likelihood)
        return middleware, outdoor_path, pf, likelihood, provider

    def test_likelihood_requires_hdop_feature(self):
        middleware = PerPos()
        building = demo_building()
        grid = building.grid
        path = WaypointTrajectory(
            [
                Waypoint(0.0, grid.to_wgs84(GridPosition(0.0, 0.0))),
                Waypoint(10.0, grid.to_wgs84(GridPosition(5.0, 0.0))),
            ]
        )
        gps = GpsReceiver("g", path, seed=0)
        pipeline = build_gps_pipeline(middleware, gps, prefix="g")
        sink = middleware.create_provider("app", accepts=(Kind.POSITION_WGS84,))
        middleware.graph.connect(pipeline.interpreter, "app")
        from repro.core.features import FeatureError

        channel = middleware.pcl.channel_delivering(
            "app", pipeline.interpreter
        )
        with pytest.raises(FeatureError):
            channel.attach_feature(LikelihoodFeature())

    def test_apply_collects_hdops_per_position(self):
        _mw, _path, _pf, likelihood, _provider = self.run_system()
        assert likelihood.applications > 0
        assert likelihood.collected_hdops()
        assert likelihood.last_observed() is not None

    def run_system(self):
        middleware, path, pf, likelihood, provider = self.build_system()
        middleware.run_until(60.0)
        return middleware, path, pf, likelihood, provider

    def test_likelihood_higher_near_observation(self):
        _mw, _path, _pf, likelihood, _provider = self.run_system()
        observed = likelihood.last_observed()
        near = likelihood.get_likelihood(observed)
        far = likelihood.get_likelihood(observed.moved(0.0, 500.0))
        assert near > far

    def test_filter_used_channel_likelihood(self):
        _mw, path, pf, _likelihood, provider = self.run_system()
        assert pf.updates > 0
        truth = path.position_at(60.0)
        reported = provider.last_position()
        assert reported is not None
        assert truth.distance_to(reported) < 60.0

    def test_sigma_fallback_without_hdop(self):
        feature = LikelihoodFeature(fallback_sigma_m=25.0)
        assert feature.current_sigma_m() == 25.0
