"""Tests for simulated distribution (hosts, network, proxies)."""

import dataclasses

import pytest

from repro.clock import SimulationClock
from repro.services.remote import Host, Network, RetryPolicy


class Calculator:
    """A service with both methods and plain attributes."""

    value = 42

    def add(self, a, b):
        return a + b

    def fail(self):
        raise RuntimeError("remote failure")


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def fetch(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError(f"attempt {self.calls} lost")
        return "payload"


def make_pair():
    network = Network()
    mobile = Host("mobile", network)
    server = Host("server", network)
    return network, mobile, server


class TestExportImport:
    def test_remote_call_returns_result(self):
        _network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        assert proxy.add(2, 3) == 5

    def test_import_unknown_service_raises(self):
        _network, mobile, server = make_pair()
        with pytest.raises(LookupError):
            mobile.import_service(server, "nothing")

    def test_imported_service_visible_in_local_registry(self):
        _network, mobile, server = make_pair()
        server.export("calc", Calculator())
        mobile.import_service(server, "calc")
        imported = mobile.framework.registry.get_reference("calc")
        assert imported.property("service.imported") is True
        assert imported.property("remote.host") == "server"

    def test_export_tagged_with_host(self):
        _network, _mobile, server = make_pair()
        server.export("calc", Calculator())
        ref = server.framework.registry.get_reference("calc")
        assert ref.property("remote.host") == "server"


class TestTrafficAccounting:
    def test_each_call_records_request_and_response(self):
        network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        proxy.add(1, 2)
        proxy.add(3, 4)
        assert network.message_count(source="mobile") == 2
        assert network.message_count(source="server") == 2
        assert network.message_count() == 4

    def test_bytes_are_positive_and_direction_filtered(self):
        network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        proxy.add(10, 20)
        assert network.bytes_sent(source="mobile", destination="server") > 0
        assert network.bytes_sent(source="server", destination="mobile") > 0
        assert network.bytes_sent(source="server", destination="ghost") == 0

    def test_call_counts_per_method(self):
        _network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        proxy.add(1, 1)
        proxy.add(2, 2)
        assert proxy.call_counts == {"add": 2}

    def test_messages_timestamped_from_clock(self):
        clock = SimulationClock()
        network = Network(clock=clock)
        mobile = Host("mobile", network)
        server = Host("server", network)
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        clock.advance(12.5)
        proxy.add(1, 1)
        assert all(m.time_s == 12.5 for m in network.messages)

    def test_reset_clears_history(self):
        network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        proxy.add(1, 1)
        network.reset()
        assert network.message_count() == 0


class TestProxySemantics:
    def test_non_callable_attribute_access_raises(self):
        _network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        with pytest.raises(AttributeError):
            _ = proxy.value

    def test_remote_exception_propagates(self):
        network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        with pytest.raises(RuntimeError):
            proxy.fail()
        # The request was sent even though the call failed.
        assert network.message_count(source="mobile") == 1

    def test_failed_call_records_error_message_and_count(self):
        network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        with pytest.raises(RuntimeError):
            proxy.fail()
        # Request/error form a matched pair on the ledger.
        descriptions = [m.description for m in network.messages]
        assert descriptions == ["calc.fail:request", "calc.fail:error"]
        error = network.messages[-1]
        assert error.source == "server"
        assert error.destination == "mobile"
        assert proxy.failure_counts == {"fail": 1}
        assert proxy.call_counts == {"fail": 1}

    def test_missing_method_raises_attribute_error(self):
        _network, mobile, server = make_pair()
        server.export("calc", Calculator())
        proxy = mobile.import_service(server, "calc")
        with pytest.raises(AttributeError):
            proxy.no_such_method()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def make_pair_with_clock(self):
        clock = SimulationClock()
        network = Network(clock=clock)
        mobile = Host("mobile", network)
        server = Host("server", network)
        return clock, network, mobile, server

    def test_retry_recovers_from_transient_failures(self):
        clock, network, mobile, server = self.make_pair_with_clock()
        service = Flaky(failures=2)
        server.export("flaky", service)
        proxy = mobile.import_service(
            server, "flaky", retry=RetryPolicy(max_attempts=3)
        )
        assert proxy.fetch() == "payload"
        assert service.calls == 3
        assert proxy.call_counts == {"fetch": 3}
        assert proxy.failure_counts == {"fetch": 2}
        # Every attempt is on the ledger: 3 requests, 2 errors, 1 response.
        descriptions = [m.description for m in network.messages]
        assert descriptions.count("flaky.fetch:request") == 3
        assert descriptions.count("flaky.fetch:error") == 2
        assert descriptions.count("flaky.fetch:response") == 1

    def test_backoff_advances_simulated_clock_exponentially(self):
        clock, network, mobile, server = self.make_pair_with_clock()
        server.export("flaky", Flaky(failures=2))
        proxy = mobile.import_service(
            server,
            "flaky",
            retry=RetryPolicy(
                max_attempts=3, backoff_s=0.1, multiplier=2.0
            ),
        )
        proxy.fetch()
        # 0.1 s after the first failure, 0.2 s after the second.
        assert clock.now == pytest.approx(0.3)
        times = [
            m.time_s
            for m in network.messages
            if m.description == "flaky.fetch:request"
        ]
        assert times == [0.0, pytest.approx(0.1), pytest.approx(0.3)]

    def test_attempts_are_bounded_and_last_error_reraises(self):
        clock, network, mobile, server = self.make_pair_with_clock()
        service = Flaky(failures=10)
        server.export("flaky", service)
        proxy = mobile.import_service(
            server, "flaky", retry=RetryPolicy(max_attempts=3)
        )
        with pytest.raises(ConnectionError):
            proxy.fetch()
        assert service.calls == 3
        assert proxy.failure_counts == {"fetch": 3}
        # No backoff after the final attempt.
        assert clock.now == pytest.approx(0.3)

    def test_clockless_network_retries_without_delay(self):
        network, mobile, server = make_pair()
        server.export("flaky", Flaky(failures=1))
        proxy = mobile.import_service(
            server, "flaky", retry=RetryPolicy(max_attempts=2)
        )
        assert proxy.fetch() == "payload"
        assert proxy.failure_counts == {"fetch": 1}

    def test_no_retry_without_policy(self):
        _network, mobile, server = make_pair()
        service = Flaky(failures=1)
        server.export("flaky", service)
        proxy = mobile.import_service(server, "flaky")
        with pytest.raises(ConnectionError):
            proxy.fetch()
        assert service.calls == 1

    def test_zero_attempt_configs_rejected_and_policy_frozen(self):
        # max_attempts counts the first try, so zero (or fewer) attempts
        # would mean "never call at all" -- invalid by construction.
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-3)
        policy = RetryPolicy()
        assert (policy.max_attempts, policy.backoff_s, policy.multiplier) == (
            3,
            0.1,
            2.0,
        )
        # Frozen: a shared policy object cannot be mutated by one caller.
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.max_attempts = 5  # type: ignore[misc]

    def test_single_attempt_policy_never_retries_or_backs_off(self):
        clock, _network, mobile, server = self.make_pair_with_clock()
        service = Flaky(failures=1)
        server.export("flaky", service)
        proxy = mobile.import_service(
            server, "flaky", retry=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(ConnectionError):
            proxy.fetch()
        assert service.calls == 1
        assert clock.now == 0.0

    def test_zero_backoff_retries_without_advancing_clock(self):
        clock, _network, mobile, server = self.make_pair_with_clock()
        server.export("flaky", Flaky(failures=2))
        proxy = mobile.import_service(
            server,
            "flaky",
            retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        assert proxy.fetch() == "payload"
        assert clock.now == 0.0

    def test_backoff_sequence_with_unit_multiplier_is_linear(self):
        clock, network, mobile, server = self.make_pair_with_clock()
        server.export("flaky", Flaky(failures=3))
        proxy = mobile.import_service(
            server,
            "flaky",
            retry=RetryPolicy(max_attempts=4, backoff_s=0.5, multiplier=1.0),
        )
        assert proxy.fetch() == "payload"
        times = [
            m.time_s
            for m in network.messages
            if m.description == "flaky.fetch:request"
        ]
        assert times == [
            0.0,
            pytest.approx(0.5),
            pytest.approx(1.0),
            pytest.approx(1.5),
        ]
