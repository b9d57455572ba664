"""HTTP front end: endpoints, error mapping, streaming sessions, CLI flags."""

import gc
import http.client
import json
import logging
import sys
import threading
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest

from repro.core.config import ServingConfig
from repro.hmm import HMM, CategoricalEmission
from repro.serving import HTTPServingServer, ModelRegistry, StreamingDecoder


def _random_hmm(seed, n_states=4, n_symbols=8):
    rng = np.random.default_rng(seed)
    emissions = CategoricalEmission(rng.dirichlet(np.ones(n_symbols), size=n_states))
    return HMM(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        emissions,
    )


@pytest.fixture(scope="module")
def models():
    return {"alpha": _random_hmm(0), "beta": _random_hmm(99)}


@pytest.fixture(scope="module")
def server(tmp_path_factory, models):
    root = tmp_path_factory.mktemp("http") / "registry"
    registry = ModelRegistry(root)
    for name, model in models.items():
        registry.save(name, model)
    registry.save("beta", _random_hmm(100))  # beta has two versions
    with HTTPServingServer(registry, port=0) as server:
        yield server


def _url(server, path):
    return f"http://{server.host}:{server.port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload=None):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload or {}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _error_status(fn):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fn()
    body = json.loads(excinfo.value.read())
    return excinfo.value.code, body


class TestCoreEndpoints:
    def test_health(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["scheduling_policy"] == "fifo"

    def test_list_models(self, server):
        _, payload = _get(server, "/v1/models")
        by_name = {m["name"]: m for m in payload["models"]}
        assert by_name["alpha"]["versions"] == [1]
        assert by_name["beta"]["latest"] == 2

    def test_tag_matches_direct_decode(self, server, models):
        sequence = [0, 3, 1, 2, 4, 1]
        status, payload = _post(
            server, "/v1/models/alpha/tag", {"sequence": sequence}
        )
        assert status == 200
        want = models["alpha"].decode(np.asarray(sequence))
        assert payload["tags"] == [int(s) for s in want]

    def test_score_matches_direct_likelihood(self, server, models):
        sequence = [1, 2, 0, 5]
        _, payload = _post(server, "/v1/models/alpha/score", {"sequence": sequence})
        want = models["alpha"].log_likelihood(np.asarray(sequence))
        assert payload["score"] == pytest.approx(want, abs=1e-9)

    def test_version_pinning(self, server, models):
        sequence = [0, 1, 2, 3]
        _, pinned = _post(
            server, "/v1/models/beta/tag", {"sequence": sequence, "version": 1}
        )
        want = models["beta"].decode(np.asarray(sequence))
        assert pinned["tags"] == [int(s) for s in want]

    def test_stats_counts_served_requests(self, server):
        _post(server, "/v1/models/alpha/tag", {"sequence": [0, 1, 2]})
        _, payload = _get(server, "/stats")
        assert payload["router"]["n_requests"] >= 1
        assert "alpha:v0001" in payload["router"]["per_model"]
        assert payload["scheduling_policy"] == "fifo"

    def test_concurrent_clients(self, server, models):
        rng = np.random.default_rng(5)
        sequences = [[int(x) for x in rng.integers(0, 8, size=6)] for _ in range(12)]
        results: dict[int, list] = {}

        def client(i):
            _, payload = _post(
                server, "/v1/models/alpha/tag", {"sequence": sequences[i]}
            )
            results[i] = payload["tags"]

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, seq in enumerate(sequences):
            assert results[i] == [int(s) for s in models["alpha"].decode(np.asarray(seq))]


class TestErrorMapping:
    def test_unknown_route_is_404(self, server):
        status, body = _error_status(lambda: _get(server, "/nope"))
        assert status == 404 and "error" in body

    def test_unknown_model_is_400(self, server):
        status, body = _error_status(
            lambda: _post(server, "/v1/models/ghost/tag", {"sequence": [0, 1]})
        )
        assert status == 400
        assert "no versions" in body["error"]

    def test_missing_sequence_is_400(self, server):
        status, body = _error_status(
            lambda: _post(server, "/v1/models/alpha/tag", {})
        )
        assert status == 400
        assert "sequence" in body["error"]

    def test_float_tokens_are_400(self, server):
        status, body = _error_status(
            lambda: _post(server, "/v1/models/alpha/tag", {"sequence": [0.0, 1.5]})
        )
        assert status == 400
        assert "integer tokens" in body["error"]

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/v1/models/alpha/tag"),
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_stream_is_404(self, server):
        status, _ = _error_status(
            lambda: _post(server, "/v1/streams/deadbeef/push", {"observation": 0})
        )
        assert status == 404


class TestStreaming:
    def test_stream_session_matches_decoder(self, server, models):
        observations = [0, 3, 1, 2, 4, 1, 5, 2]
        _, opened = _post(server, "/v1/streams", {"model": "alpha", "lag": 3})
        stream_id = opened["stream_id"]
        assert opened["version"] == 1
        finalized = []
        for obs in observations:
            _, step = _post(
                server, f"/v1/streams/{stream_id}/push", {"observation": obs}
            )
            assert len(step["filtering"]) == 4
            finalized.extend(step["finalized"])
        _, final = _post(server, f"/v1/streams/{stream_id}/finish")
        decoder = StreamingDecoder(models["alpha"], lag=3)
        decoder.push_many(np.asarray(observations))
        want = decoder.finish()
        assert final["path"] == [int(s) for s in want.path]
        assert final["log_likelihood"] == pytest.approx(want.log_likelihood, abs=1e-12)
        # stream is gone after finish
        status, _ = _error_status(
            lambda: _post(server, f"/v1/streams/{stream_id}/push", {"observation": 0})
        )
        assert status == 404

    def test_stream_stats_exposed(self, server):
        _, opened = _post(server, "/v1/streams", {"model": "alpha"})
        _post(
            server, f"/v1/streams/{opened['stream_id']}/push", {"observation": 1}
        )
        _, stats = _get(server, "/stats")
        assert "alpha:v0001" in stats["streams"]
        assert stats["streams"]["alpha:v0001"]["n_requests"] >= 1
        assert stats["n_open_streams"] >= 1

    def test_open_unknown_model_is_400(self, server):
        status, _ = _error_status(
            lambda: _post(server, "/v1/streams", {"model": "ghost"})
        )
        assert status == 400


class TestLifecycle:
    def test_close_is_idempotent_and_frees_services(self, tmp_path, models):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        server = HTTPServingServer(registry, port=0).start()
        _, opened = _post(server, "/v1/streams", {"model": "alpha"})
        _post(server, f"/v1/streams/{opened['stream_id']}/push", {"observation": 0})
        server.close()
        server.close()
        with pytest.raises(urllib.error.URLError):
            _get(server, "/healthz")

    def test_close_with_idle_keep_alive_connection_is_clean(
        self, tmp_path, models, caplog, monkeypatch
    ):
        # A keep-alive client left idle after one request: closing the
        # server must end its handler on the running loop, not leave it
        # pending to be torn down later against a closed loop.
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("pos", models["alpha"])
        unraisable = []
        monkeypatch.setattr(
            sys, "unraisablehook", lambda info: unraisable.append(repr(info.exc_value))
        )
        server = HTTPServingServer(registry, port=0).start()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/models/pos/tag",
                body=json.dumps({"sequence": [0, 1, 2]}),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with caplog.at_level(logging.DEBUG, logger="asyncio"):
                    server.close()
                    gc.collect()
        finally:
            conn.close()
        reported = "\n".join(
            [caplog.text, *unraisable, *(str(w.message) for w in caught)]
        )
        assert "Event loop is closed" not in reported
        assert "unclosed <socket" not in reported
        assert "Task was destroyed but it is pending" not in reported

    def test_scheduling_policy_flows_through_config(self, tmp_path, models):
        registry = ModelRegistry(tmp_path / "registry")
        registry.save("alpha", models["alpha"])
        config = ServingConfig(scheduling_policy="edf")
        with HTTPServingServer(registry, config=config, port=0) as server:
            _, payload = _get(server, "/healthz")
            assert payload["scheduling_policy"] == "edf"
            _, tagged = _post(
                server,
                "/v1/models/alpha/tag",
                {"sequence": [0, 1, 2], "deadline_ms": 30_000.0},
            )
            assert tagged["tags"] == [
                int(s) for s in models["alpha"].decode(np.asarray([0, 1, 2]))
            ]
