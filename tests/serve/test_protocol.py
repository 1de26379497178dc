"""Newline-JSON protocol: dispatch, error surfacing, transports."""

from __future__ import annotations

import asyncio
import json

from repro.graph.generators import planted_partition
from repro.rng import RngStream
from repro.serve import (
    RumorBlockingService,
    handle_connection,
    process_request,
    serve_unix_socket,
)


def build_service():
    digraph, membership = planted_partition(
        [15, 15, 15], 0.35, 0.03, RngStream(5)
    )
    indexed = digraph.to_indexed()
    community = sorted(
        indexed.indices(n for n, c in membership.items() if c == 0)
    )
    service = RumorBlockingService(
        indexed, community, steps=6, seed=13, initial_worlds=16, max_worlds=32
    )
    return service, community


def run(coro):
    return asyncio.run(coro)


class TestProcessRequest:
    def test_query_op(self):
        service, community = build_service()
        response = run(
            process_request(
                service,
                {
                    "op": "query",
                    "id": 7,
                    "seeds": community[:2],
                    "budget": 3,
                    "eps": 0.3,
                    "delta": 0.1,
                },
            )
        )
        assert response["ok"] is True
        assert response["id"] == 7
        assert isinstance(response["blockers"], list)
        assert response["cold"] is True

    def test_update_op(self):
        service, _ = build_service()
        graph = service.graph
        tail = next(t for t in range(graph.node_count) if graph.out[t])
        head = graph.out[tail][0]
        response = run(
            process_request(
                service,
                {"op": "update", "id": "u1", "delete": [[tail, head]]},
            )
        )
        assert response["ok"] is True
        assert response["touched"] == sorted({tail, head})
        assert response["graph_version"] == 1

    def test_stats_op(self):
        service, _ = build_service()
        response = run(process_request(service, {"op": "stats"}))
        assert response["ok"] is True
        assert response["id"] is None
        assert response["instances"] == []

    def test_shutdown_op(self):
        service, _ = build_service()
        response = run(process_request(service, {"op": "shutdown", "id": 9}))
        assert response == {"id": 9, "ok": True, "shutdown": True}

    def test_unknown_op(self):
        service, _ = build_service()
        response = run(process_request(service, {"op": "divine", "id": 1}))
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_non_object_request(self):
        service, _ = build_service()
        response = run(process_request(service, [1, 2, 3]))
        assert response["ok"] is False

    def test_service_errors_surface_without_raising(self):
        service, _ = build_service()
        response = run(
            process_request(service, {"op": "query", "id": 2, "seeds": []})
        )
        assert response["ok"] is False
        assert response["error"].startswith("SeedError:")

    def test_missing_seeds_key_surfaces_as_error(self):
        service, _ = build_service()
        response = run(process_request(service, {"op": "query", "id": 3}))
        assert response["ok"] is False
        assert response["error"].startswith("KeyError:")


class TestUnixSocketTransport:
    def test_round_trip_and_shutdown(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")

        async def scenario():
            service, community = build_service()
            server = asyncio.ensure_future(
                serve_unix_socket(service, socket_path)
            )
            await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_unix_connection(socket_path)

            async def ask(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            query = {
                "op": "query",
                "id": 1,
                "seeds": community[:2],
                "budget": 3,
                "eps": 0.3,
                "delta": 0.1,
            }
            first = await ask(query)
            bad = await ask({"op": "query", "id": 2, "seeds": []})
            second = await ask({**query, "id": 3})
            stats = await ask({"op": "stats", "id": 4})
            done = await ask({"op": "shutdown", "id": 5})
            writer.close()
            await asyncio.wait_for(server, timeout=5)
            return first, bad, second, stats, done

        first, bad, second, stats, done = run(scenario())
        assert first["ok"] and first["cold"] is True
        assert bad["ok"] is False  # error answered, connection survived
        assert second["ok"] and second["cold"] is False
        assert second["blockers"] == first["blockers"]
        assert len(stats["instances"]) == 1
        assert done["shutdown"] is True

    def test_invalid_json_is_answered_not_fatal(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")

        async def scenario():
            service, _ = build_service()
            server = asyncio.ensure_future(
                serve_unix_socket(service, socket_path)
            )
            await asyncio.sleep(0.05)
            reader, writer = await asyncio.open_unix_connection(socket_path)
            writer.write(b"this is not json\n")
            await writer.drain()
            garbled = json.loads(await reader.readline())
            writer.write(
                (json.dumps({"op": "stats", "id": 1}) + "\n").encode()
            )
            await writer.drain()
            alive = json.loads(await reader.readline())
            writer.write(
                (json.dumps({"op": "shutdown", "id": 2}) + "\n").encode()
            )
            await writer.drain()
            await reader.readline()
            writer.close()
            await asyncio.wait_for(server, timeout=5)
            return garbled, alive

        garbled, alive = run(scenario())
        assert garbled["ok"] is False
        assert "invalid JSON" in garbled["error"]
        assert alive["ok"] is True


class TestHandleConnection:
    def test_eof_returns_false(self):
        async def scenario():
            service, _ = build_service()
            reader = asyncio.StreamReader()
            reader.feed_eof()
            writer = _NullWriter()
            return await handle_connection(service, reader, writer)

        assert run(scenario()) is False

    def test_blank_lines_are_skipped(self):
        async def scenario():
            service, _ = build_service()
            reader = asyncio.StreamReader()
            reader.feed_data(b"\n\n")
            reader.feed_data(
                (json.dumps({"op": "shutdown", "id": 1}) + "\n").encode()
            )
            writer = _NullWriter()
            stopped = await handle_connection(service, reader, writer)
            return stopped, writer.lines

        stopped, lines = run(scenario())
        assert stopped is True
        assert len(lines) == 1
        assert json.loads(lines[0])["shutdown"] is True


class _NullWriter:
    """Just enough of StreamWriter for handle_connection."""

    def __init__(self):
        self.lines = []

    def write(self, data: bytes) -> None:
        self.lines.append(data.decode("utf-8"))

    async def drain(self) -> None:
        return None
