from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import run_python
from tagevol.gateway import (
    AuthError,
    BackendError,
    ChatMessage,
    ChatRequest,
    ExhaustedRetries,
    Gateway,
    HttpBackend,
    MalformedBackendReply,
    TransientBackendError,
    request_cache_key,
    user_message,
)


class ScriptedHandler(BaseHTTPRequestHandler):
    """Pops (status, payload) entries per POST; records request bodies, parsed and raw."""

    script: list[tuple[int, dict]] = []
    seen: list[dict] = []
    seen_raw: list[bytes] = []
    seen_headers: list[dict] = []
    lock = threading.Lock()

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        with self.lock:
            type(self).seen.append(json.loads(raw) if raw else {})
            type(self).seen_raw.append(raw)
            type(self).seen_headers.append(dict(self.headers))
            status, payload = self.script.pop(0) if self.script else (200, _reply("fallback"))
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed 301/302/303 arrives as a GET

    def log_message(self, *args):
        pass


def _reply(content, finish="stop"):
    return {
        "choices": [{"message": {"role": "assistant", "content": content}, "finish_reason": finish}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 7},
    }


@contextmanager
def _serving(handler):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}/v1/chat/completions"
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture
def server():
    ScriptedHandler.script = []
    ScriptedHandler.seen = []
    ScriptedHandler.seen_raw = []
    ScriptedHandler.seen_headers = []
    with _serving(ScriptedHandler) as url:
        yield url


def _request():
    return ChatRequest(model="remote-model", messages=(user_message("say hi"),), temperature=0.2, max_tokens=64)


def test_posts_the_wire_protocol_and_reads_the_first_choice(server, monkeypatch):
    monkeypatch.setenv("TAGEVOL_API_KEY", "sekret")
    ScriptedHandler.script = [(200, _reply("hello"))]
    response = HttpBackend(server).send(_request())
    assert response.content == "hello"
    assert response.prompt_tokens == 11
    assert response.completion_tokens == 7
    body = ScriptedHandler.seen[0]
    assert body["model"] == "remote-model"
    assert body["messages"] == [{"role": "user", "content": "say hi"}]
    assert body["temperature"] == 0.2
    assert body["max_tokens"] == 64
    assert ScriptedHandler.seen_headers[0]["Authorization"] == "Bearer sekret"


def _decorated_request():
    """Non-ASCII text in two messages, and decoding away from the defaults."""
    messages = (ChatMessage("system", "Be brief."), user_message("Größe — 世界 ✓"))
    return ChatRequest(model="remote-model", messages=messages, temperature=1.25, max_tokens=77)


def test_the_post_body_is_pinned_byte_for_byte(server):
    ScriptedHandler.script = [(200, _reply("hello"))]
    HttpBackend(server).send(_decorated_request())
    assert ScriptedHandler.seen_raw == [
        b'{"model": "remote-model", "messages": [{"role": "system", "content": "Be brief."}, '
        b'{"role": "user", "content": "Gr\\u00f6\\u00dfe \\u2014 \\u4e16\\u754c \\u2713"}], '
        b'"temperature": 1.25, "max_tokens": 77}'
    ]


# A second value for each ChatRequest field; a new field needs one here.
_OTHER_VALUES = {
    "model": "other-model",
    "messages": (user_message("Größe — 世界 ✓"),),
    "temperature": 0.5,
    "max_tokens": 78,
}


def test_the_body_is_the_request_fields_and_each_field_moves_the_cache_key(server):
    request = _decorated_request()
    names = [f.name for f in fields(ChatRequest)]
    assert list(_OTHER_VALUES) == names
    ScriptedHandler.script = [(200, _reply("hello"))]
    HttpBackend(server).send(request)
    assert list(ScriptedHandler.seen[0]) == names
    for name, value in _OTHER_VALUES.items():
        assert request_cache_key(replace(request, **{name: value})) != request_cache_key(request), name


def test_rate_limit_then_success_is_retried(server):
    ScriptedHandler.script = [(429, {}), (429, {}), (200, _reply("finally"))]
    gateway = Gateway(HttpBackend(server), retries=3, sleep=lambda _: None)
    response = gateway.complete(_request())
    assert response.content == "finally"
    assert len(ScriptedHandler.seen) == 3


def test_unauthorized_surfaces_immediately(server):
    ScriptedHandler.script = [(401, {})]
    gateway = Gateway(HttpBackend(server), retries=3, sleep=lambda _: None)
    with pytest.raises(AuthError):
        gateway.complete(_request())
    assert len(ScriptedHandler.seen) == 1


def test_unusable_body_is_malformed_reply(server):
    ScriptedHandler.script = [(200, {"choices": []})]
    with pytest.raises(MalformedBackendReply):
        HttpBackend(server).send(_request())


class RawHandler(BaseHTTPRequestHandler):
    """Answers every POST with ``reply`` bytes after ``delay`` seconds; records raw request bodies."""

    reply: bytes = b""
    delay: float = 0.0
    seen: list[bytes] = []

    def do_POST(self):
        type(self).seen.append(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
        time.sleep(self.delay)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(self.reply)))
            self.end_headers()
            self.wfile.write(self.reply)
        except OSError:
            pass  # the client gave up waiting

    def log_message(self, *args):
        pass


def _raw_server(reply: bytes, delay: float = 0.0):
    RawHandler.reply, RawHandler.delay, RawHandler.seen = reply, delay, []
    return _serving(RawHandler)


def _gateway(url, retries=3):
    return Gateway(HttpBackend(url), retries=retries, sleep=lambda _: None)


def test_forbidden_is_sent_once(server):
    ScriptedHandler.script = [(403, {})]
    with pytest.raises(AuthError):
        _gateway(server).complete(_request())
    assert len(ScriptedHandler.seen) == 1


def test_server_errors_then_success_are_retried(server):
    ScriptedHandler.script = [(500, {}), (503, {}), (200, _reply("recovered"))]
    response = _gateway(server).complete(_request())
    assert response.content == "recovered"
    assert len(ScriptedHandler.seen) == 3


def test_bad_request_is_sent_once_as_a_plain_backend_error(server):
    ScriptedHandler.script = [(400, {"error": "bad request"})]
    with pytest.raises(BackendError) as caught:
        _gateway(server).complete(_request())
    assert not isinstance(caught.value, (TransientBackendError, AuthError))
    assert "HTTP 400" in str(caught.value)
    assert len(ScriptedHandler.seen) == 1


def test_non_json_body_is_malformed_reply():
    with _raw_server(b"<html>gateway says hi</html>") as url:
        with pytest.raises(MalformedBackendReply):
            HttpBackend(url).send(_request())


def test_a_body_nested_too_deeply_is_a_malformed_reply_that_fails_only_its_record():
    # Deeper than json.loads can follow: a RecursionError must not abort the stage.
    with _raw_server(b"[" * 100_000 + b"]" * 100_000) as url:
        gateway = _gateway(url)
        outcomes, failures = gateway.map_in_order(lambda n: gateway.complete(_request()), [0], label=lambda n: {"n": n})
    assert outcomes == [None]
    assert failures[0]["n"] == 0 and failures[0]["error"].startswith("cannot read completion from reply")
    assert len(RawHandler.seen) == 1  # a malformed reply is not retried


@pytest.mark.parametrize("content", [5, None, ["hi"]], ids=["number", "null", "list"])
def test_completion_content_that_is_not_text_is_malformed(content, server):
    ScriptedHandler.script = [(200, _reply(content))]
    with pytest.raises(MalformedBackendReply, match="^completion content is not text$"):
        HttpBackend(server).send(_request())


@pytest.mark.parametrize(
    "field,value",
    [("usage", 5), ("usage", [11, 7]), ("usage", "11/7"), ("finish_reason", 7), ("finish_reason", ["stop"])],
    ids=["usage_int", "usage_list", "usage_text", "finish_reason_int", "finish_reason_list"],
)
def test_reply_metadata_of_the_wrong_json_type_is_malformed(field, value, server):
    payload = _reply("fine")
    if field == "usage":
        payload["usage"] = value
    else:
        payload["choices"][0]["finish_reason"] = value
    ScriptedHandler.script = [(200, payload)]
    with pytest.raises(MalformedBackendReply):
        HttpBackend(server).send(_request())


def test_refused_connection_exhausts_the_retries():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend = HttpBackend(f"http://127.0.0.1:{port}/v1/chat/completions", timeout=5)
    sends, sleeps = [], []

    class Counting:
        def send(self, request):
            sends.append(request)
            return backend.send(request)

    gateway = Gateway(Counting(), retries=2, sleep=sleeps.append)
    with pytest.raises(ExhaustedRetries, match="^gave up after 3 attempts: ") as caught:
        gateway.complete(_request())
    assert isinstance(caught.value.__cause__, TransientBackendError)
    assert len(sends) == 3
    assert len(sleeps) == 2


def test_read_timeout_is_transient():
    with _raw_server(json.dumps(_reply("late")).encode("ascii"), delay=1.0) as url:
        started = time.monotonic()
        with pytest.raises(TransientBackendError):
            HttpBackend(url, timeout=0.2).send(_request())
        assert time.monotonic() - started < 0.9


def test_non_ascii_text_round_trips():
    text = "Größe — 世界 ✓"
    reply = json.dumps(_reply(text), ensure_ascii=False).encode("utf-8")
    request = ChatRequest(model="remote-model", messages=(user_message(text),), max_tokens=64)
    with _raw_server(reply) as url:
        response = HttpBackend(url).send(request)
    assert response.content == text
    wire = RawHandler.seen[0]
    assert wire.isascii()
    assert json.loads(wire)["messages"] == [{"role": "user", "content": text}]


class RedirectHandler(BaseHTTPRequestHandler):
    """Answers every request with ``status`` and a Location of ``location``, or back to the same path."""

    status = 307
    location: str | None = None
    seen: list[str] = []

    def _redirect(self):
        type(self).seen.append(self.command)
        self.send_response(self.status)
        self.send_header("Location", self.location or self.path)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_POST = do_GET = _redirect

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status", [307, 308])
def test_temporary_and_permanent_redirects_of_the_post_are_not_followed(status):
    RedirectHandler.status, RedirectHandler.location, RedirectHandler.seen = status, None, []
    with _serving(RedirectHandler) as url:
        with pytest.raises(BackendError) as caught:
            _gateway(url).complete(_request())
    assert not isinstance(caught.value, (TransientBackendError, AuthError))
    assert f"HTTP {status}" in str(caught.value)
    assert RedirectHandler.seen == ["POST"]


@pytest.mark.parametrize("status", [301, 302, 303])
def test_a_followed_redirect_carries_no_credential(status, server, monkeypatch):
    monkeypatch.setenv("TAGEVOL_API_KEY", "sekret")
    ScriptedHandler.script = [(200, _reply("moved"))]
    RedirectHandler.status, RedirectHandler.location, RedirectHandler.seen = status, server, []
    with _serving(RedirectHandler) as url:
        response = HttpBackend(url).send(_request())
    assert response.content == "moved"
    assert RedirectHandler.seen == ["POST"]
    assert len(ScriptedHandler.seen_headers) == 1
    assert "Authorization" not in ScriptedHandler.seen_headers[0]


def test_package_imports_and_runs_without_requests():
    code = (
        "import sys; sys.modules['requests'] = None\n"
        "import tagevol.cli\n"
        "tagevol.cli.main(['--help'])\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


HTTP_CLIENT_STACK = ("http.client", "urllib.request", "urllib.error", "ssl", "email", "socket")


def test_importing_the_cli_leaves_the_http_client_stack_unloaded():
    code = f"import sys, tagevol.cli; print(sorted(set({HTTP_CLIENT_STACK!r}) & set(sys.modules)))"
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class SlowEchoHandler(BaseHTTPRequestHandler):
    """Answers each POST with its prompt after a pause; records the peak number of requests in progress."""

    in_progress = peak = 0
    lock = threading.Lock()

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls = type(self)
        with cls.lock:
            cls.in_progress += 1
            cls.peak = max(cls.peak, cls.in_progress)
        time.sleep(0.2)
        with cls.lock:
            cls.in_progress -= 1
        data = json.dumps(_reply(f"echo {body['messages'][0]['content']}")).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_a_backend_built_in_a_fresh_interpreter_serves_concurrent_workers():
    SlowEchoHandler.in_progress = SlowEchoHandler.peak = 0
    with _serving(SlowEchoHandler) as url:
        code = (
            "import json, sys\n"
            "from tagevol.gateway import ChatRequest, Gateway, HttpBackend, user_message\n"
            "assert 'urllib.request' not in sys.modules\n"
            f"gateway = Gateway(HttpBackend({url!r}), max_in_flight=4)\n"
            "requests = [ChatRequest(model='m', messages=(user_message(f'call {i}'),)) for i in range(8)]\n"
            "outcomes, failures = gateway.map_in_order(\n"
            "    lambda request: gateway.complete(request).content, requests, label=lambda request: {})\n"
            "print(json.dumps([outcomes, failures]))\n"
        )
        result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[f"echo call {i}" for i in range(8)], []]
    assert 2 <= SlowEchoHandler.peak <= 4
