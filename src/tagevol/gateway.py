"""Uniform access to a chat-completion backend with retries, bounded
concurrency and an on-disk response cache.

Two interchangeable backends are provided: :class:`HttpBackend` speaks the
common chat-completion JSON protocol over HTTP POST, and :class:`MockBackend`
replays scripted responses keyed by a prompt digest, which makes every
downstream stage deterministic and testable without a live model.

The HTTP client stack (``urllib.request``, which pulls in ``http.client``,
``email``, ``ssl`` and ``socket``) loads only when an :class:`HttpBackend` is
built, so ``merge``, ``leakage`` and mock-script runs never pay for it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import queue
import threading
import time
import urllib.parse
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import LoadError, ParseError, PreconditionError, RecordError, WriteError
from .records import _LINE_ENCODER, _is_unicode, read_json

log = logging.getLogger(__name__)

API_KEY_ENV = "TAGEVOL_API_KEY"

# Decoding defaults: diversity-friendly sampling for tagging and evolution,
# greedy decoding for response generation.
DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 2048
RESPONSE_TEMPERATURE = 0.0
# Retries per request and per unparseable reply, and the concurrency bound.
# The stages and the CLI read these, so library and CLI defaults agree.
DEFAULT_RETRIES = 3
DEFAULT_MAX_IN_FLIGHT = 4

T = TypeVar("T")


class BackendError(RecordError):
    """A single backend round-trip failed."""


class TransientBackendError(BackendError):
    """Retryable failure: timeout, connection error, HTTP 429 or 5xx."""


class AuthError(BackendError):
    """The backend rejected the credential; never retried."""


class MalformedBackendReply(BackendError):
    """The backend answered 200 but the body is not a usable completion."""


class UnscriptedPrompt(BackendError):
    """The mock backend has no scripted response for this prompt."""


class ExhaustedRetries(BackendError):
    """All retry attempts failed; the final failure is its ``__cause__``."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


def user_message(content: str) -> ChatMessage:
    return ChatMessage("user", content)


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request; it alone declares the decoding params, the only fields its constructor checks."""

    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise PreconditionError("temperature must be a finite number >= 0")
        if self.max_tokens <= 0:
            raise PreconditionError("max_tokens must be > 0")


@dataclass(frozen=True)
class ChatResponse:
    """Backend output; token counters may be absent (mock, cache replay)."""

    content: str
    finish_reason: str = "stop"
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


# Renders what prompt_digest and request_cache_key hash; sort_keys leaves a
# list's bytes as json.dumps(..., ensure_ascii=False) gave them.
_KEY_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def prompt_digest(messages: Iterable[ChatMessage]) -> str:
    """Stable sha256 over the rendered message list; keys the mock script."""
    payload = _KEY_ENCODER.encode([[m.role, m.content] for m in messages])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def request_cache_key(request: ChatRequest) -> str:
    """Cache key covering model, messages and decoding params."""
    payload = _KEY_ENCODER.encode(
        {
            "model": request.model,
            "messages": [[m.role, m.content] for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "top_p": None,  # no request sets it; kept so existing cache keys do not change
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class MockBackend:
    """Replays scripted responses keyed by prompt digest.

    Script files are JSON lists of {"prompt_sha256": ..., "response": ...}.
    Unscripted prompts raise :class:`UnscriptedPrompt`; registering the same
    key twice keeps the last registration and logs a warning.
    """

    def __init__(self, script: dict[str, str] | None = None):
        self._script = dict(script or {})

    @classmethod
    def from_script_file(cls, path: str | Path) -> "MockBackend":
        """Load a script file; one that cannot be read or is malformed raises :class:`LoadError`."""
        entries = read_json(path)
        try:
            pairs = [(entry["prompt_sha256"], entry["response"]) for entry in entries]
        except (LookupError, TypeError) as err:
            raise LoadError(path, 0, f"not a JSON list of prompt_sha256/response objects: {err!r}") from err
        backend = cls()
        for key, response in pairs:
            if not (isinstance(key, str) and isinstance(response, str)):
                raise LoadError(path, 0, "prompt_sha256 and response values must be strings")
            backend.register(key, response)
        return backend

    def register(self, prompt_key: str, response: str) -> None:
        """Script one reply; call it while loading the script, before any ``send``."""
        if prompt_key in self._script:
            log.warning("mock script entry %s... replaced; last registration wins", prompt_key[:12])
        self._script[prompt_key] = response

    def send(self, request: ChatRequest) -> ChatResponse:
        key = prompt_digest(request.messages)
        scripted = self._script.get(key)
        if scripted is None:
            raise UnscriptedPrompt(f"no scripted response for prompt digest {key}")
        return ChatResponse(content=scripted)


class HttpBackend:
    """POSTs chat-completion requests to an HTTP endpoint with the standard library.

    Body: {"model", "messages": [{"role", "content"}], "temperature",
    "max_tokens"}, as ASCII-escaped JSON. The completion is read from the
    first choice's message content; a ``usage`` that is not an object or a
    ``finish_reason`` that is not text is a :class:`MalformedBackendReply`.
    The credential comes only from the TAGEVOL_API_KEY environment variable,
    and is sent only to the endpoint itself: a redirected request carries none.

    Status mapping: 401/403 raise :class:`AuthError`; 429 and 5xx raise
    :class:`TransientBackendError`; any other status outside 200-299 raises
    :class:`BackendError`. Every transport failure (refused or reset
    connection, timeout, truncated reply) is transient. Proxies come from the
    ``*_proxy`` environment variables, HTTPS certificates are checked against
    the system CA store, and a 301/302/303 redirect is re-sent as a GET with
    no body, as urllib does; a 307/308 reply to the POST is a :class:`BackendError`.

    The constructor raises :class:`PreconditionError` unless ``endpoint`` is
    an http or https URL with a host, written in printable ASCII without
    spaces (percent-encode anything else).
    """

    def __init__(self, endpoint: str, timeout: float = 120.0):
        # The HTTP client stack loads here, once and on the constructing thread,
        # not at module top; ``send`` then finds it in ``sys.modules``.
        import urllib.request  # noqa: F401  (loads http.client and urllib.error too)

        try:
            parts = urllib.parse.urlsplit(endpoint)
            parts.port  # raises ValueError for a port that is not a number in range
        except ValueError as err:
            raise PreconditionError(f"endpoint {endpoint!r} is not a valid URL: {err}") from err
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise PreconditionError(f"endpoint {endpoint!r} must be an http:// or https:// URL with a host")
        # http.client refuses to send a URL with a space, a control character
        # or a non-ASCII character, so such an endpoint could never succeed.
        if not (endpoint.isascii() and endpoint.isprintable()) or " " in endpoint:
            raise PreconditionError(f"endpoint {endpoint!r} must be printable ASCII without spaces; percent-encode it")
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV)
        self.timeout = timeout

    def send(self, request: ChatRequest) -> ChatResponse:
        import http.client
        import urllib.error
        import urllib.request

        body = {
            "model": request.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        data = json.dumps(body, allow_nan=False).encode("ascii")
        post = urllib.request.Request(self.endpoint, data=data, headers={"Content-Type": "application/json"})
        if self.api_key:
            # Unredirected: urllib copies ordinary headers onto a redirect's
            # new request, which may go to another host or to plain http.
            post.add_unredirected_header("Authorization", f"Bearer {self.api_key}")
        try:
            try:
                reply = urllib.request.urlopen(post, timeout=self.timeout)
            except urllib.error.HTTPError as err:
                reply = err  # a status outside 200-299; read like any reply
            with reply:
                status, raw = reply.status, reply.read()
        except (OSError, http.client.HTTPException) as err:
            raise TransientBackendError(str(err)) from err
        if status in (401, 403):
            raise AuthError(f"HTTP {status} from backend")
        if status == 429 or status >= 500:
            raise TransientBackendError(f"HTTP {status} from backend")
        if not 200 <= status < 300:
            raise BackendError(f"HTTP {status} from backend: {raw.decode('utf-8', 'replace')[:200]}")
        try:
            payload = json.loads(raw)
            choice = payload["choices"][0]
            content = choice["message"]["content"]
        except (ValueError, LookupError, TypeError, RecursionError) as err:
            raise MalformedBackendReply(f"cannot read completion from reply: {err}") from err
        if not isinstance(content, str):
            raise MalformedBackendReply("completion content is not text")
        usage = payload.get("usage")
        finish_reason = choice.get("finish_reason")
        if not isinstance(usage, (dict, type(None))) or not isinstance(finish_reason, (str, type(None))):
            raise MalformedBackendReply("reply usage is not an object or finish_reason is not text")
        usage = usage or {}
        return ChatResponse(
            content=content,
            finish_reason=finish_reason or "stop",
            prompt_tokens=usage.get("prompt_tokens"),
            completion_tokens=usage.get("completion_tokens"),
        )


class ResponseCache:
    """Disk-persisted prompt cache; one JSON line per stored response.

    Reads take no lock: ``get`` is one dictionary lookup, which sees either
    no entry or a complete one. Appends are serialized by a lock, so each
    entry is one whole line of the file. The file is opened once, on the
    first put, and each entry is one write to that descriptor, which is
    closed when the cache is collected. On load, the last line for a key wins and
    torn or malformed lines are ignored, as is an entry whose ``key``,
    ``content`` or ``finish_reason`` is not a string, or whose text holds a
    lone surrogate (which :meth:`Gateway.complete` never accepts). The file
    is read line by line, so a load holds one line beyond the entries it
    keeps. A directory that cannot be created or read raises
    :class:`LoadError`, and an append that cannot be written raises
    :class:`WriteError`, which stops the stage.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = self.directory / "responses.jsonl"
        self._lock = threading.Lock()
        self._entries: dict[str, ChatResponse] = {}
        self._fd: int | None = None
        line = b""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                # Bytes, not text: a torn last line may end inside a UTF-8
                # character, and json.loads then rejects just that line.
                with self.path.open("rb") as lines:
                    for line in lines:
                        self._load_line(line)
        except (OSError, ValueError) as err:  # ValueError: a path holding a NUL, which a config file can give
            raise LoadError(self.directory, 0, f"cannot use as a response cache directory: {err}") from err
        # The first append starts a new line, so a torn last line loses no new entry.
        self._torn = bool(line) and not line.endswith(b"\n")

    def _load_line(self, line: bytes) -> None:
        try:
            obj = json.loads(line)
            key, content, finish_reason = obj["key"], obj["content"], obj.get("finish_reason", "stop")
        except (ValueError, LookupError, TypeError, RecursionError):
            return
        if isinstance(key, str) and isinstance(content, str) and isinstance(finish_reason, str):
            if _is_unicode(content, finish_reason):
                self._entries[key] = ChatResponse(content=content, finish_reason=finish_reason)

    def get(self, key: str) -> ChatResponse | None:
        return self._entries.get(key)

    def put(self, key: str, response: ChatResponse) -> None:
        entry = ChatResponse(content=response.content, finish_reason=response.finish_reason)
        line = _LINE_ENCODER.encode({"key": key, "content": entry.content, "finish_reason": entry.finish_reason})
        data = f"{line}\n".encode("utf-8")
        with self._lock:
            try:
                if self._fd is None:
                    self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                    weakref.finalize(self, os.close, self._fd)
                    if self._torn:
                        data = b"\n" + data
                view = memoryview(data)
                while view:
                    view = view[os.write(self._fd, view) :]
            except OSError as err:
                raise WriteError(f"cannot write {self.path}: {err}") from err
            self._entries[key] = entry


class _Slots:
    """Counting semaphore whose wait and wake-up run in C: a queue of tokens."""

    def __init__(self, count: int):
        self._tokens = queue.SimpleQueue()
        for _ in range(count):
            self._tokens.put(None)

    def acquire(self) -> None:
        self._tokens.get()

    def release(self) -> None:
        self._tokens.put(None)

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self._tokens.put(None)


def _identity(response: ChatResponse) -> ChatResponse:
    return response


def _record_label(item) -> dict:
    return {"record_id": item.id}


class Gateway:
    """Shared front door to a backend: retries, concurrency bound, cache.

    This is the one retry policy of the pipeline. ``complete`` retries
    transient failures up to ``retries`` times with exponential backoff;
    other backend failures surface immediately. ``ask`` retries only replies
    that do not parse, and each such retry is a fresh send. The in-flight
    bound is enforced internally, so the gateway is safe to share across
    threads.

    The constructor is the one check of ``retries >= 0`` and
    ``max_in_flight >= 1``; it raises :class:`PreconditionError` before any
    send.
    """

    def __init__(
        self,
        backend,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = 0.5,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        cache: ResponseCache | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if retries < 0:
            raise PreconditionError("retries must be >= 0")
        if max_in_flight < 1:
            raise PreconditionError("max_in_flight must be >= 1")
        self.backend = backend
        self.retries = retries
        self.backoff_base = backoff_base
        self.max_in_flight = max_in_flight
        self.cache = cache
        self._sleep = sleep
        self._slots = _Slots(max_in_flight)

    def complete(self, request: ChatRequest, parse: Callable[[ChatResponse], T] = _identity) -> T:
        """Return ``parse`` of the reply to ``request``, from the cache or the backend.

        This is the one truncation rule: a reply cut off at ``max_tokens``
        (``finish_reason`` ``"length"``) raises :class:`ParseError`
        ``Truncated`` for every stage. A reply is cached only after ``parse``
        accepts it. A cached reply that is truncated or that ``parse``
        rejects with a :class:`RecordError` counts as a miss, so a rerun
        repairs a poisoned cache. A reply whose text holds a lone surrogate,
        which UTF-8 cannot encode, is a :class:`MalformedBackendReply` from
        any backend and is not retried.
        """
        key = request_cache_key(request)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None and hit.finish_reason != "length":
                try:
                    return parse(hit)
                except RecordError:
                    pass
        last: TransientBackendError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                with self._slots:
                    response = self.backend.send(request)
            except TransientBackendError as err:
                last = err
                continue
            if not _is_unicode(response.content, response.finish_reason):
                raise MalformedBackendReply("reply text holds a lone surrogate, which UTF-8 cannot encode")
            if response.finish_reason == "length":
                raise ParseError("Truncated", f"the reply stopped at max_tokens ({request.max_tokens})")
            parsed = parse(response)
            if self.cache is not None:
                self.cache.put(key, response)
            return parsed
        raise ExhaustedRetries(f"gave up after {self.retries + 1} attempts: {last}") from last

    def ask(self, next_request: Callable[[], ChatRequest], parse: Callable[[ChatResponse], T], retries: int) -> T:
        """Ask for at most ``retries + 1`` fresh replies until one parses.

        This is the one parse-retry loop of the pipeline. ``next_request`` is
        called once per attempt. A :class:`BackendError` propagates at once,
        because ``complete`` has already retried the transient ones; if no
        reply parses, the last :class:`ParseError` propagates. A ``retries``
        below 0 raises :class:`PreconditionError` before any send.
        """
        if retries < 0:
            raise PreconditionError("retries must be >= 0")
        for _ in range(retries):
            try:
                return self.complete(next_request(), parse)
            except ParseError:
                continue
        return self.complete(next_request(), parse)

    def map_in_order(self, fn: Callable, items: Sequence, *, label: Callable = _record_label) -> tuple[list, list[dict]]:
        """Run ``fn`` on every item concurrently under the gateway bound.

        This is the stage runner and the one record-failure policy of the
        pipeline. It returns ``(outcomes, failures)``, both in input order:
        ``outcomes[i]`` is ``fn(items[i])``, or ``None`` if that item raised a
        :class:`RecordError`, which adds ``{**label(item), "error": str(err)}``
        to ``failures``. The other items still run; any other exception
        propagates. The default label is ``{"record_id": item.id}``.

        With ``max_in_flight > 1`` it runs up to ``2 * max_in_flight`` worker
        threads, so a slot left by a worker in backoff, parsing or cache writes
        goes to a waiting request; the bound still caps concurrent sends.
        Workers pull ``(index, item)`` pairs on demand from one shared
        iterator into a preallocated outcome list; there is no per-item
        future. After the first other exception, or an interrupt while
        waiting, no worker pulls another item, and once every started item
        has returned the lowest-index error (else the interrupt) is raised.
        One slot runs the items serially, with no owned work overlapping a
        send.
        """
        items = list(items)
        outcomes: list = [None] * len(items)
        failures: dict[int, dict] = {}

        def run(index: int, item) -> None:
            try:
                outcomes[index] = fn(item)
            except RecordError as err:
                failures[index] = {**label(item), "error": str(err)}

        if self.max_in_flight == 1 or len(items) <= 1:
            for index, item in enumerate(items):
                run(index, item)
        else:
            self._run_threaded(run, items)
        return outcomes, [failures[index] for index in sorted(failures)]

    def _run_threaded(self, run: Callable[[int, object], None], items: list) -> None:
        pending = enumerate(items)  # a C iterator: each next() hands out one pair under the GIL
        errors: dict[int, BaseException] = {}
        stopped = False
        # Workers start pulling only once all have started, so an interrupt
        # inside Thread.start() leaves no running item unjoined.
        go = threading.Event()
        # One token per exiting worker. The caller waits on these, and joins
        # only workers that left one: before CPython 3.13 a join interrupted
        # while it waits marks the thread stopped, so the next join returns at once.
        finished = queue.SimpleQueue()

        def work() -> None:
            nonlocal stopped
            try:
                go.wait()
                for index, item in pending:
                    if stopped:
                        return
                    try:
                        run(index, item)
                    except BaseException as err:  # re-raised by the caller below
                        errors[index] = err
                        stopped = True
                        return
            finally:
                finished.put(None)

        workers: list[threading.Thread] = []
        try:
            for _ in range(min(2 * self.max_in_flight, len(items))):
                worker = threading.Thread(target=work)
                worker.start()
                workers.append(worker)
            go.set()
            for _ in workers:
                finished.get()
            for worker in workers:
                worker.join()
        except BaseException:
            stopped = True
            go.set()
            for worker in workers:
                worker.join()
            raise
        if errors:
            raise errors[min(errors)]
