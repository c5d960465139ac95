"""Response generation: complete instruction records into instruction-response
pairs by sending each instruction as a bare user message.

No system prompt and greedy decoding by default, so reruns are reproducible.
Records that already have a response are skipped unless overwrite is set;
failures leave the response untouched and are reported per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .gateway import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_RETRIES,
    RESPONSE_TEMPERATURE,
    BackendError,
    ChatRequest,
    Gateway,
    user_message,
)
from .records import InstructionRecord


@dataclass
class ResponseReport:
    filled: int = 0
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)


def generate_responses(
    records: Sequence[InstructionRecord],
    gateway: Gateway,
    retries: int = DEFAULT_RETRIES,
    *,
    model: str,
    overwrite: bool = False,
    temperature: float = RESPONSE_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> tuple[list[InstructionRecord], ResponseReport]:
    """Fill missing responses; returns new records in input order plus a report.

    Instruction text and provenance fields are never touched. Without
    ``overwrite`` the operation is idempotent: records with responses pass
    through unchanged. Any reply counts as a response, so ``retries`` (the
    stage's parse-retry allowance) never adds a send: each prompt gets the
    gateway's transient retries only, and any other backend failure, such as
    a rejected credential, fails the record after one send.
    """
    records = list(records)

    def respond_one(record: InstructionRecord):
        if record.response is not None and not overwrite:
            return record, "skipped", None
        request = ChatRequest(
            model=model,
            messages=(user_message(record.instruction),),
            temperature=temperature,
            max_tokens=max_tokens,
        )
        try:
            content = gateway.ask(lambda: request, lambda reply: reply.content, retries)
        except BackendError as err:
            return record, "failed", str(err)
        return replace(record, response=content), "filled", None

    results = gateway.map_in_order(respond_one, records)
    out: list[InstructionRecord] = []
    report = ResponseReport()
    for record, status, error in results:
        out.append(record)
        if status == "filled":
            report.filled += 1
        elif status == "skipped":
            report.skipped += 1
        else:
            report.failures.append({"record_id": record.id, "error": error})
    return out, report
