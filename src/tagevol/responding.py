"""Response generation: complete instruction records into instruction-response
pairs by sending each instruction as a bare user message.

No system prompt and greedy decoding by default, so reruns are reproducible.
Records that already have a response are skipped unless overwrite is set;
failures leave the response untouched and are reported per record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .gateway import DEFAULT_RETRIES, RESPONSE_TEMPERATURE, ChatRequest, Gateway, user_message
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
    **decoding,
) -> tuple[list[InstructionRecord], ResponseReport]:
    """Fill missing responses; returns new records in input order plus a report.

    Instruction text and provenance fields are never touched. Without
    ``overwrite`` the operation is idempotent: records with responses pass
    through unchanged. Any reply counts as a response, so there is no parse
    retry, and ``retries`` is accepted and unused: each prompt gets the
    gateway's transient retries only, and any other backend failure, such as
    a rejected credential, fails the record after one send. So does a reply
    the gateway rejects as cut off at ``max_tokens`` (``Truncated: the reply
    stopped at max_tokens (N)``): it is not stored as the response, and a
    rerun with a larger ``max_tokens`` fills it. A failed record passes
    through unchanged and is listed in the report's ``failures``. Decoding
    keywords go to :class:`ChatRequest`, with ``temperature`` 0.0 (greedy) unless given.
    """
    records = list(records)
    decoding.setdefault("temperature", RESPONSE_TEMPERATURE)

    def respond(record: InstructionRecord) -> InstructionRecord:
        if record.response is not None and not overwrite:
            return record
        request = ChatRequest(model=model, messages=(user_message(record.instruction),), **decoding)
        return replace(record, response=gateway.complete(request).content)

    outcomes, failures = gateway.map_in_order(respond, records)
    out = [record if outcome is None else outcome for record, outcome in zip(records, outcomes)]
    filled = sum(new is not old for new, old in zip(out, records))
    return out, ResponseReport(filled=filled, skipped=len(records) - filled - len(failures), failures=failures)
