"""Golden table of what the two reply parsers make of each reply layout.

Every case is one model reply, written the way a model may lay it out. Each
goes through ``parse_evolution_response`` (the four sections, or the
``ParseError`` reason) and through ``parse_tagging_response`` (the
aspect-to-tags map, or the reason). ``reply_outcomes.json`` pins what they
make of it today, defects included, so a parser change shows as the rows it
moves. Run this file as a script to rewrite the table after an intended
change. Reasons, not messages, are pinned: a message may quote the Python
parser, whose wording differs between Python versions.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from tagevol.errors import ParseError
from tagevol.evolution import parse_evolution_response
from tagevol.tagging import parse_tagging_response

GOLDEN = Path(__file__).with_name("reply_outcomes.json")

SUBSET = '["loops", "recursion"]'
PLAN = "add loops, then recursion"
REWRITTEN = "Sum a list with a loop, then recursively."
FINAL = "Sum a list with a loop, then again recursively."
TAGS = '{"Required skill": ["loops", "recursion"], "Topic": ["lists"]}'


def _evolution(step1: str, step2: str, step3: str, step4: str, final: str = FINAL) -> str:
    return f"{step1} {SUBSET}\n{step2} {PLAN}\n{step3} {REWRITTEN}\n{step4} {final}\n"


def _tagging(tags: str) -> str:
    return f"Step 1 #Aspect List and Explanation#: Required skill, Topic\nStep 2 #Aspect2Tags#:\n\n#Aspect2Tags#\n{tags}\n"


MARKERS = ("#Tag subset#:", "#Plan#:", "#Rewritten Instruction#:", "#Finally Rewritten Instruction#:")

CASES = {
    # The layouts each prompt asks for.
    "evolution.prompt_layout": _evolution(*(f"Step {n} {m}" for n, m in enumerate(MARKERS, start=1))),
    "tagging.prompt_layout": _tagging(TAGS),
    # Step labels as models write them.
    "evolution.no_labels": _evolution(*MARKERS),
    "evolution.lowercase_labels": _evolution(*(f"step {n} {m.lower()}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.colon_labels": _evolution(*(f"Step {n}: {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.markdown_step_headings": _evolution(*(f"### Step {n} {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.numbered_lines": _evolution(*(f"{n}. {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.bold_labels": _evolution(*(f"**Step {n}** {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.bold_markers": _evolution(*(f"**{m}**" for m in MARKERS)),
    "evolution.bold_label_and_marker": _evolution(*(f"**Step {n} {m}**" for n, m in enumerate(MARKERS, start=1))),
    "evolution.quoted_markers": _evolution(*(f"> {m}" for m in MARKERS)),
    "evolution.bulleted_labels": _evolution(*(f"- Step {n} {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.parenthesized_numbers": _evolution(*(f"{n}) {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.markdown_colon_labels": _evolution(*(f"## Step {n}: {m}" for n, m in enumerate(MARKERS, start=1))),
    # Prose is no decoration: it stays in the section it ends.
    "evolution.prose_before_markers": _evolution(*(f"here it is {m}" for m in MARKERS)),
    "evolution.markers_on_their_own_lines": _evolution(*(f"Step {n} {m}\n" for n, m in enumerate(MARKERS, start=1))),
    "evolution.final_not_finally": _evolution(*MARKERS[:3], "#Final Rewritten Instruction#:"),
    "evolution.spaced_markers": _evolution("# Tag Subset #:", "# PLAN #:", "# rewritten  instruction #:", "# Finally Rewritten Instruction #:"),
    # Markers that repeat: a model restating the format before answering.
    "evolution.format_restated_first": "\n".join(f"Step {n} {m}" for n, m in enumerate(MARKERS, start=1))
    + "\n\n"
    + _evolution(*(f"Step {n} {m}" for n, m in enumerate(MARKERS, start=1))),
    "evolution.plan_repeated_after_final": _evolution(*MARKERS) + "#Plan#: a second plan\n",
    # What follows the final section.
    "evolution.fenced_final": _evolution(*MARKERS[:3], MARKERS[3], final=f"\n```\n{FINAL}\n```"),
    "evolution.fenced_final_with_language": _evolution(*MARKERS[:3], MARKERS[3], final=f"\n```text\n{FINAL}\n```"),
    # Two fenced blocks are no fence around the section: it stays as it is.
    "evolution.two_fenced_blocks": _evolution(*MARKERS[:3], MARKERS[3], final=f"\n```\n{FINAL}\n```\n```\n{FINAL}\n```"),
    "evolution.trailing_note": _evolution(*MARKERS) + "\nNote: the rewrite keeps the original task.\n",
    "evolution.quoted_final": _evolution(*MARKERS[:3], MARKERS[3], final=f'"{FINAL}"'),
    # Subsets as models write them.
    "evolution.subset_comma_line": _evolution(*MARKERS).replace(SUBSET, "loops, recursion"),
    "evolution.subset_python_list": _evolution(*MARKERS).replace(SUBSET, "['loops', 'recursion']"),
    "evolution.subset_bare_words": _evolution(*MARKERS).replace(SUBSET, "[loops, recursion]"),
    "evolution.subset_bullets": _evolution(*MARKERS).replace(SUBSET, "\n- loops\n- recursion"),
    "evolution.subset_star_bullets": _evolution(*MARKERS).replace(SUBSET, "\n* loops\n* recursion"),
    "evolution.subset_numbered_bullets": _evolution(*MARKERS).replace(SUBSET, "\n1. loops\n2) recursion"),
    "evolution.subset_bullets_then_prose": _evolution(*MARKERS).replace(SUBSET, "\n- loops\n- recursion\nBoth deepen the task."),
    # A comma line keeps the first-line rule; the bulleted note after it is not read.
    "evolution.subset_comma_line_then_bulleted_note": _evolution(*MARKERS).replace(SUBSET, "loops, recursion\n- note: both deepen the task"),
    "evolution.subset_empty": _evolution(*MARKERS).replace(SUBSET, "[]"),
    # Missing sections.
    "evolution.no_final": _evolution(*MARKERS[:3], "Step 4:"),
    "evolution.empty_final": _evolution(*MARKERS, final=""),
    "evolution.no_plan": _evolution(MARKERS[0], "Step 2:", *MARKERS[2:]),
    "empty": "",
    # Tag objects as models write them.
    "tagging.prompt_example_bare_words": _tagging('{"Required skill":[loops, recursion], "Topic":[lists]}'),
    "tagging.prompt_example_verbatim": _tagging('{"xxx":[tag1, tag2, ...], "xxx":[tag1, tag2, ...], ...}'),
    "tagging.single_quotes": _tagging("{'Required skill': ['loops', 'recursion'], 'Topic': ['lists']}"),
    "tagging.python_tuple": _tagging("{'Required skill': ('loops', 'recursion'), 'Topic': 'lists'}"),
    "tagging.trailing_comma": _tagging('{"Required skill": ["loops", "recursion",], "Topic": ["lists"],}'),
    "tagging.fenced_json": _tagging(f"```json\n{TAGS}\n```"),
    "tagging.bold_marker": _tagging(TAGS).replace("\n#Aspect2Tags#\n", "\n**#Aspect2Tags#**\n"),
    "tagging.marker_only_in_step_2": _tagging(TAGS).replace("\n\n#Aspect2Tags#\n", "\n"),
    "tagging.object_before_marker": f"{TAGS}\n#Aspect2Tags#\n",
    "tagging.numbers_and_empty_lists": _tagging('{"Required skill": ["loops", 3], "Topic": [], "Level": " "}'),
    "tagging.not_an_object": _tagging('["loops", "recursion"]'),
    "tagging.no_marker": TAGS,
}


def _evolution_outcome(text: str) -> dict:
    try:
        return asdict(parse_evolution_response(text))
    except ParseError as err:
        return {"error": err.reason}


def _tagging_outcome(text: str) -> dict:
    try:
        return {"tags": parse_tagging_response(text)}
    except ParseError as err:
        return {"error": err.reason}


def outcome(text: str) -> dict:
    return {"evolution": _evolution_outcome(text), "tagging": _tagging_outcome(text)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CASES)
def test_a_reply_layout_parses_to_its_golden_outcome(name, golden):
    assert outcome(CASES[name]) == golden[name]


def test_the_golden_table_has_exactly_the_cases(golden):
    assert golden.keys() == CASES.keys()


if __name__ == "__main__":
    # One case per line, so a change to one outcome is a one-line diff.
    rows = [f" {json.dumps(name)}: {json.dumps(outcome(text), ensure_ascii=False)}" for name, text in CASES.items()]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
