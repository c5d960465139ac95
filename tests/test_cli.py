from __future__ import annotations

import json
import os
import random
import subprocess

import pytest

from helpers import as_records, build_pipeline_script, make_pool, make_records, random_texts, run_python, write_script
from tagevol.cli import EXIT_BACKEND, EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, main
from tagevol.gateway import HttpBackend, MockBackend, request_cache_key
from tagevol.leakage import count_matches, count_matches_many
from tagevol.records import InstructionRecord, load_dataset, manifest_path, write_dataset
from tagevol.tagging import save_pool


@pytest.fixture(autouse=True)
def _run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _prepare(tmp_path, n_records=4, budgets=(1, 2)):
    records = make_records(n_records, prefix="seed")
    seed_path = tmp_path / "seed.jsonl"
    write_dataset(records, seed_path)
    script_path = tmp_path / "script.json"
    write_script(script_path, build_pipeline_script(records, list(budgets), master_seed=0))
    return records, seed_path, script_path


def _tag(seed_path, script_path, pool_path, extra=()):
    return main(
        ["tag", str(seed_path), "--out", str(pool_path), "--mock-script", str(script_path), "--no-cache", *extra]
    )


@pytest.fixture
def sends(monkeypatch):
    """Every request the mock backend receives, in order."""
    seen = []
    original = MockBackend.send

    def send(self, request):
        seen.append(request)
        return original(self, request)

    monkeypatch.setattr(MockBackend, "send", send)
    return seen


def test_tag_builds_a_pool_file(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["distinct_tags"] == 12
    assert summary["failed_records"] == 0
    assert pool_path.exists()
    assert (tmp_path / "pool.report.json").exists()


def test_missing_seed_file_exits_2(tmp_path, capsys):
    code = main(["tag", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "pool.json"), "--mock-script", "x"])
    assert code == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input_error"


def test_unreachable_endpoint_exits_3(tmp_path, capsys):
    records = make_records(2)
    seed_path = tmp_path / "seed.jsonl"
    write_dataset(records, seed_path)
    code = main(
        [
            "tag",
            str(seed_path),
            "--out",
            str(tmp_path / "pool.json"),
            "--endpoint",
            "http://127.0.0.1:9/v1/chat/completions",
            "--model",
            "m",
            "--retries",
            "0",
            "--no-cache",
        ]
    )
    assert code == EXIT_BACKEND
    assert json.loads(capsys.readouterr().err)["error"] == "backend_error"


def test_evolve_writes_round_files_manifests_and_failures(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1, 2))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    capsys.readouterr()
    out_dir = tmp_path / "out"
    code = main(
        [
            "evolve",
            str(seed_path),
            str(pool_path),
            str(out_dir),
            "--budgets",
            "1",
            "2",
            "--mock-script",
            str(script_path),
            "--seed",
            "0",
            "--no-cache",
        ]
    )
    assert code == EXIT_OK
    round1 = load_dataset(out_dir / "round1_budget1.jsonl")
    round2 = load_dataset(out_dir / "round2_budget2.jsonl")
    assert len(round1) == len(round2) == 4
    assert all(r.budget == 1 and r.round == 1 for r in round1)
    assert all(r.budget == 2 and r.round == 2 for r in round2)
    manifest = json.loads((out_dir / "round1_budget1.manifest.json").read_text(encoding="utf-8"))
    assert manifest["record_count"] == 4
    assert manifest["rounds"] == [{"round": 1, "budget": 1, "count": 4}]
    assert manifest["parameters"]["rng_seed"] == 0
    assert json.loads((out_dir / "failures.json").read_text(encoding="utf-8")) == []


def test_single_budget_flag_emits_one_round(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(2,))
    pool_path = tmp_path / "pool.json"
    _tag(seed_path, script_path, pool_path)
    out_dir = tmp_path / "out"
    code = main(
        [
            "evolve",
            str(seed_path),
            str(pool_path),
            str(out_dir),
            "--budgets",
            "2",
            "--mock-script",
            str(script_path),
            "--seed",
            "0",
            "--no-cache",
        ]
    )
    assert code == EXIT_OK
    assert sorted(p.name for p in out_dir.glob("round*.jsonl")) == ["round1_budget2.jsonl"]


def test_pool_smaller_than_budget_exits_4(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path, n_records=1, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    _tag(seed_path, script_path, pool_path)
    code = main(
        [
            "evolve",
            str(seed_path),
            str(pool_path),
            str(tmp_path / "out"),
            "--budgets",
            "30",
            "--candidate-size",
            "30",
            "--mock-script",
            str(script_path),
            "--no-cache",
        ]
    )
    assert code == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"] == "precondition_error"


def test_respond_then_merge_round_trip(tmp_path, capsys):
    records, seed_path, script_path = _prepare(tmp_path, budgets=(1, 2))
    pool_path = tmp_path / "pool.json"
    _tag(seed_path, script_path, pool_path)
    out_dir = tmp_path / "out"
    main(
        [
            "evolve",
            str(seed_path),
            str(pool_path),
            str(out_dir),
            "--budgets",
            "1",
            "2",
            "--mock-script",
            str(script_path),
            "--seed",
            "0",
            "--no-cache",
        ]
    )
    for name in ("round1_budget1.jsonl", "round2_budget2.jsonl"):
        code = main(
            ["respond", str(out_dir / name), "--mock-script", str(script_path), "--no-cache"]
        )
        assert code == EXIT_OK
        assert all(r.response for r in load_dataset(out_dir / name))
    merged_path = tmp_path / "merged.jsonl"
    code = main(
        [
            "merge",
            str(out_dir / "round1_budget1.jsonl"),
            str(out_dir / "round2_budget2.jsonl"),
            "--out",
            str(merged_path),
            "--mock-script",
            str(script_path),
        ]
    )
    assert code == EXIT_OK
    merged = load_dataset(merged_path)
    assert len(merged) == 2 * len(records)
    manifest = json.loads((tmp_path / "merged.manifest.json").read_text(encoding="utf-8"))
    assert manifest["record_count"] == len(merged)


def test_merge_include_seed_prepends_the_seed_dataset(tmp_path, capsys):
    seed_path = tmp_path / "seed.jsonl"
    round_path = tmp_path / "round.jsonl"
    write_dataset(make_records(2, prefix="seed"), seed_path)
    write_dataset(
        [
            InstructionRecord(id="e:0", instruction="an evolved task with extra constraints"),
        ],
        round_path,
    )
    merged_path = tmp_path / "merged.jsonl"
    code = main(
        [
            "merge",
            str(round_path),
            "--out",
            str(merged_path),
            "--include-seed",
            "--seed-dataset",
            str(seed_path),
        ]
    )
    assert code == EXIT_OK
    merged = load_dataset(merged_path)
    assert [r.id for r in merged] == ["seed:0", "seed:1", "e:0"]


def test_merge_without_include_seed_never_reads_the_seed_dataset(tmp_path, capsys):
    round_path = tmp_path / "round.jsonl"
    write_dataset(make_records(2), round_path)
    bad_seed = tmp_path / "bad.jsonl"
    bad_seed.write_text("{not json\n", encoding="utf-8")
    plain, with_seed = tmp_path / "plain" / "m.jsonl", tmp_path / "with_seed" / "m.jsonl"
    for out, extra in [(plain, []), (with_seed, ["--seed-dataset", str(bad_seed)])]:
        out.parent.mkdir()
        assert main(["merge", str(round_path), "--out", str(out), *extra]) == EXIT_OK
    assert with_seed.read_bytes() == plain.read_bytes()
    assert manifest_path(with_seed).read_bytes() == manifest_path(plain).read_bytes()


@pytest.mark.parametrize("with_ids", [True, False], ids=["evolved_id", "default_id"])
def test_merge_of_one_id_with_two_instructions_exits_2_and_writes_nothing(with_ids, tmp_path, capsys):
    paths = []
    for run in ("a", "b"):
        path = tmp_path / run / ("round1_budget1.jsonl" if with_ids else "x.jsonl")
        path.parent.mkdir()
        line = {"instruction": f"a task from run {run}"}
        if with_ids:
            line = {"id": "seed:0:round1", **line}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        paths.append(str(path))
    merged_path = tmp_path / "merged.jsonl"
    assert main(["merge", *paths, "--out", str(merged_path)]) == EXIT_INPUT
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "input_error"
    assert repr("seed:0:round1" if with_ids else "x.jsonl:1") in error["message"]
    assert not merged_path.exists() and not manifest_path(merged_path).exists()


def test_merge_include_seed_requires_the_seed_path(tmp_path, capsys):
    round_path = tmp_path / "round.jsonl"
    write_dataset(make_records(1), round_path)
    code = main(["merge", str(round_path), "--out", str(tmp_path / "m.jsonl"), "--include-seed"])
    assert code == EXIT_PRECONDITION


def test_merge_include_seed_without_the_seed_path_exits_4_before_reading_a_round(tmp_path, capsys):
    code = main(["merge", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "m.jsonl"), "--include-seed"])
    assert code == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"] == "precondition_error"
    assert not (tmp_path / "m.jsonl").exists()


def test_leakage_out_flag_writes_the_report(tmp_path, capsys):
    synth_path = tmp_path / "synth.jsonl"
    synth_path.write_text(json.dumps({"instruction": "x y z"}) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["leakage", str(synth_path), str(synth_path), "--ngrams", "2", "--out", str(report_path)])
    assert code == EXIT_OK
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["reports"][0]["matched_benchmark_items"] == 1


@pytest.mark.parametrize("where", ["in_a_missing_directory", "is_a_directory"])
def test_leakage_unwritable_out_exits_2_before_any_count(where, tmp_path, capsys, monkeypatch):
    counted = []
    monkeypatch.setattr("tagevol.cli.count_matches_many", lambda *args, **kwargs: counted.append(args))
    synth_path = tmp_path / "synth.jsonl"
    synth_path.write_text(json.dumps({"instruction": "x y z"}) + "\n", encoding="utf-8")
    out = tmp_path / "missing" / "report.json"
    if where == "is_a_directory":
        out = tmp_path / "taken"
        out.mkdir()
    assert main(["leakage", str(synth_path), str(synth_path), "--ngrams", "2", "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(out) in json.loads(captured.err)["message"]
    assert counted == []


def test_leakage_command_reports_the_trivial_overlap(tmp_path, capsys):
    synth_path = tmp_path / "synth.jsonl"
    bench_path = tmp_path / "bench.jsonl"
    synth_path.write_text(json.dumps({"instruction": "a b c d e f g h"}) + "\n", encoding="utf-8")
    bench_path.write_text(json.dumps({"instruction": "a b c d e f g h i"}) + "\n", encoding="utf-8")
    code = main(["leakage", str(synth_path), str(bench_path)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    by_n = {r["n"]: r for r in payload["reports"]}
    assert set(by_n) == {8, 13}
    assert by_n[8]["matched_benchmark_items"] == 1
    assert by_n[13]["matched_benchmark_items"] == 0


def test_leakage_names_each_report_by_the_benchmark_path_as_given(tmp_path, capsys):
    (tmp_path / "synth.jsonl").write_text(json.dumps({"instruction": "x y z"}) + "\n", encoding="utf-8")
    for name, text in (("gsm8k", "x y w"), ("math", "q x y")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "test.jsonl").write_text(json.dumps({"instruction": text}) + "\n", encoding="utf-8")
    code = main(["leakage", "synth.jsonl", "gsm8k/test.jsonl", "math/test.jsonl", "--ngrams", "2"])
    assert code == EXIT_OK
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["benchmark"] for r in reports] == ["gsm8k/test.jsonl", "math/test.jsonl"]
    assert [r["matched_pairs"] for r in reports] == [1, 1]


def _write_leakage_corpus(directory):
    """A synthetic set and two benchmarks holding copies of some of its
    records, so that every n up to 8 has matches and samples."""
    rng = random.Random(17)
    synth = as_records(random_texts(rng, 60, vocab_size=40, min_len=8, max_len=30))
    write_dataset(synth, directory / "synth.jsonl")
    benches = {}
    for name in ("gsm8k.jsonl", "math.jsonl"):
        texts = random_texts(rng, 20, vocab_size=40, min_len=8, max_len=30)
        benches[name] = as_records(texts + [rng.choice(synth).instruction for _ in range(3)], prefix=name)
        write_dataset(benches[name], directory / name)
    return synth, benches


def test_leakage_makes_one_pass_per_n_and_reports_in_command_line_order(tmp_path, capsys, monkeypatch):
    synth, benches = _write_leakage_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    passes = []

    def one_pass(synth_records, benchmarks, n):
        passes.append((n, [name for name, _ in benchmarks]))
        return count_matches_many(synth_records, benchmarks, n)

    monkeypatch.setattr("tagevol.cli.count_matches_many", one_pass)
    assert main(["leakage", "synth.jsonl", "gsm8k.jsonl", "math.jsonl", "--ngrams", "8", "2", "8"]) == EXIT_OK
    assert passes == [(8, ["gsm8k.jsonl", "math.jsonl"]), (2, ["gsm8k.jsonl", "math.jsonl"])]
    assert json.loads(capsys.readouterr().out)["reports"] == [
        count_matches(synth, bench, n, benchmark_name=name).to_json() for name, bench in benches.items() for n in (8, 2, 8)
    ]


def test_leakage_rejects_an_n_below_one_before_any_count(tmp_path, capsys, monkeypatch):
    passes = []
    monkeypatch.setattr("tagevol.cli.count_matches_many", lambda *args: passes.append(args))
    synth_path = tmp_path / "synth.jsonl"
    write_dataset(make_records(1), synth_path)
    assert main(["leakage", str(synth_path), str(synth_path), "--ngrams", "8", "0"]) == EXIT_PRECONDITION
    assert passes == []
    assert json.loads(capsys.readouterr().err) == {"error": "precondition_error", "message": "n must be >= 1"}


def test_stats_command_prints_a_report(tmp_path, capsys):
    records, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    code = main(
        [
            "stats",
            str(seed_path),
            "--sample-size",
            "3",
            "--mock-script",
            str(script_path),
            "--seed",
            "7",
            "--no-cache",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["sample_size"] == 3
    assert report["difficulty"] == 3.0
    assert report["dropped"] == 0


def test_config_file_is_honored_and_flags_override(tmp_path, capsys):
    records, seed_path, script_path = _prepare(tmp_path, budgets=(1, 2))
    pool_path = tmp_path / "pool.json"
    _tag(seed_path, script_path, pool_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "mock_script": str(script_path),
                "seed": 0,
                "budgets": [1, 2],
                "no_cache": True,
                "model": "configured-model",
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code = main(["evolve", str(seed_path), str(pool_path), str(out_dir), "--config", str(config_path)])
    assert code == EXIT_OK
    manifest = json.loads((out_dir / "round1_budget1.manifest.json").read_text(encoding="utf-8"))
    assert manifest["parameters"]["model"] == "configured-model"
    assert manifest["parameters"]["config"]["seed"] == 0

    out_dir2 = tmp_path / "out2"
    code = main(
        [
            "evolve",
            str(seed_path),
            str(pool_path),
            str(out_dir2),
            "--config",
            str(config_path),
            "--model",
            "flag-model",
        ]
    )
    assert code == EXIT_OK
    manifest2 = json.loads((out_dir2 / "round1_budget1.manifest.json").read_text(encoding="utf-8"))
    assert manifest2["parameters"]["model"] == "flag-model"


@pytest.mark.parametrize(
    "config_budgets, extra, used",
    [
        ([2], ("--budgets", "1"), [1]),
        ([2], ("--preset", "math"), [1, 3, 5]),
        (None, ("--preset", "math"), [1, 3, 5]),
        ([1, 2], (), [1, 2]),
    ],
    ids=["flag-over-config", "preset-over-config", "preset", "config-file"],
)
def test_round_manifests_record_the_budgets_the_run_used(config_budgets, extra, used, tmp_path, capsys):
    records, seed_path, _ = _prepare(tmp_path)
    entries = {}
    for budgets in ([1, 2], [1, 3, 5]):
        for entry in build_pipeline_script(records, budgets, master_seed=0):
            entries[entry["prompt_sha256"]] = entry["response"]
    script_path = tmp_path / "script.json"
    write_script(script_path, [{"prompt_sha256": k, "response": v} for k, v in sorted(entries.items())])
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({} if config_budgets is None else {"budgets": config_budgets}), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["evolve", str(seed_path), str(pool_path), str(out_dir), "--mock-script", str(script_path), "--no-cache"]
    assert main([*argv, "--config", str(config_path), *extra]) == EXIT_OK
    for round_index, budget in enumerate(used, start=1):
        manifest = json.loads((out_dir / f"round{round_index}_budget{budget}.manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"]["budgets"] == used
        assert manifest["parameters"]["config"]["budgets"] == used


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"budgt": [1]}), encoding="utf-8")
    seed_path = tmp_path / "seed.jsonl"
    write_dataset(make_records(1), seed_path)
    code = main(["tag", str(seed_path), "--out", str(tmp_path / "p.json"), "--config", str(config_path)])
    assert code == EXIT_INPUT


def test_drop_flagged_filters_records(tmp_path, capsys):
    records = make_records(2, prefix="seed")
    seed_path = tmp_path / "seed.jsonl"
    write_dataset(records, seed_path)
    # Finals that add too few words, so every record gets the word-delta flag.
    entries = build_pipeline_script(
        records, [1], master_seed=0, final_fn=lambda instruction, subset: f"{instruction} shorter."
    )
    script_path = tmp_path / "flagged.json"
    write_script(script_path, entries)
    pool_path = tmp_path / "pool.json"
    _tag(seed_path, script_path, pool_path)
    out_dir = tmp_path / "out"
    code = main(
        [
            "evolve",
            str(seed_path),
            str(pool_path),
            str(out_dir),
            "--budgets",
            "1",
            "--drop-flagged",
            "--mock-script",
            str(script_path),
            "--seed",
            "0",
            "--no-cache",
        ]
    )
    assert code == EXIT_OK
    assert load_dataset(out_dir / "round1_budget1.jsonl") == []


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--max-in-flight", "0"),
        ("--retries", "-1"),
        ("--max-tokens", "0"),
        ("--temperature", "-1"),
        ("--temperature", "nan"),
        ("--temperature", "inf"),
    ],
)
def test_bad_setting_on_tag_exits_4_before_any_send(flag, value, tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path)
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path, extra=(flag, value)) == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"] == "precondition_error"
    assert sends == []
    assert not pool_path.exists()


@pytest.mark.parametrize(
    "extra",
    [("--budgets", "2", "--candidate-size", "1"), ("--budgets", "1", "30"), ("--budgets", "0"), ("--budgets", "-1")],
    ids=["candidate_size", "pool_size", "budget_zero", "budget_negative"],
)
def test_evolve_precondition_exits_4_before_any_send(extra, tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    sends.clear()
    out_dir = tmp_path / "out"
    code = main(
        ["evolve", str(seed_path), str(pool_path), str(out_dir), "--mock-script", str(script_path), "--no-cache", *extra]
    )
    assert code == EXIT_PRECONDITION
    assert sends == []
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["evolve", "seed.jsonl", "pool.json", "out", "--mock-script", "script.json", "--preset", "math", "--budgets", "2"],
            "--preset and --budgets both give the budgets; pass one of them",
        ),
        (
            ["evolve", "seed.jsonl", "pool.json", "out", "--mock-script", "script.json"],
            "no budgets configured; pass --budgets or --preset",
        ),
        (
            ["tag", "seed.jsonl", "--out", "out", "--model", "m"],
            "no backend configured; pass --endpoint or --mock-script",
        ),
        (
            ["tag", "seed.jsonl", "--out", "out", "--endpoint", "http://127.0.0.1:9/v1"],
            "no model configured; pass --model or set it in the config file",
        ),
    ],
    ids=["preset_and_budgets", "no_budgets", "no_backend", "no_model"],
)
def test_a_missing_or_doubled_setting_exits_4_with_one_json_line_before_any_send(
    argv, message, tmp_path, capsys, sends, monkeypatch
):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    assert _tag(seed_path, script_path, tmp_path / "pool.json") == EXIT_OK
    capsys.readouterr()
    sends.clear()
    monkeypatch.setattr(HttpBackend, "send", lambda self, request: sends.append(request))
    assert main([*argv, "--no-cache"]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == json.dumps({"error": "precondition_error", "message": message}) + "\n"
    assert sends == []
    assert not (tmp_path / "out").exists()


def test_evolve_with_a_wrongly_typed_pool_entry_exits_2_before_any_send(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    capsys.readouterr()
    pool = json.loads(pool_path.read_text(encoding="utf-8"))
    pool["entries"][0]["tag"] = 5
    pool_path.write_text(json.dumps(pool), encoding="utf-8")
    sends.clear()
    out_dir = tmp_path / "out"
    code = main(
        ["evolve", str(seed_path), str(pool_path), str(out_dir), "--budgets", "1", "--mock-script", str(script_path), "--no-cache"]
    )
    assert code == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"] == "input_error"
    assert sends == []
    assert not out_dir.exists()


def test_leakage_ngram_below_one_exits_4(tmp_path, capsys):
    synth_path = tmp_path / "synth.jsonl"
    write_dataset(make_records(1), synth_path)
    assert main(["leakage", str(synth_path), str(synth_path), "--ngrams", "0"]) == EXIT_PRECONDITION


def test_top_p_flag_is_gone(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        _tag(seed_path, script_path, tmp_path / "pool.json", extra=("--top-p", "0.5"))
    assert excinfo.value.code == EXIT_INPUT


def test_top_p_config_key_is_unknown(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"top_p": 0.5}), encoding="utf-8")
    code = _tag(seed_path, script_path, tmp_path / "pool.json", extra=("--config", str(config_path)))
    assert code == EXIT_INPUT
    assert "top_p" in json.loads(capsys.readouterr().err)["message"]


def test_tag_out_to_a_directory_exits_2(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    out_dir = tmp_path / "taken"
    out_dir.mkdir()
    assert _tag(seed_path, script_path, out_dir) == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"] == "input_error"


def test_respond_exits_3_when_every_record_sent_fails(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_dataset(make_records(2), dataset)
    script_path = tmp_path / "empty.json"
    write_script(script_path, [])
    out_path = tmp_path / "r.jsonl"
    code = main(["respond", str(dataset), "--out", str(out_path), "--mock-script", str(script_path), "--no-cache"])
    assert code == EXIT_BACKEND
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "backend_error"
    assert json.loads(captured.out)["failures"] == 2
    assert load_dataset(out_path) == make_records(2)
    assert len(json.loads((tmp_path / "r.failures.json").read_text(encoding="utf-8"))) == 2


def test_respond_with_nothing_to_send_exits_0(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_dataset([InstructionRecord(id="a", instruction="say hi", response="hi")], dataset)
    script_path = tmp_path / "empty.json"
    write_script(script_path, [])
    assert main(["respond", str(dataset), "--mock-script", str(script_path), "--no-cache"]) == EXIT_OK


@pytest.mark.parametrize(
    "key,value",
    [
        ("retries", "3"),
        ("models", []),
        ("temperature", "hot"),
        ("budgets", [1, "2"]),
        ("no_cache", 1),
        ("seed", True),
        ("models", {"tag": 5}),
        ("models", {"tag": ["x"]}),
        ("models", {"tagging": "big"}),
    ],
)
def test_config_value_of_the_wrong_json_type_exits_2(key, value, tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    code = _tag(seed_path, script_path, tmp_path / "pool.json", extra=("--config", str(config_path)))
    assert code == EXIT_INPUT
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "input_error"
    assert repr(key) in error["message"]


def test_config_accepts_an_integer_where_a_float_is_expected(tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"temperature": 1, "budgets": [1, 2], "models": {"tag": "m"}}), encoding="utf-8")
    assert _tag(seed_path, script_path, tmp_path / "pool.json", extra=("--config", str(config_path))) == EXIT_OK


def test_integer_temperature_in_config_matches_the_flag(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"temperature": 1}), encoding="utf-8")
    outcomes = []
    for name, extra in [("config", ("--config", str(config_path))), ("flag", ("--temperature", "1"))]:
        sends.clear()
        out_dir = tmp_path / name
        argv = ["evolve", str(seed_path), str(pool_path), str(out_dir), "--budgets", "1", "--seed", "0"]
        assert main([*argv, "--mock-script", str(script_path), "--no-cache", *extra]) == EXIT_OK
        manifest = json.loads((out_dir / "round1_budget1.manifest.json").read_text(encoding="utf-8"))
        outcomes.append((repr(manifest["parameters"]["config"]["temperature"]), sorted(map(request_cache_key, sends))))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "1.0"


@pytest.mark.parametrize(
    "content",
    ["not json", json.dumps([{"response": "r"}])],
    ids=["not_json", "no_prompt_sha256"],
)
def test_malformed_mock_script_exits_2(content, tmp_path, capsys):
    _, seed_path, _ = _prepare(tmp_path)
    script_path = tmp_path / "bad-script.json"
    script_path.write_text(content, encoding="utf-8")
    assert _tag(seed_path, script_path, tmp_path / "pool.json") == EXIT_INPUT
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "input_error"
    assert str(script_path) in error["message"]


@pytest.mark.parametrize(
    "endpoint", ["foo", "ftp://host/v1", "http://", "http://host:port/v1", "http://host/v 1", "http://host/\u00fc"]
)
def test_endpoint_that_is_not_an_http_url_exits_4_before_any_send(endpoint, tmp_path, capsys, monkeypatch):
    http_sends = []
    monkeypatch.setattr(HttpBackend, "send", lambda self, request: http_sends.append(request))
    _, seed_path, _ = _prepare(tmp_path)
    pool_path = tmp_path / "pool.json"
    code = main(["tag", str(seed_path), "--out", str(pool_path), "--endpoint", endpoint, "--model", "m", "--no-cache"])
    assert code == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"] == "precondition_error"
    assert http_sends == []
    assert not pool_path.exists()


def test_cache_dir_naming_a_file_exits_2_before_any_send(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path)
    not_a_dir = tmp_path / "cache.txt"
    not_a_dir.write_text("occupied", encoding="utf-8")
    pool_path = tmp_path / "pool.json"
    code = main(
        ["tag", str(seed_path), "--out", str(pool_path), "--mock-script", str(script_path), "--cache-dir", str(not_a_dir)]
    )
    assert code == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"] == "input_error"
    assert sends == []
    assert not pool_path.exists()
    assert not_a_dir.read_text(encoding="utf-8") == "occupied"


def test_a_config_cache_dir_holding_a_nul_exits_2_before_any_send(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cache_dir": "cache\u0000dir"}), encoding="utf-8")
    argv = ["tag", str(seed_path), "--out", str(tmp_path / "pool.json"), "--mock-script", str(script_path)]
    assert main([*argv, "--config", str(config)]) == EXIT_INPUT
    assert json.loads(capsys.readouterr().err)["error"] == "input_error"
    assert sends == []


def test_tag_on_an_empty_seed_file_exits_4_before_any_send(tmp_path, capsys, sends):
    _, _, script_path = _prepare(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    pool_path = tmp_path / "pool.json"
    assert _tag(empty, script_path, pool_path) == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err) == {"error": "precondition_error", "message": "no records to tag"}
    assert sends == []
    assert not pool_path.exists()


def _evolve_argv(seed_path, pool_path, out_dir, script_path, *extra):
    return ["evolve", str(seed_path), str(pool_path), str(out_dir), "--budgets", "1", "--mock-script", str(script_path), "--no-cache", *extra]


def test_evolve_into_an_existing_file_exits_2_before_any_send(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    capsys.readouterr()
    sends.clear()
    taken = tmp_path / "taken"
    taken.write_text("occupied", encoding="utf-8")
    assert main(_evolve_argv(seed_path, pool_path, taken, script_path)) == EXIT_INPUT
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "input_error"
    assert str(taken) in error["message"]
    assert sends == []
    assert taken.read_text(encoding="utf-8") == "occupied"


def test_evolve_precondition_removes_every_directory_it_made(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    sends.clear()
    kept = tmp_path / "kept"
    kept.mkdir()
    argv = _evolve_argv(seed_path, pool_path, kept / "a" / "b", script_path, "--candidate-size", "0")
    assert main(argv) == EXIT_PRECONDITION
    assert sends == []
    assert list(kept.iterdir()) == []


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8", "not_json"])
@pytest.mark.parametrize("role", ["seed_dataset", "pool", "config", "mock_script"])
def test_unusable_input_file_exits_2_with_one_json_line(role, kind, tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    capsys.readouterr()
    sends.clear()
    bad = tmp_path / f"bad-{role}"
    if kind == "directory":
        bad.mkdir()
    elif kind == "not_utf8":
        bad.write_bytes(b'{"id": "\xff\xfe"}\n')
    elif kind == "not_json":
        bad.write_text("not json\n", encoding="utf-8")
    paths = {"seed_dataset": seed_path, "pool": pool_path, "mock_script": script_path, role: bad}
    extra = ("--config", str(bad)) if role == "config" else ()
    out_dir = tmp_path / "out"
    assert main(_evolve_argv(paths["seed_dataset"], paths["pool"], out_dir, paths["mock_script"], *extra)) == EXIT_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "input_error"
    assert str(bad) in error["message"]
    assert sends == []
    assert not out_dir.exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
def test_config_read_through_a_pipe(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path)
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, json.dumps({"mock_script": str(script_path), "no_cache": True}).encode("utf-8"))
        os.close(write_fd)
        pool_path = tmp_path / "pool.json"
        assert main(["tag", str(seed_path), "--out", str(pool_path), "--config", f"/dev/fd/{read_fd}"]) == EXIT_OK
    finally:
        os.close(read_fd)
    assert json.loads(capsys.readouterr().out)["pool"] == str(pool_path)
    assert len(sends) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["tag", "{seed}", "--out", "{out}"],
        ["respond", "{seed}", "--out", "{out}"],
        ["stats", "{seed}", "--sample-size", "2", "--out", "{out}"],
    ],
    ids=["tag", "respond", "stats"],
)
@pytest.mark.parametrize("where", ["in_a_missing_directory", "is_a_directory"])
def test_unwritable_out_exits_2_before_any_send(where, argv, tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path)
    out = tmp_path / "missing" / "out.json"
    if where == "is_a_directory":
        out = tmp_path / "taken"
        out.mkdir()
    argv = [arg.format(seed=seed_path, out=out) for arg in argv]
    assert main([*argv, "--mock-script", str(script_path), "--no-cache"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "input_error"
    assert str(out) in error["message"]
    assert sends == []
    if where == "is_a_directory":
        assert list(out.iterdir()) == []
    else:
        assert not out.parent.exists()


@pytest.mark.parametrize("command", ["tag", "evolve", "respond", "stats"])
def test_every_record_failing_exits_3_with_one_json_line(command, tmp_path, capsys):
    records, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    capsys.readouterr()
    empty = tmp_path / "empty.json"
    write_script(empty, [])
    out = tmp_path / "out"
    argv = {
        "tag": ["tag", str(seed_path), "--out", str(out)],
        "evolve": ["evolve", str(seed_path), str(pool_path), str(out), "--budgets", "1"],
        "respond": ["respond", str(seed_path), "--out", str(out)],
        "stats": ["stats", str(seed_path), "--sample-size", "2"],
    }[command]
    assert main([*argv, "--mock-script", str(empty), "--no-cache"]) == EXIT_BACKEND
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "backend_error"
    if command == "evolve":
        assert json.loads(captured.out)["failures"] == len(records)
        assert load_dataset(out / "round1_budget1.jsonl") == []
        assert len(json.loads((out / "failures.json").read_text(encoding="utf-8"))) == len(records)
    elif command == "respond":
        assert json.loads(captured.out)["failures"] == len(records)
        assert load_dataset(out) == records
    else:
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "case",
    ["tag_seed", "respond_seed", "evolve_pool_tag", "evolve_pool_surface", "evolve_pool_source", "config_model", "model_flag"],
)
def test_a_lone_surrogate_in_any_input_exits_2_before_any_send(case, tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path, budgets=(1,))
    pool_path = tmp_path / "pool.json"
    assert _tag(seed_path, script_path, pool_path) == EXIT_OK
    capsys.readouterr()
    sends.clear()
    bad_seed = tmp_path / "bad.jsonl"
    bad_seed.write_text('{"instruction": "explain x\\ud800y please in words"}\n', encoding="utf-8")
    if case.startswith("evolve_pool_"):
        pool = json.loads(pool_path.read_text(encoding="utf-8"))
        entry = pool["entries"][0]
        if case == "evolve_pool_tag":
            entry["tag"] = "\ud800"
        else:
            entry[{"evolve_pool_surface": "surface_forms", "evolve_pool_source": "sources"}[case]].append("\ud800")
        pool_path.write_text(json.dumps(pool), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text('{"model": "m\\ud800"}', encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "tag_seed": ["tag", str(bad_seed), "--out", str(out)],
        "respond_seed": ["respond", str(bad_seed), "--out", str(out)],
        "evolve_pool_tag": ["evolve", str(seed_path), str(pool_path), str(out), "--budgets", "1"],
        "evolve_pool_surface": ["evolve", str(seed_path), str(pool_path), str(out), "--budgets", "1"],
        "evolve_pool_source": ["evolve", str(seed_path), str(pool_path), str(out), "--budgets", "1"],
        "config_model": ["tag", str(seed_path), "--out", str(out), "--config", str(config_path)],
        # Python decodes a non-UTF-8 argv byte such as --model $'m\xff' to a lone surrogate.
        "model_flag": ["tag", str(seed_path), "--out", str(out), "--model", "m\udcff"],
    }[case]
    assert main([*argv, "--mock-script", str(script_path), "--no-cache"]) == EXIT_INPUT
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "input_error"
    assert "lone UTF-16 surrogate" in error["message"]
    assert captured.out == ""
    assert sends == []
    assert not out.exists()


@pytest.mark.skipif(os.name != "posix", reason="argv paths are bytes only on POSIX")
@pytest.mark.parametrize("flag", ["--mock-script", "--cache-dir"])
def test_a_path_flag_with_a_non_utf8_byte_still_works(flag, tmp_path, capsys):
    _, seed_path, script_path = _prepare(tmp_path)
    # Python decodes the argv byte of $'s\xff' to the surrogate \udcff, which open() encodes back.
    odd_path = tmp_path / "s\udcff"
    argv = ["tag", str(seed_path), "--out", str(tmp_path / "pool.json"), "--mock-script", str(script_path)]
    if flag == "--mock-script":
        odd_path.write_bytes(script_path.read_bytes())
        argv[-1] = str(odd_path)
        argv.append("--no-cache")
    else:
        argv += ["--cache-dir", str(odd_path)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert odd_path.exists()


def _cli_process(*argv) -> subprocess.CompletedProcess:
    """``tagevol`` in a fresh interpreter with logging unconfigured, as a shell runs it."""
    return run_python("-m", "tagevol.cli", *map(str, argv))


@pytest.mark.skipif(os.name != "posix", reason="argv text is bytes only on POSIX")
def test_two_bad_text_flags_name_the_same_flag_under_any_hash_seed(tmp_path, monkeypatch):
    write_dataset(make_records(1), tmp_path / "seed.jsonl")
    # An argument "m\udcff" reaches the child's argv as the byte 0xff, which it decodes back to \udcff.
    argv = ["tag", tmp_path / "seed.jsonl", "--out", tmp_path / "pool.json", "--model", "m\udcff", "--endpoint", "e\udcff"]
    runs = []
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        runs.append(_cli_process(*argv))
    assert [run.returncode for run in runs] == [EXIT_INPUT, EXIT_INPUT]
    assert runs[0].stderr == runs[1].stderr
    assert "--endpoint holds a lone UTF-16 surrogate" in json.loads(runs[0].stderr)["message"]


def test_the_pipeline_writes_the_same_bytes_under_any_hash_seed(tmp_path, monkeypatch):
    records = make_records(8, prefix="seed")
    rounds = ["rounds/round1_budget1.jsonl", "rounds/round2_budget3.jsonl", "rounds/round3_budget5.jsonl"]
    steps = [
        ["tag", "seed.jsonl", "--out", "pool.json"],
        ["evolve", "seed.jsonl", "pool.json", "rounds", "--preset", "math", "--seed", "42"],
        *(["respond", path] for path in rounds),
        ["merge", *rounds, "--out", "merged.jsonl"],
        ["leakage", "merged.jsonl", "seed.jsonl", "--out", "leakage.json"],
        ["stats", "seed.jsonl", "--sample-size", "5", "--out", "stats.json"],
    ]
    trees = []
    for hash_seed in ("0", "1"):
        run_dir = tmp_path / f"hash{hash_seed}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        write_dataset(records, run_dir / "seed.jsonl")
        write_script(run_dir / "script.json", build_pipeline_script(records, [1, 3, 5], master_seed=42))
        outputs = []
        for argv in steps:
            run = _cli_process(*argv, "--mock-script", "script.json", "--no-cache")
            assert run.returncode == EXIT_OK, run.stderr
            outputs.append((run.stdout, run.stderr))
        files = {str(path.relative_to(run_dir)): path.read_bytes() for path in sorted(run_dir.rglob("*")) if path.is_file()}
        trees.append((outputs, files))
    assert len(trees[0][1]) == 18  # 2 inputs and 16 artifacts
    assert trees[0] == trees[1]


def test_leakage_reports_are_the_same_bytes_under_any_hash_seed(tmp_path, monkeypatch):
    synth, benches = _write_leakage_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = []
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        runs.append(_cli_process("leakage", "synth.jsonl", "gsm8k.jsonl", "math.jsonl", "--ngrams", "1", "3", "8"))
    assert [run.returncode for run in runs] == [EXIT_OK, EXIT_OK]
    assert runs[0].stdout == runs[1].stdout
    reports = json.loads(runs[0].stdout)["reports"]
    assert all(report["samples"] for report in reports)
    assert reports == [
        count_matches(synth, bench, n, benchmark_name=name).to_json() for name, bench in benches.items() for n in (1, 3, 8)
    ]


def test_a_failed_run_puts_its_warnings_into_its_one_stderr_line(tmp_path):
    write_dataset(make_records(1), tmp_path / "seed.jsonl")
    save_pool(make_pool(["loops"]), tmp_path / "pool.json")
    (tmp_path / "empty.json").write_text("[]", encoding="utf-8")
    done = _cli_process(
        "evolve", tmp_path / "seed.jsonl", tmp_path / "pool.json", tmp_path / "rounds",
        "--budgets", "1", "--mock-script", tmp_path / "empty.json", "--no-cache",
    )
    assert done.returncode == EXIT_BACKEND
    assert [json.loads(line) for line in done.stderr.splitlines()] == [
        {
            "error": "backend_error",
            "message": "every record of at least one round failed",
            "warnings": ["candidate batch clamped: requested 30, pool holds 1"],
        }
    ]


def test_a_successful_run_prints_its_warnings_as_one_stderr_line(tmp_path):
    _, seed_path, script_path = _prepare(tmp_path, n_records=2)
    entries = json.loads(script_path.read_text(encoding="utf-8"))
    write_script(script_path, [entries[0], *entries])
    done = _cli_process("tag", seed_path, "--out", tmp_path / "pool.json", "--mock-script", script_path, "--no-cache")
    assert done.returncode == EXIT_OK
    key = entries[0]["prompt_sha256"][:12]
    assert [json.loads(line) for line in done.stderr.splitlines()] == [
        {"warnings": [f"mock script entry {key}... replaced; last registration wins"]}
    ]
    json.loads(done.stdout)


@pytest.mark.parametrize("entries", [{}, "ab", 5], ids=["object", "string", "number"])
def test_pool_entries_that_are_not_a_list_exit_2(entries, tmp_path):
    write_dataset(make_records(1), tmp_path / "seed.jsonl")
    pool_path = tmp_path / "pool.json"
    pool_path.write_text(json.dumps({"version": 1, "model": "m", "entries": entries}), encoding="utf-8")
    (tmp_path / "empty.json").write_text("[]", encoding="utf-8")
    done = _cli_process(
        "evolve", tmp_path / "seed.jsonl", pool_path, tmp_path / "rounds",
        "--budgets", "1", "--mock-script", tmp_path / "empty.json", "--no-cache",
    )
    assert done.returncode == EXIT_INPUT
    assert [json.loads(line) for line in done.stderr.splitlines()] == [
        {"error": "input_error", "message": f"{pool_path}:0: malformed pool: 'entries' must be a list, got {type(entries).__name__}"}
    ]
    assert done.stdout == ""


def test_a_cache_append_that_fails_exits_2_with_one_json_line(tmp_path, capsys, sends):
    _, seed_path, script_path = _prepare(tmp_path)
    (tmp_path / "cache").mkdir()
    os.symlink(tmp_path / "missing" / "responses.jsonl", tmp_path / "cache" / "responses.jsonl")
    argv = ["tag", "seed.jsonl", "--out", "pool.json", "--mock-script", "script.json", "--cache-dir", "cache"]
    assert main(argv) == EXIT_INPUT
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input_error"
    assert err["message"].startswith("cannot write cache/responses.jsonl: [Errno 2] No such file or directory")
    assert sends
    assert not (tmp_path / "pool.json").exists()
