from __future__ import annotations

import json

import pytest

from helpers import build_pipeline_script, make_records, write_script
from tagevol.cli import EXIT_BACKEND, EXIT_INPUT, EXIT_OK, EXIT_PRECONDITION, main
from tagevol.gateway import HttpBackend, MockBackend, request_cache_key
from tagevol.records import InstructionRecord, load_dataset, write_dataset


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


def test_merge_include_seed_requires_the_seed_path(tmp_path, capsys):
    round_path = tmp_path / "round.jsonl"
    write_dataset(make_records(1), round_path)
    code = main(["merge", str(round_path), "--out", str(tmp_path / "m.jsonl"), "--include-seed"])
    assert code == EXIT_PRECONDITION


def test_leakage_out_flag_writes_the_report(tmp_path, capsys):
    synth_path = tmp_path / "synth.jsonl"
    synth_path.write_text(json.dumps({"instruction": "x y z"}) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(["leakage", str(synth_path), str(synth_path), "--ngrams", "2", "--out", str(report_path)])
    assert code == EXIT_OK
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["reports"][0]["matched_benchmark_items"] == 1


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
