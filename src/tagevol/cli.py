"""Command-line pipeline: tag, evolve, respond, merge, leakage, stats.

All randomness flows from a single --seed value; with the mock backend and a
fixed config every command is byte-reproducible. Exit codes: 0 success,
2 input error, 3 backend error, 4 precondition error. Stderr carries at most
one JSON line: the error object of a failure, with the run's library
warnings under ``"warnings"``, or ``{"warnings": [...]}`` after a success
that logged any.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
import typing
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import LoadError, PreconditionError, StageFailed, TagEvolError, WriteError
from .evolution import DEFAULT_CANDIDATE_SIZE, PRESETS, evolve_rounds
from .gateway import (
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_MAX_TOKENS,
    DEFAULT_RETRIES,
    DEFAULT_TEMPERATURE,
    RESPONSE_TEMPERATURE,
    BackendError,
    Gateway,
    HttpBackend,
    MockBackend,
    ResponseCache,
)
from .leakage import count_matches_many
from .metrics import DEFAULT_SAMPLE_SIZE, evaluate_dataset
from .records import (
    _has_type,
    _is_unicode,
    build_manifest,
    dump_json,
    load_dataset,
    manifest_path,
    merge_rounds,
    read_json,
    write_dataset,
    write_json,
)
from .responding import generate_responses
from .tagging import build_tag_pool, load_pool, save_pool

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BACKEND = 3
EXIT_PRECONDITION = 4

DEFAULT_CACHE_DIR = ".tagevol_cache"


@dataclass
class RunConfig:
    """Effective run configuration: config file values overridden by flags.

    Defaults mirror the library's; the library calls check every value.
    Each field with a help text in its metadata is a common flag (:func:`_add_common_flags`).
    """

    endpoint: str | None = field(default=None, metadata={"help": "chat-completion endpoint URL"})
    model: str | None = field(default=None, metadata={"help": "model id sent to the backend"})
    models: dict[typing.Literal["tag", "evolve", "respond", "stats"], str] = field(default_factory=dict)
    seed: int = field(default=0, metadata={"help": "master rng seed (default {})"})
    candidate_size: int = field(default=DEFAULT_CANDIDATE_SIZE, metadata={"help": "candidate tag batch size (default {})"})
    budgets: list[int] | None = None
    max_in_flight: int = field(default=DEFAULT_MAX_IN_FLIGHT, metadata={"help": "max concurrent backend requests (default {})"})
    retries: int = field(default=DEFAULT_RETRIES, metadata={"help": "transient-failure retries per request, and fresh-reply retries per unparseable reply (default {}); 401/403 are never retried"})
    temperature: float = field(default=DEFAULT_TEMPERATURE, metadata={"help": "sampling temperature for tagging/evolution (default {})"})
    response_temperature: float = field(default=RESPONSE_TEMPERATURE, metadata={"help": "sampling temperature for responses (default {})"})
    max_tokens: int = field(default=DEFAULT_MAX_TOKENS, metadata={"help": "max output tokens (default {})"})
    cache_dir: str = field(default=DEFAULT_CACHE_DIR, metadata={"help": "response cache directory (default {})"})
    no_cache: bool = field(default=False, metadata={"help": "disable the response cache"})
    mock_script: str | None = field(default=None, metadata={"help": "JSON mock script; replaces the HTTP backend"})

    def decoding(self, stage: str) -> dict:
        """The ``model``, ``temperature`` and ``max_tokens`` keywords of ``stage``'s library call."""
        model = self.models.get(stage) or self.model or ("mock" if self.mock_script else None)
        if not model:
            raise PreconditionError("no model configured; pass --model or set it in the config file")
        temperature = self.response_temperature if stage == "respond" else self.temperature
        return {"model": model, "temperature": temperature, "max_tokens": self.max_tokens}


_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise LoadError(path, 0, "config must be a JSON object")
        unknown = set(loaded) - _CONFIG_TYPES.keys()
        if unknown:
            raise LoadError(path, 0, f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in sorted(loaded.items()):
            hint = _CONFIG_TYPES[key]
            if not _has_type(value, hint):
                expected = hint.__name__ if isinstance(hint, type) else str(hint)
                raise LoadError(path, 0, f"config key {key!r} must be {expected}, got {json.dumps(value)}")
            # An integer for a float field is stored as the float its flag would give,
            # so the config and flag forms key the cache and the manifest alike.
            values[key] = float(value) if hint is float else value
    # Flags share their config field's name; None means "not given", and --budgets is weighed against
    # --preset in cmd_evolve. Only model and endpoint text reaches a request; a path may hold any byte.
    # Flags are read in field order, so the same bad command line names the same flag in every run.
    for key in _CONFIG_TYPES:
        flag_value = getattr(args, key, None)
        if key in ("model", "endpoint") and flag_value is not None and not _is_unicode(flag_value):
            raise LoadError("command line", 0, f"--{key} holds a lone UTF-16 surrogate, which UTF-8 cannot encode")
        if flag_value is not None:
            values[key] = flag_value
    return RunConfig(**values)


def make_gateway(config: RunConfig) -> Gateway:
    if config.mock_script:
        backend = MockBackend.from_script_file(config.mock_script)
    elif config.endpoint:
        backend = HttpBackend(config.endpoint)
    else:
        raise PreconditionError("no backend configured; pass --endpoint or --mock-script")
    cache = None if config.no_cache else ResponseCache(config.cache_dir)
    return Gateway(
        backend,
        retries=config.retries,
        max_in_flight=config.max_in_flight,
        cache=cache,
    )


def _check_out_path(out: str | Path) -> None:
    """Raise :class:`WriteError` unless ``out`` can be written as a file; called before any send."""
    out = Path(out)
    if not out.parent.is_dir() or out.is_dir():
        raise WriteError(f"cannot write {out}: it is a directory, or its parent is not one")


def _emit(payload: dict, out: str | None = None) -> None:
    if out:
        write_json(payload, out)
    dump_json(payload, sys.stdout)


def _write_with_manifest(records, path: str | Path, sources: list[str], parameters: dict) -> None:
    """Write the dataset ``records`` to ``path``, then its manifest beside it."""
    write_dataset(records, path)
    manifest = build_manifest(name=Path(path).stem, sources=sources, records=records, parameters=parameters)
    write_json(manifest, manifest_path(path))


def cmd_tag(args: argparse.Namespace, config: RunConfig) -> int:
    records = load_dataset(args.seed_dataset)
    _check_out_path(args.out)
    gateway = make_gateway(config)
    pool, report = build_tag_pool(records, gateway, retries_per_record=config.retries, **config.decoding("tag"))
    pool.built_from = {"path": str(args.seed_dataset), "records": len(records)}
    save_pool(pool, args.out)
    write_json(report.to_json(), Path(args.out).with_suffix(".report.json"))
    _emit(
        {
            "pool": str(args.out),
            "entries": pool.entry_count,
            "distinct_tags": pool.distinct_tag_count,
            "tagged_records": report.tagged_records,
            "failed_records": len(report.failures),
        }
    )
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace, config: RunConfig) -> int:
    if args.preset and args.budgets:
        raise PreconditionError("--preset and --budgets both give the budgets; pass one of them")
    config = replace(config, budgets=list(PRESETS[args.preset] if args.preset else config.budgets or []))
    if not config.budgets:
        raise PreconditionError("no budgets configured; pass --budgets or --preset")
    seeds = load_dataset(args.seed_dataset)
    pool = load_pool(args.pool)
    gateway = make_gateway(config)
    decoding = config.decoding("evolve")
    # Made before any send, so an unusable out_dir costs no call; a failed precondition undoes it.
    out_dir = Path(args.out_dir)
    made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise WriteError(f"cannot create {out_dir}: {err}") from err
    try:
        result = evolve_rounds(
            seeds,
            config.budgets,
            pool,
            gateway,
            config.seed,
            config.candidate_size,
            config.retries,
            **decoding,
        )
    except PreconditionError:
        for path in made:
            path.rmdir()
        raise
    parameters = {
        "model": decoding["model"],
        "rng_seed": config.seed,
        "candidate_size": config.candidate_size,
        "budgets": config.budgets,
        "config": asdict(config),
    }
    written = []
    for round_index, (budget, round_records) in enumerate(zip(config.budgets, result.rounds), start=1):
        if args.drop_flagged:
            round_records = [r for r in round_records if not r.flags]
        path = out_dir / f"round{round_index}_budget{budget}.jsonl"
        _write_with_manifest(round_records, path, [str(args.seed_dataset), str(args.pool)], parameters)
        written.append({"path": str(path), "round": round_index, "budget": budget, "records": len(round_records)})
    write_json(result.failures, out_dir / "failures.json")
    _emit({"rounds": written, "failures": len(result.failures)})
    if seeds and any(not round_records for round_records in result.rounds):
        raise StageFailed("every record of at least one round failed")
    return EXIT_OK


def cmd_respond(args: argparse.Namespace, config: RunConfig) -> int:
    records = load_dataset(args.dataset)
    out_path = Path(args.out) if args.out else Path(args.dataset)
    _check_out_path(out_path)
    gateway = make_gateway(config)
    filled, report = generate_responses(records, gateway, overwrite=args.overwrite, **config.decoding("respond"))
    write_dataset(filled, out_path)
    write_json(report.failures, out_path.with_suffix(".failures.json"))
    _emit(
        {
            "dataset": str(out_path),
            "filled": report.filled,
            "skipped": report.skipped,
            "failures": len(report.failures),
        }
    )
    if report.failures and not report.filled:
        raise StageFailed("every record sent to the backend failed")
    return EXIT_OK


def cmd_merge(args: argparse.Namespace, config: RunConfig) -> int:
    if args.include_seed and not args.seed_dataset:
        raise PreconditionError("--include-seed requires --seed-dataset")
    rounds = [load_dataset(path) for path in args.rounds]
    seed = load_dataset(args.seed_dataset) if args.include_seed else ()
    merged = merge_rounds(rounds, seed=seed)
    repeated = [record_id for record_id, count in Counter(r.id for r in merged).items() if count > 1]
    if repeated:
        raise LoadError(args.out, 0, f"duplicate record id {repeated[0]!r}: two inputs give it different instructions; nothing written")
    sources = [str(p) for p in ([args.seed_dataset] if args.include_seed else []) + args.rounds]
    _write_with_manifest(merged, args.out, sources, {"include_seed": bool(args.include_seed), "config": asdict(config)})
    _emit({"dataset": str(args.out), "records": len(merged)})
    return EXIT_OK


def cmd_leakage(args: argparse.Namespace, config: RunConfig) -> int:
    synth = load_dataset(args.dataset)
    benches = [(bench_path, load_dataset(bench_path)) for bench_path in args.benchmarks]
    if args.out:
        _check_out_path(args.out)
    if min(args.ngrams) < 1:
        raise PreconditionError("n must be >= 1")
    # One pass per distinct n over every benchmark; reports keep command-line order.
    by_n = {n: count_matches_many(synth, benches, n) for n in dict.fromkeys(args.ngrams)}
    reports = [by_n[n][b].to_json() for b in range(len(benches)) for n in args.ngrams]
    _emit({"dataset": str(args.dataset), "reports": reports}, out=args.out)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace, config: RunConfig) -> int:
    records = load_dataset(args.dataset)
    if args.out:
        _check_out_path(args.out)
    gateway = make_gateway(config)
    report = evaluate_dataset(
        records,
        gateway,
        sample_size=args.sample_size,
        rng=random.Random(config.seed),
        retries=config.retries,
        **config.decoding("stats"),
    )
    _emit(report.to_json(), out=args.out)
    return EXIT_OK


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """``--config``, then one flag per :class:`RunConfig` field with a help text, in field order. A flag is typed
    as its field (``store_true`` for a bool) and is None when not given; a "{}" in its help quotes the default."""
    parser.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(RunConfig):
        if "help" in f.metadata:
            hint = _CONFIG_TYPES[f.name]
            kind = {"action": "store_true"} if hint is bool else {"type": hint} if hint in (int, float) else {}
            parser.add_argument("--" + f.name.replace("_", "-"), default=None, help=f.metadata["help"].format(f.default), **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagevol",
        description="Synthesize evolved instruction data by injecting knowledge-tag combinations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tag = sub.add_parser("tag", help="build a tag pool from a seed dataset")
    p_tag.add_argument("seed_dataset", help="seed JSONL file")
    p_tag.add_argument("--out", required=True, help="output pool JSON file")
    _add_common_flags(p_tag)
    p_tag.set_defaults(func=cmd_tag)

    p_evolve = sub.add_parser("evolve", help="run budget-controlled evolution rounds")
    p_evolve.add_argument("seed_dataset", help="seed JSONL file")
    p_evolve.add_argument("pool", help="tag pool JSON file")
    p_evolve.add_argument("out_dir", help="output directory for round files")
    p_evolve.add_argument("--budgets", type=int, nargs="+", help="one budget per round, e.g. --budgets 1 3 5")
    p_evolve.add_argument("--preset", choices=sorted(PRESETS), help="budget preset: math=[1,3,5], code=[3,5,7]")
    p_evolve.add_argument("--drop-flagged", dest="drop_flagged", action="store_true", help="drop records with validation flags")
    _add_common_flags(p_evolve)
    p_evolve.set_defaults(func=cmd_evolve)

    p_respond = sub.add_parser("respond", help="generate responses for instructions")
    p_respond.add_argument("dataset", help="JSONL file to complete")
    p_respond.add_argument("--out", help="output path (default: rewrite in place)")
    p_respond.add_argument("--overwrite", action="store_true", help="regenerate existing responses")
    _add_common_flags(p_respond)
    p_respond.set_defaults(func=cmd_respond)

    p_merge = sub.add_parser("merge", help="merge round datasets with duplicate removal")
    p_merge.add_argument("rounds", nargs="+", help="round JSONL files, in round order")
    p_merge.add_argument("--out", required=True, help="merged output path")
    p_merge.add_argument("--include-seed", dest="include_seed", action="store_true", help="prepend the seed dataset")
    p_merge.add_argument("--seed-dataset", dest="seed_dataset", help="seed JSONL file for --include-seed")
    _add_common_flags(p_merge)
    p_merge.set_defaults(func=cmd_merge)

    p_leak = sub.add_parser("leakage", help="n-gram contamination report against benchmarks")
    p_leak.add_argument("dataset", help="synthesized JSONL file")
    p_leak.add_argument("benchmarks", nargs="+", help="benchmark JSONL files")
    p_leak.add_argument("--ngrams", type=int, nargs="+", default=[8, 13], help="gram sizes (default: %(default)s)")
    p_leak.add_argument("--out", help="also write the report to this path")
    _add_common_flags(p_leak)
    p_leak.set_defaults(func=cmd_leakage)

    p_stats = sub.add_parser("stats", help="difficulty/diversity report by re-tagging a sample")
    p_stats.add_argument("dataset", help="JSONL file to evaluate")
    p_stats.add_argument("--sample-size", dest="sample_size", type=int, default=DEFAULT_SAMPLE_SIZE, help="records to sample (default %(default)s)")
    p_stats.add_argument("--out", help="also write the report to this path")
    _add_common_flags(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    return parser


class _WarningLog(logging.Handler):
    """The ``tagevol`` warnings of one command, for its one stderr line."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def main(argv: list[str] | None = None) -> int:
    """Run one command; stderr gets at most one JSON line (see the module docstring)."""
    args = build_parser().parse_args(argv)
    collected = _WarningLog()
    logger = logging.getLogger("tagevol")
    logger.addHandler(collected)
    report: dict = {}
    try:
        code = args.func(args, build_config(args))
    except PreconditionError as err:
        code, report = EXIT_PRECONDITION, {"error": "precondition_error", "message": str(err)}
    except (BackendError, StageFailed) as err:
        code, report = EXIT_BACKEND, {"error": "backend_error", "message": str(err)}
    except TagEvolError as err:
        code, report = EXIT_INPUT, {"error": "input_error", "message": str(err)}
    finally:
        logger.removeHandler(collected)
    if collected.messages:
        report["warnings"] = collected.messages
    if report:
        print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
