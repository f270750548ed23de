"""Command-line interface.

The paper positions Match as "an independent component" usable from
many tools; the CLI is the smallest such tool, now speaking the
pipeline/session API:

.. code-block:: console

    $ python -m repro match warehouse.sql star.sql --format json
    $ python -m repro match po_cidx.xml po_excel.xml --one-to-one
    $ python -m repro match a.sql b.sql --pipeline mapping=one-to-one
    $ python -m repro match-many mediated.json src1.sql src2.xml src3.oo
    $ python -m repro index schemas/ --repo corpus.repo
    $ python -m repro search query.sql --repo corpus.repo -k 3
    $ python -m repro show warehouse.sql

``match-many`` matches one source schema against N targets through a
:class:`repro.MatchSession`, so the source's preparation (and the
linguistic memo) is shared across all N matches. ``--pipeline`` swaps
registered stage variants into the run (``linguistic=off``,
``structural=no-context``, ``mapping=one-to-one``,
``mapping=hungarian``).

``index`` ingests schema files into a persistent
:class:`repro.SchemaRepository` (one canonical-schema artifact per
schema, vocabulary index updated incrementally); ``search`` ranks the
corpus against a query schema and runs the full pipeline only on the
top ``--candidates`` schemas.

Schema formats are detected from the file extension: ``.sql`` (mini
DDL), ``.xml`` (the XML schema dialect), ``.dtd``, ``.oo``
(class-definition DSL), ``.json`` (serialized schema).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.config import CupidConfig
from repro.core.tuning import auto_config
from repro.exceptions import ReproError
from repro.io.dtd import parse_dtd
from repro.io.json_io import mapping_to_dict, schema_from_json
from repro.io.oo_model import parse_oo_model
from repro.io.sql_ddl import parse_sql_ddl
from repro.io.xml_schema import parse_xml_schema
from repro.linguistic.thesaurus import empty_thesaurus
from repro.mapping.assignment import greedy_one_to_one
from repro.mapping.mapping import Mapping
from repro.model.schema import Schema
from repro.obs import trace
from repro.pipeline import CupidResult, MatchPipeline, MatchSession
from repro.repository import SchemaRepository
from repro.serving.metrics import search_latency_schema
from repro.tree.construction import construct_schema_tree

#: Extensions ``load_schema`` understands (also what ``index`` picks
#: up when handed a directory).
SCHEMA_EXTENSIONS = (".sql", ".xml", ".dtd", ".oo", ".json")


def load_schema(path: str) -> Schema:
    """Load a schema file, dispatching on its extension."""
    name = os.path.splitext(os.path.basename(path))[0]
    extension = os.path.splitext(path)[1].lower()
    with open(path) as handle:
        text = handle.read()
    if extension == ".sql":
        return parse_sql_ddl(text, name)
    if extension == ".xml":
        return parse_xml_schema(text)
    if extension == ".dtd":
        return parse_dtd(text, name)
    if extension == ".oo":
        return parse_oo_model(text, name)
    if extension == ".json":
        return schema_from_json(text)
    raise ReproError(
        f"cannot infer schema format from extension {extension!r} "
        "(expected .sql, .xml, .dtd, .oo, or .json)"
    )


def parse_pipeline_spec(spec: str) -> List[Tuple[str, str]]:
    """Parse ``--pipeline`` overrides: ``stage=variant[,stage=variant]``."""
    overrides: List[Tuple[str, str]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ReproError(
                f"bad --pipeline entry {part!r} (expected stage=variant, "
                "e.g. mapping=one-to-one)"
            )
        stage, _, variant = part.partition("=")
        overrides.append((stage.strip(), variant.strip()))
    return overrides


def _add_match_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``match`` and ``match-many``."""
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--one-to-one", action="store_true",
        help="extract a 1:1 mapping (greedy) instead of the naive 1:n",
    )
    parser.add_argument(
        "--no-thesaurus", action="store_true",
        help="run without any linguistic knowledge (ablation)",
    )
    parser.add_argument(
        "--cinc", type=float, default=None,
        help="override the structural increase factor (Table 1: 1.2)",
    )
    parser.add_argument(
        "--min-similarity", type=float, default=None,
        help="only print correspondences at or above this wsim",
    )
    parser.add_argument(
        "--engine", choices=("dense", "reference"), default=None,
        help="matching engine (default: dense; reference is the "
             "dict-based correctness oracle)",
    )
    parser.add_argument(
        "--pipeline", default=None, metavar="STAGE=VARIANT[,...]",
        help="substitute registered stage variants (linguistic=off, "
             "structural=no-context, mapping=one-to-one, "
             "mapping=hungarian)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="dump run counters (compared/pruned/scaled pairs, cache "
             "hit rates, per-phase timings) to stderr",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write this run's span tree (pipeline stages, TreeMatch "
             "passes) as Chrome trace-event JSON, loadable in "
             "chrome://tracing or Perfetto",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cupid generic schema matching (VLDB 2001 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    match = commands.add_parser(
        "match", help="match two schema files and print the mapping"
    )
    match.add_argument("source", help="source schema file")
    match.add_argument("target", help="target schema file")
    match.add_argument(
        "--include-nonleaf", action="store_true",
        help="also print non-leaf (structural) correspondences",
    )
    match.add_argument(
        "--auto-tune", action="store_true",
        help="derive cinc / pruning ratio from the schema shapes",
    )
    _add_match_options(match)

    many = commands.add_parser(
        "match-many",
        help="match one source schema against many targets through a "
             "shared session (one prepare, N matches)",
    )
    many.add_argument("source", help="source schema file")
    many.add_argument("targets", nargs="+", help="target schema files")
    _add_match_options(many)

    index = commands.add_parser(
        "index",
        help="ingest schema files into a persistent schema repository "
             "(schema artifacts + vocabulary index)",
    )
    index.add_argument(
        "paths", nargs="+",
        help="schema files and/or directories to ingest (directories "
             "are scanned for known schema extensions)",
    )
    index.add_argument(
        "--repo", required=True, metavar="DIR",
        help="repository directory (created if absent)",
    )
    index.add_argument(
        "--stats", action="store_true",
        help="dump repository cache counters to stderr",
    )

    search = commands.add_parser(
        "search",
        help="rank a repository's schemas against a query schema; the "
             "full pipeline runs only on the top --candidates",
    )
    search.add_argument("schema", help="query schema file")
    search.add_argument(
        "--repo", required=True, metavar="DIR",
        help="repository directory (must exist; see 'repro index')",
    )
    search.add_argument(
        "-k", type=int, default=5, dest="k",
        help="number of ranked matches to return (default: 5)",
    )
    search.add_argument(
        "--candidates", type=int, default=None, metavar="C",
        help="run the matcher only on the C best index candidates "
             "(default: match the whole corpus)",
    )
    search.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    search.add_argument(
        "--one-to-one", action="store_true",
        help="extract 1:1 mappings (greedy) in the reported matches",
    )
    search.add_argument(
        "--min-similarity", type=float, default=None,
        help="only report correspondences at or above this wsim",
    )
    search.add_argument(
        "--stats", action="store_true",
        help="dump search + repository cache counters to stderr",
    )
    search.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the search's span tree (index ranking, candidate "
             "matches) as Chrome trace-event JSON",
    )

    serve = commands.add_parser(
        "serve",
        help="run the HTTP/JSON match daemon over a repository "
             "(endpoints: /search /match /ingest /health /stats)",
    )
    serve.add_argument(
        "--repo", required=True, metavar="DIR",
        help="repository directory (created if absent)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks an ephemeral port (default: 8765)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="max admitted-but-unfinished requests before 503 "
             "(default: config.serving_queue_depth)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="default per-request deadline in seconds; 0 disables "
             "(default: config.serving_timeout_s)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )

    verify = commands.add_parser(
        "verify",
        help="audit a repository's on-disk integrity (artifact "
             "presence and fingerprints, catalog counts and index "
             "profiles against a fresh preparation) without changing "
             "it; non-zero exit on any problem",
    )
    verify.add_argument(
        "--repo", required=True, metavar="DIR",
        help="repository directory to audit",
    )
    verify.add_argument(
        "--quick", action="store_true",
        help="manifest and artifact presence audit only; skip the "
             "per-schema fingerprint re-verification",
    )

    show = commands.add_parser(
        "show", help="print a schema file as its expanded schema tree"
    )
    show.add_argument("schema", help="schema file")
    return parser


def _config_from_args(
    args: argparse.Namespace,
    source: Optional[Schema] = None,
    target: Optional[Schema] = None,
) -> CupidConfig:
    config = CupidConfig()
    if getattr(args, "auto_tune", False) and source is not None:
        config = auto_config(source, target, config)
    if args.cinc is not None:
        config = config.replace(cinc=args.cinc)
    if args.engine is not None:
        config = config.replace(engine=args.engine)
    return config


def _pipeline_from_args(
    args: argparse.Namespace, config: CupidConfig
) -> MatchPipeline:
    thesaurus = empty_thesaurus() if args.no_thesaurus else None
    pipeline = MatchPipeline.default(thesaurus=thesaurus, config=config)
    if args.pipeline:
        for stage, variant in parse_pipeline_spec(args.pipeline):
            pipeline = pipeline.with_variant(stage, variant)
    return pipeline


def _selected_elements(
    result: CupidResult, args: argparse.Namespace, include_nonleaf: bool
) -> List:
    mapping = result.leaf_mapping
    if args.one_to_one:
        mapping = greedy_one_to_one(mapping)
    elements = list(mapping)
    if include_nonleaf:
        elements += list(result.nonleaf_mapping)
    if args.min_similarity is not None:
        elements = [
            e for e in elements if e.similarity >= args.min_similarity
        ]
    elements.sort(key=lambda e: (-e.similarity, e.path_pair()))
    return elements


def _timings_ms(result: CupidResult) -> Dict[str, float]:
    return {
        phase: round(seconds * 1000.0, 3)
        for phase, seconds in result.timings.items()
    }


def _session_stats(session: MatchSession) -> Dict[str, object]:
    """Cache counters plus the session-cumulative linguistic memo."""
    stats: Dict[str, object] = dict(session.cache_info())
    memo = session.pipeline.linguistic.memo
    if memo is not None:
        stats.update(memo.stats())
    return stats


def _print_stats(stats: Dict[str, object], header: str) -> None:
    print(f"# {header}", file=sys.stderr)
    for key, value in stats.items():
        if isinstance(value, float):
            value = f"{value:.4f}"
        print(f"#   {key}: {value}", file=sys.stderr)


def _command_match(args: argparse.Namespace) -> int:
    source = load_schema(args.source)
    target = load_schema(args.target)

    config = _config_from_args(args, source, target)
    pipeline = _pipeline_from_args(args, config)
    result = pipeline.run(source, target)

    elements = _selected_elements(args=args, result=result,
                                  include_nonleaf=args.include_nonleaf)

    if args.format == "json":
        out = Mapping(source.name, target.name, elements)
        payload = mapping_to_dict(out)
        # Per-phase timings and engine counters ride along in JSON so
        # downstream tooling need not scrape the --stats text dump.
        payload["timings_ms"] = _timings_ms(result)
        payload["stats"] = pipeline.run_stats(result)
        print(json.dumps(payload, indent=2))
    else:
        print(f"# {source.name} -> {target.name}: "
              f"{len(elements)} correspondences")
        for element in elements:
            print(element)
    if args.stats:
        _print_stats(pipeline.run_stats(result), "run stats")
    return 0


def _command_match_many(args: argparse.Namespace) -> int:
    source = load_schema(args.source)
    targets = [load_schema(path) for path in args.targets]

    config = _config_from_args(args)
    session = MatchSession(pipeline=_pipeline_from_args(args, config))
    results = session.match_many(source, targets)

    if args.format == "json":
        matches = []
        for target, result in zip(targets, results):
            elements = _selected_elements(
                args=args, result=result, include_nonleaf=False
            )
            payload = mapping_to_dict(
                Mapping(source.name, target.name, elements)
            )
            payload["timings_ms"] = _timings_ms(result)
            # Memo counters are session-cumulative, not per match, so
            # they are reported once in the session block below.
            payload["stats"] = session.pipeline.run_stats(
                result, include_memo=False
            )
            matches.append(payload)
        print(json.dumps(
            {
                "source_schema": source.name,
                "matches": matches,
                "session": _session_stats(session),
            },
            indent=2,
        ))
    else:
        for target, result in zip(targets, results):
            elements = _selected_elements(
                args=args, result=result, include_nonleaf=False
            )
            print(f"# {source.name} -> {target.name}: "
                  f"{len(elements)} correspondences")
            for element in elements:
                print(element)
    if args.stats:
        _print_stats(_session_stats(session), "session cache")
        for target, result in zip(targets, results):
            _print_stats(
                session.pipeline.run_stats(result, include_memo=False),
                f"run stats ({source.name} -> {target.name})",
            )
    return 0


def _collect_schema_files(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted schema-file list."""
    collected: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()  # deterministic traversal across filesystems
                for name in sorted(files):
                    if os.path.splitext(name)[1].lower() in SCHEMA_EXTENSIONS:
                        collected.append(os.path.join(root, name))
        else:
            collected.append(path)
    return collected


def _command_index(args: argparse.Namespace) -> int:
    files = _collect_schema_files(args.paths)
    if not files:
        raise ReproError(
            "no schema files found under the given paths "
            f"(recognized extensions: {', '.join(SCHEMA_EXTENSIONS)})"
        )
    with SchemaRepository(args.repo) as repo:
        for path in files:
            try:
                schema = load_schema(path)
            except ReproError as exc:
                raise ReproError(f"{path}: {exc}") from exc
            schema_id = repo.ingest(schema)
            print(f"{schema_id}  <-  {path}")
        print(
            f"# {len(files)} file(s) ingested; repository now holds "
            f"{len(repo)} schema(s) at {args.repo}"
        )
        if args.stats:
            _print_stats(repo.cache_info(), "repository cache")
    return 0


def _command_search(args: argparse.Namespace) -> int:
    query = load_schema(args.schema)
    with SchemaRepository.open(args.repo) as repo:
        start = time.perf_counter()
        search = repo.search(
            query, k=args.k, candidates=args.candidates
        )
        elapsed = time.perf_counter() - start
        if args.format == "json":
            matches = []
            for match in search:
                elements = _selected_elements(
                    args=args, result=match.result, include_nonleaf=False
                )
                payload = mapping_to_dict(Mapping(
                    query.name, match.schema_name, elements
                ))
                payload["schema_id"] = match.schema_id
                payload["score"] = round(match.score, 6)
                payload["timings_ms"] = _timings_ms(match.result)
                matches.append(payload)
            print(json.dumps(
                {
                    "query_schema": search.query_name,
                    "matches": matches,
                    "stats": search.stats,
                    "latency_ms": search_latency_schema(
                        search.stats, elapsed
                    ),
                    "repository": repo.cache_info(),
                },
                indent=2,
            ))
        else:
            stats = search.stats
            print(
                f"# {search.query_name} vs {args.repo}: "
                f"{stats['corpus_size']} schemas, "
                f"{stats['candidates_considered']} matched, "
                f"{stats['candidates_pruned']} pruned by the index"
            )
            for rank, match in enumerate(search, start=1):
                elements = _selected_elements(
                    args=args, result=match.result, include_nonleaf=False
                )
                print(
                    f"{rank}. {match.schema_name} [{match.schema_id}] "
                    f"score {match.score:.4f} "
                    f"({len(elements)} correspondences)"
                )
        if args.stats:
            _print_stats(search.stats, "search stats")
            _print_stats(repo.cache_info(), "repository cache")
            _print_stats(repo.recovery_info(), "recovery")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    # Deliberately no context manager: verify is a pure audit and must
    # not rewrite (and thereby silently heal) the layout it inspects.
    # Opening writes nothing; what it would recover or roll back is
    # reported below and reaches the disk only with a save.
    problems: List[str] = []
    repo = SchemaRepository.open(args.repo)
    problems.extend(repo.audit())
    checked = 0
    if not args.quick:
        for schema_id in repo.schema_ids():
            try:
                repo.verify(schema_id)
            except ReproError as exc:
                problems.append(f"artifact {schema_id}: {exc}")
            checked += 1
    recovery = repo.recovery_info()
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    mode = "quick (manifest + presence)" if args.quick else "full"
    print(
        f"# verify {args.repo}: {mode} audit, {checked} artifact(s) "
        f"re-verified, {len(problems)} problem(s)"
    )
    for key in ("index_rebuilds", "recovered_ingests",
                "rolled_back_ingests"):
        if recovery.get(key):
            print(f"#   {key}: {recovery[key]}")
    return 1 if problems else 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so plain match/search invocations never pay for
    # the serving stack.
    from repro.serving import MatchService
    from repro.serving.http import serve as run_daemon

    repo = SchemaRepository(args.repo)
    service = MatchService(
        repo, queue_depth=args.queue_depth, timeout_s=args.timeout
    )

    def announce(server) -> None:
        health = service.health()
        print(
            f"serving {args.repo} on http://{args.host}:{server.port} "
            f"({health['schemas']} schemas, "
            f"queue depth {health['queue_depth']})",
            file=sys.stderr,
            flush=True,
        )

    run_daemon(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        ready=announce,
    )
    return 0


def _command_show(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    tree = construct_schema_tree(schema)
    for node in tree.nodes():
        depth = len(node.path()) - 1
        data_type = f": {node.data_type.value}" if node.data_type else ""
        optional = " (optional)" if node.optional else ""
        print(f"{'  ' * depth}{node.name}{data_type}{optional}")
    refints = schema.refint_elements()
    if refints:
        print(f"# {len(refints)} referential constraint(s):")
        for refint in refints:
            sources = ", ".join(
                s.name for s in schema.aggregated_members(refint)
            )
            print(f"#   {refint.name}: ({sources})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        trace.arm()
    try:
        if args.command == "match":
            return _command_match(args)
        if args.command == "match-many":
            return _command_match_many(args)
        if args.command == "index":
            return _command_index(args)
        if args.command == "search":
            return _command_search(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "verify":
            return _command_verify(args)
        return _command_show(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if trace_path:
            # Written even after an error: a partial trace of a failed
            # run is exactly when a trace is most wanted.
            events = trace.write_chrome_trace(trace_path)
            print(
                f"# trace: {events} event(s) -> {trace_path}",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
