"""Batch command line driving the two-phase summarization pipeline.

Subcommands map one-to-one onto pipeline stages (preprocess, select,
summarize, evaluate) plus a ``pipeline`` command that chains them. Flag
values beat config-file values, which beat built-in defaults; the config
file is JSON, named by --config or the PODSELECT_CONFIG environment
variable. Every command resolves and checks all of its settings, from the
_SETTINGS table, before any stage runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
from concurrent import futures
from contextlib import contextmanager
from pathlib import Path

from . import abstractive, corpus, evalharness, preprocess, selection, topics
from .errors import (BackendError, ConfigError, EmptyDocumentError,
                     InsufficientContentError, PodselectError)

logger = logging.getLogger("podselect")

STRATEGIES = ("window", "novelty", "topic", "none")
BACKENDS = ("null", "remote")
_REPORT_EXT = {"text": "txt", "csv": "csv", "json": "json"}
REPORT_FORMATS = tuple(_REPORT_EXT)
PARTIAL_SUFFIX = ".partial"

# Every setting a flag or the config file can give: key -> (type, default,
# limit), the limit being an int's minimum or a str's allowed values (None: no
# limit). A None window_size or jobs leaves the choice to each strategy or stage.
_SETTINGS = {
    "strategy": (str, "window", STRATEGIES),
    "window_size": (int, None, 1),
    "top_k": (int, selection.DEFAULT_TOP_K, 0),
    "topics": (int, topics.DEFAULT_NUM_TOPICS, 1),
    "budget": (int, selection.DEFAULT_TOKEN_BUDGET, 1),
    "seed": (int, 0, None),
    "jobs": (int, None, 1),
    "backend": (str, "null", BACKENDS),
    "endpoint": (str, None, None),
    "format": (str, "text", REPORT_FORMATS),
    "profanity_list_path": (str, None, None),
}


@contextmanager
def atomic_write(path: Path):
    """Write through a .partial file, renaming only on success.

    An interrupted run leaves the clearly-named partial file behind and
    never a half-written final artifact.
    """
    partial = path.with_name(path.name + PARTIAL_SUFFIX)
    handle = open(partial, "w", encoding="utf-8", newline="")
    try:
        yield handle
    finally:
        handle.close()
    os.replace(partial, path)


def _load_config_mapping(ns) -> dict:
    path = ns.config or os.environ.get("PODSELECT_CONFIG")
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError: JSON is UTF-8
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data


def _settings(ns) -> dict:
    """Resolve every setting once: the flag, then the config file, then the default.

    Raises ConfigError for an unknown config key and for a flag or config
    value of the wrong type, below its minimum or outside its allowed values.
    """
    config = _load_config_mapping(ns)
    for key in config:
        if key not in _SETTINGS:
            raise ConfigError(
                f"unknown config key {key!r}; known keys: {', '.join(_SETTINGS)}")
    resolved = {}
    for key, (kind, default, limit) in _SETTINGS.items():
        flag = getattr(ns, key, None)
        if flag is None and key not in config:
            resolved[key] = default
            continue
        value = config[key] if flag is None else flag
        if kind is str:
            ok = isinstance(value, str) and (limit is None or value in limit)
            what = "a string" if limit is None else "one of " + ", ".join(limit)
        else:  # type(), because a bool is an int to isinstance
            ok = type(value) is int and (limit is None or value >= limit)
            what = "an integer" if limit is None else f"an integer >= {limit}"
        if not ok:
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        resolved[key] = value
    return resolved


def _read_records(path: str, what: str, parse) -> list:
    """parse(record, line_number) for each JSON object line of a JSONL file, Nones left out.

    Raises PodselectError("{what} line N: <reason>") for a line that is not UTF-8 or a
    JSON object, that parse rejects (KeyError, TypeError, ValueError) or that repeats an id.
    """
    items = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
                item = parse(record, line_number)
                if record["id"] in seen:
                    raise ValueError(f"duplicate id {record['id']!r}")
                seen.add(record["id"])
            except UnicodeEncodeError:
                raise PodselectError(f"{what} line {line_number}: not valid UTF-8") from None
            except json.JSONDecodeError as exc:
                raise PodselectError(f"{what} line {line_number}: invalid JSON: {exc}") from exc
            except KeyError as exc:
                raise PodselectError(f"{what} line {line_number}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise PodselectError(f"{what} line {line_number}: {exc}") from exc
            if item is not None:
                items.append(item)
    return items


def _derive_seed(base_seed: int, episode_id: str) -> int:
    """Stable per-episode seed so parallel runs stay reproducible."""
    digest = hashlib.sha256(episode_id.encode("utf-8")).digest()
    return (base_seed * 1_000_003 + int.from_bytes(digest[:8], "big")) % (2 ** 63)


# --- preprocess ---------------------------------------------------------------


def _run_preprocess(input_path: str, out_dir: Path, settings: dict) -> list[corpus.Episode]:
    episodes = list(corpus.load_episodes(input_path))
    kept, report = preprocess.filter_corpus(
        episodes, preprocess.FilterConfig(settings["profanity_list_path"]))

    # split before the first write, so a corpus too small to split leaves nothing
    split_payload = ""
    if kept:
        try:
            split_payload = preprocess.split_dataset(
                [e.id for e in kept], seed=settings["seed"]).to_jsonl()
        except InsufficientContentError as exc:
            raise InsufficientContentError(
                f"preprocess: {report.kept_count} of {report.input_count} episodes "
                f"kept; {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "kept.jsonl") as handle:
        corpus.write_episodes(kept, handle)
    with atomic_write(out_dir / "filter_report.json") as handle:
        handle.write(report.to_json() + "\n")
    with atomic_write(out_dir / "split.jsonl") as handle:
        handle.write(split_payload)

    logger.info("preprocess: %d in, %d kept", report.input_count, report.kept_count)
    return kept


def cmd_preprocess(ns) -> int:
    _run_preprocess(ns.input, Path(ns.output), _settings(ns))
    return 0


# --- select -------------------------------------------------------------------


def _select_one(episode: corpus.Episode, strategy: str,
                selector: selection.SelectorConfig, num_topics: int, seed: int,
                diagnostics: bool
                ) -> tuple[str, dict | None, abstractive.BackendInput | None, str | None]:
    """Worker: build the document, run one selection strategy and cap the pick.

    Takes a picklable Episode and returns (id, record, capped input, error),
    plain values that can cross a process boundary. The capped input is
    enforce_budget at the selector's token budget, so pipeline's summarize
    stage needs no second build of the document.
    """
    try:
        doc = corpus.build_document(episode)
        if strategy == "window":
            result = selection.select_window(doc, selector)
        elif strategy == "novelty":
            result = selection.select_novelty(doc, selector)
        elif strategy == "topic":
            result = topics.fit_and_select(doc, topics.TopicConfig(
                num_topics=num_topics, seed=_derive_seed(seed, episode.id)), selector)
        else:
            result = selection.select_head(doc, selector.token_budget)
        capped = abstractive.enforce_budget(result, doc, selector.token_budget)
        return episode.id, result.to_record(diagnostics), capped, None
    except (EmptyDocumentError, InsufficientContentError) as exc:
        return episode.id, None, None, str(exc)


def _run_select(input_path: str, output_path: Path, settings: dict,
                diagnostics: bool) -> list[abstractive.BackendInput]:
    """Write the selections file; return the capped inputs in its line order."""
    selector = selection.SelectorConfig(
        window_size=settings["window_size"],
        novelty_top_k=settings["top_k"],
        token_budget=settings["budget"],
    )
    select_one = functools.partial(
        _select_one, strategy=settings["strategy"], selector=selector,
        num_topics=settings["topics"], seed=settings["seed"], diagnostics=diagnostics)
    episodes = list(corpus.load_episodes(input_path))
    # a pool starts all of its workers at once (under fork, when it opens): one per episode at most
    jobs = min(settings["jobs"] or os.cpu_count() or 1, len(episodes))
    skipped = 0
    results: list[dict] = []
    inputs: list[abstractive.BackendInput] = []
    if jobs > 1:
        with futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(
                select_one, episodes,
                chunksize=max(1, len(episodes) // (jobs * 4) or 1),
            ))
    else:
        outcomes = [select_one(episode) for episode in episodes]
    for episode_id, payload, capped, error in outcomes:
        if error is not None:
            logger.warning("skipping %s: %s", episode_id, error)
            skipped += 1
            continue
        results.append(payload)
        inputs.append(capped)
    with atomic_write(output_path) as handle:
        for payload in results:
            handle.write(json.dumps(payload, ensure_ascii=False) + "\n")
    logger.info("select(%s): %d selected, %d skipped",
                settings["strategy"], len(results), skipped)
    return inputs


def cmd_select(ns) -> int:
    _run_select(ns.input, Path(ns.output), _settings(ns), ns.diagnostics)
    return 0


# --- summarize ----------------------------------------------------------------


def _make_backend(settings: dict):
    if settings["backend"] == "null":
        return abstractive.NullBackend()
    if not settings["endpoint"]:
        raise ConfigError("--endpoint is required for the remote backend")
    return abstractive.RemoteBackend(settings["endpoint"])


def _read_capped_inputs(selections_path: str, episodes_path: str,
                        budget: int) -> list[abstractive.BackendInput]:
    """Rebuild the capped backend inputs from a selections file and its episodes.

    Builds only the documents a selection line names, one at a time.
    """
    episodes = {episode.id: episode for episode in corpus.load_episodes(episodes_path)}

    def capped_input(record: dict, line_number: int) -> abstractive.BackendInput | None:
        episode = episodes.get(record["id"])
        doc = None
        if episode is not None:
            try:
                doc = corpus.build_document(episode)
            except EmptyDocumentError as exc:
                logger.warning("skipping %s: %s", episode.id, exc)
        if doc is None:
            logger.warning("selection line %d: no episode %r", line_number, record["id"])
            return None
        result = selection.SelectionResult(
            episode_id=record["id"],
            strategy=record.get("strategy", "window"),
            sentence_indices=tuple(record["indices"]),
            selected_token_count=record.get("tokens", 0),
        )
        return abstractive.enforce_budget(result, doc, budget)

    return _read_records(selections_path, "selection", capped_input)


def _run_summarize(inputs: list[abstractive.BackendInput], output_path: Path,
                   backend, budget: int, jobs: int | None) -> None:
    def run_one(backend_input):
        return abstractive.summarize(backend_input, backend, max_length=budget)

    summaries: list[abstractive.Summary | None] = [None] * len(inputs)
    failures = 0
    with futures.ThreadPoolExecutor(max_workers=jobs or 4) as pool:
        jobs_map = {pool.submit(run_one, item): position
                    for position, item in enumerate(inputs)}
        for future in futures.as_completed(jobs_map):
            position = jobs_map[future]
            try:
                summaries[position] = future.result()
            except BackendError as exc:
                failures += 1
                logger.error("backend failure for %s: %s",
                             inputs[position].episode_id, exc)

    with atomic_write(output_path) as handle:
        for summary in summaries:
            if summary is not None:
                handle.write(json.dumps(summary.to_record(), ensure_ascii=False) + "\n")
        if failures:  # raised before the rename, so --resume runs this stage again
            raise PodselectError(
                f"summarize: {failures} of {len(inputs)} episodes failed; "
                f"{len(inputs) - failures} summaries left in "
                f"{output_path.name}{PARTIAL_SUFFIX}")
    logger.info("summarize: %d written", len(inputs))


def cmd_summarize(ns) -> int:
    settings = _settings(ns)
    backend = _make_backend(settings)
    inputs = _read_capped_inputs(ns.input, ns.episodes, settings["budget"])
    _run_summarize(inputs, Path(ns.output), backend, settings["budget"], settings["jobs"])
    return 0


# --- evaluate -----------------------------------------------------------------


def _summary(record: dict, line_number: int) -> abstractive.Summary:
    episode_id, text = record["id"], record.get("summary", "")
    if not isinstance(episode_id, str) or not isinstance(text, str):
        raise ValueError("'id' and 'summary' must be strings")
    return abstractive.Summary(episode_id=episode_id, text=text,
                               backend_id=record.get("backend", "unknown"))


def _load_references(path: str, raw: bool) -> dict[str, str]:
    references: dict[str, str] = {}
    for episode in corpus.load_episodes(path):
        description = episode.description
        references[episode.id] = description if raw else preprocess.clean_description(description)
    return references


def _run_evaluate(summaries_path: str, references_path: str, output_path: Path,
                  method_id: str, fmt: str, raw_references: bool) -> int:
    summaries = _read_records(summaries_path, "summary", _summary)
    if not summaries:
        raise PodselectError(f"no summaries to evaluate in {summaries_path!r}")
    references = _load_references(references_path, raw_references)
    row = evalharness.evaluate_run(summaries, references, method_id)
    rendered = evalharness.render_table([row], fmt)
    with atomic_write(output_path) as handle:
        handle.write(rendered)
    logger.info("evaluate: %s P=%.2f R=%.2f F=%.2f",
                method_id, row.rouge_l_p, row.rouge_l_r, row.rouge_l_f)
    return 0


def cmd_evaluate(ns) -> int:
    settings = _settings(ns)
    return _run_evaluate(ns.input, ns.references, Path(ns.output),
                         ns.method_id or "run", settings["format"], ns.raw_references)


# --- pipeline -----------------------------------------------------------------


def cmd_pipeline(ns) -> int:
    # Resolve every setting and build the backend before the first write,
    # so a bad setting leaves nothing behind.
    settings = _settings(ns)
    backend = _make_backend(settings)
    out_dir = Path(ns.output)

    kept_path = out_dir / "kept.jsonl"
    preprocess_outputs = [kept_path, out_dir / "filter_report.json", out_dir / "split.jsonl"]
    if ns.resume and all(p.exists() for p in preprocess_outputs):
        logger.info("pipeline: preprocess outputs exist, skipping")
    else:
        _run_preprocess(ns.input, out_dir, settings)

    selections_path = out_dir / "selections.jsonl"
    inputs = None
    if ns.resume and selections_path.exists():
        logger.info("pipeline: selections exist, skipping")
    else:
        inputs = _run_select(str(kept_path), selections_path, settings, ns.diagnostics)

    summaries_path = out_dir / "summaries.jsonl"
    if ns.resume and summaries_path.exists():
        logger.info("pipeline: summaries exist, skipping")
    else:
        if inputs is None:  # select ran in an earlier process: rebuild from its file
            inputs = _read_capped_inputs(str(selections_path), str(kept_path),
                                         settings["budget"])
        _run_summarize(inputs, summaries_path, backend, settings["budget"], settings["jobs"])

    report_path = out_dir / f"report.{_REPORT_EXT[settings['format']]}"
    if ns.resume and report_path.exists():
        logger.info("pipeline: report exists, skipping")
    else:
        _run_evaluate(str(summaries_path), str(kept_path), report_path,
                      settings["strategy"], settings["format"], raw_references=False)
    return 0


# --- parser and entry point ---------------------------------------------------


def _add_io_flags(parser, output_help: str):
    parser.add_argument("--input", required=True, help="input path")
    parser.add_argument("--output", required=True, help=output_help)


def _add_shared_flags(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for anything stochastic (default: 0)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker count; selection defaults to the CPU count, "
                             "backend calls default to 4 concurrent")
    parser.add_argument("--config", default=None,
                        help="JSON config file; PODSELECT_CONFIG is the fallback")


def _add_strategy_flags(parser):
    parser.add_argument("--strategy", choices=STRATEGIES, default=None,
                        help="selection strategy (default: window); 'none' passes "
                             "the transcript head straight through")
    parser.add_argument("--window-size", dest="window_size", type=int, default=None,
                        help="sentences per window (default: 40; the novelty "
                             "strategy defaults to 25)")
    parser.add_argument("--top-k", dest="top_k", type=int, default=None,
                        help="extra top-scoring sentences merged by the novelty "
                             "strategy (default: 5)")
    parser.add_argument("--topics", type=int, default=None,
                        help="topic count for the topic strategy (default: 5)")
    parser.add_argument("--budget", type=int, default=None,
                        help="token budget handed to the backend (default: 1024)")
    parser.add_argument("--diagnostics", action="store_true",
                        help="include per-window scores in the selections file")


def _add_backend_flags(parser):
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="summarization backend (default: null)")
    parser.add_argument("--endpoint", default=None,
                        help="base URL of the remote backend, e.g. http://host:8080")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podselect",
        description="Two-phase podcast summarization: extractive selection "
                    "followed by an abstractive backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="filter a corpus and emit the dataset split")
    _add_io_flags(p, "output directory for kept.jsonl, filter_report.json, split.jsonl")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("select", help="run extractive selection over episodes")
    _add_io_flags(p, "selections JSONL path")
    _add_strategy_flags(p)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("summarize", help="cap selections and run them through a backend")
    _add_io_flags(p, "summaries JSONL path")
    p.add_argument("--episodes", required=True,
                   help="episodes JSONL the selections refer to")
    p.add_argument("--budget", type=int, default=None,
                   help="token budget enforced before the backend call (default: 1024)")
    _add_backend_flags(p)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score summaries against reference descriptions")
    _add_io_flags(p, "report path")
    p.add_argument("--references", required=True,
                   help="episodes JSONL providing reference descriptions")
    p.add_argument("--format", choices=REPORT_FORMATS, default=None,
                   help="report format (default: text)")
    p.add_argument("--method-id", dest="method_id", default=None,
                   help="row label in the report (default: run)")
    p.add_argument("--raw-references", action="store_true",
                   help="score against raw descriptions instead of cleaned ones")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="preprocess, select, summarize, and evaluate")
    _add_io_flags(p, "output directory for all stage artifacts")
    _add_strategy_flags(p)
    _add_backend_flags(p)
    p.add_argument("--format", choices=REPORT_FORMATS, default=None,
                   help="report format (default: text)")
    p.add_argument("--resume", action="store_true",
                   help="skip stages whose outputs already exist")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    except (PodselectError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
