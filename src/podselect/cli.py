"""Batch command line driving the two-phase summarization pipeline.

Subcommands map one-to-one onto pipeline stages (preprocess, select,
summarize, evaluate) plus a ``pipeline`` command that chains them. Flag
values beat config-file values, which beat built-in defaults; the config
file is JSON, named by --config or the PODSELECT_CONFIG environment
variable. Every command resolves and checks all of its settings, from the
_SETTINGS table, before any stage runs.
"""

from __future__ import annotations

# Modules only some runs need (topics, hashlib, csv, pickle, http.client) are
# imported where they are used, so no launch pays for them.
import argparse
import functools
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import abstractive, corpus, evalharness, preprocess, selection
from .errors import (BackendError, ConfigError, EmptyDocumentError,
                     InsufficientContentError, PodselectError, RecordParseError)
from .forkjoin import map_in_order

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
    "topics": (int, selection.DEFAULT_NUM_TOPICS, 1),
    "budget": (int, selection.DEFAULT_TOKEN_BUDGET, 1),
    "seed": (int, 0, None),
    "jobs": (int, None, 1),
    "backend": (str, "null", BACKENDS),
    "endpoint": (str, None, None),
    "format": (str, "text", REPORT_FORMATS),
    "profanity_list_path": (str, None, None),
}


def _default(key: str):
    """The default of a setting, for help texts."""
    return _SETTINGS[key][1]


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
    except RecursionError:
        raise ConfigError(f"config file {path!r} is not valid JSON: nested too deeply") from None
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
    """corpus.read_records(path, parse) as a list, Nones left out; the first bad
    line raises PodselectError("{what} line N: <reason>")."""
    try:
        return [item for item in corpus.read_records(path, parse) if item is not None]
    except RecordParseError as err:
        raise PodselectError(f"{what} {err}") from None


def _jobs(settings: dict) -> int:
    """The worker processes select and evaluate may fork up to."""
    return settings["jobs"] or os.cpu_count() or 1


def _derive_seed(base_seed: int, episode_id: str) -> int:
    """Stable per-episode seed so parallel runs stay reproducible."""
    import hashlib

    digest = hashlib.sha256(episode_id.encode("utf-8")).digest()
    return (base_seed * 1_000_003 + int.from_bytes(digest[:8], "big")) % (2 ** 63)


# --- preprocess ---------------------------------------------------------------


def _run_preprocess(input_path: str, out_dir: Path,
                    settings: dict) -> tuple[list[corpus.Episode], dict[str, str]]:
    """Write the preprocess artifacts; return the kept episodes and their cleaned descriptions."""
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
    return kept, report.cleaned_descriptions


def cmd_preprocess(ns) -> int:
    _run_preprocess(ns.input, Path(ns.output), _settings(ns))
    return 0


# --- select -------------------------------------------------------------------


def _select_one(episode: corpus.Episode, strategy: str,
                selector: selection.SelectorConfig, num_topics: int, seed: int,
                diagnostics: bool
                ) -> tuple[str, dict | None, abstractive.BackendInput | None, str | None]:
    """Worker: build the document, run one selection strategy and cap the pick.

    Returns (id, record, capped input, error), plain values that pickle, so
    a forked worker can send them back through its pipe. The capped input is
    enforce_budget at the selector's token budget, so pipeline's summarize
    stage needs no second build of the document. The head strategy reads no
    further than its budget, so only that prefix of the transcript is built.
    """
    try:
        limit = selector.token_budget if strategy == "none" else None
        doc = corpus.build_document(episode, limit)
        if strategy == "window":
            result = selection.select_window(doc, selector)
        elif strategy == "novelty":
            result = selection.select_novelty(doc, selector)
        elif strategy == "topic":
            from . import topics

            result = topics.fit_and_select(doc, topics.TopicConfig(
                num_topics=num_topics, seed=_derive_seed(seed, episode.id)), selector)
        else:
            result = selection.select_head(doc, selector.token_budget)
        capped = abstractive.enforce_budget(result, doc, selector.token_budget)
        return episode.id, result.to_record(diagnostics), capped, None
    except (EmptyDocumentError, InsufficientContentError) as exc:
        return episode.id, None, None, str(exc)


def _run_select(episodes: list[corpus.Episode], output_path: Path, settings: dict,
                diagnostics: bool) -> list[abstractive.BackendInput]:
    """Write the selections file; return the capped inputs in its line order."""
    selector = selection.SelectorConfig(
        window_size=settings["window_size"],
        novelty_top_k=settings["top_k"],
        token_budget=settings["budget"],
    )
    if settings["strategy"] == "topic":
        # imported before the map's clock starts: timed as the first episode's
        # work, the imports would tip the projection into forking
        import hashlib  # noqa: F401 (for _derive_seed)

        from . import topics  # noqa: F401
    select_one = functools.partial(
        _select_one, strategy=settings["strategy"], selector=selector,
        num_topics=settings["topics"], seed=settings["seed"], diagnostics=diagnostics)
    skipped = 0
    results: list[dict] = []
    inputs: list[abstractive.BackendInput] = []
    outcomes = map_in_order(select_one, episodes, _jobs(settings), "select")
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
    settings = _settings(ns)
    _run_select(list(corpus.load_episodes(ns.input)), Path(ns.output), settings, ns.diagnostics)
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

    Builds only the documents a selection line names, one at a time. A line's
    `tokens`, when present, must be what its indexed sentences hold, so a
    selections file stops at the first line that does not fit its episodes.
    """
    episodes = {episode.id: episode for episode in corpus.load_episodes(episodes_path)}

    def capped_input(record: dict, line_number: int) -> abstractive.BackendInput | None:
        episode_id, indices = record["id"], record["indices"]
        strategy, tokens = record.get("strategy", "window"), record.get("tokens", 0)
        if not isinstance(episode_id, str):
            raise ValueError("'id' must be a string")
        if not (type(indices) is list and all(type(i) is int for i in indices)  # as select writes
                and all(a < b for a, b in zip(indices, indices[1:]))):
            raise ValueError("'indices' must be a list of strictly increasing integers")
        if not isinstance(strategy, str):
            raise ValueError("'strategy' must be a string")
        if type(tokens) is not int:
            raise ValueError("'tokens' must be an integer")
        episode = episodes.get(episode_id)
        if episode is None:
            logger.warning("selection line %d: no episode %r", line_number, episode_id)
            return None
        try:
            doc = corpus.build_document(episode)
        except EmptyDocumentError:
            logger.warning("selection line %d: skipping %r: transcript has no usable "
                           "sentences", line_number, episode_id)
            return None
        result = selection.SelectionResult(
            episode_id=episode_id,
            strategy=strategy,
            sentence_indices=tuple(indices),
            selected_token_count=tokens,
        )
        capped = abstractive.enforce_budget(result, doc, budget)  # checks every index
        if "tokens" in record:
            held = sum(len(doc.sentences[i].tokens) for i in indices)
            if tokens != held:
                raise ValueError(f"'tokens' is {tokens}, but the indexed sentences of "
                                 f"{episode_id!r} hold {held}: not selected from this "
                                 "episodes file")
        return capped

    return _read_records(selections_path, "selection", capped_input)


def _run_summarize(inputs: list[abstractive.BackendInput], output_path: Path,
                   backend, budget: int, jobs: int | None) -> None:
    outcomes = abstractive.summarize_all(inputs, backend, budget, jobs or 4)
    failures = 0
    with atomic_write(output_path) as handle:
        for backend_input, outcome in zip(inputs, outcomes):
            if isinstance(outcome, BackendError):
                failures += 1
                logger.error("backend failure for %s: %s", backend_input.episode_id, outcome)
            else:
                handle.write(json.dumps(outcome.to_record(), ensure_ascii=False) + "\n")
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
    backend_id = record.get("backend", "unknown")
    if not isinstance(episode_id, str) or not isinstance(text, str):
        raise ValueError("'id' and 'summary' must be strings")
    if not isinstance(backend_id, str):
        raise ValueError("'backend' must be a string")
    return abstractive.Summary(episode_id=episode_id, text=text, backend_id=backend_id)


def _load_references(path: str, raw: bool) -> dict[str, str]:
    """Reference descriptions by episode id, read from the episodes file at path."""
    clean = str if raw else preprocess.clean_description
    return {episode.id: clean(episode.description) for episode in corpus.load_episodes(path)}


def _run_evaluate(summaries_path: str, references_path: str, output_path: Path,
                  method_id: str, settings: dict, raw_references: bool,
                  references: dict[str, str] | None = None) -> int:
    """Score the summaries; references, when given, are the file's cleaned descriptions,
    already in memory."""
    summaries = _read_records(summaries_path, "summary", _summary)
    if not summaries:
        raise PodselectError(f"no summaries to evaluate in {summaries_path!r}")
    if references is None:
        references = _load_references(references_path, raw_references)
    row = evalharness.evaluate_run(summaries, references, method_id, jobs=_jobs(settings))
    rendered = evalharness.render_table([row], settings["format"])
    with atomic_write(output_path) as handle:
        handle.write(rendered)
    logger.info("evaluate: %s P=%.2f R=%.2f F=%.2f",
                method_id, row.rouge_l_p, row.rouge_l_r, row.rouge_l_f)
    return 0


def cmd_evaluate(ns) -> int:
    settings = _settings(ns)
    return _run_evaluate(ns.input, ns.references, Path(ns.output),
                         ns.method_id or "run", settings, ns.raw_references)


# --- pipeline -----------------------------------------------------------------


def cmd_pipeline(ns) -> int:
    # Resolve every setting and build the backend before the first write,
    # so a bad setting leaves nothing behind.
    settings = _settings(ns)
    backend = _make_backend(settings)
    out_dir = Path(ns.output)

    kept_path = out_dir / "kept.jsonl"
    preprocess_outputs = [kept_path, out_dir / "filter_report.json", out_dir / "split.jsonl"]
    # the kept episodes and their cleaned descriptions, when preprocess runs in this process
    kept = references = None
    # the first stage that runs clears resume: its outputs make every later one stale
    resume = ns.resume
    if resume and all(p.exists() for p in preprocess_outputs):
        logger.info("pipeline: preprocess outputs exist, skipping")
    else:
        resume = False
        kept, references = _run_preprocess(ns.input, out_dir, settings)

    selections_path = out_dir / "selections.jsonl"
    inputs = None
    if resume and selections_path.exists():
        logger.info("pipeline: selections exist, skipping")
    else:
        resume = False
        episodes = list(corpus.load_episodes(kept_path)) if kept is None else kept
        inputs = _run_select(episodes, selections_path, settings, ns.diagnostics)

    summaries_path = out_dir / "summaries.jsonl"
    if resume and summaries_path.exists():
        logger.info("pipeline: summaries exist, skipping")
    else:
        resume = False
        if inputs is None:  # select ran in an earlier process: rebuild from its file
            inputs = _read_capped_inputs(str(selections_path), str(kept_path),
                                         settings["budget"])
        _run_summarize(inputs, summaries_path, backend, settings["budget"], settings["jobs"])

    report_path = out_dir / f"report.{_REPORT_EXT[settings['format']]}"
    if resume and report_path.exists():
        logger.info("pipeline: report exists, skipping")
    else:
        _run_evaluate(str(summaries_path), str(kept_path), report_path,
                      settings["strategy"], settings, raw_references=False,
                      references=references)
    return 0


# --- parser and entry point ---------------------------------------------------


def _add_io_flags(parser, output_help: str):
    parser.add_argument("--input", required=True, help="input path")
    parser.add_argument("--output", required=True, help=output_help)


def _add_shared_flags(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="random seed for anything stochastic "
                             f"(default: {_default('seed')})")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker count; select and evaluate start in-process "
                             "and, once they have run longer than a fork costs and "
                             "forking is projected to save more than that, split "
                             "the rest between this process and forked children, "
                             "at most this many in all (default: the CPU count; "
                             "no fork where os.fork is missing or other threads "
                             "run); backend calls default to 4 concurrent "
                             "requests, and a retry waits out its backoff without "
                             "holding one")
    parser.add_argument("--config", default=None,
                        help="JSON config file; PODSELECT_CONFIG is the fallback")


def _add_strategy_flags(parser):
    parser.add_argument("--strategy", choices=STRATEGIES, default=None,
                        help=f"selection strategy (default: {_default('strategy')}); "
                             "'none' passes the transcript head straight through")
    parser.add_argument("--window-size", dest="window_size", type=int, default=None,
                        help="sentences per window (default: "
                             f"{selection.DEFAULT_WINDOW_SIZE}; the novelty strategy "
                             f"defaults to {selection.NOVELTY_WINDOW_SIZE})")
    parser.add_argument("--top-k", dest="top_k", type=int, default=None,
                        help="extra top-scoring sentences merged by the novelty "
                             f"strategy (default: {_default('top_k')})")
    parser.add_argument("--topics", type=int, default=None,
                        help="topic count for the topic strategy "
                             f"(default: {_default('topics')})")
    parser.add_argument("--budget", type=int, default=None,
                        help="token budget handed to the backend "
                             f"(default: {_default('budget')})")
    parser.add_argument("--diagnostics", action="store_true",
                        help="include per-window scores in the selections file")


def _add_backend_flags(parser):
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help=f"summarization backend (default: {_default('backend')})")
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
                   help="token budget enforced before the backend call "
                        f"(default: {_default('budget')})")
    _add_backend_flags(p)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score summaries against reference descriptions")
    _add_io_flags(p, "report path")
    p.add_argument("--references", required=True,
                   help="episodes JSONL providing reference descriptions")
    p.add_argument("--format", choices=REPORT_FORMATS, default=None,
                   help=f"report format (default: {_default('format')})")
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
                   help=f"report format (default: {_default('format')})")
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
