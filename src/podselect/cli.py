"""Batch command line driving the two-phase summarization pipeline.

Subcommands map one-to-one onto pipeline stages (preprocess, select,
summarize, evaluate) plus a ``pipeline`` command that chains them. Flag
values beat config-file values, which beat built-in defaults; the config
file is JSON, named by --config or the PODSELECT_CONFIG environment
variable. Each setting is declared once, in the _SETTINGS table: the parser
builds its flag from there, and main resolves and checks every setting once,
before any stage runs, and hands them to the command.
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
# limit, help). The limit is an int's minimum or a str's allowed values (None:
# no limit). The help's {} is filled with the default; a setting with no help
# has no flag. A None window_size or jobs leaves the choice to each strategy or
# stage.
_SETTINGS = {
    "strategy": (str, "window", STRATEGIES,
                 "selection strategy (default: {}); 'none' passes the transcript head "
                 "straight through"),
    "window_size": (int, None, 1,
                    f"sentences per window (default: {selection.DEFAULT_WINDOW_SIZE}; the "
                    f"novelty strategy defaults to {selection.NOVELTY_WINDOW_SIZE})"),
    "top_k": (int, selection.DEFAULT_TOP_K, 0,
              "extra top-scoring sentences merged by the novelty strategy (default: {})"),
    "topics": (int, selection.DEFAULT_NUM_TOPICS, 1,
               "topic count for the topic strategy (default: {})"),
    "budget": (int, selection.DEFAULT_TOKEN_BUDGET, 1,
               "token budget handed to the backend (default: {})"),
    "seed": (int, 0, None, "random seed for anything stochastic (default: {})"),
    "jobs": (int, None, 1,
             "worker count; select splits its episodes between this process and forked "
             "children, at most this many in all, when its estimate from the transcripts' "
             "length says that saves more than a fork costs, and else runs in-process "
             "(default: the CPUs this process may run on; no fork where os.fork is "
             "missing or other threads run); backend calls default to 4 concurrent "
             "requests, and a retry waits out its backoff without holding one"),
    "backend": (str, "null", BACKENDS, "summarization backend (default: {})"),
    "endpoint": (str, None, None, "base URL of the remote backend, e.g. http://host:8080"),
    "format": (str, "text", REPORT_FORMATS, "report format (default: {})"),
    "profanity_list_path": (str, None, None, None),
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
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
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
    for key, (kind, default, limit, _) in _SETTINGS.items():
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
    """The worker processes select may fork up to: --jobs, or else the CPUs this
    process may run on."""
    if settings["jobs"]:
        return settings["jobs"]
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Select's estimated cost. Medians of six `python tools/bench.py --seed 101
# --repeat 25` runs at transcript scale (2-core host, Python 3.11.7): a build
# plus the window, novelty or head pick took 42.6-45.2 ns a character read, a
# Gibbs sweep 1.48 us a token; a token is 6.07 characters there (6.02-6.06 on the
# benchmark workloads). A cold fork-join cost 14-20 ms in fresh seed-101
# head-corpus and remote-backend pipelines: importing pickle, forking and
# collecting (4.5-7.0 ms), plus both processes copying the shared pages they
# write, reference counts included.
_CHARS_PER_TOKEN = 6
_SELECT_S_PER_CHAR = 43e-9
_SWEEP_S_PER_TOKEN = 1.5e-6
_FORK_JOIN_S = 0.015


def _select_workers(episodes: list[corpus.Episode], settings: dict) -> tuple[int, float]:
    """(workers, estimated seconds) to select episodes, decided before the first.

    The estimate counts the characters read (whole transcripts, or at most
    budget * _CHARS_PER_TOKEN of each for the head strategy), plus a topic fit
    for each transcript longer than that. It forks only when min(_jobs(settings),
    episodes) workers save more than _FORK_JOIN_S: the estimate times
    (1 - 1 / workers). No clock is read.
    """
    strategy, head = settings["strategy"], settings["budget"] * _CHARS_PER_TOKEN
    read = fitted = 0
    for episode in episodes:
        length = len(episode.transcript_text)
        read += min(length, head) if strategy == "none" else length
        fitted += length if strategy == "topic" and length > head else 0
    estimate = read * _SELECT_S_PER_CHAR
    if fitted:
        from . import topics

        sweeps = topics.TopicConfig().gibbs_iterations
        estimate += fitted / _CHARS_PER_TOKEN * sweeps * _SWEEP_S_PER_TOKEN
    workers = min(_jobs(settings), len(episodes))
    forks = workers > 1 and estimate * (1 - 1 / workers) > _FORK_JOIN_S
    return (workers if forks else 1), estimate


def _derive_seed(base_seed: int, episode_id: str) -> int:
    """Stable per-episode seed so parallel runs stay reproducible."""
    import hashlib

    digest = hashlib.sha256(episode_id.encode("utf-8")).digest()
    return (base_seed * 1_000_003 + int.from_bytes(digest[:8], "big")) % (2 ** 63)


# --- preprocess ---------------------------------------------------------------


def _run_preprocess(input_path: str, out_dir: Path,
                    settings: dict) -> tuple[list[corpus.Episode], dict[str, str]]:
    """Write the preprocess artifacts; return the kept episodes and their cleaned descriptions."""
    kept, report = preprocess.filter_corpus(
        corpus.load_episodes(input_path), preprocess.FilterConfig(settings["profanity_list_path"]))

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


def cmd_preprocess(ns, settings: dict) -> None:
    _run_preprocess(ns.input, Path(ns.output), settings)


# --- select -------------------------------------------------------------------


def _select_one(episode: corpus.Episode, strategy: str,
                selector: selection.SelectorConfig, num_topics: int, seed: int,
                diagnostics: bool
                ) -> tuple[str, dict | None, abstractive.BackendInput | None, str | None]:
    """Worker: build the document, run one selection strategy and cap the pick.

    Returns (id, record, capped input, error), plain values that pickle, so
    a forked worker can send them back through its pipe. The capped input is
    enforce_budget at the selector's token budget, so pipeline's summarize
    stage needs no second build of the document; standalone select drops it.
    The head strategy reads no further than its budget, so only that prefix of
    the transcript is built. A pick that holds no sentence, as a topic pick
    whose first sentence is over the budget does, is an error: the episode
    is skipped, not summarized from an empty text.
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
        if not result.sentence_indices:
            return episode.id, None, None, (f"no {strategy} pick fits the budget of "
                                            f"{selector.token_budget} tokens")
        capped = abstractive.enforce_budget(result, doc, selector.token_budget)
        return episode.id, result.to_record(doc if diagnostics else None), capped, None
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
    workers, estimate = _select_workers(episodes, settings)
    select_one = functools.partial(
        _select_one, strategy=settings["strategy"], selector=selector,
        num_topics=settings["topics"], seed=settings["seed"], diagnostics=diagnostics)
    results: list[dict] = []
    inputs: list[abstractive.BackendInput] = []
    outcomes = map_in_order(select_one, episodes, workers)
    for episode_id, payload, capped, error in outcomes:
        if error is not None:
            logger.warning("skipping %s: %s", episode_id, error)
            continue
        results.append(payload)
        inputs.append(capped)
    with atomic_write(output_path) as handle:
        corpus.write_records(handle, results)
    logger.info("select(%s): %d selected, %d skipped; %.3f s estimated, %s",
                settings["strategy"], len(results), len(episodes) - len(results), estimate,
                f"{workers} workers" if workers > 1 else "in-process")
    return inputs


def cmd_select(ns, settings: dict) -> None:
    _run_select(list(corpus.load_episodes(ns.input)), Path(ns.output), settings, ns.diagnostics)


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
    token count must be what its indexed sentences hold, so a selections file
    stops at the first line that does not fit its episodes.
    """
    episodes = {episode.id: episode for episode in corpus.load_episodes(episodes_path)}

    def capped_input(record: dict, line_number: int) -> abstractive.BackendInput | None:
        result = selection.SelectionResult.from_record(record)
        episode_id, tokens = result.episode_id, result.selected_token_count
        episode = episodes.get(episode_id)
        if episode is None:
            logger.warning("selection line %d: no episode %r", line_number, episode_id)
            return None
        if not result.sentence_indices and not tokens:  # else the count check below refuses it
            logger.warning("selection line %d: skipping %r: no sentence selected",
                           line_number, episode_id)
            return None
        try:
            doc = corpus.build_document(episode)
        except EmptyDocumentError:
            logger.warning("selection line %d: skipping %r: transcript has no usable "
                           "sentences", line_number, episode_id)
            return None
        capped = abstractive.enforce_budget(result, doc, budget)  # checks every index
        held = sum(doc.sentences[i].token_count for i in result.sentence_indices)
        if tokens != held:
            raise ValueError(f"'tokens' is {tokens}, but the indexed sentences of "
                             f"{episode_id!r} hold {held}: not selected from this "
                             "episodes file")
        return capped

    return _read_records(selections_path, "selection", capped_input)


def _run_summarize(inputs: list[abstractive.BackendInput], output_path: Path,
                   backend, settings: dict) -> None:
    outcomes = abstractive.summarize_all(inputs, backend, settings["budget"],
                                         settings["jobs"] or 4)
    summaries = [outcome for outcome in outcomes if not isinstance(outcome, BackendError)]
    for outcome in outcomes:
        if isinstance(outcome, BackendError):  # it names the episode
            logger.error("%s", outcome)
    failures = len(inputs) - len(summaries)
    with atomic_write(output_path) as handle:
        corpus.write_records(handle, (summary.to_record() for summary in summaries))
        if failures:  # raised before the rename, so --resume runs this stage again
            raise PodselectError(
                f"summarize: {failures} of {len(inputs)} episodes failed; "
                f"{len(inputs) - failures} summaries left in "
                f"{output_path.name}{PARTIAL_SUFFIX}")
    logger.info("summarize: %d written", len(inputs))


def cmd_summarize(ns, settings: dict) -> None:
    backend = _make_backend(settings)
    inputs = _read_capped_inputs(ns.input, ns.episodes, settings["budget"])
    _run_summarize(inputs, Path(ns.output), backend, settings)


# --- evaluate -----------------------------------------------------------------


def _load_references(path: str, raw: bool) -> dict[str, str]:
    """Reference descriptions by episode id, read from the episodes file at path."""
    clean = str if raw else preprocess.clean_description
    return {episode.id: clean(episode.description) for episode in corpus.load_episodes(path)}


def _run_evaluate(summaries_path: str, references: dict[str, str], output_path: Path,
                  method_id: str, settings: dict) -> None:
    """Score the summaries against the reference descriptions, keyed by episode id."""
    summaries = _read_records(summaries_path, "summary",
                              lambda record, _: abstractive.Summary.from_record(record))
    if not summaries:
        raise PodselectError(f"no summaries to evaluate in {summaries_path!r}")
    row = evalharness.evaluate_run(summaries, references, method_id)
    if len(summaries) < len(references):
        logger.warning("evaluate: %d of %d episodes have no summary and score zero",
                       len(references) - len(summaries), len(references))
    rendered = evalharness.render_table([row], settings["format"])
    with atomic_write(output_path) as handle:
        handle.write(rendered)
    logger.info("evaluate: %s P=%.2f R=%.2f F=%.2f",
                method_id, row.rouge_l_p, row.rouge_l_r, row.rouge_l_f)


def cmd_evaluate(ns, settings: dict) -> None:
    _run_evaluate(ns.input, _load_references(ns.references, ns.raw_references),
                  Path(ns.output), ns.method_id or "run", settings)


# --- pipeline -----------------------------------------------------------------


def cmd_pipeline(ns, settings: dict) -> None:
    # build the backend before the first write, so a bad setting leaves nothing behind
    backend = _make_backend(settings)
    out_dir = Path(ns.output)
    kept_path = out_dir / "kept.jsonl"
    selections_path = out_dir / "selections.jsonl"
    summaries_path = out_dir / "summaries.jsonl"
    report_path = out_dir / f"report.{_REPORT_EXT[settings['format']]}"
    # what a stage that ran in this process hands the later ones: the kept
    # episodes and their cleaned descriptions, then the capped backend inputs.
    # The stage that reads a hand-off pops it, so the transcripts go once select
    # has run and the capped texts once summarize has.
    held = {}

    def run_preprocess():
        held["kept"], held["references"] = _run_preprocess(ns.input, out_dir, settings)

    def run_select():
        episodes = (held.pop("kept") if "kept" in held
                    else list(corpus.load_episodes(kept_path)))
        held["inputs"] = _run_select(episodes, selections_path, settings, ns.diagnostics)

    def run_summarize():
        # no inputs held: select ran in an earlier process, so rebuild them from its file
        inputs = (held.pop("inputs") if "inputs" in held
                  else _read_capped_inputs(str(selections_path), str(kept_path),
                                           settings["budget"]))
        _run_summarize(inputs, summaries_path, backend, settings)

    def run_evaluate():
        references = (held.pop("references") if "references" in held
                      else _load_references(str(kept_path), raw=False))
        _run_evaluate(str(summaries_path), references, report_path,
                      settings["strategy"], settings)

    stages = (
        ("preprocess", run_preprocess,
         (kept_path, out_dir / "filter_report.json", out_dir / "split.jsonl")),
        ("select", run_select, (selections_path,)),
        ("summarize", run_summarize, (summaries_path,)),
        ("evaluate", run_evaluate, (report_path,)),
    )
    # the first stage that runs clears resume: its outputs make every later one stale
    resume = ns.resume
    for name, run, outputs in stages:
        if resume and all(path.exists() for path in outputs):
            logger.info("pipeline: %s outputs exist, skipping", name)
        else:
            resume = False
            run()


# --- parser and entry point ---------------------------------------------------


# The flags that are not settings: key -> add_argument keywords.
_FLAGS = {
    "episodes": {"required": True, "help": "episodes JSONL the selections refer to"},
    "references": {"required": True,
                   "help": "episodes JSONL providing reference descriptions"},
    "diagnostics": {"action": "store_true",
                    "help": "include per-window scores in the selections file"},
    "method_id": {"help": "row label in the report (default: run)"},
    "raw_references": {"action": "store_true",
                       "help": "score against raw descriptions instead of cleaned ones"},
    "resume": {"action": "store_true", "help": "skip stages whose outputs already exist"},
    "config": {"help": "JSON config file; PODSELECT_CONFIG is the fallback"},
}

_STRATEGY_FLAGS = ("strategy", "window_size", "top_k", "topics", "budget", "diagnostics")

# command -> (function, help, --output help, its flags after --input and
# --output, in help order; each a _SETTINGS or a _FLAGS key)
_COMMANDS = {
    "preprocess": (cmd_preprocess, "filter a corpus and emit the dataset split",
                   "output directory for kept.jsonl, filter_report.json, split.jsonl",
                   ("seed", "config")),
    "select": (cmd_select, "run extractive selection over episodes",
               "selections JSONL path", (*_STRATEGY_FLAGS, "seed", "jobs", "config")),
    "summarize": (cmd_summarize, "cap selections and run them through a backend",
                  "summaries JSONL path",
                  ("episodes", "budget", "backend", "endpoint", "jobs", "config")),
    "evaluate": (cmd_evaluate, "score summaries against reference descriptions",
                 "report path",
                 ("references", "format", "method_id", "raw_references", "config")),
    "pipeline": (cmd_pipeline, "preprocess, select, summarize, and evaluate",
                 "output directory for all stage artifacts",
                 (*_STRATEGY_FLAGS, "backend", "endpoint", "format", "resume", "seed", "jobs",
                  "config")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podselect",
        description="Two-phase podcast summarization: extractive selection "
                    "followed by an abstractive backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, output_help, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--input", required=True, help="input path")
        p.add_argument("--output", required=True, help=output_help)
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key in _FLAGS:
                p.add_argument(flag, **_FLAGS[key])
            else:  # default None: _settings tells a flag left out from one given
                kind, default, limit, text = _SETTINGS[key]
                p.add_argument(flag, type=kind, default=None, help=text.format(default),
                               choices=limit if kind is str else None)
        p.set_defaults(func=func)
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
        ns.func(ns, _settings(ns))
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    except (PodselectError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    except KeyboardInterrupt:  # Ctrl-C; a fork-join has reaped its children by now
        logger.error("interrupted")
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
