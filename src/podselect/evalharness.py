"""Run-level ROUGE-L evaluation and report rendering."""

from __future__ import annotations

import io
import json
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Iterable, Mapping, NamedTuple

from .abstractive import Summary
from .corpus import token_texts
from .errors import MissingReferenceError
from .rouge import rouge_l


class EvalRow(NamedTuple):
    """Macro-averaged ROUGE-L for one method, in percent, two decimals."""

    method_id: str
    rouge_l_p: float
    rouge_l_r: float
    rouge_l_f: float


def _to_percent(value: float) -> float:
    scaled = Decimal(repr(value * 100.0)).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)
    return float(scaled)


def evaluate_run(summaries: Iterable[Summary], references: Mapping[str, str],
                 method_id: str = "run") -> EvalRow:
    """Macro-average ROUGE-L of summaries against reference descriptions.

    References are expected to be the cleaned descriptions of every episode
    the run was given, and the average is over all of them: an episode with
    no summary, as one that select skipped, scores zero, so runs that skip
    different episodes are scored on the same set. Every summary must have
    a reference; missing ones are reported together rather than one at a
    time. The scores are summed in input order.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no summaries to evaluate")
    missing = [s.episode_id for s in summaries if s.episode_id not in references]
    if missing:
        raise MissingReferenceError(missing)

    p_total = r_total = f_total = 0.0
    for summary in summaries:
        score = rouge_l(token_texts(summary.text), token_texts(references[summary.episode_id]))
        p_total += score.precision
        r_total += score.recall
        f_total += score.f1
    n = len(references)
    return EvalRow(
        method_id=method_id,
        rouge_l_p=_to_percent(p_total / n),
        rouge_l_r=_to_percent(r_total / n),
        rouge_l_f=_to_percent(f_total / n),
    )


_COLUMNS = ("method", "rouge_l_p", "rouge_l_r", "rouge_l_f")


def render_table(rows: Iterable[EvalRow], fmt: str = "text") -> str:
    """Render evaluation rows as an aligned text table, CSV, or JSON.

    Output is byte-stable for identical inputs: fixed column order, two
    decimal places, newline line endings.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("cannot render an empty report")
    cells = [
        (row.method_id, f"{row.rouge_l_p:.2f}", f"{row.rouge_l_r:.2f}", f"{row.rouge_l_f:.2f}")
        for row in rows
    ]
    if fmt == "text":
        widths = [
            max(len(_COLUMNS[i]), max(len(line[i]) for line in cells))
            for i in range(len(_COLUMNS))
        ]
        out_lines = [
            "  ".join(_COLUMNS[i].ljust(widths[i]) for i in range(len(_COLUMNS))).rstrip()
        ]
        for line in cells:
            rendered = [line[0].ljust(widths[0])]
            rendered += [line[i].rjust(widths[i]) for i in range(1, len(_COLUMNS))]
            out_lines.append("  ".join(rendered).rstrip())
        return "\n".join(out_lines) + "\n"
    if fmt == "csv":
        import csv  # here, not at the top: only this format needs it

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(cells)
        return buffer.getvalue()
    if fmt == "json":
        payload = [
            {
                "method": row.method_id,
                "rouge_l_p": row.rouge_l_p,
                "rouge_l_r": row.rouge_l_r,
                "rouge_l_f": row.rouge_l_f,
            }
            for row in rows
        ]
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")
