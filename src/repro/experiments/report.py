"""One-shot markdown dossier of every reproduced figure.

``write_markdown_report`` runs the experiment list ``python -m
repro.experiments`` runs (:data:`~repro.experiments.runner.EXPERIMENTS`)
and writes a self-contained markdown document: per experiment, the
measured rendering and the wall-clock cost of the run, then the table of
the paper's claims with measured over paper values.  The repository's
EXPERIMENTS.md is the curated version of this output; the generated dossier
is for re-validation after changes (``python -m repro report``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Union

from repro.experiments.engine import resolve_engine
from repro.experiments.runner import each_experiment


def _stored_factories(store: str):
    """Grid experiments routed through a columnar result store.

    The fig8/9/10 grids stream through ``<store>`` and are rebuilt from
    the committed shards (``repro.results.kpi``); every rebuilt result
    renders byte-identically to its in-memory counterpart, so a stored
    dossier diffs clean against a plain one.  Keys are
    :data:`~repro.experiments.runner.EXPERIMENTS` keys.
    """
    from repro.results import (
        run_fig8_stored,
        run_fig9_stored,
        run_fig10_stored,
    )

    return {
        "fig8": lambda fast, engine: run_fig8_stored(
            store, frames=6 if fast else 16, engine=engine
        )[0],
        "fig9": lambda fast, engine: run_fig9_stored(
            store, frames=6 if fast else 16, max_prc=4 if fast else 6,
            engine=engine,
        )[0],
        "fig10": lambda fast, engine: run_fig10_stored(
            store, frames=6 if fast else 16, engine=engine
        )[0],
    }


def _format(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return f"{value:,}"


def _claims_table(verdicts) -> List[str]:
    """The claims table: one markdown row per evaluated claim."""
    lines = [
        "| claim | paper | paper value | measured | measured/paper | pass |",
        "|---|---|---|---|---|---|",
    ]
    for verdict in verdicts:
        claim = verdict.claim
        paper = "-" if claim.paper is None else _format(claim.paper)
        ratio = "-" if verdict.ratio is None else f"{verdict.ratio:.2f}"
        lines.append(
            f"| `{claim.id}` | {claim.place} | {paper} | "
            f"{_format(verdict.measured)} ({claim.op} "
            f"{_format(claim.threshold)}) | {ratio} | "
            f"{'yes' if verdict.ok else '**NO**'} |"
        )
    return lines


def write_markdown_report(
    path: Union[str, Path], fast: bool = False, store: Union[str, None] = None
) -> Path:
    """Run every experiment on one engine and write the markdown dossier
    to ``path``: each report section, then the paper's claims
    (:mod:`repro.verification.claims`) measured on these results.

    With ``store`` set, the grid figures (8/9/10) stream their sweeps
    through the columnar result store at that directory and are rebuilt
    from the stored shards instead of in-memory records — identical
    output, bounded sweep memory, and the sweeps stay on disk for
    ``repro results`` afterwards.
    """
    from repro.verification import claims

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    overrides = _stored_factories(store) if store is not None else {}
    lines = [
        "# mRTS reproduction — generated experiment dossier",
        "",
        f"Mode: {'fast (reduced sizes)' if fast else 'full'}.  "
        "Regenerate with `python -m repro report`.",
        "",
    ]
    total_start = time.perf_counter()
    results = {}
    with resolve_engine() as engine:
        for key, title, result, elapsed in each_experiment(
            engine, fast, overrides=overrides
        ):
            lines += [
                f"## {title}",
                "",
                "```text",
                result.render(),
                "```",
                "",
                f"_({elapsed:.1f}s)_",
                "",
            ]
            results[key] = result
        results.update(claims.run_claims_only(engine))
    lines += [
        "## The paper's claims",
        "",
        "Each claim's predicate is `measured <op> threshold`; "
        "`repro.verification.claims` declares them.  The thresholds hold "
        "at the full size; the fast mode's reduced sizes may miss some.",
        "",
    ]
    lines += _claims_table(claims.evaluate(results))
    lines += ["", f"Total: {time.perf_counter() - total_start:.0f}s."]
    path.write_text("\n".join(lines))
    return path


__all__ = ["write_markdown_report"]
