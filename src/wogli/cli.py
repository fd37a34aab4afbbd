"""Command-line interface.

Exit codes: 0 on success, 1 for usage problems, 2 for domain errors
(lexicon, generation, format, joining) and for files that cannot be read or
written (io). run() is the testable entry point; main() is the console script.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import closing

import click

from .dataset_io import _read_records, _tsv_lines, _write_lines, read_predictions
from .errors import LexiconError, WogliError
from .generator import _SETS, GenerationSet, _os_hard_records, _Records, _set_records
from .lexicon import ValidationProfile, default_lexicon_path, load_lexicon, validate_lexicon


def _load_checked_lexicon(path):
    lex = load_lexicon(path if path is not None else default_lexicon_path())
    problems = validate_lexicon(lex, ValidationProfile.TOY)
    if problems:
        head = "; ".join(problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise LexiconError(f"lexicon rejected: {head}{more}")
    return lex


def _write_built(build: _Records, rendered, out) -> None:
    """Write what build renders: its JSON lines, or its records as TSV; the
    same bytes write_pairs writes for the records either way."""
    size = _write_lines(out, rendered if build.encode else _tsv_lines(rendered))
    click.echo(f"wrote {build.rows} pairs ({size} bytes) to {out}")


@click.group()
def cli():
    """Generate and analyze German word-order NLI challenge sets."""


@cli.command()
@click.argument("setname", type=click.Choice([s.value for s in GenerationSet]))
@click.option("--seed", type=int, required=True,
              help="Generation is replayable; there is no implicit entropy.")
@click.option("--per-pattern", type=int, default=None,
              help="Premises per pattern (default depends on the set).")
@click.option("--lexicon", "lexicon_path", type=click.Path(exists=True, dir_okay=False),
              help="Lexicon file (JSON or TSV); defaults to WOGLI_LEXICON or the bundled one.")
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--format", "fmt", type=click.Choice(["rows", "tsv"]), default="rows",
              show_default=True)
@click.option("--with-replacement-dedup", is_flag=True,
              help="Sample with replacement, then drop duplicate premises.")
@click.option("--spaced-period", is_flag=True,
              help="Emit the final period as its own token.")
def generate(setname, seed, per_pattern, lexicon_path, out, fmt,
             with_replacement_dedup, spaced_period):
    """Generate one challenge set and write it to a pair file."""
    name = GenerationSet(setname)
    if per_pattern is None:
        per_pattern = _SETS[name][3]
    if per_pattern < 1:
        raise click.UsageError("--per-pattern must be positive")
    lex = _load_checked_lexicon(lexicon_path)
    # rows go from draws to disk a line at a time, JSON rows as encoded lines
    build = _Records(name, spaced_period, encode=fmt == "rows")
    _write_built(build, _set_records(name, lex, seed, per_pattern, with_replacement_dedup, build), out)


@cli.command()
@click.argument("target", type=click.Choice(["os-hard"]))
@click.option("--from", "source", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Pair file of accusative premises (row format).")
@click.option("--lexicon", "lexicon_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--format", "fmt", type=click.Choice(["rows", "tsv"]), default="rows",
              show_default=True)
@click.option("--spaced-period", is_flag=True)
def derive(target, source, lexicon_path, out, fmt, spaced_period):
    """Derive the hard reorder set from an existing pair file."""
    lex = _load_checked_lexicon(lexicon_path)
    # rows go from the input to disk as they are read; no list of either is built
    build = _Records(GenerationSet.OS_HARD, spaced_period, encode=fmt == "rows")
    with closing(_read_records(source)) as records:
        _write_built(build, _os_hard_records(records, lex, build), out)


@cli.command(name="sample-augmentation")
@click.option("--plan", "plan_name", type=click.Choice(["1037", "102", "custom"]),
              required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--in", "source", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out-aug", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--out-rest", required=True, type=click.Path(dir_okay=False, writable=True))
@click.option("--format", "fmt", type=click.Choice(["rows", "tsv"]), default="rows",
              show_default=True)
@click.option("--per-pattern", type=int, default=None, help="custom plan only")
@click.option("--verb-min", type=int, default=None, help="custom plan only")
@click.option("--verb-max", type=int, default=None, help="custom plan only")
@click.option("--require-all-nouns", is_flag=True, help="custom plan only")
def sample_augmentation_cmd(plan_name, seed, source, out_aug, out_rest, fmt,
                            per_pattern, verb_min, verb_max, require_all_nouns):
    """Split a pair file into a balanced augmentation subset and the rest."""
    from .augment import AugmentationPlan, _split_file, plan_102, plan_1037

    if plan_name == "custom":
        if per_pattern is None or verb_min is None or verb_max is None:
            raise click.UsageError(
                "custom plans need --per-pattern, --verb-min and --verb-max"
            )
        try:
            plan = AugmentationPlan(per_pattern, verb_min, verb_max, require_all_nouns, seed)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
    else:
        if any(v is not None for v in (per_pattern, verb_min, verb_max)) or require_all_nouns:
            raise click.UsageError("plan sizing options apply to --plan custom only")
        plan = plan_1037(seed) if plan_name == "1037" else plan_102(seed)
    # the second write would replace the first: a hard link counts as the same file
    if os.path.realpath(out_aug) == os.path.realpath(out_rest) or (
            os.path.exists(out_aug) and os.path.exists(out_rest) and os.path.samefile(out_aug, out_rest)):
        raise click.UsageError("--out-aug and --out-rest must be different files")
    (count_aug, size_aug), (count_rest, size_rest) = _split_file(source, plan, out_aug, out_rest, fmt)
    click.echo(
        f"wrote {count_aug} pairs ({size_aug} bytes) to {out_aug}, "
        f"{count_rest} pairs ({size_rest} bytes) to {out_rest}"
    )


@cli.command()
@click.option("--base", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Headerless premise/hypothesis/label TSV.")
@click.option("--aug", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Pair file to mix in.")
@click.option("--ne-label", type=click.Choice(["neutral", "contradiction"]),
              default="neutral", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False, writable=True))
def merge(base, aug, ne_label, seed, out):
    """Mix a pair file into a training TSV and shuffle."""
    from .augment import _merge_file

    count, size = _merge_file(base, aug, ne_label, seed, out)
    click.echo(f"wrote {count} rows ({size} bytes) to {out}")


@cli.command()
@click.option("--gold", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--predictions", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--runs", type=int, required=True)
@click.option("--groups", type=click.Choice(["all", "gender", "definiteness", "number"]),
              default="all", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Also write machine-readable report rows here.")
@click.option("--tie-break-ne", is_flag=True,
              help="Let even majority-vote ties fall to not-entailed.")
@click.option("--sample-sd", is_flag=True,
              help="Sample standard deviation instead of population.")
def analyze(gold, predictions, runs, groups, out, tie_break_ne, sample_sd):
    """Score predictions against a gold pair file, group-wise."""
    from .analysis import build_report

    if runs < 1:
        raise click.UsageError("--runs must be positive")
    preds = read_predictions(predictions, runs)
    with closing(_read_records(gold)) as records:  # the gold rows are counted as they are read
        text, rows = build_report(records, preds, groups, tie_break_ne, sample_sd)
    click.echo(text, nl=False)
    if out is not None:
        _write_lines(out, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


@cli.command(name="validate-lexicon")
@click.option("--in", "source", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--profile", type=click.Choice(["full", "toy"]), default="full",
              show_default=True)
def validate_lexicon_cmd(source, profile):
    """Check a lexicon file; any finding is reported and fails the command."""
    lex = load_lexicon(source)
    problems = validate_lexicon(
        lex, ValidationProfile.FULL if profile == "full" else ValidationProfile.TOY
    )
    for problem in problems:
        click.echo(problem)
    if problems:
        raise LexiconError(f"{len(problems)} finding(s) in {source}")
    click.echo("lexicon ok")


def run(argv) -> int:
    """Run the CLI on an argument list; returns the exit code."""
    try:
        cli.main(args=list(argv), standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        click.echo(f"wogli: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        click.echo("wogli: aborted", err=True)
        return 1
    except WogliError as exc:
        click.echo(f"wogli: error[{exc.code}] {exc}", err=True)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        click.echo(f"wogli: error[io] {exc.strerror or exc}{where}", err=True)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
