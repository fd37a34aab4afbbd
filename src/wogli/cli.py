"""Command-line interface, on argparse. Exit codes: 0 on success, 1 for
usage problems (`wogli: <message>`), 2 for domain errors (lexicon,
generation, format, joining) and for files that cannot be read or written
(io). run() is the testable entry point; main() is the console script.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing

from .dataset_io import _lines, _records, _tsv_lines, _write_lines, read_predictions
from .errors import LexiconError, WogliError
from .generator import _SETS, GenerationSet, _os_hard_records, _Records, _set_records
from .lexicon import ValidationProfile, default_lexicon_path, load_lexicon, validate_lexicon


class _UsageError(Exception):
    """A usage problem: printed as `wogli: <message>`, exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, the domain-error code
        raise _UsageError(message)


def _file(must_exist: bool):
    """An argparse type for a file path: never a directory; an input must
    exist and be readable, an output that exists must be writable."""
    def check(path: str) -> str:
        if os.path.isdir(path):
            raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
        if must_exist and not os.path.exists(path):
            raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
        if os.path.exists(path) and not os.access(path, os.R_OK if must_exist else os.W_OK):
            raise argparse.ArgumentTypeError(f"file {path!r} is not {'readable' if must_exist else 'writable'}")
        return path
    return check


def _write_built(build: _Records, rendered, out) -> None:
    """Write what build renders: its JSON lines, or its records as TSV; the
    same bytes write_pairs writes for the records either way."""
    size = _write_lines(out, rendered if build.encode else _tsv_lines(rendered))
    print(f"wrote {build.rows} pairs ({size} bytes) to {out}")


def _generate(a):
    name = GenerationSet(a.setname)
    per_pattern = _SETS[name][3] if a.per_pattern is None else a.per_pattern
    if per_pattern < 1:
        raise _UsageError("--per-pattern must be positive")
    lex = load_lexicon(a.lexicon or default_lexicon_path())
    # rows go from draws to disk a line at a time, JSON rows as encoded lines
    build = _Records(name, a.spaced_period, encode=a.fmt == "rows")
    _write_built(build, _set_records(name, lex, a.seed, per_pattern, a.with_replacement_dedup, build), a.out)


def _derive(a):
    lex = load_lexicon(a.lexicon or default_lexicon_path())
    # rows go from the input to disk as they are read; no list of either is built
    build = _Records(GenerationSet.OS_HARD, a.spaced_period, encode=a.fmt == "rows")
    with closing(_lines(a.source)) as lines:
        _write_built(build, _os_hard_records(_records(lines), lex, build), a.out)


def _sample_augmentation(a):
    from .augment import AugmentationPlan, _split_file, plan_102, plan_1037

    if a.plan == "custom":
        if a.per_pattern is None or a.verb_min is None or a.verb_max is None:
            raise _UsageError("custom plans need --per-pattern, --verb-min and --verb-max")
        try:
            plan = AugmentationPlan(a.per_pattern, a.verb_min, a.verb_max, a.require_all_nouns, a.seed)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    else:
        if any(v is not None for v in (a.per_pattern, a.verb_min, a.verb_max)) or a.require_all_nouns:
            raise _UsageError("plan sizing options apply to --plan custom only")
        plan = plan_1037(a.seed) if a.plan == "1037" else plan_102(a.seed)
    # the second write would replace the first: a hard link counts as the same file
    if os.path.realpath(a.out_aug) == os.path.realpath(a.out_rest) or (
            os.path.exists(a.out_aug) and os.path.exists(a.out_rest) and os.path.samefile(a.out_aug, a.out_rest)):
        raise _UsageError("--out-aug and --out-rest must be different files")
    (count_aug, size_aug), (count_rest, size_rest) = _split_file(a.source, plan, a.out_aug, a.out_rest, a.fmt)
    print(f"wrote {count_aug} pairs ({size_aug} bytes) to {a.out_aug}, "
          f"{count_rest} pairs ({size_rest} bytes) to {a.out_rest}")


def _merge(a):
    from .augment import _merge_file

    count, size = _merge_file(a.base, a.aug, a.ne_label, a.seed, a.out)
    print(f"wrote {count} rows ({size} bytes) to {a.out}")


def _analyze(a):
    from .analysis import build_report

    if a.runs < 1:
        raise _UsageError("--runs must be positive")
    preds = read_predictions(a.predictions, a.runs)
    with closing(_lines(a.gold)) as lines:  # the gold rows are counted as they are read
        text, rows = build_report(_records(lines), preds, a.groups, a.tie_break_ne, a.sample_sd)
    sys.stdout.write(text)
    if a.out is not None:
        _write_lines(a.out, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def _validate_lexicon(a):
    lex = load_lexicon(a.source)
    problems = validate_lexicon(lex, ValidationProfile[a.profile.upper()])
    for problem in problems:
        print(problem)
    if problems:
        raise LexiconError(f"{len(problems)} finding(s) in {a.source}")
    print("lexicon ok")


def _parser(argv) -> _Parser:
    """The CLI's parser for argv: every command, and the options of the one
    argv names. An option is never matched by a prefix of its name."""
    parser = _Parser(prog="wogli", allow_abbrev=False,
                     description="Generate and analyze German word-order NLI challenge sets.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name, run, about):
        sub = commands.add_parser(name, help=about, description=about, allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument if argv[:1] == [name] else lambda *args, **kwargs: None

    arg = command("generate", _generate, "Generate one challenge set and write it to a pair file.")
    arg("setname", choices=[s.value for s in GenerationSet])
    arg("--seed", type=int, required=True, help="Generation is replayable; there is no implicit entropy.")
    arg("--per-pattern", type=int, help="Premises per pattern (default depends on the set).")
    arg("--lexicon", type=_file(True),
        help="Lexicon file (JSON or TSV); defaults to WOGLI_LEXICON or the bundled one.")
    arg("--out", required=True, type=_file(False))
    arg("--format", dest="fmt", choices=["rows", "tsv"], default="rows", help="default: %(default)s")
    arg("--with-replacement-dedup", action="store_true",
        help="Sample with replacement, then drop duplicate premises.")
    arg("--spaced-period", action="store_true", help="Emit the final period as its own token.")

    arg = command("derive", _derive, "Derive the hard reorder set from an existing pair file.")
    arg("target", choices=["os-hard"])
    arg("--from", dest="source", required=True, type=_file(True),
        help="Pair file of accusative premises (row format).")
    arg("--lexicon", type=_file(True))
    arg("--out", required=True, type=_file(False))
    arg("--format", dest="fmt", choices=["rows", "tsv"], default="rows", help="default: %(default)s")
    arg("--spaced-period", action="store_true")

    arg = command("sample-augmentation", _sample_augmentation,
                  "Split a pair file into a balanced augmentation subset and the rest.")
    arg("--plan", choices=["1037", "102", "custom"], required=True)
    arg("--seed", type=int, default=0, help="default: %(default)s")
    arg("--in", dest="source", required=True, type=_file(True))
    arg("--out-aug", required=True, type=_file(False))
    arg("--out-rest", required=True, type=_file(False))
    arg("--format", dest="fmt", choices=["rows", "tsv"], default="rows", help="default: %(default)s")
    arg("--per-pattern", type=int, help="custom plan only")
    arg("--verb-min", type=int, help="custom plan only")
    arg("--verb-max", type=int, help="custom plan only")
    arg("--require-all-nouns", action="store_true", help="custom plan only")

    arg = command("merge", _merge, "Mix a pair file into a training TSV and shuffle.")
    arg("--base", required=True, type=_file(True), help="Headerless premise/hypothesis/label TSV.")
    arg("--aug", required=True, type=_file(True), help="Pair file to mix in.")
    arg("--ne-label", choices=["neutral", "contradiction"], default="neutral", help="default: %(default)s")
    arg("--seed", type=int, default=0, help="default: %(default)s")
    arg("--out", required=True, type=_file(False))

    arg = command("analyze", _analyze, "Score predictions against a gold pair file, group-wise.")
    arg("--gold", required=True, type=_file(True))
    arg("--predictions", required=True, type=_file(True))
    arg("--runs", type=int, required=True)
    arg("--groups", choices=["all", "gender", "definiteness", "number"], default="all", help="default: %(default)s")
    arg("--out", type=_file(False), help="Also write machine-readable report rows here.")
    arg("--tie-break-ne", action="store_true", help="Let even majority-vote ties fall to not-entailed.")
    arg("--sample-sd", action="store_true", help="Sample standard deviation instead of population.")

    arg = command("validate-lexicon", _validate_lexicon,
                  "Check a lexicon file; any finding is reported and fails the command.")
    arg("--in", dest="source", required=True, type=_file(True))
    arg("--profile", choices=["full", "toy"], default="full", help="default: %(default)s")
    return parser


def run(argv) -> int:
    """Run the CLI on an argument list; returns the exit code."""
    argv = list(argv)
    try:
        if not argv:
            raise _UsageError(_parser(argv).format_help())
        args = _parser(argv).parse_args(argv)
        args.run(args)
        return 0
    except SystemExit as exc:  # only --help exits, its text printed to standard output
        return exc.code
    except _UsageError as exc:
        message, code = exc, 1
    except KeyboardInterrupt:
        message, code = "aborted", 1
    except WogliError as exc:
        message, code = f"error[{exc.code}] {exc}", 2
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        message, code = f"error[io] {exc.strerror or exc}{where}", 2
    sys.stdout.flush()  # what the command printed comes first
    print(f"wogli: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
