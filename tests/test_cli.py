"""End-to-end command-line checks through the run() entry point."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wogli
from wogli import (
    AugmentationPlan,
    GenerationSet,
    bundled_lexicon_path,
    derive_os_hard,
    generate_set,
    generator,
    merge_training,
    read_pairs,
    sample_augmentation,
    write_pairs,
    write_training_rows,
)
from wogli import dataset_io
from wogli.cli import run
from wogli.errors import DataFormatError

from conftest import TOY_LEXICON, UNDRAWABLE_ROWS


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy-lexicon.json"
    path.write_text(json.dumps(TOY_LEXICON), encoding="utf-8")
    return str(path)


def _generate(toy_path, tmp_path, *extra, setname="wogli", seed="3", per="2"):
    out = tmp_path / f"{setname}-{seed}-{per}.jsonl"
    code = run([
        "generate", setname, "--seed", seed, "--per-pattern", per,
        "--lexicon", toy_path, "--out", str(out), *extra,
    ])
    return code, out


class TestGenerate:
    def test_round_trip(self, toy_path, tmp_path, toy_lex, capsys):
        code, out = _generate(toy_path, tmp_path)
        assert code == 0
        assert "wrote 68 pairs" in capsys.readouterr().out
        assert read_pairs(out) == generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=2)

    def test_reruns_are_byte_identical(self, toy_path, tmp_path):
        code_a, out = _generate(toy_path, tmp_path)
        first = out.read_bytes()
        code_b, out = _generate(toy_path, tmp_path)
        assert code_a == code_b == 0
        assert out.read_bytes() == first

    def test_tsv_format(self, toy_path, tmp_path):
        code, out = _generate(toy_path, tmp_path, "--format", "tsv")
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("id\tsubset\t")

    def test_seed_is_required(self, tmp_path, toy_path, capsys):
        code = run(["generate", "wogli", "--lexicon", toy_path,
                    "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_lexicon_from_environment(self, toy_path, tmp_path, toy_lex, monkeypatch):
        monkeypatch.setenv("WOGLI_LEXICON", toy_path)
        out = tmp_path / "env.jsonl"
        code = run(["generate", "wogli", "--seed", "3", "--per-pattern", "2",
                    "--out", str(out)])
        assert code == 0
        assert read_pairs(out) == generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=2)

    def test_missing_lexicon_from_environment(self, tmp_path, monkeypatch, capsys):
        missing = tmp_path / "no-such-lexicon.json"
        monkeypatch.setenv("WOGLI_LEXICON", str(missing))
        code = run(["generate", "wogli", "--seed", "3", "--per-pattern", "2",
                    "--out", str(tmp_path / "env.jsonl")])
        assert code == 2
        assert f"error[lexicon] cannot read lexicon {missing}" in capsys.readouterr().err

    def test_workers_is_not_an_option(self, toy_path, tmp_path, capsys):
        code, _ = _generate(toy_path, tmp_path, "--workers", "2")
        assert code == 1
        assert "--workers" in capsys.readouterr().err

    def test_per_pattern_must_be_positive(self, toy_path, tmp_path):
        code, _ = _generate(toy_path, tmp_path, per="0")
        assert code == 1

    def test_failing_lexicon_gate(self, tmp_path, capsys):
        data = dict(TOY_LEXICON, thing_nouns=[])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code = run(["generate", "wogli", "--seed", "1", "--per-pattern", "1",
                    "--lexicon", str(bad), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "error[lexicon] lexicon rejected" in capsys.readouterr().err

    def test_exhaustion_is_a_domain_error(self, toy_path, tmp_path, capsys):
        code, _ = _generate(toy_path, tmp_path, per="10000")
        assert code == 2
        assert "error[exhausted]" in capsys.readouterr().err

    def test_spaced_period_flag(self, toy_path, tmp_path):
        code, out = _generate(toy_path, tmp_path, "--spaced-period")
        assert code == 0
        assert all(r.premise.endswith(" .") for r in read_pairs(out))

    @pytest.mark.parametrize("setname,pairs", [
        ("dative", 24 * 2 * 2), ("ditransitive", 24 * 2 * 2), ("os-hard", 17 * 2),
    ])
    def test_other_sets(self, toy_path, tmp_path, capsys, setname, pairs):
        code, _ = _generate(toy_path, tmp_path, setname=setname)
        assert code == 0
        assert f"wrote {pairs} pairs" in capsys.readouterr().out

    @pytest.mark.parametrize("setname,pairs", [("dative", 7_200), ("ditransitive", 24_000)])
    def test_default_sizes(self, tmp_path, capsys, setname, pairs):
        # the README's sizes: 24 patterns x 150 or 500 premises x 2 hypotheses
        out = tmp_path / f"{setname}.jsonl"
        assert run(["generate", setname, "--seed", "0", "--out", str(out)]) == 0
        assert f"wrote {pairs} pairs" in capsys.readouterr().out


class TestGenerateMemory:
    def test_rows_stream_from_draws_to_disk(self, tmp_path):
        # a writer that holds the 34,000 seed-0 rows as records and then as
        # encoded lines peaks near 55 MiB under tracemalloc; streamed, the
        # run peaks near 11 MiB
        out = tmp_path / "wogli.jsonl"
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            code = run(["generate", "wogli", "--seed", "0", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert code == 0 and out.stat().st_size == 21_976_305
        assert peak < 20 * 2**20


def _write_pairs_bytes(records, fmt: str) -> bytes:
    buffer = io.StringIO()
    write_pairs(records, buffer, fmt)
    return buffer.getvalue().encode("utf-8")


class TestRowsStraightFromDraws:
    """generate and derive encode rows straight from draws; their bytes are
    write_pairs' of the library's records, and the output is all or nothing."""

    @pytest.mark.parametrize("spaced", [False, True], ids=["period", "spaced-period"])
    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    @pytest.mark.parametrize("setname,dedup", [*((s.value, False) for s in GenerationSet),
                                               ("wogli", True), ("dative", True)])
    def test_generate(self, setname, dedup, fmt, spaced, lex, tmp_path, capsys):
        out = tmp_path / "out"
        flags = ["--spaced-period"] * spaced + ["--with-replacement-dedup"] * dedup
        assert run(["generate", setname, "--seed", "5", "--per-pattern", "3", "--format", fmt,
                    "--lexicon", str(bundled_lexicon_path()), "--out", str(out), *flags]) == 0
        records = generate_set(GenerationSet(setname), lex, 5, 3, dedup, spaced)
        assert out.read_bytes() == _write_pairs_bytes(records, fmt)
        assert capsys.readouterr().out == f"wrote {len(records)} pairs ({out.stat().st_size} bytes) to {out}\n"

    @pytest.mark.parametrize("spaced", [False, True], ids=["period", "spaced-period"])
    @pytest.mark.parametrize("source_spaced", [False, True], ids=["from-period", "from-spaced"])
    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    def test_derive(self, fmt, source_spaced, spaced, lex, tmp_path, capsys):
        source, out = tmp_path / "wogli.jsonl", tmp_path / "out"
        write_pairs(generate_set(GenerationSet.WOGLI, lex, 5, 3, spaced_period=source_spaced), source)
        assert run(["derive", "os-hard", "--from", str(source), "--format", fmt,
                    "--lexicon", str(bundled_lexicon_path()), "--out", str(out),
                    *["--spaced-period"] * spaced]) == 0
        records = derive_os_hard(read_pairs(source), lex, spaced)
        assert out.read_bytes() == _write_pairs_bytes(records, fmt)
        assert capsys.readouterr().out == f"wrote {len(records)} pairs ({out.stat().st_size} bytes) to {out}\n"

    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    def test_an_exception_mid_generation_leaves_out_untouched(self, fmt, tmp_path, monkeypatch):
        # 10 patterns x 200 premises x 2 rows: a first chunk is written
        # before the 11th pattern fails
        sample = generator._sample_pattern

        def failing(pattern, index, *args):
            if index == 10:
                raise RuntimeError("pattern 10 fails")
            return sample(pattern, index, *args)

        monkeypatch.setattr(generator, "_sample_pattern", failing)
        out = tmp_path / "out"
        out.write_bytes(b"old bytes\n")
        with pytest.raises(RuntimeError, match="pattern 10 fails"):
            run(["generate", "wogli", "--seed", "0", "--per-pattern", "200", "--format", fmt,
                 "--lexicon", str(bundled_lexicon_path()), "--out", str(out)])
        assert out.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["out"]


class TestDerive:
    def test_os_hard_from_file(self, toy_path, tmp_path, toy_lex):
        _, base = _generate(toy_path, tmp_path)
        out = tmp_path / "hard.jsonl"
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", toy_path, "--out", str(out)])
        assert code == 0
        want = generate_set(GenerationSet.OS_HARD, toy_lex, seed=3, per_pattern=2)
        assert read_pairs(out) == want

    def test_dative_source_is_rejected(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, setname="dative")
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", toy_path, "--out", str(tmp_path / "hard.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err
        assert "needs accusative records, not subset 'wogli-dative'" in err

    @pytest.mark.parametrize("value", [1, None, ["x"]], ids=["int", "null", "list"])
    def test_non_string_premise_id(self, value, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path)
        bad_id = _rewrite_first(base, lambda r: True, lambda r: r["metadata"].update(premise_id=value))
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", toy_path, "--out", str(tmp_path / "hard.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error[format] record {bad_id}: premise_id is {value!r}, not 'wogli-p00-d00000-premise'" in err

    def test_premise_id_of_another_draw(self, toy_path, tmp_path, capsys):
        # the edited row names draw d00001 of its pattern, its id draw d00000
        _, base = _generate(toy_path, tmp_path)
        bad_id = _rewrite_first(base, lambda r: True,
                                lambda r: r["metadata"].update(premise_id="wogli-p00-d00001-premise"))
        out = tmp_path / "hard.jsonl"
        code = run(["derive", "os-hard", "--from", str(base), "--lexicon", toy_path, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"error[format] record {bad_id}: premise_id is 'wogli-p00-d00001-premise', "
                f"not 'wogli-p00-d00000-premise'") in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["derive", "sample-augmentation"])
    @pytest.mark.parametrize("stem", ["wogli-p01-d00099", "wogli-d00099", "g1"],
                             ids=["another-pattern", "no-pattern", "no-draw"])
    def test_premise_id_must_name_a_draw_of_its_pattern(self, command, stem, toy_path, tmp_path, capsys):
        # id and premise_id agree, but do not name a draw of the row's pattern, p00
        _, base = _generate(toy_path, tmp_path, per="3")
        bad_id = _rewrite_first(base, lambda r: True, lambda r: (
            r.update(id=f"{stem}-h1"), r["metadata"].update(premise_id=f"{stem}-premise")))
        out = tmp_path / "out.jsonl"
        argv = {
            "derive": ["derive", "os-hard", "--from", base, "--lexicon", toy_path, "--out", out],
            "sample-augmentation": ["sample-augmentation", "--plan", "custom", "--in", base,
                                    "--per-pattern", "1", "--verb-min", "0", "--verb-max", "100",
                                    "--out-aug", out, "--out-rest", tmp_path / "rest.jsonl"],
        }[command]
        assert run([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"wogli: error[format] record {bad_id}: premise_id '{stem}-premise' does not end in "
            f"-p00-dNNNNN-premise, as a draw of pattern pnoun_v_sing_masc does\n")
        assert not out.exists()

    @pytest.mark.parametrize("spaced", [False, True], ids=["period", "spaced-period"])
    def test_either_period_style_derives(self, spaced, toy_path, tmp_path, toy_lex):
        _, base = _generate(toy_path, tmp_path, *(["--spaced-period"] if spaced else []))
        out = tmp_path / "hard.jsonl"
        code = run(["derive", "os-hard", "--from", str(base), "--lexicon", toy_path, "--out", str(out)])
        assert code == 0
        assert read_pairs(out) == generate_set(GenerationSet.OS_HARD, toy_lex, seed=3, per_pattern=2)

    @pytest.mark.parametrize("spaced", [False, True], ids=["period", "spaced-period"])
    @pytest.mark.parametrize("text", ["short", "reversed"])
    def test_premise_text_must_be_the_one_its_metadata_renders(self, text, spaced, tmp_path, capsys):
        # the first row's hypothesis is its premise with the arguments swapped
        out = tmp_path / "wogli.jsonl"
        assert run(["generate", "wogli", "--seed", "3", "--per-pattern", "8", "--out", str(out),
                    *(["--spaced-period"] if spaced else [])]) == 0
        change = {"short": lambda r: r.update(premise="Moritz."),
                  "reversed": lambda r: r.update(premise=r["hypothesis"])}[text]
        bad_id = _rewrite_first(out, lambda r: True, change)
        hard = tmp_path / "hard.jsonl"
        code = run(["derive", "os-hard", "--from", str(out), "--out", str(hard)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error[format] record {bad_id}: premise " in err
        assert "the premise its metadata renders" in err
        assert not hard.exists()

    def test_repeated_id_leaves_no_output(self, toy_path, tmp_path, capsys):
        # the repeat comes last, after every derived row has been written
        _, base = _generate(toy_path, tmp_path)
        first = base.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        with base.open("a", encoding="utf-8") as fh:
            fh.write(first)
        out = tmp_path / "hard.jsonl"
        code = run(["derive", "os-hard", "--from", str(base), "--lexicon", toy_path, "--out", str(out)])
        assert code == 2
        assert f"error[format] duplicate record id {json.loads(first)['id']!r}" in capsys.readouterr().err
        assert not out.exists()
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_tsv_source_lacks_metadata(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, "--format", "tsv")
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", toy_path, "--out", str(tmp_path / "hard.jsonl")])
        assert code == 2
        assert "error[format]" in capsys.readouterr().err


class TestSampleAugmentation:
    def test_custom_plan(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        out_aug = tmp_path / "aug.jsonl"
        out_rest = tmp_path / "rest.jsonl"
        code = run(["sample-augmentation", "--plan", "custom", "--seed", "5",
                    "--in", str(base), "--per-pattern", "1",
                    "--verb-min", "0", "--verb-max", "100",
                    "--out-aug", str(out_aug), "--out-rest", str(out_rest)])
        assert code == 0
        assert "wrote 34 pairs" in capsys.readouterr().out
        assert len(read_pairs(out_aug)) == 34
        assert len(read_pairs(out_rest)) == 17 * 3 * 2 - 34

    def test_premise_id_must_be_the_ids_own(self, tmp_path, capsys):
        # a wrong premise_id would put its row in a premise of its own
        base = tmp_path / "wogli.jsonl"
        assert run(["generate", "wogli", "--seed", "3", "--per-pattern", "8", "--out", str(base)]) == 0
        argv = ["sample-augmentation", "--plan", "custom", "--per-pattern", "2", "--verb-min", "0",
                "--verb-max", "100", "--seed", "0", "--in", str(base)]
        assert run([*argv, "--out-aug", str(tmp_path / "a0"), "--out-rest", str(tmp_path / "r0")]) == 0
        assert "wrote 68 pairs" in capsys.readouterr().out
        bad_id = _rewrite_first(base, lambda r: True, lambda r: r["metadata"].update(premise_id="zzz"))
        out_aug, out_rest = tmp_path / "aug.jsonl", tmp_path / "rest.jsonl"
        assert run([*argv, "--out-aug", str(out_aug), "--out-rest", str(out_rest)]) == 2
        err = capsys.readouterr().err
        assert f"error[format] record {bad_id}: premise_id is 'zzz', not 'wogli-p00-d00000-premise'" in err
        assert not out_aug.exists() and not out_rest.exists()

    @pytest.mark.parametrize("second", ["same", "missing", "symlink", "hardlink"])
    def test_one_file_for_both_outputs(self, toy_path, tmp_path, capsys, second):
        # one file for both would end up holding the rest only, the subset lost
        _, base = _generate(toy_path, tmp_path, per="3")
        out = other = tmp_path / "out.jsonl"
        if second != "missing":
            out.write_bytes(b"kept\n")
        if second in ("symlink", "hardlink"):
            other = tmp_path / "link.jsonl"
            (other.symlink_to if second == "symlink" else other.hardlink_to)(out)
        code = run(["sample-augmentation", "--plan", "custom", "--seed", "5",
                    "--in", str(base), "--per-pattern", "1", "--verb-min", "0", "--verb-max", "100",
                    "--out-aug", str(out), "--out-rest", str(other)])
        assert code == 1
        assert "--out-aug and --out-rest must be different files" in capsys.readouterr().err
        assert (not out.exists()) if second == "missing" else out.read_bytes() == b"kept\n"

    def test_custom_plan_needs_sizes(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        code = run(["sample-augmentation", "--plan", "custom", "--in", str(base),
                    "--out-aug", str(tmp_path / "a.jsonl"),
                    "--out-rest", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert "custom plans need" in capsys.readouterr().err

    def test_custom_plan_with_verb_min_above_verb_max(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        aug, rest = tmp_path / "a.jsonl", tmp_path / "r.jsonl"
        code = run(["sample-augmentation", "--plan", "custom", "--in", str(base), "--per-pattern", "1",
                    "--verb-min", "5", "--verb-max", "2", "--out-aug", str(aug), "--out-rest", str(rest)])
        assert code == 1
        assert capsys.readouterr().err == "wogli: need 0 <= verb_min <= verb_max\n"
        assert not aug.exists() and not rest.exists()

    def test_preset_plans_reject_sizing_options(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        code = run(["sample-augmentation", "--plan", "102", "--in", str(base),
                    "--per-pattern", "2",
                    "--out-aug", str(tmp_path / "a.jsonl"),
                    "--out-rest", str(tmp_path / "r.jsonl")])
        assert code == 1

    def test_preset_plan_short_input(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        code = run(["sample-augmentation", "--plan", "1037", "--in", str(base),
                    "--out-aug", str(tmp_path / "a.jsonl"),
                    "--out-rest", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "error[constraint]" in capsys.readouterr().err


def _non_canonical(lines):
    """lines, rows of a generated file, with five rows rewritten as valid rows
    that _row_lines would not write: an escape for a non-ASCII character,
    keys in another order, other spacing, and metadata holding numbers, one
    written as the encoder writes it and one not."""
    rows = [json.loads(line) for line in lines]
    plain = next(i for i, row in enumerate(rows) if not row["premise"].isascii())
    lines[plain] = json.dumps(rows[plain])  # say \u00e4 for ä
    lines[2] = json.dumps(dict(reversed(rows[2].items())), ensure_ascii=False)
    lines[3] = json.dumps(rows[3], ensure_ascii=False, separators=(" ,", ":"))
    lines[4] = json.dumps(dict(rows[4], metadata={**rows[4]["metadata"], "score": 0.5, "n": None}),
                          ensure_ascii=False)  # canonical, though not all strings
    lines[5] = lines[5].replace('"metadata": {', '"metadata": {"scale": 1E2, ')  # encodes as 100.0
    return lines


class TestSampleAugmentationBytes:
    """sample-augmentation writes the bytes write_pairs writes for
    sample_augmentation of read_pairs, whatever lines its input holds: a
    canonical row is copied, any other is read again and encoded."""

    ARGS = ["sample-augmentation", "--plan", "custom", "--seed", "5", "--per-pattern", "1",
            "--verb-min", "0", "--verb-max", "100"]
    PLAN = wogli.AugmentationPlan(1, 0, 100, False, 5)

    def _expected(self, source, fmt):
        aug, rest = wogli.sample_augmentation(read_pairs(source), self.PLAN)
        return [_bytes_of(records, fmt) for records in (aug, rest)]

    @pytest.mark.parametrize("fmt", ["rows", "tsv"])
    @pytest.mark.parametrize("layout", ["canonical", "mixed", "crlf-blank-lines"])
    def test_equals_the_library(self, layout, fmt, toy_path, tmp_path):
        _, base = _generate(toy_path, tmp_path, per="3")
        lines = base.read_text(encoding="utf-8").splitlines()
        if layout == "mixed":
            base.write_text("\n".join(_non_canonical(lines)) + "\n", encoding="utf-8")
        elif layout == "crlf-blank-lines":
            base.write_bytes("\r\n\r\n  \r\n".join(lines).encode() + b"\r\n")
        out_aug, out_rest = tmp_path / "aug", tmp_path / "rest"
        assert run([*self.ARGS, "--in", str(base), "--out-aug", str(out_aug),
                    "--out-rest", str(out_rest), "--format", fmt]) == 0
        assert [out_aug.read_bytes(), out_rest.read_bytes()] == self._expected(base, fmt)

    def test_fifo_input(self, toy_path, tmp_path):
        _, base = _generate(toy_path, tmp_path, per="3")
        lines = _non_canonical(base.read_text(encoding="utf-8").splitlines())
        base.write_text("\n".join(lines) + "\n", encoding="utf-8")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(base.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out_aug, out_rest = tmp_path / "aug", tmp_path / "rest"
        code = run([*self.ARGS, "--in", str(fifo), "--out-aug", str(out_aug), "--out-rest", str(out_rest)])
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 0
        assert [out_aug.read_bytes(), out_rest.read_bytes()] == self._expected(base, "rows")

    @pytest.mark.parametrize("output", ["--out-aug", "--out-rest"])
    def test_an_output_that_is_the_input(self, output, toy_path, tmp_path):
        # the input is held open, and replaced only once both outputs are written
        _, base = _generate(toy_path, tmp_path, per="3")
        base.write_text("\n".join(_non_canonical(base.read_text(encoding="utf-8").splitlines())) + "\n",
                        encoding="utf-8")
        expected = self._expected(base, "rows")
        other = tmp_path / "other"
        outs = {"--out-aug": other, "--out-rest": other, output: base}
        assert run([*self.ARGS, "--in", str(base), *(str(a) for item in outs.items() for a in item)]) == 0
        assert [outs["--out-aug"].read_bytes(), outs["--out-rest"].read_bytes()] == expected

    @pytest.mark.parametrize("change", ["row-dropped", "same-size"])
    def test_input_changed_between_passes(self, change, toy_path, tmp_path, monkeypatch, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        out_aug, out_rest = tmp_path / "aug", tmp_path / "rest"
        out_aug.write_bytes(b"old aug\n")
        select = wogli.augment._select

        def rewrite_then_select(groups, plan):
            data = base.read_bytes()
            if change == "row-dropped":
                data = data.split(b"\n", 1)[1]
            else:  # the case of a premise's first letter
                at = data.index(b'"premise": "') + len(b'"premise": "')
                data = data[:at] + data[at:at + 1].swapcase() + data[at + 1:]
            with open(base, "r+b") as handle:  # in place: the open input sees it
                handle.write(data)
                handle.truncate()
            status = base.stat()  # a write within one clock tick may keep the modification time
            os.utime(base, ns=(status.st_atime_ns, status.st_mtime_ns + 1_000_000))
            return select(groups, plan)

        monkeypatch.setattr(wogli.augment, "_select", rewrite_then_select)
        code = run([*self.ARGS, "--in", str(base), "--out-aug", str(out_aug), "--out-rest", str(out_rest)])
        assert code == 2
        assert capsys.readouterr().err == f"wogli: error[io] changed while it was read: {base}\n"
        assert out_aug.read_bytes() == b"old aug\n" and not out_rest.exists()
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == []


def _bytes_of(records, fmt):
    buf = io.StringIO()
    write_pairs(records, buf, fmt)
    return buf.getvalue().encode()


class TestMerge:
    def test_merge_round_trip(self, toy_path, tmp_path):
        _, aug = _generate(toy_path, tmp_path)
        base = tmp_path / "base.tsv"
        base.write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
        out = tmp_path / "train.tsv"
        code = run(["merge", "--base", str(base), "--aug", str(aug),
                    "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 68
        assert all(len(line.split("\t")) == 3 for line in lines)
        first = out.read_bytes()
        run(["merge", "--base", str(base), "--aug", str(aug),
             "--seed", "2", "--out", str(out)])
        assert out.read_bytes() == first

    @pytest.mark.parametrize("field", ["premise", "hypothesis"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    def test_break_in_a_pair_text_is_refused(self, field, char, toy_path, tmp_path, capsys):
        # written, such a row would be one that --base rejects
        _, aug = _generate(toy_path, tmp_path)
        _rewrite_first(aug, lambda r: True, lambda r: r.update({field: r[field].replace(" ", char, 1)}))
        base = tmp_path / "base.tsv"
        base.write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
        out = tmp_path / "train.tsv"
        code = run(["merge", "--base", str(base), "--aug", str(aug), "--out", str(out)])
        assert code == 2
        assert "error[format] training row" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ne_label", ["neutral", "contradiction"])
    def test_equals_the_library(self, ne_label, toy_path, tmp_path, capsys):
        # base rows are kept as their lines and aug rows as tuples; the
        # shuffle sees only the list's length, so the bytes do not change
        _, aug = _generate(toy_path, tmp_path)
        base, out = tmp_path / "base.tsv", tmp_path / "train.tsv"
        base.write_text("\n".join(f"Satz {i}.\tNoch ein\u2028Satz.\t{('entailment', 'neutral')[i % 2]}"
                                  for i in range(40)) + "\n\n", encoding="utf-8")
        for seed in range(5):
            capsys.readouterr()
            assert run(["merge", "--base", str(base), "--aug", str(aug), "--ne-label", ne_label,
                        "--seed", str(seed), "--out", str(out)]) == 0
            want = io.StringIO()
            size = write_training_rows(merge_training(base, read_pairs(aug), ne_label, seed), want)
            assert out.read_bytes() == want.getvalue().encode("utf-8")
            assert capsys.readouterr().out == f"wrote {40 + 68} rows ({size} bytes) to {out}\n"

    def test_a_tab_in_an_aug_premise(self, toy_path, tmp_path, capsys):
        _, aug = _generate(toy_path, tmp_path)
        premise = json.loads(aug.read_text(encoding="utf-8").splitlines()[0])["premise"].replace(" ", "\t", 1)
        _rewrite_first(aug, lambda r: True, lambda r: r.update(premise=premise))
        base, out = tmp_path / "base.tsv", tmp_path / "train.tsv"
        base.write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
        assert run(["merge", "--base", str(base), "--aug", str(aug), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"wogli: error[format] training row {premise!r}: field contains a tab or line break\n")
        assert not out.exists()

    def test_a_bad_aug_file_is_reported_before_a_bad_base_file(self, toy_path, tmp_path, capsys):
        _, aug = _generate(toy_path, tmp_path)
        _rewrite_first(aug, lambda r: True, lambda r: r.update(label="maybe"))
        base, out = tmp_path / "base.tsv", tmp_path / "train.tsv"
        base.write_text("nur zwei\tfelder\n", encoding="utf-8")
        argv = ["merge", "--base", str(base), "--aug", str(aug), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err == "wogli: error[format] line 1: 'maybe' is not a valid Label\n"
        aug.write_text(aug.read_text(encoding="utf-8").replace('"maybe"', '"non-entailed"', 1), encoding="utf-8")
        assert run(argv) == 2
        assert capsys.readouterr().err == "wogli: error[format] base line 1: expected premise/hypothesis/label\n"
        assert not out.exists()

    def test_ne_label_choice_is_validated(self, toy_path, tmp_path):
        _, aug = _generate(toy_path, tmp_path)
        base = tmp_path / "base.tsv"
        base.write_text("", encoding="utf-8")
        code = run(["merge", "--base", str(base), "--aug", str(aug),
                    "--ne-label", "non-entailed", "--out", str(tmp_path / "t.tsv")])
        assert code == 1


def _write_predictions(path, records, runs=1, flip=()):
    lines = ["id\trun\tlabel"]
    for r in records:
        for run_index in range(runs):
            label = r.label.value
            if r.id in flip:
                label = "entailed" if label == "non-entailed" else "non-entailed"
            lines.append(f"{r.id}\t{run_index}\t{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestAnalyze:
    def test_report_and_rows(self, toy_path, tmp_path, capsys):
        _, gold = _generate(toy_path, tmp_path)
        records = read_pairs(gold)
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, records, flip={records[0].id})
        rows_out = tmp_path / "report.jsonl"
        capsys.readouterr()
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds),
                    "--runs", "1", "--out", str(rows_out)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"records: {len(records)}  runs: 1")
        rows = [json.loads(line) for line in rows_out.read_text(encoding="utf-8").splitlines()]
        overall = next(r for r in rows if r.get("group") == "all")
        assert overall["k"] == [len(records) - 1]
        assert any(r["kind"] == "ztest" for r in rows)

    def test_report_rows_replace_the_file(self, toy_path, tmp_path):
        # a new file takes the name: a hard link to the old report keeps its bytes
        _, gold = _generate(toy_path, tmp_path)
        records = read_pairs(gold)
        preds = tmp_path / "preds.tsv"
        rows_out = tmp_path / "report.jsonl"
        argv = ["analyze", "--gold", str(gold), "--predictions", str(preds), "--runs", "1",
                "--out", str(rows_out)]
        _write_predictions(preds, records)
        assert run(argv) == 0
        old = rows_out.read_bytes()
        link = tmp_path / "link.jsonl"
        os.link(rows_out, link)
        _write_predictions(preds, records, flip={records[0].id})
        assert run(argv) == 0
        assert link.read_bytes() == old
        assert rows_out.read_bytes() != old

    def test_report_rows_into_a_missing_directory(self, toy_path, tmp_path, capsys):
        _, gold = _generate(toy_path, tmp_path)
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, read_pairs(gold))
        out = tmp_path / "missing-dir" / "report.jsonl"
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds), "--runs", "1",
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("wogli: error[io] No such file or directory: ")
        assert err.rstrip().endswith(str(Path("missing-dir", "report.jsonl")))

    def test_groups_choice(self, toy_path, tmp_path, capsys):
        _, gold = _generate(toy_path, tmp_path)
        records = read_pairs(gold)
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, records)
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds),
                    "--runs", "1", "--groups", "number"])
        assert code == 0
        text = capsys.readouterr().out
        assert "number:all-singular" in text
        assert "gender:" not in text

    def test_missing_predictions_fail_the_join(self, toy_path, tmp_path, capsys):
        _, gold = _generate(toy_path, tmp_path)
        records = read_pairs(gold)
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, records[:-1])
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds),
                    "--runs", "1"])
        assert code == 2
        assert "error[predictions]" in capsys.readouterr().err

    def test_prediction_ids_outside_gold_fail_the_join(self, toy_path, tmp_path, capsys):
        _, gold = _generate(toy_path, tmp_path)
        records = read_pairs(gold)
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, records)
        with preds.open("a", encoding="utf-8") as fh:
            fh.write("not-a-gold-id\t0\tentailed\n")
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds),
                    "--runs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[predictions]" in err and "not-a-gold-id" in err

    def test_runs_validated(self, toy_path, tmp_path):
        _, gold = _generate(toy_path, tmp_path)
        preds = tmp_path / "preds.tsv"
        preds.write_text("id\trun\tlabel\n", encoding="utf-8")
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds),
                    "--runs", "0"])
        assert code == 1


class TestValidateLexicon:
    def test_toy_profile_accepts_toy(self, toy_path, capsys):
        code = run(["validate-lexicon", "--in", toy_path, "--profile", "toy"])
        assert code == 0
        assert "lexicon ok" in capsys.readouterr().out

    def test_full_profile_rejects_toy(self, toy_path, capsys):
        code = run(["validate-lexicon", "--in", toy_path, "--profile", "full"])
        assert code == 2
        captured = capsys.readouterr()
        assert "expected 50 accusative verbs" in captured.out
        assert "finding(s)" in captured.err

    def test_full_profile_accepts_bundled(self, capsys):
        from wogli import bundled_lexicon_path
        code = run(["validate-lexicon", "--in", str(bundled_lexicon_path())])
        assert code == 0
        assert "lexicon ok" in capsys.readouterr().out


    @pytest.mark.parametrize("profile", ["toy", "full"])
    @pytest.mark.parametrize("inventory,entry,what", [
        ("masc_proper", "Karl Heinz", "name 'Karl Heinz'"),
        ("verbs_accusative", {"lemma": "warnen", "form_3sg": "warnt ", "form_3pl": "warnen"},
         "form_3sg 'warnt '"),
        ("fem_common", {"lemma": "Auto\trin", "plural_nom": "Autorinnen"}, "lemma 'Auto\\trin'"),
        ("fem_common", {"lemma": "Auto\nrin", "plural_nom": "Autorinnen"}, "lemma 'Auto\\nrin'"),
    ])
    def test_an_entry_with_whitespace_is_refused(self, inventory, entry, what, profile, tmp_path, capsys):
        path = tmp_path / "spaced.json"
        path.write_text(json.dumps(dict(TOY_LEXICON, **{inventory: [entry]})), encoding="utf-8")
        assert run(["validate-lexicon", "--in", str(path), "--profile", profile]) == 2
        captured = capsys.readouterr()
        assert "lexicon ok" not in captured.out
        assert f"error[lexicon] {path}: {inventory}[0]: {what} is empty or holds whitespace" in captured.err

    def test_generate_names_the_entry_not_a_record(self, tmp_path, capsys):
        # a tab in a name used to surface only after drawing, as a TSV record's fault
        path = tmp_path / "tab.json"
        path.write_text(json.dumps(dict(TOY_LEXICON, fem_proper=["An\tna", "Maria"])), encoding="utf-8")
        out = tmp_path / "out.tsv"
        code = run(["generate", "wogli", "--seed", "3", "--per-pattern", "2", "--lexicon", str(path),
                    "--format", "tsv", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"wogli: error[lexicon] {path}: fem_proper[0]: name 'An\\tna' is empty or holds whitespace\n")


class TestLoneSurrogates:
    """A JSON escape such as \\ud800 decodes to half of a surrogate pair,
    which UTF-8 cannot encode: a pair row or lexicon entry holding one is
    refused as it is read, and nothing is written."""

    def test_merge_refuses_a_lone_surrogate_and_reads_a_pair(self, toy_path, tmp_path, capsys):
        _, aug = _generate(toy_path, tmp_path)
        lines = aug.read_text(encoding="utf-8").splitlines()
        base, out = tmp_path / "base.tsv", tmp_path / "train.tsv"
        base.write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")

        def merge(escape):  # line 2's premise starts with escape
            edited = [*lines[:1], lines[1].replace('"premise": "', f'"premise": "{escape}', 1), *lines[2:]]
            aug.write_text("\n".join(edited) + "\n", encoding="utf-8")
            return run(["merge", "--base", str(base), "--aug", str(aug), "--out", str(out)])

        assert merge("\\ud800") == 2 and not out.exists()
        assert capsys.readouterr().err == ("wogli: error[format] line 2: a JSON escape decodes to a "
                                           "lone surrogate (U+D800), which UTF-8 cannot encode\n")
        assert merge("\\ud83d\\ude00") == 0  # a whole pair is one character
        assert "\U0001F600" in out.read_text(encoding="utf-8")

    def test_generate_refuses_a_lone_surrogate_in_a_lexicon(self, tmp_path, capsys):
        path, out = tmp_path / "lexicon.json", tmp_path / "out.jsonl"
        doc = dict(TOY_LEXICON, masc_proper=["Mo\ud800ritz", "Paul"])
        path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the name holds \\ud800
        code = run(["generate", "wogli", "--seed", "0", "--lexicon", str(path), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"wogli: error[lexicon] {path}: masc_proper[0]: name 'Mo\\ud800ritz' holds a lone "
            "surrogate (U+D800), which UTF-8 cannot encode\n")


class TestUndecodableLexicon:
    """A lexicon file that is not UTF-8 is a lexicon error naming the file,
    the line and the byte, whichever command loads it."""

    @pytest.mark.parametrize("command", ["validate-lexicon", "generate"])
    def test_exit_2_with_lexicon_error(self, command, tmp_path, capsys):
        bad = tmp_path / "badlex.tsv"
        bad.write_bytes(b"class\tlemma\tform2\tform3\tattrs\npnoun\tJ\xe4rg\t-\t-\tmasc\n")
        if command == "validate-lexicon":
            argv = ["validate-lexicon", "--in", str(bad)]
        else:
            argv = ["generate", "wogli", "--seed", "0", "--lexicon", str(bad),
                    "--out", str(tmp_path / "out.jsonl")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"error[lexicon] {bad}: line 2: not valid UTF-8 (invalid continuation byte at byte 37)" in err


class TestModuleEntryPoint:
    """python -m wogli.cli runs the same CLI, exit codes included."""

    @staticmethod
    def _module(*argv):
        src = str(Path(wogli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, "-m", "wogli.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_domain_error_exits_2(self, tmp_path):
        bad = tmp_path / "badlex.tsv"
        bad.write_bytes(b"class\tlemma\tform2\tform3\tattrs\npnoun\tJ\xe4rg\t-\t-\tmasc\n")
        done = self._module("validate-lexicon", "--in", str(bad))
        assert done.returncode == 2, done.stderr
        assert f"error[lexicon] {bad}: line 2: not valid UTF-8" in done.stderr

    def test_output_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing-dir" / "x.jsonl"
        done = self._module("generate", "dative", "--seed", "0", "--per-pattern", "1",
                            "--out", str(out))
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("wogli: error[io] No such file or directory: ")
        assert done.stderr.rstrip().endswith(str(Path("missing-dir", "x.jsonl")))
        assert not out.parent.exists()

    def test_help_lists_the_commands(self):
        done = self._module("--help")
        assert done.returncode == 0, done.stderr
        for command in ("generate", "derive", "sample-augmentation",
                        "merge", "analyze", "validate-lexicon"):
            assert command in done.stdout


class TestDispatch:
    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("generate", "derive", "sample-augmentation",
                        "merge", "analyze", "validate-lexicon"):
            assert command in out

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "wogli:" in capsys.readouterr().err


def _rewrite_first(path, pick, change):
    """Apply change to the first JSON row for which pick holds, in place."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    row = next(r for r in rows if pick(r))
    change(row)
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")
    return row["id"]


class TestMalformedRows:
    def test_derive_rejects_unknown_pattern(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path)
        bad_id = _rewrite_first(base, lambda r: True, lambda r: r.update(pattern="foo_v_bar"))
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", toy_path, "--out", str(tmp_path / "hard.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err and bad_id in err and "foo_v_bar" in err

    def test_derive_rejects_article_on_proper_name(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path)
        bad_id = _rewrite_first(
            base,
            lambda r: r["metadata"]["subject_kind"] == "proper",
            lambda r: r["metadata"].update(subject_article="def"),
        )
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", toy_path, "--out", str(tmp_path / "hard.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err and bad_id in err

    @pytest.mark.parametrize("setname, pick, change, why", [
        ("p-subject", lambda r: True, {"subject_lemma": "Quatsch"}, "subject_lemma is 'Quatsch'"),
        ("wogli", lambda r: r["metadata"]["object_kind"] == "proper", {"object_kind": "pronoun"},
         "object: only a subject can be a pronoun"),
    ], ids=["pronoun-lemma", "pronoun-object"])
    def test_derive_rejects_pronoun_metadata(self, toy_path, tmp_path, capsys, setname, pick, change, why):
        _, base = _generate(toy_path, tmp_path, setname=setname)
        argv = ["derive", "os-hard", "--from", str(base), "--lexicon", toy_path,
                "--out", str(tmp_path / "hard.jsonl")]
        assert run(argv) == 0  # unedited, the file derives
        bad_id = _rewrite_first(base, pick, lambda r: r["metadata"].update(change))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error[format]" in err and f"record {bad_id}: {why}" in err

    @pytest.mark.parametrize("row_id, change, premise, why", UNDRAWABLE_ROWS,
                             ids=["plural-subject", "self-pair"])
    def test_derive_rejects_an_np_its_pattern_never_draws(self, mutation_inputs, tmp_path, capsys,
                                                          row_id, change, premise, why):
        base, out = tmp_path / "base.jsonl", tmp_path / "hard.jsonl"
        base.write_bytes((mutation_inputs / "valid.jsonl").read_bytes())
        _rewrite_first(base, lambda r: r["id"] == row_id,
                       lambda r: (r.update(premise=premise), r["metadata"].update(change)))
        code = run(["derive", "os-hard", "--from", str(base),
                    "--lexicon", str(wogli.bundled_lexicon_path()), "--out", str(out)])
        assert code == 2
        assert f"error[format] record {row_id}: {why}" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_augmentation_rejects_unknown_pattern(self, toy_path, tmp_path, capsys):
        _, base = _generate(toy_path, tmp_path, per="3")
        bad_id = _rewrite_first(
            base, lambda r: r["hyp_kind"] == "h2_os", lambda r: r.update(pattern="foo_v_bar")
        )
        code = run(["sample-augmentation", "--plan", "custom", "--seed", "5",
                    "--in", str(base), "--per-pattern", "1",
                    "--verb-min", "0", "--verb-max", "100",
                    "--out-aug", str(tmp_path / "aug.jsonl"),
                    "--out-rest", str(tmp_path / "rest.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err and bad_id in err and "foo_v_bar" in err

    def test_analyze_rejects_unknown_pattern(self, toy_path, tmp_path, capsys):
        _, gold = _generate(toy_path, tmp_path)
        bad_id = _rewrite_first(
            gold, lambda r: r["hyp_kind"] == "h1_so", lambda r: r.update(pattern="foo_v_bar")
        )
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, read_pairs(gold))
        code = run(["analyze", "--gold", str(gold), "--predictions", str(preds),
                    "--runs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[format]" in err and bad_id in err and "foo_v_bar" in err


class TestWrongJsonTypes:
    """Rows of the wrong JSON shape are format errors naming the line, in
    every command that reads pair files."""

    def _argv(self, command, toy_path, tmp_path, path):
        if command == "derive":
            return ["derive", "os-hard", "--from", str(path), "--lexicon", toy_path,
                    "--out", str(tmp_path / "hard.jsonl")]
        if command == "sample-augmentation":
            return ["sample-augmentation", "--plan", "custom", "--seed", "5",
                    "--in", str(path), "--per-pattern", "1", "--verb-min", "0",
                    "--verb-max", "100", "--out-aug", str(tmp_path / "aug.jsonl"),
                    "--out-rest", str(tmp_path / "rest.jsonl")]
        preds = tmp_path / "preds.tsv"
        _write_predictions(preds, read_pairs(path))
        return ["analyze", "--gold", str(path), "--predictions", str(preds), "--runs", "1"]

    @pytest.mark.parametrize("command", ["derive", "sample-augmentation", "analyze"])
    @pytest.mark.parametrize("bad_line,message", [
        (lambda row: json.dumps(dict(row, pattern=[row["pattern"]])),
         "line 2: field 'pattern' must be a string"),
        (lambda row: "[1, 2]", "line 2: expected a JSON object"),
        (lambda row: "null", "line 2: expected a JSON object"),
        (lambda row: json.dumps(dict(row, metadata=list(row["metadata"].items()))),
         "line 2: metadata must be an object"),
    ], ids=["pattern-array", "array-row", "null-row", "metadata-pairs"])
    def test_exit_2_with_format_error(self, command, bad_line, message, toy_path, tmp_path,
                                      capsys):
        _, path = _generate(toy_path, tmp_path, per="3")
        argv = self._argv(command, toy_path, tmp_path, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = bad_line(json.loads(lines[1]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error[format]" in err and message in err


class TestFirstFaultInFileOrder:
    """Every command that reads a pair file reads it once, so a file's first
    faulty line is the error, whichever command reads it."""

    @pytest.mark.parametrize("command", ["derive", "sample-augmentation", "merge", "analyze"])
    def test_duplicate_id_before_a_missing_field(self, command, toy_path, tmp_path, capsys):
        _, pairs = _generate(toy_path, tmp_path, per="3")
        preds, base, out = tmp_path / "preds.tsv", tmp_path / "base.tsv", tmp_path / "out.txt"
        _write_predictions(preds, read_pairs(pairs))
        base.write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
        rows = [json.loads(line) for line in pairs.read_text(encoding="utf-8").splitlines()]
        rows[1]["id"] = rows[0]["id"]  # line 2 repeats line 1's id
        del rows[2]["premise"]  # line 3 lacks a field
        pairs.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                         encoding="utf-8")
        argv = {
            "derive": ["derive", "os-hard", "--from", pairs, "--lexicon", toy_path, "--out", out],
            "sample-augmentation": ["sample-augmentation", "--plan", "custom", "--in", pairs,
                                    "--per-pattern", "1", "--verb-min", "0", "--verb-max", "100",
                                    "--out-aug", out, "--out-rest", tmp_path / "rest.jsonl"],
            "merge": ["merge", "--base", base, "--aug", pairs, "--out", out],
            "analyze": ["analyze", "--gold", pairs, "--predictions", preds, "--runs", "1", "--out", out],
        }[command]
        capsys.readouterr()
        assert run([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"wogli: error[format] duplicate record id {rows[0]['id']!r}\n")
        assert not out.exists()


def _row_text(records) -> str:
    """records as JSON rows, unchecked: write_pairs would refuse a repeated id."""
    return "".join(dataset_io._row_lines(records))


def _renamed(record, stem):
    """record under another id stem, its premise_id the new stem's."""
    suffix = record.id.rpartition("-")[2]
    return dataclasses.replace(record, id=f"{stem}-{suffix}",
                               metadata={**record.metadata, "premise_id": f"{stem}-premise"})


class TestRepeatedIds:
    """derive and sample-augmentation keep no set of ids: a row's id is
    checked against the earlier rows of its premise. A repeat anywhere in
    the file is still the error at its row, before any other check of it,
    in the commands and in the list-based derive_os_hard and
    sample_augmentation, which until now skipped or passed a repeat."""

    COMMANDS = ["derive", "sample-augmentation", "derive_os_hard", "sample_augmentation"]

    @staticmethod
    def _error(command, records, toy_path, toy_lex, tmp_path, capsys) -> str:
        if command == "derive_os_hard":
            with pytest.raises(DataFormatError) as exc:
                derive_os_hard(records, toy_lex)
            return str(exc.value)
        if command == "sample_augmentation":
            with pytest.raises(DataFormatError) as exc:
                sample_augmentation(records, AugmentationPlan(1, 0, 100, False, 0))
            return str(exc.value)
        pairs, out = tmp_path / "pairs.jsonl", tmp_path / "out.jsonl"
        pairs.write_text(_row_text(records), encoding="utf-8")
        argv = {
            "derive": ["derive", "os-hard", "--from", pairs, "--lexicon", toy_path, "--out", out],
            "sample-augmentation": ["sample-augmentation", "--plan", "custom", "--in", pairs,
                                    "--per-pattern", "1", "--verb-min", "0", "--verb-max", "100",
                                    "--out-aug", out, "--out-rest", tmp_path / "rest.jsonl"],
        }[command]
        capsys.readouterr()
        assert run([str(arg) for arg in argv]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("wogli: error[format] ") and err.endswith("\n")
        return err.removeprefix("wogli: error[format] ").removesuffix("\n")

    @pytest.fixture
    def records(self, toy_lex):
        # p00-d00000-h1, p00-d00000-h2, p00-d00001-h1, ...
        return generate_set(GenerationSet.WOGLI, toy_lex, seed=3, per_pattern=3)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_repeat_that_is_not_adjacent(self, command, records, toy_path, toy_lex, tmp_path, capsys):
        a, b = records[0], records[2]
        assert a.id.endswith("-h1") and b.id.endswith("-h1") and a.id != b.id
        for rows, repeat in (([a, b, a], a), ([*records[:5], a, *records[5:]], a),
                             ([*records, records[-1]], records[-1])):
            got = self._error(command, rows, toy_path, toy_lex, tmp_path, capsys)
            assert got == f"duplicate record id {repeat.id!r}"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fault", ["subset", "premise_id", "verb_lemma", "pattern"])
    def test_the_repeat_is_the_error_before_a_bad_field(self, command, fault, records, toy_path, toy_lex,
                                                       tmp_path, capsys):
        first = records[0]
        bad = {
            "subset": lambda r: dataclasses.replace(r, subset="wogli-dative"),
            "premise_id": lambda r: dataclasses.replace(r, metadata={**r.metadata, "premise_id": "zzz"}),
            "verb_lemma": lambda r: dataclasses.replace(
                r, metadata={k: v for k, v in r.metadata.items() if k != "verb_lemma"}),
            "pattern": lambda r: dataclasses.replace(r, pattern_name="plural_fem_v_plural_fem"),
        }[fault]
        got = self._error(command, [*records[:3], bad(first)], toy_path, toy_lex, tmp_path, capsys)
        assert got == f"duplicate record id {first.id!r}"
        # the same fault under an id of its own is an error of that row's own
        # (augmentation reads no subset)
        fresh = bad(_renamed(first, "wogli-p00-d00099"))
        if not (fault == "subset" and command.startswith("sample")):
            got = self._error(command, [*records[:3], fresh], toy_path, toy_lex, tmp_path, capsys)
            assert got.startswith(f"record {fresh.id}")

    @pytest.mark.parametrize("command", ["derive", "derive_os_hard"])
    def test_the_same_draw_under_another_prefix(self, command, records, toy_path, toy_lex, tmp_path, capsys):
        other = _renamed(records[0], "other-p00-d00000")
        got = self._error(command, [*records[:3], other], toy_path, toy_lex, tmp_path, capsys)
        assert got == (f"record other-p00-d00000-h1: premise 'other-p00-d00000-premise' has the draw "
                       f"p00-d00000 of record {records[0].id}, another premise")

    @pytest.mark.parametrize("command", ["derive", "derive_os_hard"])
    def test_a_repeat_under_another_prefix(self, command, records, toy_path, toy_lex, tmp_path, capsys):
        # the repeat of other-...-h1 is its row's duplicate error, not "another premise"
        other = _renamed(records[0], "other-p00-d00000")
        got = self._error(command, [other, *records[2:4], other], toy_path, toy_lex, tmp_path, capsys)
        assert got == f"duplicate record id {other.id!r}"

    def test_augmentation_reads_another_prefix_as_its_own_premise(self, records):
        other = _renamed(records[0], "other-p00-d00000")
        rows = [*records, other]
        aug, rest = sample_augmentation(rows, AugmentationPlan(0, 0, 100, False, 0))
        assert aug == [] and rest == rows


class TestUndecodableInput:
    """A pair, prediction or training file that is not UTF-8 is a format
    error naming the file and the line of its first bad byte."""

    @pytest.mark.parametrize("command", ["derive", "sample-augmentation", "merge", "analyze"])
    def test_exit_2_with_format_error(self, command, toy_path, tmp_path, capsys):
        _, pairs = _generate(toy_path, tmp_path, per="3")
        head = pairs.read_bytes().split(b"\n")[:2]
        bad = tmp_path / "bad.txt"
        if command == "derive":
            bad.write_bytes(b"\n".join(head) + b"\n\xff\xfe\n")
            argv = ["derive", "os-hard", "--from", str(bad), "--lexicon", toy_path,
                    "--out", str(tmp_path / "hard.jsonl")]
        elif command == "sample-augmentation":
            bad.write_bytes(b"\n".join(head) + b"\n\xff\xfe\n")
            argv = ["sample-augmentation", "--plan", "custom", "--seed", "5", "--in", str(bad),
                    "--per-pattern", "1", "--verb-min", "0", "--verb-max", "100",
                    "--out-aug", str(tmp_path / "aug.jsonl"),
                    "--out-rest", str(tmp_path / "rest.jsonl")]
        elif command == "merge":
            bad.write_bytes("Er schläft.\tEr ruht.\tentailment\n".encode() + b"Sie l\xe4uft.\tx\tneutral\n")
            argv = ["merge", "--base", str(bad), "--aug", str(pairs), "--out", str(tmp_path / "t.tsv")]
        else:
            _write_predictions(bad, read_pairs(pairs))
            bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff\xfe", 1))
            argv = ["analyze", "--gold", str(pairs), "--predictions", str(bad), "--runs", "1"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        line = 2 if command in ("merge", "analyze") else 3
        assert "error[format]" in err and f"{bad}: line {line}: not valid UTF-8" in err


class TestByteOrderMark:
    """An input that starts with U+FEFF is an error naming the file, line 1
    and the mark, not a bad header that dumps the first row; no output is
    written."""

    @pytest.mark.parametrize("command,target", [
        ("derive", "pairs"), ("sample-augmentation", "pairs"), ("merge", "base"), ("merge", "pairs"),
        ("analyze", "pairs"), ("analyze", "predictions"),
    ])
    def test_input_file_is_a_format_error(self, command, target, toy_path, tmp_path, capsys):
        _, pairs = _generate(toy_path, tmp_path, per="3")
        preds, base, out = tmp_path / "preds.tsv", tmp_path / "base.tsv", tmp_path / "out.txt"
        _write_predictions(preds, read_pairs(pairs))
        base.write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
        argv = {
            "derive": ["derive", "os-hard", "--from", pairs, "--lexicon", toy_path, "--out", out],
            "sample-augmentation": ["sample-augmentation", "--plan", "custom", "--in", pairs,
                                    "--per-pattern", "1", "--verb-min", "0", "--verb-max", "100",
                                    "--out-aug", out, "--out-rest", tmp_path / "rest.jsonl"],
            "merge": ["merge", "--base", base, "--aug", pairs, "--out", out],
            "analyze": ["analyze", "--gold", pairs, "--predictions", preds, "--runs", "1", "--out", out],
        }[command]
        bad = {"pairs": pairs, "predictions": preds, "base": base}[target]
        bad.write_bytes(b"\xef\xbb\xbf" + bad.read_bytes())
        capsys.readouterr()
        assert run([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err == (
            f"wogli: error[format] {bad}: line 1: starts with a byte-order mark (U+FEFF)\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_lexicon_is_a_lexicon_error(self, fmt, toy_lex, tmp_path, capsys):
        bad = tmp_path / f"lexicon.{fmt}"
        bad.write_text("\ufeff" + wogli.serialize_lexicon(toy_lex, fmt), encoding="utf-8")
        assert run(["validate-lexicon", "--in", str(bad), "--profile", "toy"]) == 2
        assert capsys.readouterr().err == (
            f"wogli: error[lexicon] {bad}: line 1: starts with a byte-order mark (U+FEFF)\n")


@pytest.fixture(scope="module")
def mutation_inputs(tmp_path_factory):
    """The bytes of `generate wogli --seed 3 --per-pattern 8`, a prediction
    file for its ids and a training TSV, in a directory the examples share."""
    root = tmp_path_factory.mktemp("mutations")
    records = generate_set(GenerationSet.WOGLI, wogli.bundled_lexicon(), seed=3, per_pattern=8)
    wogli.write_pairs(records, root / "valid.jsonl")
    _write_predictions(root / "preds.tsv", records)
    (root / "base.tsv").write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
    return root


class TestOneRowMutations:
    """One edit of the first row never ends a command in a traceback. Each
    run exits 0, or exits 2 with an error; a format error names the row.
    The augmentation band is tight, so the verb repair sorts the verbs."""

    COMMANDS = {
        "derive": ["derive", "os-hard", "--from", "{pairs}", "--lexicon", "{lexicon}",
                   "--out", "{out}/hard.jsonl"],
        "sample-augmentation": [
            "sample-augmentation", "--plan", "custom", "--per-pattern", "2", "--verb-min", "1",
            "--verb-max", "2", "--in", "{pairs}", "--out-aug", "{out}/aug.jsonl",
            "--out-rest", "{out}/rest.jsonl"],
        "merge": ["merge", "--base", "{out}/base.tsv", "--aug", "{pairs}", "--out", "{out}/train.tsv"],
        "analyze": ["analyze", "--gold", "{pairs}", "--predictions", "{out}/preds.tsv", "--runs", "1"],
    }

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exit_0_or_an_error_naming_the_row(self, mutation_inputs, data):
        lines = (mutation_inputs / "valid.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(lines[0])
        edit = data.draw(st.sampled_from(["set", "delete", "text"]))
        if edit == "text":
            row[data.draw(st.sampled_from(["premise", "hypothesis"]))] = data.draw(
                st.sampled_from(["Moritz.", ""]))
        else:
            key = data.draw(st.sampled_from(sorted(row["metadata"])))
            if edit == "delete":
                del row["metadata"][key]
            else:
                row["metadata"][key] = data.draw(st.sampled_from([1, None, ["x"], "", "Quatsch"]))
        pairs = mutation_inputs / "mutated.jsonl"
        pairs.write_text(json.dumps(row, ensure_ascii=False) + "\n" + "".join(lines[1:]),
                         encoding="utf-8")
        for name, template in self.COMMANDS.items():
            argv = [arg.format(pairs=pairs, out=mutation_inputs, lexicon=wogli.bundled_lexicon_path())
                    for arg in template]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv)
            message = err.getvalue()
            assert code in (0, 2), (name, message)
            if code == 2:
                assert "error[" in message, (name, message)
            if "error[format]" in message:
                assert row["id"] in message or "line 1" in message, (name, message)


@pytest.fixture(scope="module")
def usage_inputs(tmp_path_factory):
    """Small valid inputs for every command: the toy lexicon, a pair file
    drawn from it, predictions for its ids and a training TSV."""
    root = tmp_path_factory.mktemp("usage")
    (root / "toy.json").write_text(json.dumps(TOY_LEXICON), encoding="utf-8")
    records = generate_set(GenerationSet.WOGLI, wogli.lexicon_from_text(json.dumps(TOY_LEXICON), "toy"),
                           seed=3, per_pattern=2)
    write_pairs(records, root / "gold.jsonl")
    _write_predictions(root / "preds.tsv", records)
    (root / "base.tsv").write_text("Ein Satz.\tNoch einer.\tentailment\n", encoding="utf-8")
    return root


class TestUsageContract:
    """Every command's usage errors: exit 1 with one `wogli: ` line that
    names the option at fault, before any input is read or output written,
    and never a traceback. The wording is the parser's own and not pinned."""

    # one valid call per command: its positional arguments and its options
    CALLS = {
        "generate": (["wogli"], {"--seed": "3", "--per-pattern": "2", "--lexicon": "{in}/toy.json",
                                 "--out": "{out}/g.jsonl", "--format": "rows"}),
        "derive": (["os-hard"], {"--from": "{in}/gold.jsonl", "--lexicon": "{in}/toy.json",
                                 "--out": "{out}/h.jsonl", "--format": "rows"}),
        "sample-augmentation": ([], {"--plan": "custom", "--seed": "5", "--in": "{in}/gold.jsonl",
                                     "--per-pattern": "1", "--verb-min": "0", "--verb-max": "100",
                                     "--out-aug": "{out}/a.jsonl", "--out-rest": "{out}/r.jsonl"}),
        "merge": ([], {"--base": "{in}/base.tsv", "--aug": "{in}/gold.jsonl", "--ne-label": "neutral",
                       "--seed": "1", "--out": "{out}/t.tsv"}),
        "analyze": ([], {"--gold": "{in}/gold.jsonl", "--predictions": "{in}/preds.tsv", "--runs": "1",
                         "--groups": "all", "--out": "{out}/report.jsonl"}),
        "validate-lexicon": ([], {"--in": "{in}/toy.json", "--profile": "toy"}),
    }
    REQUIRED = [("generate", "--seed"), ("generate", "--out"), ("derive", "--from"), ("derive", "--out"),
                ("sample-augmentation", "--plan"), ("sample-augmentation", "--in"),
                ("sample-augmentation", "--out-aug"), ("sample-augmentation", "--out-rest"),
                ("merge", "--base"), ("merge", "--aug"), ("merge", "--out"), ("analyze", "--gold"),
                ("analyze", "--predictions"), ("analyze", "--runs"), ("validate-lexicon", "--in")]
    CHOICES = [("generate", "--format"), ("derive", "--format"), ("sample-augmentation", "--plan"),
               ("merge", "--ne-label"), ("analyze", "--groups"), ("validate-lexicon", "--profile")]
    INTS = [("generate", "--seed"), ("generate", "--per-pattern"), ("sample-augmentation", "--seed"),
            ("sample-augmentation", "--per-pattern"), ("sample-augmentation", "--verb-min"),
            ("sample-augmentation", "--verb-max"), ("merge", "--seed"), ("analyze", "--runs")]
    # an option the call passes, written as a prefix of its name
    ABBREVIATIONS = [("generate", "--per-pattern", "--per"), ("derive", "--format", "--form"),
                     ("sample-augmentation", "--per-pattern", "--per"), ("merge", "--ne-label", "--ne"),
                     ("analyze", "--groups", "--gr"), ("validate-lexicon", "--profile", "--prof")]
    INPUTS = [("generate", "--lexicon"), ("derive", "--from"), ("derive", "--lexicon"),
              ("sample-augmentation", "--in"), ("merge", "--base"), ("merge", "--aug"),
              ("analyze", "--gold"), ("analyze", "--predictions"), ("validate-lexicon", "--in")]
    OUTPUTS = [("generate", "--out"), ("derive", "--out"), ("sample-augmentation", "--out-aug"),
               ("sample-augmentation", "--out-rest"), ("merge", "--out"), ("analyze", "--out")]
    # what each command calls once its arguments are parsed: (module, name)
    ENTRIES = {"generate": ("wogli.cli", "load_lexicon"), "derive": ("wogli.cli", "load_lexicon"),
               "sample-augmentation": ("wogli.augment", "_split_file"),
               "merge": ("wogli.augment", "_merge_file"), "analyze": ("wogli.cli", "read_predictions"),
               "validate-lexicon": ("wogli.cli", "load_lexicon")}

    @staticmethod
    def _argv(command, options, inputs, out):
        positional, _ = TestUsageContract.CALLS[command]
        pairs = [arg.format(**{"in": inputs, "out": out}) for item in options.items() for arg in item]
        return [command, *positional, *pairs]

    def _options(self, command):
        return dict(self.CALLS[command][1])

    @staticmethod
    def _usage_error(argv, capsys, *named):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1, captured.err
        # a blank line may come first, to end an interrupted terminal line
        assert captured.err.lstrip("\n").startswith("wogli: ")
        assert "Traceback" not in captured.err
        for text in named:
            assert text in captured.err
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("command", list(CALLS))
    def test_the_valid_call_exits_0(self, command, usage_inputs, tmp_path, capsys):
        assert run(self._argv(command, self._options(command), usage_inputs, tmp_path)) == 0, \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, option", REQUIRED)
    def test_a_missing_required_option(self, command, option, usage_inputs, tmp_path, capsys):
        options = self._options(command)
        del options[option]
        self._usage_error(self._argv(command, options, usage_inputs, tmp_path), capsys, option)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option", CHOICES)
    def test_a_bad_choice(self, command, option, usage_inputs, tmp_path, capsys):
        options = self._options(command)
        options[option] = "nonesuch"
        self._usage_error(self._argv(command, options, usage_inputs, tmp_path), capsys, option, "nonesuch")

    @pytest.mark.parametrize("command", ["generate", "derive"])
    def test_a_bad_positional_choice(self, command, usage_inputs, tmp_path, capsys):
        argv = self._argv(command, self._options(command), usage_inputs, tmp_path)
        argv[1] = "nonesuch"
        self._usage_error(argv, capsys, "nonesuch")

    @pytest.mark.parametrize("value", ["x", "1.5", ""])
    @pytest.mark.parametrize("command, option", INTS)
    def test_a_non_integer(self, command, option, value, usage_inputs, tmp_path, capsys):
        options = self._options(command)
        options[option] = value
        self._usage_error(self._argv(command, options, usage_inputs, tmp_path), capsys, option)

    @pytest.mark.parametrize("command", list(CALLS))
    def test_an_unknown_option(self, command, usage_inputs, tmp_path, capsys):
        argv = self._argv(command, self._options(command), usage_inputs, tmp_path)
        self._usage_error([*argv, "--frobnicate", "1"], capsys, "--frobnicate")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option, prefix", ABBREVIATIONS)
    def test_an_abbreviated_option(self, command, option, prefix, usage_inputs, tmp_path, capsys):
        options = {prefix if name == option else name: value
                   for name, value in self._options(command).items()}
        self._usage_error(self._argv(command, options, usage_inputs, tmp_path), capsys, prefix)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command, option", INPUTS)
    def test_an_input_that_is_not_a_file(self, command, option, kind, usage_inputs, tmp_path, capsys):
        options = self._options(command)
        options[option] = str(tmp_path / "nonesuch") if kind == "missing" else str(usage_inputs)
        out = tmp_path / "out"
        out.mkdir()
        self._usage_error(self._argv(command, options, usage_inputs, out), capsys, option)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, option", OUTPUTS)
    def test_an_output_that_is_a_directory(self, command, option, usage_inputs, tmp_path, capsys):
        options = self._options(command)
        options[option] = str(tmp_path)
        self._usage_error(self._argv(command, options, usage_inputs, tmp_path), capsys, option)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(CALLS))
    def test_command_help(self, command, capsys):
        assert run([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "usage" in captured.out.lower()
        for option in self.CALLS[command][1]:
            assert option in captured.out

    @pytest.mark.parametrize("command", list(CALLS))
    def test_command_without_arguments(self, command, capsys):
        self._usage_error([command], capsys)

    def test_no_arguments_at_all(self, capsys):
        err = self._usage_error([], capsys)
        assert "usage" in err.lower() and "generate" in err

    @pytest.mark.parametrize("command", list(CALLS))
    def test_keyboard_interrupt(self, command, usage_inputs, tmp_path, monkeypatch, capsys):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        module, name = self.ENTRIES[command]
        monkeypatch.setattr(f"{module}.{name}", interrupt)
        self._usage_error(self._argv(command, self._options(command), usage_inputs, tmp_path),
                          capsys, "wogli: aborted")
        assert list(tmp_path.iterdir()) == []
