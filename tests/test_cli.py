"""End-to-end command tests driven through ``main(argv)``."""

import hashlib
import json
import logging
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import gecmetric
from gecmetric.cli import main
from gecmetric.lfm import FEATURE_NAMES
from test_checker_pipeline import ROUTING_CHECKER

SOURCE = """\
the cat sit on the mat.
a apple fell down.
he go home
"""

REF1 = """\
The cat sat on the mat.
An apple fell down.
He goes home.
"""

REF2 = """\
The cat sat on a mat.
An apple fell down.
He went home.
"""

SYS_A = REF1  # perfect system

SYS_B = """\
the cat sat on the mat.
An apple fell down.
He goes home.
"""

SYS_C = SOURCE  # does nothing

GOLD_M2 = """\
S the cat sit on the mat.
A 0 1|||Orth|||The|||REQUIRED|||-NONE-|||0
A 2 3|||Verb|||sat|||REQUIRED|||-NONE-|||0

S a apple fell down.
A 0 1|||Det|||An|||REQUIRED|||-NONE-|||0

S he go home
A 0 1|||Orth|||He|||REQUIRED|||-NONE-|||0
A 1 2|||Verb|||goes|||REQUIRED|||-NONE-|||0
A 2 3|||Orth|||home.|||REQUIRED|||-NONE-|||0
"""

WORDS = """\
the
cat
sit
sat
on
mat
a
an
apple
fell
down
he
go
goes
went
home
"""

HUMAN = "a\t3.0\nb\t2.0\nc\t1.0\n"

# every built-in detector fires at least once, some spans share a start
NOISY = """\
the the cat sat , on an mat
A apple fell dwn .
An cat sat on on the mat!
xyzzy
"""


@pytest.fixture
def corpus(tmp_path):
    files = {
        "source.txt": SOURCE,
        "ref1.txt": REF1,
        "ref2.txt": REF2,
        "a.txt": SYS_A,
        "b.txt": SYS_B,
        "c.txt": SYS_C,
        "gold.m2": GOLD_M2,
        "words.txt": WORDS,
        "human.tsv": HUMAN,
        "noisy.txt": NOISY,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


def _hyp_args(corpus):
    return [
        "--hyp", f"a={corpus / 'a.txt'}",
        "--hyp", f"b={corpus / 'b.txt'}",
        "--hyp", f"c={corpus / 'c.txt'}",
    ]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser basics and exit codes


def test_no_command_prints_usage(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1
    assert "usage" in err


def test_help_exits_zero(capsys):
    assert _run(capsys, ["--help"])[0] == 0
    assert _run(capsys, ["score", "--help"])[0] == 0


def test_version_exits_zero(capsys):
    code, out, _ = _run(capsys, ["--version"])
    assert code == 0
    assert out == f"gecmetric {gecmetric.__version__}\n"


def test_unknown_metric_is_usage_error(capsys):
    code, _, err = _run(capsys, ["score", "--metric", "bleu"])
    assert code == 1
    assert "error:" in err


def test_missing_hyp_is_usage_error(corpus, capsys):
    code, _, err = _run(
        capsys,
        ["score", "--metric", "errorcount", "--wordlist", str(corpus / "words.txt")],
    )
    assert code == 1
    assert "--hyp" in err


@pytest.mark.parametrize("command, option", [
    ("score", "--hyp"), ("correlate", "--hyp"), ("correlate", "--human"),
    ("sweep", "--hyp"), ("sweep", "--human"), ("ablate", "--hyp"), ("ablate", "--human"),
])
def test_required_options_are_one_line_usage_errors(corpus, capsys, command, option):
    argv = _sweep_args(corpus) if command in ("sweep", "ablate") else (
        ["--metric", "errorcount", "--wordlist", str(corpus / "words.txt")]
        + (["--human", str(corpus / "human.tsv")] if command == "correlate" else [])
        + _hyp_args(corpus)
    )
    # drop every occurrence of the option and its value
    kept = [
        arg for k, arg in enumerate(argv) if option not in (arg, argv[k - 1] if k else None)
    ]
    code, out, err = _run(capsys, [command] + kept)
    assert code == 1
    assert out == "" and len(err.splitlines()) == 1 and option in err


def test_duplicate_system_ids_rejected(corpus, capsys):
    code, _, err = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--hyp", f"x={corpus / 'a.txt'}",
            "--hyp", f"x={corpus / 'b.txt'}",
        ],
    )
    assert code == 1
    assert "duplicate" in err


def test_gleu_without_refs_is_usage_error(corpus, capsys):
    code, _, err = _run(
        capsys,
        ["score", "--metric", "gleu", "--source", str(corpus / "source.txt")]
        + _hyp_args(corpus),
    )
    assert code == 1
    assert "--ref" in err


def test_source_and_m2_are_mutually_exclusive(corpus, capsys):
    code, _, err = _run(
        capsys,
        [
            "score", "--metric", "gleu",
            "--m2", str(corpus / "gold.m2"),
            "--source", str(corpus / "source.txt"),
            "--ref", str(corpus / "ref1.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 1
    assert "mutually exclusive" in err


def test_unreadable_file_exits_one(corpus, capsys):
    code, _, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "missing-words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 1


def test_malformed_m2_exits_two(corpus, capsys):
    bad = corpus / "bad.m2"
    bad.write_text("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    code, _, _ = _run(
        capsys,
        ["score", "--metric", "m2", "--m2", str(bad)] + _hyp_args(corpus),
    )
    assert code == 2


def test_mismatched_lengths_exit_two(corpus, capsys):
    short = corpus / "short.txt"
    short.write_text("One line only.\n", encoding="utf-8")
    code, _, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--hyp", f"a={corpus / 'a.txt'}",
            "--hyp", f"s={short}",
        ],
    )
    assert code == 2


# ---------------------------------------------------------------------------
# seed resolution


def test_line_separator_inside_a_hypothesis_line_is_not_a_line_break(corpus, capsys):
    (corpus / "x.txt").write_text(SYS_B.replace("cat sat", "cat\x85sat"), encoding="utf-8")
    code, out, err = _run(
        capsys,
        [
            "score", "--metric", "gleu",
            "--source", str(corpus / "source.txt"),
            "--ref", str(corpus / "ref1.txt"),
            "--hyp", f"x={corpus / 'x.txt'}",
        ],
    )
    assert code == 0, err
    assert len(json.loads(out)["systems"][0]["per_sentence"]) == 3


def test_seed_flag_wins(corpus, capsys, caplog, monkeypatch):
    monkeypatch.setenv("GECMETRIC_SEED", "9")
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, _, _ = _run(
            capsys,
            [
                "score", "--metric", "errorcount", "--seed", "7",
                "--wordlist", str(corpus / "words.txt"),
            ]
            + _hyp_args(corpus),
        )
    assert code == 0
    assert "seed 7 (from --seed)" in caplog.text


def test_seed_env_fallback(corpus, capsys, caplog, monkeypatch):
    monkeypatch.setenv("GECMETRIC_SEED", "9")
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, _, _ = _run(
            capsys,
            [
                "score", "--metric", "errorcount",
                "--wordlist", str(corpus / "words.txt"),
            ]
            + _hyp_args(corpus),
        )
    assert code == 0
    assert "seed 9 (from GECMETRIC_SEED)" in caplog.text


def test_seed_default_zero(corpus, capsys, caplog, monkeypatch):
    monkeypatch.delenv("GECMETRIC_SEED", raising=False)
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, _, _ = _run(
            capsys,
            [
                "score", "--metric", "errorcount",
                "--wordlist", str(corpus / "words.txt"),
            ]
            + _hyp_args(corpus),
        )
    assert code == 0
    assert "seed 0 (default)" in caplog.text


def test_non_integer_env_seed_is_usage_error(corpus, capsys, monkeypatch):
    monkeypatch.setenv("GECMETRIC_SEED", "lots")
    code, _, err = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 1
    assert "GECMETRIC_SEED" in err


# ---------------------------------------------------------------------------
# score


def _means(report_text):
    doc = json.loads(report_text)
    return {s["id"]: s["mean_sentence_score"] for s in doc["systems"]}


def test_score_errorcount_means(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    means = _means(out)
    assert means["a"] == 1.0
    assert means["b"] == pytest.approx(17 / 18, abs=1e-6)
    assert means["c"] == pytest.approx(5 / 9, abs=1e-6)


def test_score_m2_means(corpus, capsys):
    code, out, _ = _run(
        capsys,
        ["score", "--metric", "m2", "--m2", str(corpus / "gold.m2")]
        + _hyp_args(corpus),
    )
    assert code == 0
    means = _means(out)
    assert means["a"] == 1.0
    assert means["b"] == pytest.approx(17 / 18, abs=1e-6)
    assert means["c"] == 0.0


IDENTITY_WARNING = "ignored 1 identity gold edit(s): replacement equals the source span"


@pytest.mark.parametrize(
    "metric,warnings",
    [(["--metric", "m2"], 1), (["--metric", "gleu", "--ref", "{d}/ref1.txt"], 0)],
    ids=["m2", "gleu"],
)
def test_identity_gold_edit_is_reported_only_when_m2_scores(
    corpus, capsys, caplog, metric, warnings
):
    """A gold edit whose replacement equals its source span is left out
    with one warning when M2 scores, and none when the file only gives
    the sources."""
    gold = GOLD_M2.replace(
        "A 0 1|||Det|||An|||REQUIRED|||-NONE-|||0\n",
        "A 0 1|||Det|||An|||REQUIRED|||-NONE-|||0\n"
        "A 2 3|||Verb|||fell|||REQUIRED|||-NONE-|||0\n",
    )
    (corpus / "identity.m2").write_text(gold, encoding="utf-8")
    argv = ["score", "--m2", str(corpus / "identity.m2")]
    argv += [arg.format(d=corpus) for arg in metric] + _hyp_args(corpus)
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, _, _ = _run(capsys, argv)
    assert code == 0
    messages = [r.getMessage() for r in caplog.records]
    assert messages.count(IDENTITY_WARNING) == warnings
    assert sum("identity" in m for m in messages) == warnings


def test_score_imeasure_extremes(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "imeasure",
            "--source", str(corpus / "source.txt"),
            "--ref", str(corpus / "ref1.txt"),
            "--ref", str(corpus / "ref2.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    means = _means(out)
    assert means["a"] == 1.0  # identical to the first reference
    assert means["c"] == 0.0  # identical to the source


def test_score_hyp_path_uses_stem_as_id(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--hyp", str(corpus / "b.txt"),
        ],
    )
    assert code == 0
    assert list(_means(out)) == ["b"]


def test_score_out_writes_report_and_summary(corpus, capsys):
    out_path = corpus / "report.json"
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--out", str(out_path),
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert [s["id"] for s in doc["systems"]] == ["a", "b", "c"]
    assert "system" in out and "score" in out  # human-readable table


def test_score_corpus_mode_headline(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount", "--mode", "corpus",
            "--wordlist", str(corpus / "words.txt"),
            "--hyp", f"c={corpus / 'c.txt'}",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    entry = doc["systems"][0]
    # 5 errors over 13 tokens, pooled
    assert entry["corpus_score"] == pytest.approx(1 - 5 / 13, abs=1e-6)
    assert entry["mode"] == "corpus"


def test_lfm_corpus_mode_exits_two(corpus, capsys, caplog, model_path):
    with caplog.at_level(logging.ERROR, logger="gecmetric"):
        code, _, _ = _run(
            capsys,
            [
                "score", "--metric", "lfm", "--mode", "corpus",
                "--model", str(model_path),
                "--lm-corpus", str(corpus / "ref1.txt"),
                "--wordlist", str(corpus / "words.txt"),
            ]
            + _hyp_args(corpus),
        )
    assert code == 2
    assert "no corpus-level aggregation" in caplog.text


# ---------------------------------------------------------------------------
# lfm training and scoring


@pytest.fixture
def model_path(tmp_path, capsys):
    rows = []
    for i in range(12):
        values = [float((i * 7 + j * 3) % 11) / 10 for j in range(len(FEATURE_NAMES))]
        target = sum(values) / len(values)
        rows.append("\t".join(f"{v:.3f}" for v in values + [target]))
    train = tmp_path / "train.tsv"
    train.write_text(
        "\t".join(FEATURE_NAMES + ("target",)) + "\n" + "\n".join(rows) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "model.json"
    code = main(["train-lfm", "--train", str(train), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return out


def test_train_lfm_then_score(corpus, capsys, model_path):
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "lfm",
            "--model", str(model_path),
            "--lm-corpus", str(corpus / "ref1.txt"),
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    doc = json.loads(out)
    for entry in doc["systems"]:
        assert entry["corpus_score"] is None
        for value in entry["per_sentence"]:
            assert 0.0 <= value <= 1.0


def test_lfm_missing_inputs_is_usage_error(corpus, capsys, model_path):
    code, _, err = _run(
        capsys,
        ["score", "--metric", "lfm", "--model", str(model_path)]
        + _hyp_args(corpus),
    )
    assert code == 1
    assert "--lm-corpus" in err


def test_bad_model_json_exits_two(corpus, capsys):
    bad = corpus / "bad-model.json"
    bad.write_text('{"format_version": 99}', encoding="utf-8")
    code, _, _ = _run(
        capsys,
        [
            "score", "--metric", "lfm",
            "--model", str(bad),
            "--lm-corpus", str(corpus / "ref1.txt"),
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 2


def test_train_lfm_non_finite_cell_exits_two(corpus, capsys, caplog):
    train = corpus / "train.tsv"
    train.write_text("f1\ttarget\n1\t0.5\nnan\t0.7\n", encoding="utf-8")
    code, _, err = _run(
        capsys, ["train-lfm", "--train", str(train), "--out", str(corpus / "m.json")]
    )
    assert code == 2
    assert "Traceback" not in err
    assert "line 3: non-finite" in caplog.text


def test_zero_stdev_model_exits_two(corpus, capsys, caplog, model_path):
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    doc["stdevs"][0] = 0.0
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = _run(
        capsys,
        [
            "score", "--metric", "lfm",
            "--model", str(model_path),
            "--lm-corpus", str(corpus / "ref1.txt"),
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 2
    assert "stdevs must be non-zero" in caplog.text


# ---------------------------------------------------------------------------
# rank / correlate


def test_rank_errorcount(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "rank", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    doc = json.loads(out)
    assert [(r["system"], r["rank"]) for r in doc["rankings"]] == [
        ("a", 1.0),
        ("b", 2.0),
        ("c", 3.0),
    ]


def test_correlate_errorcount(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "correlate", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--human", str(corpus / "human.tsv"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    doc = json.loads(out)
    entry = doc["correlations"][0]
    assert entry["label"] == "errorcount:sentence"
    assert entry["spearman"] == 1.0
    assert entry["n_systems"] == 3


def test_correlate_requires_human(corpus, capsys):
    code, _, err = _run(
        capsys,
        [
            "correlate", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
        ]
        + _hyp_args(corpus),
    )
    assert code == 1
    assert "--human" in err


def test_correlate_human_missing_system_exits_two(corpus, capsys):
    partial = corpus / "partial.tsv"
    partial.write_text("a\t2\nb\t1\n", encoding="utf-8")
    code, _, _ = _run(
        capsys,
        [
            "correlate", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--human", str(partial),
        ]
        + _hyp_args(corpus),
    )
    assert code == 2


def test_correlate_nan_human_score_exits_two(corpus, capsys, caplog):
    nan = corpus / "nan.tsv"
    nan.write_text("a\t3.0\nb\tnan\nc\t1.0\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="gecmetric"):
        code, out, _ = _run(
            capsys,
            [
                "correlate", "--metric", "errorcount",
                "--wordlist", str(corpus / "words.txt"),
                "--human", str(nan),
            ]
            + _hyp_args(corpus),
        )
    assert code == 2
    assert out == ""
    assert "non-finite score" in caplog.text


def test_out_of_memory_exits_two_with_one_line(corpus, capsys, caplog, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(gecmetric.gleu, "gleu_stats_many", exhausted)
    out = corpus / "report.json"
    with caplog.at_level(logging.ERROR, logger="gecmetric"):
        code, stdout, _ = _run(
            capsys,
            [
                "score", "--metric", "gleu",
                "--source", str(corpus / "source.txt"),
                "--ref", str(corpus / "ref1.txt"),
                "--out", str(out),
            ]
            + _hyp_args(corpus),
        )
    assert code == 2
    assert stdout == ""
    assert [r.getMessage() for r in caplog.records] == ["out of memory"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep / ablate


def _sweep_args(corpus):
    return [
        "--fluency-metric", "errorcount",
        "--reference-metric", "gleu",
        "--source", str(corpus / "source.txt"),
        "--ref", str(corpus / "ref1.txt"),
        "--ref", str(corpus / "ref2.txt"),
        "--wordlist", str(corpus / "words.txt"),
        "--human", str(corpus / "human.tsv"),
    ] + _hyp_args(corpus)


def test_sweep_report_shape(corpus, capsys):
    code, out, _ = _run(capsys, ["sweep", "--seed", "3"] + _sweep_args(corpus))
    assert code == 0
    doc = json.loads(out)
    sweep = doc["sweep"]
    assert len(sweep["points"]) == 101
    assert sweep["points"][0]["lambda"] == 0.0
    assert sweep["points"][-1]["lambda"] == 1.0
    assert sweep["oracle_spearman"] >= max(
        sweep["points"][0]["spearman"], sweep["points"][-1]["spearman"]
    )


def test_sweep_gaming_section(corpus, capsys):
    code, out, _ = _run(
        capsys, ["sweep", "--gaming", "--seed", "3"] + _sweep_args(corpus)
    )
    assert code == 0
    doc = json.loads(out)
    gaming = doc["sweep"]["gaming"]
    assert [g["system"] for g in gaming] == ["a", "b", "c"]
    for entry in gaming:
        assert entry["lambda"] == 0.5
        # scoring against another sentence's references must hurt
        assert entry["rbm_drop"] > 0
        assert entry["interpolated_drop"] > 0


def test_sweep_gaming_lambda_out_of_range_exits_two(corpus, capsys):
    code, _, _ = _run(
        capsys,
        ["sweep", "--gaming", "--gaming-lambda", "1.5"] + _sweep_args(corpus),
    )
    assert code == 2


@pytest.mark.parametrize("lam", ["1.5", "nan"])
def test_sweep_gaming_lambda_is_checked_before_anything_is_scored(
    corpus, capsys, caplog, lam
):
    """A checker that cannot start would fail the first scoring batch with
    exit 3; the bad lambda is reported first."""
    argv = ["sweep", "--gaming", "--gaming-lambda", lam, "--checker",
            str(corpus / "no-such-checker")] + _sweep_args(corpus)
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert [r.getMessage() for r in caplog.records] == [
        f"lambda must be in [0, 1], got {float(lam)}"
    ]


@pytest.mark.parametrize("lam", ["1.5", "nan"])
def test_sweep_gaming_lambda_is_checked_without_gaming(corpus, capsys, caplog, lam):
    """--gaming-lambda is checked whether or not --gaming is given."""
    argv = ["sweep", "--gaming-lambda", lam] + _sweep_args(corpus)
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert [r.getMessage() for r in caplog.records] == [
        f"lambda must be in [0, 1], got {float(lam)}"
    ]


def test_sweep_rejects_reference_metric_as_fluency(corpus, capsys):
    code, _, err = _run(
        capsys,
        [
            "sweep",
            "--fluency-metric", "gleu",
            "--reference-metric", "gleu",
        ],
    )
    assert code == 1
    assert "error:" in err


def test_ablate_report_shape(corpus, capsys):
    code, out, _ = _run(
        capsys,
        ["ablate", "--trials", "2", "--seed", "3"] + _sweep_args(corpus),
    )
    assert code == 0
    doc = json.loads(out)
    points = doc["ablation"]
    assert [p["size"] for p in points] == [1, 2]
    assert all(len(p["per_trial"]) == 2 for p in points)


def test_ablate_sizes_option(corpus, capsys):
    code, out, _ = _run(
        capsys,
        ["ablate", "--trials", "1", "--sizes", "1", "--seed", "3"]
        + _sweep_args(corpus),
    )
    assert code == 0
    doc = json.loads(out)
    assert [p["size"] for p in doc["ablation"]] == [1]
    assert doc["ablation"][0]["half_width"] == 0.0


def test_ablate_bad_sizes_is_usage_error_before_scoring(corpus, capsys):
    code, out, err = _run(
        capsys, ["ablate", "--trials", "1", "--sizes", "1,x"] + _sweep_args(corpus)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: argument --sizes:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("sizes", ["0", "3", "1,3"])
def test_ablate_sizes_out_of_range_exit_two(corpus, capsys, sizes):
    code, _, _ = _run(
        capsys, ["ablate", "--trials", "1", "--sizes", sizes] + _sweep_args(corpus)
    )
    assert code == 2


@pytest.mark.parametrize(
    "knobs,message",
    [
        (["--sizes", "3"], "subset size 3 not in [1, 2]"),
        (["--sizes", "1,3"], "subset size 3 not in [1, 2]"),
        (["--trials", "100000000000000000000"],
         "trials must be in [1, 10000], got 100000000000000000000"),
    ],
    ids=["size-above-refs", "one-size-above-refs", "trials-too-large"],
)
def test_ablate_knobs_are_checked_before_anything_is_scored(
    corpus, capsys, caplog, knobs, message
):
    """A checker that cannot start would fail the first scoring batch with
    exit 3; the bad knob is reported first."""
    argv = ["ablate", "--checker", str(corpus / "no-such-checker")]
    argv += knobs + _sweep_args(corpus)
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert [r.getMessage() for r in caplog.records] == [message]


_NO_HUMAN = ["--fluency-metric", "errorcount", "--wordlist", "{d}/words.txt",
             "--reference-metric", "gleu", "--source", "{d}/source.txt",
             "--ref", "{d}/ref1.txt", "--ref", "{d}/ref2.txt",
             "--human", "{d}/missing.tsv", "--hyp", "a={d}/a.txt"]
_CORRELATE = ["correlate", "--metric", "errorcount", "--wordlist", "{d}/words.txt",
              "--human", "{d}/missing.tsv", "--hyp", "a={d}/a.txt"]
KNOBS_BEFORE_INPUT = {
    "beta": ([*_CORRELATE, "--beta", "nan"], "beta must be finite and >= 0, got nan"),
    # beta * beta overflows, which would make every F_beta nan
    "beta-square": ([*_CORRELATE, "--beta", "1e160"],
                    "beta squared must be finite, got beta 1e+160"),
    "max-n": ([*_CORRELATE, "--max-n", "0"],
              f"max_n must be in [1, {sys.maxsize // 8}], got 0"),
    "gaming-lambda": (["sweep", *_NO_HUMAN, "--gaming-lambda", "1.5"],
                      "lambda must be in [0, 1], got 1.5"),
    "trials": (["ablate", *_NO_HUMAN, "--trials", "0"],
               "trials must be in [1, 10000], got 0"),
    "sizes": (["ablate", *_NO_HUMAN, "--sizes", "3"], "subset size 3 not in [1, 2]"),
    "alpha": (["train-lfm", "--train", "{d}/missing.tsv", "--out", "{d}/model.json",
               "--alpha", "nan"], "alpha must be finite and >= 0, got nan"),
}


@pytest.mark.parametrize("case", sorted(KNOBS_BEFORE_INPUT))
def test_a_bad_knob_is_reported_before_a_missing_input(corpus, capsys, caplog, case):
    """Every knob is checked before any input is read: with a missing
    input file, a bad knob exits 2 with its own message."""
    template, message = KNOBS_BEFORE_INPUT[case]
    argv = [arg.format(d=corpus) for arg in template]
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code, out, _ = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert [r.getMessage() for r in caplog.records] == [message]


def test_ablate_rejects_errorcount_reference(corpus, capsys):
    argv = [
        "ablate",
        "--fluency-metric", "errorcount",
        "--reference-metric", "m2",
        "--m2", str(corpus / "gold.m2"),
        "--wordlist", str(corpus / "words.txt"),
        "--human", str(corpus / "human.tsv"),
    ] + _hyp_args(corpus)
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "reference metric" in err


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_is_byte_identical(corpus, capsys):
    argv = [
        "score", "--metric", "gleu",
        "--source", str(corpus / "source.txt"),
        "--ref", str(corpus / "ref1.txt"),
        "--ref", str(corpus / "ref2.txt"),
        "--seed", "5",
    ] + _hyp_args(corpus)
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_env_seed_matches_flag_seed(corpus, capsys, monkeypatch):
    argv = [
        "score", "--metric", "gleu",
        "--source", str(corpus / "source.txt"),
        "--ref", str(corpus / "ref1.txt"),
        "--ref", str(corpus / "ref2.txt"),
    ] + _hyp_args(corpus)
    monkeypatch.setenv("GECMETRIC_SEED", "5")
    _, via_env, _ = _run(capsys, argv)
    monkeypatch.delenv("GECMETRIC_SEED")
    _, via_flag, _ = _run(capsys, argv + ["--seed", "5"])
    assert via_env == via_flag


def test_sweep_same_seed_is_byte_identical(corpus, capsys):
    argv = ["sweep", "--gaming", "--seed", "11"] + _sweep_args(corpus)
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


# sha256 of each report on the ``corpus`` fixture, recorded before the
# metrics moved to per-sentence statistics and reducers. Report bytes are
# the contract: a change here must be deliberate and explained.
GOLDEN_REPORTS = {
    "score gleu sentence":
        "e5229349b3ce19adbec6a44bec9e4efffbc54dd6a62fdd8afe506b3e467558cc",
    "score gleu corpus":
        "6a65a7c4e78a5bd8ff2816f8451023bbe254f14886042c285a353ca7766769f5",
    "score gleu mean-over-all":
        "aef7e047c527f1b705d87505f84e15287e08c87d55b6cfb5483baa8f647123af",
    "score m2 sentence":
        "e6d09b1a73870bfb4c123ec4df408291f8a7dec002867f796b1a6c56680e0310",
    "score m2 corpus":
        "f6e07df5e60d589ae0155e799918c971dc87d340f2fe76f38c33108fe3594642",
    "score imeasure sentence":
        "942bc28407bd1bb1c60d71bf18b7076c56744af9095a0a2c62b48ecc1a013b4e",
    "score imeasure corpus":
        "105265bb6f5d068b0bc98d54b648e312470f269923d8a3b6e02b8d84d91d7c8e",
    "score errorcount sentence":
        "a3c8ecdf401497edb8c50c026a3b82ab14abdf4c1d52db85d725b55c95bd264e",
    "score errorcount corpus":
        "1c47758113fae8de8d17b21db3724600049ba5289cbe8f339f8f08489edc41ee",
    "score lfm sentence":
        "e6c5dd7bd8ab368e25f70098db20bb657eeefee0ad083c46539c5c6dc55f1326",
    "rank m2 corpus":
        "08f8937f5f9363ccaab13be1919ece4e6b4122fb5e9e08db44e873ed66ad2567",
    "correlate imeasure corpus":
        "3e0e443d74060dfc9102dfcf0fe97cd980b9d296cbb4b4267e5f8c8f2ebbefdb",
    "sweep gaming":
        "b49c9f2dc2f548e75497fd32ca38c7e194e692a9d4c3b483c17fd42926ddeb8a",
    "ablate":
        "3bd02da6b4498e20edd5c5f84b9b2abaeb38b45e35a97f38bbe520ecf68dc3fe",
    "ablate --reference-metric imeasure --trials 2":
        "461f66172496103278594f9987a570b07308997493d33096d6b503d3fc217062",
    "sweep --gaming --reference-metric imeasure":
        "29052fe8dc45301307cc9e28499d79606a3333c858a7f304bb3b596a13347e28",
    "ablate --gleu-mode mean-over-all --sizes 1,2 --trials 2":
        "81c47bd796c7462dae8e8f1bb6aa0e0fceb2318fb8d5157c72a075a5495d4fb6",
    "sweep --fluency-metric lfm --reference-metric gleu":
        "7ff7be7a2a96a11efa6cdf968c648bbe4410fe505dd29feea21b9fe02e675141",
    "check a":
        "6edb6e22b02ae6eb3d35c8082111745c96a5cdc5b14f7e6864ed86431de1e4f6",
    "check c":
        "7ba12f7b0fb57ef0910fe7b1801d547fb2802527f660043a2cc72b4b22d03d6a",
    "check noisy":
        "7a8e4b3df9952995cb45a290981e022642387eee335d91ee5aeb4c19ca8a078a",
}


def _golden_argv(corpus, model_path, name):
    refs = [
        "--source", str(corpus / "source.txt"),
        "--ref", str(corpus / "ref1.txt"),
        "--ref", str(corpus / "ref2.txt"),
    ]
    words = ["--wordlist", str(corpus / "words.txt")]
    inputs = {
        "gleu": refs,
        "m2": ["--m2", str(corpus / "gold.m2")],
        "imeasure": refs,
        "errorcount": words,
        "lfm": ["--model", str(model_path), "--lm-corpus", str(corpus / "ref1.txt")]
        + words,
    }
    command, *rest = name.split()
    if command == "check":
        return [command, "--input", str(corpus / f"{rest[0]}.txt")] + words
    if command in ("sweep", "ablate"):
        # a name past the command is either "gaming" or the options themselves
        extra = {"": ["--trials", "2"], "gaming": ["--gaming"]}.get(" ".join(rest), rest)
        if "lfm" in rest:
            extra = extra + inputs["lfm"]
        return [command, "--seed", "7"] + _sweep_args(corpus) + extra
    metric, mode = rest
    argv = [command, "--metric", metric, "--seed", "7"] + inputs[metric]
    if mode == "mean-over-all":
        argv += ["--gleu-mode", mode]
    else:
        argv += ["--mode", mode]
    if command == "correlate":
        argv += ["--human", str(corpus / "human.tsv")]
    return argv + _hyp_args(corpus)


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_golden(corpus, capsys, model_path, name):
    code, out, _ = _run(capsys, _golden_argv(corpus, model_path, name))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_REPORTS[name]


# The stdout summary of an ``--out`` run, on the inputs of the golden
# report of the same name; the report file keeps that report's bytes.
GOLDEN_SUMMARIES = {
    "rank m2 corpus": """\
rank  system  score
   1  a  1.000000
   2  b  0.961538
   3  c  0.000000
""",
    "sweep gaming": """\
oracle lambda=0.00 spearman=1.000000 pearson=0.917663
gaming a: reference drop +0.645762, interpolated drop +0.322881
gaming b: reference drop +0.566881, interpolated drop +0.283440
gaming c: reference drop +0.098222, interpolated drop +0.049111
""",
    "sweep --gaming --reference-metric imeasure": """\
oracle lambda=0.00 spearman=1.000000 pearson=0.917663
gaming a: reference drop +1.000000, interpolated drop +0.500000
gaming b: reference drop +0.857143, interpolated drop +0.428571
gaming c: reference drop +0.000000, interpolated drop +0.000000
""",
    "ablate": """\
refs=1: oracle spearman 1.000000 +- 0.000000 (2 trials)
refs=2: oracle spearman 1.000000 +- 0.000000 (2 trials)
""",
    "ablate --reference-metric imeasure --trials 2": """\
refs=1: oracle spearman 1.000000 +- 0.000000 (2 trials)
refs=2: oracle spearman 1.000000 +- 0.000000 (2 trials)
""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SUMMARIES))
def test_out_summary_matches_golden(corpus, capsys, name):
    report = corpus / "report.json"
    argv = _golden_argv(corpus, None, name) + ["--out", str(report)]  # no lfm: no model
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == GOLDEN_SUMMARIES[name]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_REPORTS[name]


# ---------------------------------------------------------------------------
# check


def test_check_with_wordlist(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "check",
            "--input", str(corpus / "c.txt"),
            "--wordlist", str(corpus / "words.txt"),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    by_category = {}
    for det in doc["detections"]:
        by_category[det["category"]] = by_category.get(det["category"], 0) + 1
    assert by_category == {"CAP": 3, "ART": 1, "TERM": 1}


def test_check_clean_text_finds_nothing(corpus, capsys):
    code, out, _ = _run(
        capsys,
        [
            "check",
            "--input", str(corpus / "a.txt"),
            "--wordlist", str(corpus / "words.txt"),
        ],
    )
    assert code == 0
    assert json.loads(out)["detections"] == []


def test_check_requires_wordlist_or_checker(corpus, capsys):
    code, _, err = _run(capsys, ["check", "--input", str(corpus / "a.txt")])
    assert code == 1
    assert "--wordlist" in err or "--checker" in err


def test_check_summary_with_out_file(corpus, capsys):
    out_path = corpus / "check.json"
    code, out, _ = _run(
        capsys,
        [
            "check",
            "--input", str(corpus / "c.txt"),
            "--wordlist", str(corpus / "words.txt"),
            "--out", str(out_path),
        ],
    )
    assert code == 0
    assert "5 errors in 3 sentences" in out
    assert json.loads(out_path.read_text(encoding="utf-8"))["format_version"] == 1


# ---------------------------------------------------------------------------
# external checker integration


GOOD_CHECKER = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    errors = []
    for i, tok in enumerate(req["tokens"]):
        core = tok.strip(".,!?")
        if core and core.isalpha() and core == core.upper():
            errors.append({"start": i, "end": i + 1, "category": "SHOUT"})
    sys.stdout.write(json.dumps({"id": req["id"], "errors": errors}) + "\\n")
    sys.stdout.flush()
"""

BROKEN_CHECKER = """\
import sys
for line in sys.stdin:
    sys.stdout.write("that is not json\\n")
    sys.stdout.flush()
"""


def test_check_with_external_checker(corpus, capsys):
    import sys as _sys

    script = corpus / "shout.py"
    script.write_text(GOOD_CHECKER, encoding="utf-8")
    shouty = corpus / "shouty.txt"
    shouty.write_text("this is FINE.\nNO it is NOT.\n", encoding="utf-8")
    code, out, _ = _run(
        capsys,
        [
            "check",
            "--input", str(shouty),
            "--checker", f"{_sys.executable} {script}",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert {d["category"] for d in doc["detections"]} == {"SHOUT"}
    assert len(doc["detections"]) == 3  # FINE, NO, NOT


def test_broken_checker_exits_three(corpus, capsys):
    import sys as _sys

    script = corpus / "broken.py"
    script.write_text(BROKEN_CHECKER, encoding="utf-8")
    code, _, _ = _run(
        capsys,
        [
            "check",
            "--input", str(corpus / "a.txt"),
            "--checker", f"{_sys.executable} {script}",
        ],
    )
    assert code == 3


COUNTING_CHECKER = """\
import json, sys
with open(sys.argv[1], "a", encoding="utf-8") as requests:
    for line in sys.stdin:
        req = json.loads(line)
        requests.write(str(req["id"]) + "\\n")
        requests.flush()
        sys.stdout.write(json.dumps({"id": req["id"], "errors": []}) + "\\n")
        sys.stdout.flush()
"""


def test_external_checker_gets_one_request_per_distinct_hypothesis(corpus, capsys):
    import sys as _sys

    script = corpus / "count.py"
    script.write_text(COUNTING_CHECKER, encoding="utf-8")
    requests = corpus / "requests.log"
    code, out, _ = _run(
        capsys,
        [
            "score", "--metric", "errorcount",
            "--wordlist", str(corpus / "words.txt"),
            "--checker", f"{_sys.executable} {script} {requests}",
        ]
        + _hyp_args(corpus),
    )
    assert code == 0
    assert len(json.loads(out)["systems"]) == 3
    # the sentence scores and the corpus score share one request per
    # distinct hypothesis: systems a and b output the same sentences 2 and 3
    assert len(requests.read_text(encoding="utf-8").splitlines()) == 3 * 3 - 2


def test_check_sends_each_distinct_line_once(corpus, capsys):
    """A line repeated in the input gets one checker request, and its
    detections are repeated under each of its sentence indices."""
    import sys as _sys

    script = corpus / "count.py"
    script.write_text(COUNTING_CHECKER, encoding="utf-8")
    requests = corpus / "requests.log"
    twice = corpus / "twice.txt"
    twice.write_text(SYS_C * 2, encoding="utf-8")
    code, out, _ = _run(
        capsys,
        [
            "check", "--input", str(twice),
            "--wordlist", str(corpus / "words.txt"),
            "--checker", f"{_sys.executable} {script} {requests}",
        ],
    )
    assert code == 0
    assert len(requests.read_text(encoding="utf-8").splitlines()) == 3
    detections = json.loads(out)["detections"]
    first = [d for d in detections if d["sentence"] < 3]
    assert len(first) == 5  # CAP 3, ART 1, TERM 1, as in test_check_with_wordlist
    assert detections == first + [{**d, "sentence": d["sentence"] + 3} for d in first]


# ---------------------------------------------------------------------------
# work done once per run


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_reference_metrics_do_system_independent_work_once(corpus, capsys, monkeypatch):
    """Systems a and b share the hypotheses of sentences 2 and 3, and c
    leaves every sentence unchanged, so of the 9 (system, sentence) pairs
    4 are distinct and changed. Each gets one lattice (one Levenshtein
    table) for M2. The I-measure aligns each distinct token sequence of a
    sentence once: the 5 distinct (sentence, reference) pairs (both
    references of sentence 2 are the same) and the changed hypotheses,
    of which only system b's on sentence 1 equals no reference, so 6
    alignments in all; unchanged hypotheses get none. GLEU draws once per
    sentence."""
    from gecmetric import _levenshtein, gleu, maxmatch

    tables = _count_calls(monkeypatch, _levenshtein, "table")
    lattices = _count_calls(monkeypatch, maxmatch, "_build_graph")
    draws = _count_calls(monkeypatch, gleu, "sample_draws")
    refs = [
        "--source", str(corpus / "source.txt"),
        "--ref", str(corpus / "ref1.txt"),
        "--ref", str(corpus / "ref2.txt"),
    ]
    m2 = ["score", "--metric", "m2", "--m2", str(corpus / "gold.m2")]
    imeasure = ["score", "--metric", "imeasure"] + refs
    only_c = ["--hyp", f"c={corpus / 'c.txt'}"]
    expected = [
        (m2 + _hyp_args(corpus), 4, 4),
        (m2 + only_c, 0, 0),
        (imeasure + _hyp_args(corpus), 5 + 1, 0),
        (imeasure + only_c, 5, 0),
    ]
    for argv, n_tables, n_lattices in expected:
        tables.clear()
        lattices.clear()
        assert _run(capsys, argv)[0] == 0
        assert (len(tables), len(lattices)) == (n_tables, n_lattices), argv
    assert _run(capsys, ["score", "--metric", "gleu"] + refs + _hyp_args(corpus))[0] == 0
    assert sorted(args[3] for args in draws) == [0, 1, 2]


def test_ablation_and_gaming_reuse_the_runs_statistics(corpus, capsys, monkeypatch):
    """A sweep's main pass builds the n-grams of 9 distinct token
    sequences (per sentence: the source, which system c repeats, the
    references and the other hypotheses; ref1 and ref2 of sentence 2 and
    systems a and b on sentences 2 and 3 coincide). ablate selects each
    subset's statistics from that pass and builds no more. The gaming
    rows join the main pass's batch, which works sentence by sentence, so
    each source's n-grams are built once in the whole run."""
    from gecmetric import gleu

    orders = _count_calls(monkeypatch, gleu, "_orders")
    assert _run(capsys, ["sweep", "--seed", "7"] + _sweep_args(corpus))[0] == 0
    assert len(orders) == 9
    orders.clear()
    ablate = ["ablate", "--seed", "7", "--trials", "2", "--sizes", "1,2"]
    assert _run(capsys, ablate + _sweep_args(corpus))[0] == 0
    assert len(orders) == 9
    orders.clear()
    assert _run(capsys, ["sweep", "--seed", "7", "--gaming"] + _sweep_args(corpus))[0] == 0
    sources = [tuple(line.split()) for line in SOURCE.splitlines()]
    assert [sum(args[0] == src for args in orders) for src in sources] == [1, 1, 1]


def test_train_lfm_runs_without_scipy(corpus, model_path):
    """Ridge training needs neither numpy nor scipy: with both blocked, a
    good table trains (exit 0) and a singular one still exits 2."""
    (corpus / "singular.tsv").write_text(SINGULAR_TSV, encoding="utf-8")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['numpy'] = None\n"
        "from gecmetric.cli import main\n"
        "print(main(sys.argv[1:]))\n"
    )
    src = Path(gecmetric.__file__).resolve().parents[1]
    codes = []
    for table, alpha in (("train.tsv", "1"), ("singular.tsv", "0")):
        argv = ["train-lfm", "--train", str(corpus / table), "--alpha", alpha,
                "--out", str(corpus / f"{table}.json")]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        codes.append(proc.stdout.splitlines()[-1])
    assert codes == ["0", "2"]
    assert (corpus / "train.tsv.json").exists()
    assert not (corpus / "singular.tsv.json").exists()


def test_importing_one_layer_loads_only_what_it_imports():
    """The package root re-exports nothing, so a layer loads alone."""
    src = Path(gecmetric.__file__).resolve().parents[1]
    code = (
        "import sys, gecmetric.formats\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gecmetric'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        ["gecmetric", "gecmetric.corpus", "gecmetric.errors", "gecmetric.formats"]
    )


LAYERS = ["gleu", "grammaticality", "imeasure", "lfm", "maxmatch"]
_SCORE_A = ["--hyp", "a={d}/a.txt", "--out", "{d}/report.json"]


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["--version"], []),
        (["score", "--metric", "m2", "--m2", "{d}/gold.m2", *_SCORE_A], ["maxmatch"]),
        (["score", "--metric", "gleu", "--source", "{d}/source.txt",
          "--ref", "{d}/ref1.txt", *_SCORE_A], ["gleu"]),
        (["score", "--metric", "errorcount", "--wordlist", "{d}/words.txt", *_SCORE_A],
         ["grammaticality"]),
    ],
)
def test_a_command_runs_only_the_layers_it_calls(corpus, argv, ran):
    """Importing the CLI puts every layer module in ``sys.modules``, but a
    command runs the code of only the layers it calls: the module bodies
    executed (the ``exec`` audit event) in a fresh interpreter."""
    code = (
        "import json, os, sys\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        "    name = getattr(args[0], 'co_filename', '') if event == 'exec' else ''\n"
        "    if os.path.basename(os.path.dirname(name)) == 'gecmetric':\n"
        "        ran.add(os.path.basename(name)[:-3])\n"
        "sys.addaudithook(hook)\n"
        "from gecmetric.cli import main\n"
        f"layers = {LAYERS!r}\n"
        "present = [n for n in layers if 'gecmetric.' + n in sys.modules]\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, present, sorted(ran & set(layers))]))\n"
    )
    src = Path(gecmetric.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, *(arg.format(d=corpus) for arg in argv)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, LAYERS, ran]


_REFS = ["--source", "{d}/source.txt", "--ref", "{d}/ref1.txt", "--ref", "{d}/ref2.txt"]
_SWEEP = ["--fluency-metric", "errorcount", "--reference-metric", "gleu", *_REFS,
          "--wordlist", "{d}/words.txt", "--human", "{d}/human.tsv"]
NUMPY_FREE = {
    "version": ["--version"],
    "check": ["check", "--input", "{d}/a.txt", "--wordlist", "{d}/words.txt"],
    "train-lfm": ["train-lfm", "--train", "{d}/train.tsv", "--out", "{d}/trained.json"],
    "m2": ["score", "--metric", "m2", "--m2", "{d}/gold.m2"],
    "imeasure": ["score", "--metric", "imeasure", *_REFS],
    "errorcount": ["score", "--metric", "errorcount", "--wordlist", "{d}/words.txt"],
    "gleu-mean-over-all": ["score", "--metric", "gleu", "--gleu-mode", "mean-over-all", *_REFS],
    "gleu-sampled": ["score", "--metric", "gleu", *_REFS],
    "lfm": ["score", "--metric", "lfm", "--model", "{d}/model.json",
            "--lm-corpus", "{d}/source.txt", "--wordlist", "{d}/words.txt"],
    "rank": ["rank", "--metric", "gleu", *_REFS],
    "correlate": ["correlate", "--metric", "gleu", *_REFS, "--human", "{d}/human.tsv"],
    "sweep-gaming": ["sweep", *_SWEEP, "--gaming"],
    "ablate": ["ablate", *_SWEEP, "--trials", "2", "--sizes", "1,2"],
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_commands_that_need_no_numpy_leave_it_unloaded(corpus, model_path, case):
    """No command imports numpy or scipy, and each one succeeds."""
    argv = [arg.format(d=corpus) for arg in NUMPY_FREE[case]]
    if case not in ("version", "check", "train-lfm"):
        argv += _hyp_args(corpus) + ["--out", str(corpus / "report.json")]
    code = (
        "import sys\n"
        "from gecmetric.cli import main\n"
        "code = 1\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "finally:\n"
        "    print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"
        "sys.exit(code)\n"
    )
    src = Path(gecmetric.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_lfm_trains_its_lm_only_when_there_is_something_to_score(
    corpus, capsys, monkeypatch, model_path
):
    """A run that fails before scoring never trains the n-gram LM."""
    trained = _count_calls(monkeypatch, gecmetric.lfm, "train_lm")
    (corpus / "short.txt").write_text("the cat sat on the mat.\n", encoding="utf-8")
    lfm = [
        "score", "--metric", "lfm", "--model", str(model_path),
        "--lm-corpus", str(corpus / "source.txt"),
        "--wordlist", str(corpus / "words.txt"),
    ]
    assert _run(capsys, lfm + ["--mode", "corpus"] + _hyp_args(corpus))[0] == 2
    assert _run(capsys, lfm + _hyp_args(corpus) + ["--hyp", f"s={corpus / 'short.txt'}"])[0] == 2
    assert len(trained) == 0
    assert _run(capsys, lfm + _hyp_args(corpus))[0] == 0
    assert len(trained) == 1
    # all of a sweep's systems are featurized in one batch: one LM
    sweep = ["sweep"] + _sweep_args(corpus) + [
        "--fluency-metric", "lfm", "--model", str(model_path),
        "--lm-corpus", str(corpus / "source.txt"),
    ]
    assert _run(capsys, sweep)[0] == 0
    assert len(trained) == 2


def test_lfm_keeps_only_the_lm_counts_its_hypotheses_query(
    corpus, capsys, monkeypatch, model_path
):
    """The LM a run trains holds, for orders 2 and up, the full LM's counts
    at exactly the keys its hypotheses query, derived here by hand: a
    context keeps <s> (padding or literal) and maps any other unknown token
    to <unk>, and a predicted token maps every unknown token to <unk>."""
    from oracles import decode_lm

    from gecmetric.formats import read_parallel_text
    from gecmetric.lfm import BOS, UNK, train_lm

    lms = []

    def recorded(*args, **kwargs):
        lms.append(train_lm(*args, **kwargs))
        return lms[-1]

    monkeypatch.setattr(gecmetric.lfm, "train_lm", recorded)
    (corpus / "lm.txt").write_text(SOURCE + REF2, encoding="utf-8")
    argv = [
        "score", "--metric", "lfm", "--model", str(model_path),
        "--lm-corpus", str(corpus / "lm.txt"), "--wordlist", str(corpus / "words.txt"),
    ]
    assert _run(capsys, argv + _hyp_args(corpus))[0] == 0
    [scoped] = lms
    full = train_lm(read_parallel_text(corpus / "lm.txt"))
    order = full.order
    assert (scoped.numbers, scoped.total_tokens) == (full.numbers, full.total_tokens)
    vocab, full_grams, full_contexts = decode_lm(full)
    _, scoped_grams, scoped_contexts = decode_lm(scoped)
    contexts = {k: set() for k in range(2, order + 1)}
    grams = {k: set() for k in range(2, order + 1)}
    for name in ("a.txt", "b.txt", "c.txt"):
        for hyp in read_parallel_text(corpus / name):
            known = [t if t == BOS or t in vocab else UNK for t in hyp.tokens]
            padded = (BOS,) * (order - 1) + tuple(known)
            for i, token in enumerate(hyp.tokens, order - 1):
                for k in range(2, order + 1):
                    context = padded[i - k + 1 : i]
                    contexts[k].add(context)
                    grams[k].add(context + (token if token in vocab else UNK,))
    for k in range(2, order + 1):
        for got, counts, queried in (
            (scoped_contexts[k], full_contexts[k], contexts[k]),
            (scoped_grams[k], full_grams[k], grams[k]),
        ):
            assert set(got) <= queried
            assert dict(got) == {key: n for key, n in counts.items() if key in queried}
    assert dict(scoped.ngram_counts[1]) == dict(full.ngram_counts[1])

    def stored(lm):
        return sum(
            len(lm.context_counts[k]) + len(lm.ngram_counts[k])
            for k in range(2, order + 1)
        )

    assert stored(scoped) < stored(full)


def test_fluency_metrics_featurize_each_distinct_hypothesis_once(
    corpus, capsys, monkeypatch, model_path
):
    """lfm featurizes each of the 7 distinct (sentence, hypothesis) pairs
    of the 9 once, all in one batch, and errorcount runs its detectors
    once on each."""
    from gecmetric import grammaticality

    batches = _count_calls(monkeypatch, gecmetric.lfm, "featurize_many")
    runs = _count_calls(monkeypatch, grammaticality.DetectorSuite, "run_many")
    lfm = [
        "score", "--metric", "lfm", "--model", str(model_path),
        "--lm-corpus", str(corpus / "source.txt"),
        "--wordlist", str(corpus / "words.txt"),
    ]
    assert _run(capsys, lfm + _hyp_args(corpus))[0] == 0
    assert [len(args[0]) for args in batches] == [7]
    errorcount = ["score", "--metric", "errorcount", "--wordlist", str(corpus / "words.txt")]
    assert _run(capsys, errorcount + _hyp_args(corpus))[0] == 0
    assert sum(len(args[1]) for args in runs) == 7


def test_lfm_reads_its_hypotheses_once(corpus, capsys, monkeypatch, model_path):
    """The LM is trained for the batch it then featurizes, and the batch
    is read once, for both: one ``_read`` and one build of its n-gram code
    columns (the corpus's own build, with ``known`` as ``last``, is not
    counted)."""
    reads = _count_calls(monkeypatch, gecmetric.lfm, "_read")
    codes = _count_calls(monkeypatch, gecmetric.lfm, "_ngram_codes")
    lfm = [
        "score", "--metric", "lfm", "--model", str(model_path),
        "--lm-corpus", str(corpus / "source.txt"),
        "--wordlist", str(corpus / "words.txt"),
    ]
    assert _run(capsys, lfm + _hyp_args(corpus))[0] == 0
    assert len(reads) == 1
    assert len([args for args in codes if args[0] is not args[1]]) == 1


# ---------------------------------------------------------------------------
# malformed input: exit 1, 2 or 3 with one line on stderr, and no report

# The CLI runs as its own process with its own logging, so that a
# traceback from any thread, or any log line besides the error, reaches
# stderr.
BAD_UTF8 = b"the cat sat.\nan \xff apple.\nhe goes home.\n"
# two equal feature columns: with alpha 0 the ridge system is singular
SINGULAR_TSV = "a\tb\ttarget\n1\t1\t0.1\n2\t2\t0.4\n3\t3\t0.2\n5\t5\t0.9\n"
# a noop line that names annotator -1
NEGATIVE_M2 = "S the cat sat.\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||-1\n"
# one annotator's edits (0,2) and (1,3) share the token at 1
OVERLAP_M2 = (
    "S the cat sat.\n"
    "A 0 2|||X|||A dog|||REQUIRED|||-NONE-|||0\n"
    "A 1 3|||X|||ran|||REQUIRED|||-NONE-|||0\n"
)
# an edit ending past the source's three tokens
BEYOND_M2 = "S the cat sat.\nA 2 4|||X|||sat|||REQUIRED|||-NONE-|||0\n"

_A = ["--hyp", "a={d}/a.txt"]
_CHECK = ["check", "--input", "{d}/a.txt", "--checker-timeout", "2", "--checker"]

MALFORMED = {
    "utf8-hyp": ["score", "--metric", "errorcount", "--wordlist", "{d}/words.txt",
                 "--hyp", "x={d}/bad.txt"],
    "utf8-source": ["score", "--metric", "gleu", "--source", "{d}/bad.txt",
                    "--ref", "{d}/ref1.txt", *_A],
    "utf8-ref": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                 "--ref", "{d}/bad.txt", *_A],
    "utf8-m2": ["score", "--metric", "m2", "--m2", "{d}/bad.txt", *_A],
    "utf8-human": ["correlate", "--metric", "errorcount", "--wordlist", "{d}/words.txt",
                   "--human", "{d}/bad.txt", *_A],
    "human-empty-id": ["correlate", "--metric", "errorcount", "--wordlist",
                       "{d}/words.txt", "--human", "{d}/empty-id.tsv", *_A],
    "utf8-wordlist": ["score", "--metric", "errorcount", "--wordlist", "{d}/bad.txt", *_A],
    "utf8-lm-corpus": ["score", "--metric", "lfm", "--model", "{d}/model.json",
                       "--lm-corpus", "{d}/bad.txt", "--wordlist", "{d}/words.txt", *_A],
    "utf8-train": ["train-lfm", "--train", "{d}/bad.txt"],
    # an LM without tokens would score every hypothesis 1.0
    "lm-corpus-empty": ["score", "--metric", "lfm", "--model", "{d}/model.json",
                        "--lm-corpus", "{d}/empty.txt", "--wordlist", "{d}/words.txt", *_A],
    "lm-corpus-blank-lines": ["score", "--metric", "lfm", "--model", "{d}/model.json",
                              "--lm-corpus", "{d}/blank.txt", "--wordlist",
                              "{d}/words.txt", *_A],
    "sweep-lm-corpus-empty": [
        "sweep", "--fluency-metric", "lfm", "--reference-metric", "gleu",
        "--model", "{d}/model.json", "--lm-corpus", "{d}/empty.txt",
        "--wordlist", "{d}/words.txt", "--human", "{d}/human.tsv",
        "--source", "{d}/source.txt", "--ref", "{d}/ref1.txt",
        "--hyp", "a={d}/a.txt", "--hyp", "b={d}/b.txt", "--hyp", "c={d}/c.txt"],
    "model-int-too-large": ["score", "--metric", "lfm", "--model", "{d}/huge.json",
                            "--lm-corpus", "{d}/source.txt", "--wordlist",
                            "{d}/words.txt", *_A],
    "model-deeply-nested": ["score", "--metric", "lfm", "--model", "{d}/deep.json",
                            "--lm-corpus", "{d}/source.txt", "--wordlist",
                            "{d}/words.txt", *_A],
    "beta-nan": ["score", "--metric", "m2", "--m2", "{d}/gold.m2", "--beta", "nan", *_A],
    "beta-inf": ["score", "--metric", "m2", "--m2", "{d}/gold.m2", "--beta", "inf", *_A],
    "beta-square-overflow": ["score", "--metric", "m2", "--m2", "{d}/gold.m2", "--beta",
                             "1e308", *_A],
    "max-n-too-large": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                        "--ref", "{d}/ref1.txt", "--max-n", "100000000000000000000", *_A],
    "iterations-too-large": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                             "--ref", "{d}/ref1.txt", "--iterations",
                             "100000000000000000000", *_A],
    # sys.maxsize: no tuple of that length or draw buffer of that size fits
    "max-n-maxsize": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                      "--ref", "{d}/ref1.txt", "--max-n", "9223372036854775807", *_A],
    "iterations-maxsize": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                           "--ref", "{d}/ref1.txt", "--iterations",
                           "9223372036854775807", *_A],
    # one past gleu.MAX_ITERATIONS: rejected before any scoring
    "iterations-above-cap": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                             "--ref", "{d}/ref1.txt", "--iterations", "10001", *_A],
    "weight-nan": ["score", "--metric", "imeasure", "--source", "{d}/source.txt",
                   "--ref", "{d}/ref1.txt", "--weight", "nan", *_A],
    # weight * tp overflows the I-measure's weighted token counts
    "weight-overflow": ["score", "--metric", "imeasure", "--source", "{d}/source.txt",
                        "--ref", "{d}/ref1.txt", "--weight", "1e308", *_A],
    "alpha-nan": ["train-lfm", "--train", "{d}/train.tsv", "--alpha", "nan"],
    "ridge-singular": ["train-lfm", "--train", "{d}/singular.tsv", "--alpha", "0"],
    "train-duplicate-names": ["train-lfm", "--train", "{d}/duplicate.tsv"],
    # a feature whose squared deviations overflow, and one whose standard
    # deviation underflows to 0
    "train-huge-feature": ["train-lfm", "--train", "{d}/huge.tsv"],
    "train-tiny-feature": ["train-lfm", "--train", "{d}/tiny.tsv"],
    # a hand-edited model that weighs one feature twice
    "model-duplicate-names": ["score", "--metric", "lfm", "--model", "{d}/duplicate.json",
                              "--lm-corpus", "{d}/source.txt", "--wordlist",
                              "{d}/words.txt", *_A],
    # a hand-edited model whose prediction overflows; clipped, it would
    # read as a score
    "model-prediction-overflows": ["score", "--metric", "lfm", "--model",
                                   "{d}/overflow.json", "--lm-corpus", "{d}/source.txt",
                                   "--wordlist", "{d}/words.txt", *_A],
    "checker-timeout-nan": ["check", "--input", "{d}/a.txt", "--checker-timeout", "nan",
                            "--checker", "{checker} plain"],
    "checker-timeout-too-large": ["check", "--input", "{d}/a.txt", "--checker-timeout",
                                  "1e10", "--checker", "{checker} plain"],
    "checker-list-id": [*_CHECK, "{checker} list-id"],
    "checker-unknown-id": [*_CHECK, "{checker} unknown-id"],
    "checker-bad-bytes": [*_CHECK, "{checker} bad-bytes"],
    "checker-bool-span": [*_CHECK, "{checker} bool-span"],
    "checker-deep-json": [*_CHECK, "{checker} deep"],
    "m2-negative-annotator": ["score", "--metric", "m2", "--m2", "{d}/negative.m2", *_A],
    "m2-overlapping-edits": ["score", "--metric", "m2", "--m2", "{d}/overlap.m2", *_A],
    "m2-span-beyond-source": ["score", "--metric", "m2", "--m2", "{d}/beyond.m2", *_A],
    "m2-without-gold": ["score", "--metric", "m2", *_A],
    "ref-too-short": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                      "--ref", "{d}/one.txt", *_A],
    "hyp-empty": ["score", "--metric", "errorcount", "--wordlist", "{d}/words.txt",
                  "--hyp", "x={d}/empty.txt"],
    "hyp-without-id": ["score", "--metric", "errorcount", "--wordlist", "{d}/words.txt",
                       "--hyp", "={d}/a.txt"],
    # ablation trials above analysis.MAX_TRIALS: rejected before any pick
    "trials-too-large": ["ablate", "--fluency-metric", "errorcount", "--wordlist",
                         "{d}/words.txt", "--reference-metric", "gleu", "--source",
                         "{d}/source.txt", "--ref", "{d}/ref1.txt", "--ref", "{d}/ref2.txt",
                         "--human", "{d}/human.tsv", "--trials", "100000000000000000000",
                         *_A, "--hyp", "b={d}/b.txt", "--hyp", "c={d}/c.txt"],
    "gaming-m2": ["sweep", "--fluency-metric", "errorcount", "--wordlist", "{d}/words.txt",
                  "--reference-metric", "m2", "--m2", "{d}/gold.m2", "--human",
                  "{d}/human.tsv", "--gaming", *_A],
    # a knob of a metric or checker the run does not use is checked all the same
    "unused-beta-nan": ["score", "--metric", "gleu", "--source", "{d}/source.txt",
                        "--ref", "{d}/ref1.txt", "--beta", "nan", *_A],
    "unused-iterations-above-cap": ["score", "--metric", "m2", "--m2", "{d}/gold.m2",
                                    "--iterations", "10001", *_A],
    "unused-max-n-negative": ["score", "--metric", "m2", "--m2", "{d}/gold.m2",
                              "--max-n", "-3", *_A],
    "unused-weight-nan": ["score", "--metric", "m2", "--m2", "{d}/gold.m2",
                          "--weight", "nan", *_A],
    "unused-max-unchanged-negative": ["score", "--metric", "imeasure", "--source",
                                      "{d}/source.txt", "--ref", "{d}/ref1.txt",
                                      "--max-unchanged", "-5", *_A],
    "unused-checker-timeout-nan": ["score", "--metric", "errorcount", "--wordlist",
                                   "{d}/words.txt", "--checker-timeout", "nan", *_A],
    "unused-checker-timeout-negative": ["check", "--input", "{d}/a.txt", "--wordlist",
                                        "{d}/words.txt", "--checker-timeout", "-1"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_with_one_line(corpus, model_path, case):
    (corpus / "bad.txt").write_bytes(BAD_UTF8)
    (corpus / "singular.tsv").write_text(SINGULAR_TSV, encoding="utf-8")
    (corpus / "negative.m2").write_text(NEGATIVE_M2, encoding="utf-8")
    (corpus / "overlap.m2").write_text(OVERLAP_M2, encoding="utf-8")
    (corpus / "beyond.m2").write_text(BEYOND_M2, encoding="utf-8")
    (corpus / "one.txt").write_text("the cat sat.\n", encoding="utf-8")
    (corpus / "empty.txt").write_text("", encoding="utf-8")
    (corpus / "blank.txt").write_text("\n \n\t\n", encoding="utf-8")
    (corpus / "empty-id.tsv").write_text("a\t1\n\t0.5\n", encoding="utf-8")
    model = json.loads(model_path.read_text(encoding="utf-8"))
    (corpus / "huge.json").write_text(json.dumps({**model, "bias": 10**400}))
    (corpus / "deep.json").write_text("[" * 200_000)
    names = model["feature_names"]
    (corpus / "duplicate.json").write_text(
        json.dumps({**model, "feature_names": [names[0], *names[:-1]]}))
    (corpus / "overflow.json").write_text(json.dumps({
        **model, "feature_names": ["token_count", "punct_ratio"], "means": [0, 0],
        "stdevs": [1e-300, 1e-300], "weights": [1e308, -1e308], "bias": 0.5}))
    (corpus / "duplicate.tsv").write_text(
        "token_count\ttoken_count\tfluency\n1\t2\t0.5\n2\t1\t0.9\n3\t3\t0.1\n",
        encoding="utf-8")
    for name, column in (("huge", ("1e300", "-1e300", "1e308")),
                         ("tiny", ("1e-300", "2e-300", "3e-300"))):
        rows = "".join(f"{v}\t{k}\t0.{k}\n" for k, v in enumerate(column, 1))
        (corpus / f"{name}.tsv").write_text(f"x\ty\tfluency\n{rows}", encoding="utf-8")
    routing = corpus / "routing.py"
    routing.write_text(ROUTING_CHECKER, encoding="utf-8")
    checker = f"{shlex.quote(sys.executable)} {shlex.quote(str(routing))}"
    out = corpus / "report.json"
    argv = [arg.format(d=corpus, checker=checker) for arg in MALFORMED[case]]
    src = Path(gecmetric.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "gecmetric", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        errors="replace",
        timeout=120,
    )
    assert proc.returncode in (1, 2, 3), proc.stderr
    if case.startswith("unused-"):  # a malformed knob is malformed data
        assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# extreme knob values

# the extremes, values a run accepts, and anything else
_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e160, 5e-324, -5e-324, 0.0, -0.0]
) | st.floats(0, 4) | st.floats()
_INTS = st.sampled_from([0, -1, 2**63, -(2**63), 10**30]) | st.integers(1, 4) | st.integers()
# a huge --max-n allocates a tuple of that length per hypothesis, and every
# --trials up to analysis.MAX_TRIALS is valid: both stay small
_KNOB_VALUES = {
    "beta": _FLOATS,
    "weight": _FLOATS,
    "checker-timeout": _FLOATS,
    "gaming-lambda": _FLOATS,
    "alpha": _FLOATS,
    "iterations": _INTS,
    "max-unchanged": _INTS,
    "max-n": st.integers(max_value=64),
    "trials": st.integers(max_value=50),
    "sizes": st.lists(_INTS, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
}
_METRIC_KNOBS = ("beta", "weight", "checker-timeout", "iterations", "max-unchanged", "max-n")
_REFS = ["--source", "{d}/source.txt", "--ref", "{d}/ref1.txt", "--ref", "{d}/ref2.txt"]
_HYPS = ["--hyp", "a={d}/a.txt", "--hyp", "b={d}/b.txt", "--hyp", "c={d}/c.txt"]
_INPUTS = {"gleu": _REFS, "imeasure": _REFS, "m2": ["--m2", "{d}/gold.m2"]}
_SWEEP = ["--fluency-metric", "errorcount", "--wordlist", "{d}/words.txt",
          "--human", "{d}/human.tsv", *_REFS, *_HYPS, "--reference-metric"]
# each command and the knobs it takes
_KNOB_COMMANDS = {
    **{
        f"{command}-{metric}": (
            [command, "--metric", metric, *inputs, *_HYPS]
            + (["--human", "{d}/human.tsv"] if command == "correlate" else []),
            _METRIC_KNOBS,
        )
        for command in ("score", "correlate")
        for metric, inputs in _INPUTS.items()
    },
    **{
        f"sweep-{metric}": (["sweep", "--gaming", *_SWEEP, metric],
                            (*_METRIC_KNOBS, "gaming-lambda"))
        for metric in ("gleu", "imeasure")
    },
    **{
        f"ablate-{metric}": (["ablate", *_SWEEP, metric], (*_METRIC_KNOBS, "trials", "sizes"))
        for metric in ("gleu", "imeasure")
    },
    "train-lfm": (["train-lfm", "--train", "{d}/train.tsv"], ("alpha",)),
}


@st.composite
def _knob_runs(draw):
    argv, knobs = _KNOB_COMMANDS[draw(st.sampled_from(sorted(_KNOB_COMMANDS)))]
    argv = list(argv)
    for knob in draw(st.permutations(knobs))[: draw(st.integers(1, 2))]:
        value = draw(_KNOB_VALUES[knob])
        argv.append(f"--{knob}={value!r}" if isinstance(value, float) else f"--{knob}={value}")
    return argv


def _floats_in(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [v for item in doc for v in _floats_in(item)]
    return [doc] if isinstance(doc, float) else []


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_knob_runs())
def test_an_extreme_knob_exits_cleanly_or_reports_finite_numbers(
    corpus, model_path, capsys, caplog, argv
):
    """Every knob value either fails with one line and no report, or gives
    a report of finite numbers. The inputs are only read, so the examples
    share one corpus."""
    out = corpus / "fuzz.json"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code = main([arg.format(d=corpus) for arg in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.splitlines() + [
            line for r in caplog.records for line in r.getMessage().splitlines()
        ]
        assert len(lines) == 1, lines
        assert "Traceback" not in err
        assert not out.exists()
    else:
        assert all(map(math.isfinite, _floats_in(json.loads(out.read_text()))))


# ---------------------------------------------------------------------------
# malformed input files

# cells that parse as finite numbers, extremes included, and cells that
# are non-finite, huge integers or not numbers at all
_GOOD_CELLS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-(10**30), 10**30).map(str)
               | st.sampled_from(["1e200", "-1e200", "1e-170", "1e-300", "-0", "0"]))
_BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e400", "1" + "0" * 400, "0x10", "",
                              " ", "x", "1_0"])
_TOKENS = st.sampled_from(["the", "cat", "sat", "on", "mat", ".", "He", "\u00e9", "|||", "-NONE-"])
_LINE_TOKENS = st.lists(_TOKENS, max_size=6).map(" ".join)


@st.composite
def _file_bytes(draw, lines):
    """``lines`` as a file, with blank lines, CRLF, a BOM, U+2028, a
    byte that is not UTF-8 or a cut end mixed in."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["\n", ""]))
    if draw(st.integers(0, 5)) == 0:
        text = "\ufeff" + text
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\u2028" + text[at:]
    data = text.encode("utf-8")
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00"])) + data[at:]
    if draw(st.integers(0, 5)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return data


@st.composite
def _table(draw, rows):
    """``rows`` of cells, one of them maybe bad and one row maybe of the
    wrong width."""
    rows = [list(row) for row in rows]
    if draw(st.integers(0, 2)) == 0:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_CELLS)
    if draw(st.integers(0, 5)) == 0:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    return ["\t".join(row) for row in rows]


@st.composite
def _human_lines(draw):
    more = draw(st.sampled_from([[], [], [], ["d"], [""]]))
    ids = draw(st.permutations(["a", "b", "c", *more]))
    return draw(_table([(sid, draw(_GOOD_CELLS)) for sid in ids]))


@st.composite
def _training_lines(draw):
    width = draw(st.integers(2, 4))
    header = [f"f{k}" for k in range(width - 1)] + ["fluency"]
    rows = draw(st.lists(st.lists(_GOOD_CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=5))
    return ["\t".join(header)] + draw(_table(rows))


# mostly the fixture corpus's 3 sentences
_LINE_COUNTS = st.sampled_from([3, 3, 3, 1, 2, 4])
_SPAN_INTS = st.integers(-2, 7) | st.sampled_from([10**20, -(10**20)])


@st.composite
def _m2_lines(draw):
    lines = []
    for _ in range(draw(_LINE_COUNTS)):
        lines.append("S " + draw(_LINE_TOKENS))
        for _ in range(draw(st.integers(0, 3))):
            start, end, annotator = draw(_SPAN_INTS), draw(_SPAN_INTS), draw(_SPAN_INTS)
            correction = draw(_LINE_TOKENS | st.just("-NONE-"))
            category = draw(st.sampled_from(["X", "noop"]))
            fields = [f"A {start} {end}", category, correction, "REQUIRED", "-NONE-",
                      str(annotator)]
            # about one line in seven loses fields
            lines.append("|||".join(fields[: draw(st.integers(0, 40))]))
        lines.append("")
    return lines


# odd model fields: extremes, and values of the wrong type
_ODD_MODEL_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, 5e-324, 0.0, 10**400, "1", None, [1.0]])


@st.composite
def _model_lines(draw):
    """A model JSON file; about one field in ten is NaN, huge, of the
    wrong type, of the wrong length or missing."""

    def odd():
        return draw(st.integers(0, 9)) == 0

    def value():
        return draw(_ODD_MODEL_VALUES if odd() else st.floats(0.5, 3))

    names = draw(st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, max_size=3, unique=True))
    doc = {"format_version": draw(st.sampled_from([2, "1"])) if odd() else 1,
           "feature_names": names}
    for field in ("means", "stdevs", "weights"):
        doc[field] = [value() for _ in range(len(names) + odd())]
    doc["bias"], doc["alpha"] = value(), value()
    for field in list(doc):
        if odd():
            del doc[field]
    return json.dumps(doc, indent=1).split("\n")


_TEXT_ROLES = {"source": "source.txt", "ref": "ref1.txt", "hyp": "a.txt",
               "lm-corpus": "source.txt", "wordlist": "words.txt", "model": "model.json"}
_FLUENCY = {"errorcount": ["--wordlist", "{d}/words.txt"],
            "lfm": ["--model", "{d}/model.json", "--lm-corpus", "{d}/source.txt",
                    "--wordlist", "{d}/words.txt"]}


@st.composite
def _file_runs(draw):
    """A command line that reads one generated file, and that file."""
    kind = draw(st.sampled_from(["human", "train", "m2", "source", "ref", "hyp",
                                 "lm-corpus", "wordlist", "model"]))
    hyps = ["--hyp", "a={d}/a.txt", "--hyp", "b={d}/b.txt", "--hyp", "c={d}/c.txt"]
    refs = ["--source", "{d}/source.txt", "--ref", "{d}/ref1.txt", "--ref", "{d}/ref2.txt"]
    if kind == "human":
        lines = draw(_human_lines())
        argv = ["correlate", "--metric", "gleu", *refs, *hyps, "--human", "{f}"]
    elif kind == "train":
        lines = draw(_training_lines())
        argv = ["train-lfm", "--train", "{f}"] + draw(st.sampled_from([[], ["--no-standardize"]]))
    elif kind == "m2":
        lines = draw(_m2_lines())
        argv = ["score", "--metric", "m2", "--m2", "{f}", "--hyp", "a={d}/a.txt"]
    elif kind in ("lm-corpus", "wordlist", "model"):
        if kind == "model":
            lines = draw(_model_lines())
        else:  # a corpus of any size, or words one to a line
            size = draw(st.integers(0, 4)) if kind == "lm-corpus" else 6
            lines = [draw(_LINE_TOKENS if kind == "lm-corpus" else _TOKENS) for _ in range(size)]
        metric = "errorcount" if kind == "wordlist" and draw(st.booleans()) else "lfm"
        argv = ["score", "--metric", metric, *_FLUENCY[metric], *hyps]
        argv = [arg.replace("{d}/" + _TEXT_ROLES[kind], "{f}") for arg in argv]
    else:
        lines = [draw(_LINE_TOKENS) for _ in range(draw(_LINE_COUNTS))]
        metric = draw(st.sampled_from(["gleu", "imeasure"]))
        argv = ["score", "--metric", metric, *refs, *hyps]
        argv = [arg.replace("{d}/" + _TEXT_ROLES[kind], "{f}") for arg in argv]
    return argv, draw(_file_bytes(lines))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_file_runs())
def test_a_malformed_input_file_exits_cleanly(corpus, model_path, capsys, caplog, run):
    """Every generated input file either fails with one line, no traceback
    and no output file, or gives an output of finite numbers."""
    argv, data = run
    path, out = corpus / "fuzzed.txt", corpus / "fuzz.json"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    capsys.readouterr()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gecmetric"):
        code = main([arg.format(d=corpus, f=path) for arg in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.splitlines() + [
            line for r in caplog.records for line in r.getMessage().splitlines()
        ]
        assert len(lines) == 1, lines
        assert "Traceback" not in err
        assert not out.exists()
    else:
        assert all(map(math.isfinite, _floats_in(json.loads(out.read_text()))))
